#ifndef AURORA_COMMON_CRC32C_H_
#define AURORA_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace aurora::crc32c {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41). Used for frame, log record
/// and page checksums and the storage-node scrubber (Figure 4 step 8).
/// Extend() uses the SSE4.2 `crc32` instruction when the CPU has it and a
/// table-driven loop otherwise; both produce the same values.

/// Returns the CRC of `data[0..n-1]` continuing from `init_crc`, which must
/// be the result of a previous Extend() (or 0 for a fresh computation).
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

/// The table-driven Extend(): the fallback, and the reference the hardware
/// path is tested against.
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);

/// The raw CRC register `crc` (not pre- or post-inverted) after 256 zero
/// bytes, by table lookup: the operator that joins the three streams of
/// Extend()'s hardware kernel. Exposed for tests.
uint32_t ShiftBy256Zeros(uint32_t crc);

/// CRC of `data[0..n-1]`.
inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

/// Masked CRC, RocksDB-style: storing the CRC of data that itself contains
/// CRCs can lead to coincidental collisions, so stored CRCs are masked.
constexpr uint32_t kMaskDelta = 0xa282ead8ul;

inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

inline uint32_t Unmask(uint32_t masked_crc) {
  uint32_t rot = masked_crc - kMaskDelta;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace aurora::crc32c

#endif  // AURORA_COMMON_CRC32C_H_
