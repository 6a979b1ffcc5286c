#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace aurora::crc32c {

namespace {

// Table generated at startup from the Castagnoli polynomial (reflected form
// 0x82F63B78). Trivially-destructible array, constant-initialized lazily via
// a function-local static.
struct Table {
  std::array<uint32_t, 256> t;
  constexpr Table() : t{} {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int j = 0; j < 8; ++j) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0);
      }
      t[i] = crc;
    }
  }
};

constexpr Table kTable;

#if defined(__x86_64__)
// The SSE4.2 `crc32` instruction computes the same reflected Castagnoli CRC
// as the table, 8 bytes per instruction. Operates on the raw (pre- and
// post-inverted) register, like the table loop.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t crc,
                                                      const unsigned char* p,
                                                      size_t n) {
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    crc = _mm_crc32_u8(crc, *p++);
    --n;
  }
  uint64_t crc64 = crc;
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc64 = _mm_crc32_u64(crc64, word);
    p += 8;
    n -= 8;
  }
  crc = static_cast<uint32_t>(crc64);
  while (n > 0) {
    crc = _mm_crc32_u8(crc, *p++);
    --n;
  }
  return crc;
}

// Static initializers may run before libgcc's own CPU probe.
const bool kHaveSse42 = [] {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2") != 0;
}();
#endif

}  // namespace

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  uint32_t crc = init_crc ^ 0xFFFFFFFFu;
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    crc = kTable.t[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
#if defined(__x86_64__)
  if (kHaveSse42) {
    return ExtendSse42(init_crc ^ 0xFFFFFFFFu,
                       reinterpret_cast<const unsigned char*>(data), n) ^
           0xFFFFFFFFu;
  }
#endif
  return ExtendPortable(init_crc, data, n);
}

}  // namespace aurora::crc32c
