#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace aurora::crc32c {

namespace {

// Table generated at compile time from the Castagnoli polynomial (reflected
// form 0x82F63B78).
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

// Bytes per stream of the three-stream kernel; a block is three streams.
constexpr size_t kStream = 256;
constexpr size_t kBlock = 3 * kStream;

// The raw register after kStream zero bytes, by the table loop.
constexpr uint32_t ShiftByStreamPortable(uint32_t crc) {
  for (size_t i = 0; i < kStream; ++i) crc = kTable.t[crc & 0xFF] ^ (crc >> 8);
  return crc;
}

// Appending zero bytes is linear over GF(2) in the register, so the
// operator is four byte-indexed tables: t[k][b] is the shift of b << 8k.
// Built from the 32 one-bit registers with the table loop above, at
// compile time: no `crc32` instruction runs before kHaveSse42 is known.
struct ShiftTable {
  std::array<std::array<uint32_t, 256>, 4> t;
  constexpr ShiftTable() : t{} {
    std::array<uint32_t, 32> bit{};
    for (int i = 0; i < 32; ++i) bit[i] = ShiftByStreamPortable(1u << i);
    for (int k = 0; k < 4; ++k) {
      for (uint32_t b = 0; b < 256; ++b) {
        uint32_t v = 0;
        for (int j = 0; j < 8; ++j) {
          if ((b >> j) & 1) v ^= bit[8 * k + j];
        }
        t[k][b] = v;
      }
    }
  }
};

constexpr ShiftTable kShift;

uint32_t Shift(uint32_t crc) {
  return kShift.t[0][crc & 0xFF] ^ kShift.t[1][(crc >> 8) & 0xFF] ^
         kShift.t[2][(crc >> 16) & 0xFF] ^ kShift.t[3][crc >> 24];
}

#if defined(__x86_64__)
uint64_t Load64(const unsigned char* p) {
  uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

// The SSE4.2 `crc32` instruction computes the same reflected Castagnoli CRC
// as the table, 8 bytes per instruction. Operates on the raw (pre- and
// post-inverted) register, like the table loop. One chain is bound by the
// instruction's latency, so each 768-byte block runs three independent
// chains over its thirds and joins them with Shift; the tail runs
// as one chain.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t crc,
                                                      const unsigned char* p,
                                                      size_t n) {
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    crc = _mm_crc32_u8(crc, *p++);
    --n;
  }
  uint64_t crc64 = crc;
  for (; n >= kBlock; p += kBlock, n -= kBlock) {
    uint64_t mid = 0;
    uint64_t last = 0;
    for (size_t i = 0; i < kStream; i += 8) {
      crc64 = _mm_crc32_u64(crc64, Load64(p + i));
      mid = _mm_crc32_u64(mid, Load64(p + kStream + i));
      last = _mm_crc32_u64(last, Load64(p + 2 * kStream + i));
    }
    crc64 = Shift(Shift(static_cast<uint32_t>(crc64)) ^
                  static_cast<uint32_t>(mid)) ^
            static_cast<uint32_t>(last);
  }
  for (; n >= 8; p += 8, n -= 8) crc64 = _mm_crc32_u64(crc64, Load64(p));
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

uint32_t ShiftBy256Zeros(uint32_t crc) { return Shift(crc); }

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
