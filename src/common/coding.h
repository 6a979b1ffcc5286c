#ifndef AURORA_COMMON_CODING_H_
#define AURORA_COMMON_CODING_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "common/slice.h"

namespace aurora {

/// Little-endian fixed-width and varint encodings used by the log record,
/// page, and message wire formats. All encoders append to a std::string;
/// all decoders read from a Slice and advance it, returning false on
/// malformed/truncated input (never crashing on corrupt bytes).

inline void PutFixed16(std::string* dst, uint16_t v) {
  char buf[2];
  memcpy(buf, &v, 2);
  dst->append(buf, 2);
}

inline void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  memcpy(buf, &v, 4);
  dst->append(buf, 4);
}

inline void PutFixed64(std::string* dst, uint64_t v) {
  char buf[8];
  memcpy(buf, &v, 8);
  dst->append(buf, 8);
}

inline void EncodeFixed32(char* dst, uint32_t v) { memcpy(dst, &v, 4); }
inline void EncodeFixed64(char* dst, uint64_t v) { memcpy(dst, &v, 8); }

inline uint16_t DecodeFixed16(const char* p) {
  uint16_t v;
  memcpy(&v, p, 2);
  return v;
}
inline uint32_t DecodeFixed32(const char* p) {
  uint32_t v;
  memcpy(&v, p, 4);
  return v;
}
inline uint64_t DecodeFixed64(const char* p) {
  uint64_t v;
  memcpy(&v, p, 8);
  return v;
}

bool GetFixed16(Slice* input, uint16_t* value);
bool GetFixed32(Slice* input, uint32_t* value);
bool GetFixed64(Slice* input, uint64_t* value);

/// LEB128-style varints (max 10 bytes for 64-bit).
void PutVarint32(std::string* dst, uint32_t v);
void PutVarint64(std::string* dst, uint64_t v);
/// Writes `v` at `dst` (room for five bytes) and returns the byte after it.
char* EncodeVarint32(char* dst, uint32_t v);

/// The general decoders, for varints of two bytes or more (and for
/// truncated input); GetVarint32/GetVarint64 below handle one byte inline.
bool GetVarint32Slow(Slice* input, uint32_t* value);
bool GetVarint64Slow(Slice* input, uint64_t* value);

// Every key and value length on a page, and most length prefixes in a log
// record, fit in one byte, so the common case decodes without a call.
inline bool GetVarint32(Slice* input, uint32_t* value) {
  if (!input->empty() && static_cast<unsigned char>((*input)[0]) < 0x80) {
    *value = static_cast<unsigned char>((*input)[0]);
    input->remove_prefix(1);
    return true;
  }
  return GetVarint32Slow(input, value);
}

inline bool GetVarint64(Slice* input, uint64_t* value) {
  if (!input->empty() && static_cast<unsigned char>((*input)[0]) < 0x80) {
    *value = static_cast<unsigned char>((*input)[0]);
    input->remove_prefix(1);
    return true;
  }
  return GetVarint64Slow(input, value);
}

/// Length-prefixed byte strings: varint32 length followed by the bytes.
void PutLengthPrefixedSlice(std::string* dst, const Slice& value);
bool GetLengthPrefixedSlice(Slice* input, Slice* result);

/// Number of bytes PutVarint64 would emit for `v`.
int VarintLength(uint64_t v);

}  // namespace aurora

#endif  // AURORA_COMMON_CODING_H_
