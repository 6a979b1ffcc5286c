#include "common/coding.h"

namespace aurora {

bool GetFixed16(Slice* input, uint16_t* value) {
  if (input->size() < 2) return false;
  *value = DecodeFixed16(input->data());
  input->remove_prefix(2);
  return true;
}

bool GetFixed32(Slice* input, uint32_t* value) {
  if (input->size() < 4) return false;
  *value = DecodeFixed32(input->data());
  input->remove_prefix(4);
  return true;
}

bool GetFixed64(Slice* input, uint64_t* value) {
  if (input->size() < 8) return false;
  *value = DecodeFixed64(input->data());
  input->remove_prefix(8);
  return true;
}

char* EncodeVarint32(char* dst, uint32_t v) {
  while (v >= 0x80) {
    *dst++ = static_cast<char>(v | 0x80);
    v >>= 7;
  }
  *dst++ = static_cast<char>(v);
  return dst;
}

void PutVarint32(std::string* dst, uint32_t v) {
  char buf[5];
  dst->append(buf, EncodeVarint32(buf, v) - buf);
}

void PutVarint64(std::string* dst, uint64_t v) {
  unsigned char buf[10];
  int n = 0;
  while (v >= 0x80) {
    buf[n++] = static_cast<unsigned char>(v) | 0x80;
    v >>= 7;
  }
  buf[n++] = static_cast<unsigned char>(v);
  dst->append(reinterpret_cast<char*>(buf), n);
}

bool GetVarint32Slow(Slice* input, uint32_t* value) {
  uint64_t v64;
  if (!GetVarint64Slow(input, &v64) || v64 > UINT32_MAX) return false;
  *value = static_cast<uint32_t>(v64);
  return true;
}

bool GetVarint64Slow(Slice* input, uint64_t* value) {
  uint64_t result = 0;
  const char* p = input->data();
  const char* limit = p + input->size();
  for (int shift = 0; shift <= 63 && p < limit; shift += 7) {
    uint64_t byte = static_cast<unsigned char>(*p);
    ++p;
    if (byte & 0x80) {
      result |= (byte & 0x7f) << shift;
    } else {
      result |= byte << shift;
      *value = result;
      input->remove_prefix(p - input->data());
      return true;
    }
  }
  return false;
}

void PutLengthPrefixedSlice(std::string* dst, const Slice& value) {
  PutVarint32(dst, static_cast<uint32_t>(value.size()));
  dst->append(value.data(), value.size());
}

bool GetLengthPrefixedSlice(Slice* input, Slice* result) {
  uint32_t len;
  if (!GetVarint32(input, &len)) return false;
  if (input->size() < len) return false;
  *result = Slice(input->data(), len);
  input->remove_prefix(len);
  return true;
}

int VarintLength(uint64_t v) {
  int len = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++len;
  }
  return len;
}

}  // namespace aurora
