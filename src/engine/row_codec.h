#ifndef AURORA_ENGINE_ROW_CODEC_H_
#define AURORA_ENGINE_ROW_CODEC_H_

#include <string>

#include "common/coding.h"
#include "common/result.h"

namespace aurora {

/// A stored row is varint32(schema version) + the user value. The version
/// stamp lets instant DDL (§7.3) leave old rows in place. The writer, the
/// read replicas and snapshot-restored tables all share this codec.
inline std::string EncodeRow(uint32_t version, const std::string& value) {
  std::string row;
  PutVarint32(&row, version);
  row += value;
  return row;
}

/// The user value of a stored row, its version stamp stripped.
inline Result<std::string> DecodeRow(const std::string& row) {
  Slice in(row);
  uint32_t version;
  if (!GetVarint32(&in, &version)) return Status::Corruption("bad row header");
  return std::string(in.data(), in.size());
}

}  // namespace aurora

#endif  // AURORA_ENGINE_ROW_CODEC_H_
