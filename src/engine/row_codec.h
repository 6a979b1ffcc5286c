#ifndef AURORA_ENGINE_ROW_CODEC_H_
#define AURORA_ENGINE_ROW_CODEC_H_

#include <string>

#include "common/coding.h"
#include "common/result.h"
#include "log/types.h"

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

/// A catalog entry on the meta page maps "tbl:" + name to the table's
/// anchor page and schema version: fixed64 anchor + fixed32 version.
inline std::string EncodeCatalogValue(PageId anchor, uint32_t version) {
  std::string v;
  PutFixed64(&v, anchor);
  PutFixed32(&v, version);
  return v;
}

inline bool DecodeCatalogValue(const Slice& v, PageId* anchor,
                               uint32_t* version) {
  if (v.size() != 12) return false;
  *anchor = DecodeFixed64(v.data());
  *version = DecodeFixed32(v.data() + 8);
  return true;
}

}  // namespace aurora

#endif  // AURORA_ENGINE_ROW_CODEC_H_
