#include "log/log_record.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/logging.h"

namespace aurora {

namespace {

// Wire layout:
//   fixed32  masked crc of everything after this field
//   varint64 lsn
//   varint64 prev_pg_lsn
//   varint64 page_id
//   varint64 txn_id
//   uint8    op
//   uint8    flags
//   length-prefixed payload
size_t BodySize(const RecordView& r) {
  return static_cast<size_t>(VarintLength(r.lsn)) + VarintLength(r.prev_pg_lsn) +
         VarintLength(r.prev_vol_lsn) + VarintLength(r.page_id) +
         VarintLength(r.txn_id) + 2 + VarintLength(r.payload.size()) +
         r.payload.size();
}

// What `in` frames, up to the first malformed record, read off the record
// headers unchecked (DecodeFrom checks): a decode then allocates once per
// array, at its exact size.
struct BatchShape {
  size_t records = 0;
  size_t payload_bytes = 0;
};
BatchShape MeasureRecords(Slice in) {
  BatchShape shape;
  uint32_t crc;
  uint64_t v;  // lsn, both backlinks, page, txn
  Slice payload;
  while (GetFixed32(&in, &crc) && GetVarint64(&in, &v) &&
         GetVarint64(&in, &v) && GetVarint64(&in, &v) &&
         GetVarint64(&in, &v) && GetVarint64(&in, &v) && in.size() >= 2) {
    in.remove_prefix(2);  // op, flags
    if (!GetLengthPrefixedSlice(&in, &payload)) break;
    ++shape.records;
    shape.payload_bytes += payload.size();
  }
  return shape;
}

}  // namespace

size_t RecordView::EncodedSize() const { return 4 + BodySize(*this); }

void RecordView::EncodeTo(std::string* dst) const {
  size_t crc_pos = dst->size();
  PutFixed32(dst, 0);  // placeholder
  size_t body_pos = dst->size();
  PutVarint64(dst, lsn);
  PutVarint64(dst, prev_pg_lsn);
  PutVarint64(dst, prev_vol_lsn);
  PutVarint64(dst, page_id);
  PutVarint64(dst, txn_id);
  dst->push_back(static_cast<char>(op));
  dst->push_back(static_cast<char>(flags));
  PutLengthPrefixedSlice(dst, payload);
  uint32_t crc = crc32c::Value(dst->data() + body_pos, dst->size() - body_pos);
  EncodeFixed32(dst->data() + crc_pos, crc32c::Mask(crc));
}

Status RecordView::DecodeFrom(Slice* input, RecordView* out) {
  uint32_t masked_crc;
  if (!GetFixed32(input, &masked_crc)) {
    return Status::Corruption("log record truncated (crc)");
  }
  const char* body_start = input->data();
  uint64_t lsn, prev, vprev, page, txn;
  if (!GetVarint64(input, &lsn) || !GetVarint64(input, &prev) ||
      !GetVarint64(input, &vprev) || !GetVarint64(input, &page) ||
      !GetVarint64(input, &txn)) {
    return Status::Corruption("log record truncated (header)");
  }
  if (input->size() < 2) return Status::Corruption("log record truncated (op)");
  auto op = static_cast<RedoOp>((*input)[0]);
  auto flags = static_cast<uint8_t>((*input)[1]);
  input->remove_prefix(2);
  Slice payload;
  if (!GetLengthPrefixedSlice(input, &payload)) {
    return Status::Corruption("log record truncated (payload)");
  }
  size_t body_len = static_cast<size_t>(input->data() - body_start);
  uint32_t crc = crc32c::Value(body_start, body_len);
  if (crc32c::Unmask(masked_crc) != crc) {
    return Status::Corruption("log record crc mismatch");
  }
  if (!IsRedoOp(static_cast<uint8_t>(op))) {
    return Status::Corruption("log record has an unknown op");
  }
  out->lsn = lsn;
  out->prev_pg_lsn = prev;
  out->prev_vol_lsn = vprev;
  out->page_id = page;
  out->txn_id = txn;
  out->op = op;
  out->flags = flags;
  out->payload = payload;
  return Status::OK();
}

Status LogRecord::DecodeFrom(Slice* input, LogRecord* out) {
  RecordView r;
  Status s = RecordView::DecodeFrom(input, &r);
  if (s.ok()) *out = LogRecord(r);
  return s;
}

std::string LogRecord::MakeFormatPayload(uint8_t page_type, uint8_t level) {
  std::string p;
  p.push_back(static_cast<char>(page_type));
  p.push_back(static_cast<char>(level));
  return p;
}

std::string LogRecord::MakeKeyValuePayload(const Slice& key,
                                           const Slice& value) {
  std::string p;
  AppendListEntry(&p, key, value);
  return p;
}

std::string LogRecord::MakeKeyPayload(const Slice& key) {
  std::string p;
  PutLengthPrefixedSlice(&p, key);
  return p;
}

std::string LogRecord::MakePageIdPayload(PageId id) {
  std::string p;
  PutVarint64(&p, id);
  return p;
}

std::string LogRecord::MakeVersionPayload(uint32_t version) {
  std::string p;
  PutVarint32(&p, version);
  return p;
}

void LogRecord::AppendListEntry(std::string* payload, const Slice& key,
                                const Slice& value) {
  PutLengthPrefixedSlice(payload, key);
  PutLengthPrefixedSlice(payload, value);
}

Status RecordView::GetFormat(uint8_t* page_type, uint8_t* level) const {
  if (payload.size() < 2) return Status::Corruption("bad format payload");
  *page_type = static_cast<uint8_t>(payload[0]);
  *level = static_cast<uint8_t>(payload[1]);
  return Status::OK();
}

Status RecordView::GetKeyValue(Slice* key, Slice* value) const {
  Slice in = payload;
  return LogRecord::GetListEntry(&in, key, value);
}

Status LogRecord::GetListEntry(Slice* list, Slice* key, Slice* value) {
  if (!GetLengthPrefixedSlice(list, key) ||
      !GetLengthPrefixedSlice(list, value)) {
    return Status::Corruption("bad key/value payload");
  }
  return Status::OK();
}

Status RecordView::GetKey(Slice* key) const {
  Slice in = payload;
  if (!GetLengthPrefixedSlice(&in, key)) {
    return Status::Corruption("bad key payload");
  }
  return Status::OK();
}

Status RecordView::GetPageId(PageId* id) const {
  Slice in = payload;
  uint64_t v;
  if (!GetVarint64(&in, &v)) return Status::Corruption("bad page id payload");
  *id = v;
  return Status::OK();
}

Status RecordView::GetVersion(uint32_t* version) const {
  Slice in = payload;
  if (!GetVarint32(&in, version)) {
    return Status::Corruption("bad version payload");
  }
  return Status::OK();
}

void EncodeRecordBatch(const std::vector<LogRecord>& records,
                       std::string* dst) {
  for (const LogRecord& r : records) r.EncodeTo(dst);
}

void EncodeRecordBatch(std::span<const RecordView> records, std::string* dst) {
  for (const RecordView& r : records) r.EncodeTo(dst);
}

Status DecodeRecordBatch(Slice input, std::vector<LogRecord>* out) {
  out->reserve(out->size() + MeasureRecords(input).records);
  while (!input.empty()) {
    LogRecord r;
    Status s = LogRecord::DecodeFrom(&input, &r);
    if (!s.ok()) return s;
    out->push_back(std::move(r));
  }
  return Status::OK();
}

RecordBatch::RecordBatch(Private, size_t records, size_t payload_bytes)
    // At least one byte, so that every payload views a real address.
    : arena_(new char[std::max<size_t>(payload_bytes, 1)]),
      arena_size_(payload_bytes) {
  AURORA_CHECK(payload_bytes <= std::numeric_limits<uint32_t>::max(),
               "a record batch's payloads exceed 4 GiB");
  held_.reserve(records);
}

void RecordBatch::Append(const RecordView& r) {
  AURORA_CHECK(held_.size() < held_.capacity() &&
                   r.payload.size() <= arena_size_ - arena_used_,
               "record batch overflows its measured size");
  memcpy(arena_.get() + arena_used_, r.payload.data(), r.payload.size());
  held_.push_back({.lsn = r.lsn,
                   .prev_pg_lsn = r.prev_pg_lsn,
                   .prev_vol_lsn = r.prev_vol_lsn,
                   .page_id = r.page_id,
                   .txn_id = r.txn_id,
                   .payload_offset = static_cast<uint32_t>(arena_used_),
                   .payload_size = static_cast<uint32_t>(r.payload.size()),
                   .op = r.op,
                   .flags = r.flags,
                   .prev_on_page = 0,
                   .next_on_page = 0});
  arena_used_ += r.payload.size();
}

void RecordBatch::LinkPages() {
  if (held_.size() < 2) return;
  // Each page's records, in batch order: sort (page, index) pairs.
  std::vector<std::pair<PageId, uint32_t>> by_page;
  by_page.reserve(held_.size());
  for (uint32_t i = 0; i < held_.size(); ++i) {
    by_page.emplace_back(held_[i].page_id, i);
  }
  std::sort(by_page.begin(), by_page.end());
  for (size_t k = 1; k < by_page.size(); ++k) {
    if (by_page[k].first != by_page[k - 1].first) continue;
    const uint32_t gap = by_page[k].second - by_page[k - 1].second;
    if (gap > std::numeric_limits<uint16_t>::max()) continue;
    held_[by_page[k - 1].second].next_on_page = static_cast<uint16_t>(gap);
    held_[by_page[k].second].prev_on_page = static_cast<uint16_t>(gap);
  }
}

SharedRecords ShareRecords(const std::vector<LogRecord>& records) {
  size_t payload_bytes = 0;
  for (const LogRecord& r : records) payload_bytes += r.payload.size();
  auto batch = std::make_shared<RecordBatch>(RecordBatch::Private(),
                                             records.size(), payload_bytes);
  for (const LogRecord& r : records) batch->Append(r);
  batch->LinkPages();
  return batch;
}

SharedRecords DecodeSharedRecords(Slice input) {
  const BatchShape shape = MeasureRecords(input);
  auto batch = std::make_shared<RecordBatch>(
      RecordBatch::Private(), shape.records, shape.payload_bytes);
  RecordView r;
  for (size_t i = 0; i < shape.records; ++i) {
    if (!RecordView::DecodeFrom(&input, &r).ok()) return nullptr;
    batch->Append(r);
  }
  // Bytes left over are a record the measure could not frame.
  if (!input.empty()) return nullptr;
  batch->LinkPages();
  return batch;
}

}  // namespace aurora
