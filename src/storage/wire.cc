#include "storage/wire.h"

#include <utility>

#include "common/coding.h"

namespace aurora {

namespace {
Status Malformed(const char* what) {
  return Status::Corruption(std::string("malformed message: ") + what);
}
}  // namespace

void WriteBatchMsg::EncodeTo(std::string* dst) const {
  EncodeHeaderTo(dst);
  EncodeBody(epoch, cfg_epoch, batch_seq, vdl_hint, pgmrpl_hint, records, dst);
}

void WriteBatchMsg::EncodeHeaderTo(std::string* dst) const {
  PutVarint32(dst, pg);
  dst->push_back(static_cast<char>(replica));
}

void WriteBatchMsg::EncodeBody(Epoch epoch, uint64_t cfg_epoch,
                               uint64_t batch_seq, Lsn vdl_hint,
                               Lsn pgmrpl_hint,
                               const std::vector<LogRecord>& records,
                               std::string* dst) {
  PutVarint64(dst, epoch);
  PutVarint64(dst, cfg_epoch);
  PutVarint64(dst, batch_seq);
  PutVarint64(dst, vdl_hint);
  PutVarint64(dst, pgmrpl_hint);
  std::string blob;
  EncodeRecordBatch(records, &blob);
  PutLengthPrefixedSlice(dst, blob);
}

Status WriteBatchMsg::DecodeFrom(Slice input, WriteBatchMsg* out) {
  Slice records;
  Status s = DecodeHeader(input, Slice(), out, &records);
  if (!s.ok()) return s;
  return DecodeRecordBatch(records, &out->records);
}

Status WriteBatchMsg::DecodeHeader(Slice head, Slice body,
                                   WriteBatchHeader* out, Slice* records) {
  if (head.empty()) std::swap(head, body);  // one fragment
  uint32_t pg;
  if (!GetVarint32(&head, &pg) || head.empty()) return Malformed("batch");
  out->pg = pg;
  out->replica = static_cast<ReplicaIdx>(head[0]);
  head.remove_prefix(1);
  if (!body.empty()) {
    // True split: EncodeHeaderTo ends the header fragment exactly after the
    // replica byte, so every later field lives wholly in the body.
    if (!head.empty()) return Malformed("batch");
    head = body;
  }
  if (!GetVarint64(&head, &out->epoch) ||
      !GetVarint64(&head, &out->cfg_epoch) ||
      !GetVarint64(&head, &out->batch_seq) ||
      !GetVarint64(&head, &out->vdl_hint) ||
      !GetVarint64(&head, &out->pgmrpl_hint) ||
      !GetLengthPrefixedSlice(&head, records)) {
    return Malformed("batch");
  }
  return Status::OK();
}

void WriteAckMsg::EncodeTo(std::string* dst) const {
  PutVarint32(dst, pg);
  dst->push_back(static_cast<char>(replica));
  PutVarint64(dst, batch_seq);
  PutVarint64(dst, scl);
  dst->push_back(static_cast<char>(status_code));
  PutVarint64(dst, epoch);
  PutVarint64(dst, cfg_epoch);
}

Status WriteAckMsg::DecodeFrom(Slice input, WriteAckMsg* out) {
  uint32_t pg;
  if (!GetVarint32(&input, &pg) || input.empty()) return Malformed("ack");
  out->pg = pg;
  out->replica = static_cast<ReplicaIdx>(input[0]);
  input.remove_prefix(1);
  if (!GetVarint64(&input, &out->batch_seq) ||
      !GetVarint64(&input, &out->scl) || input.empty()) {
    return Malformed("ack");
  }
  out->status_code = static_cast<uint8_t>(input[0]);
  input.remove_prefix(1);
  if (!GetVarint64(&input, &out->epoch) ||
      !GetVarint64(&input, &out->cfg_epoch)) {
    return Malformed("ack");
  }
  return Status::OK();
}

void ReadPageReqMsg::EncodeTo(std::string* dst) const {
  PutVarint64(dst, req_id);
  PutVarint32(dst, pg);
  PutVarint64(dst, page);
  PutVarint64(dst, read_point);
  PutVarint64(dst, epoch);
  PutVarint64(dst, cfg_epoch);
  dst->push_back(tail.has_value() ? 1 : 0);
  if (tail.has_value()) PutVarint64(dst, *tail);
}

Status ReadPageReqMsg::DecodeFrom(Slice input, ReadPageReqMsg* out) {
  uint32_t pg;
  if (!GetVarint64(&input, &out->req_id) || !GetVarint32(&input, &pg) ||
      !GetVarint64(&input, &out->page) ||
      !GetVarint64(&input, &out->read_point) ||
      !GetVarint64(&input, &out->epoch) ||
      !GetVarint64(&input, &out->cfg_epoch) || input.empty()) {
    return Malformed("read req");
  }
  out->pg = pg;
  const bool has_tail = input[0] != 0;
  input.remove_prefix(1);
  out->tail.reset();
  if (has_tail) {
    Lsn tail;
    if (!GetVarint64(&input, &tail)) return Malformed("read req tail");
    out->tail = tail;
  }
  return Status::OK();
}

void ReadPageRespMsg::EncodeTo(std::string* dst) const {
  PutVarint64(dst, req_id);
  dst->push_back(static_cast<char>(status_code));
  PutVarint64(dst, page_lsn);
  PutLengthPrefixedSlice(dst, page_bytes);
}

Status ReadPageRespMsg::DecodeFrom(Slice input, ReadPageRespMsg* out) {
  if (!GetVarint64(&input, &out->req_id) || input.empty()) {
    return Malformed("read resp");
  }
  out->status_code = static_cast<uint8_t>(input[0]);
  input.remove_prefix(1);
  Slice bytes;
  if (!GetVarint64(&input, &out->page_lsn) ||
      !GetLengthPrefixedSlice(&input, &bytes)) {
    return Malformed("read resp");
  }
  out->page_bytes = bytes.ToString();
  return Status::OK();
}

void InventoryReqMsg::EncodeTo(std::string* dst) const {
  PutVarint64(dst, req_id);
  PutVarint32(dst, pg);
}

Status InventoryReqMsg::DecodeFrom(Slice input, InventoryReqMsg* out) {
  uint32_t pg;
  if (!GetVarint64(&input, &out->req_id) || !GetVarint32(&input, &pg)) {
    return Malformed("inventory req");
  }
  out->pg = pg;
  return Status::OK();
}

void InventoryRespMsg::EncodeTo(std::string* dst) const {
  PutVarint64(dst, req_id);
  PutVarint32(dst, pg);
  dst->push_back(static_cast<char>(replica));
  PutVarint64(dst, epoch);
  PutVarint64(dst, scl);
  PutVarint64(dst, vdl_hint);
  PutVarint64(dst, entries.size());
  for (const InventoryEntry& e : entries) {
    PutVarint64(dst, e.lsn);
    PutVarint64(dst, e.prev);
    PutVarint64(dst, e.vprev);
    dst->push_back(static_cast<char>(e.flags));
  }
}

Status InventoryRespMsg::DecodeFrom(Slice input, InventoryRespMsg* out) {
  uint32_t pg;
  if (!GetVarint64(&input, &out->req_id) || !GetVarint32(&input, &pg) ||
      input.empty()) {
    return Malformed("inventory resp");
  }
  out->pg = pg;
  out->replica = static_cast<ReplicaIdx>(input[0]);
  input.remove_prefix(1);
  uint64_t n;
  if (!GetVarint64(&input, &out->epoch) || !GetVarint64(&input, &out->scl) ||
      !GetVarint64(&input, &out->vdl_hint) || !GetVarint64(&input, &n)) {
    return Malformed("inventory resp");
  }
  // Each entry needs at least 4 bytes on the wire; cap the reserve so a
  // corrupt count can't drive a huge allocation before parsing fails.
  if (n > input.size() / 4) return Malformed("inventory count");
  out->entries.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    InventoryEntry e;
    if (!GetVarint64(&input, &e.lsn) || !GetVarint64(&input, &e.prev) ||
        !GetVarint64(&input, &e.vprev) || input.empty()) {
      return Malformed("inventory entry");
    }
    e.flags = static_cast<uint8_t>(input[0]);
    input.remove_prefix(1);
    out->entries.push_back(e);
  }
  return Status::OK();
}

void TruncateReqMsg::EncodeTo(std::string* dst) const {
  PutVarint64(dst, req_id);
  PutVarint32(dst, pg);
  PutVarint64(dst, epoch);
  PutVarint64(dst, truncate_above);
}

Status TruncateReqMsg::DecodeFrom(Slice input, TruncateReqMsg* out) {
  uint32_t pg;
  if (!GetVarint64(&input, &out->req_id) || !GetVarint32(&input, &pg) ||
      !GetVarint64(&input, &out->epoch) ||
      !GetVarint64(&input, &out->truncate_above)) {
    return Malformed("truncate req");
  }
  out->pg = pg;
  return Status::OK();
}

void TruncateAckMsg::EncodeTo(std::string* dst) const {
  PutVarint64(dst, req_id);
  PutVarint32(dst, pg);
  dst->push_back(static_cast<char>(replica));
  dst->push_back(static_cast<char>(status_code));
}

Status TruncateAckMsg::DecodeFrom(Slice input, TruncateAckMsg* out) {
  uint32_t pg;
  if (!GetVarint64(&input, &out->req_id) || !GetVarint32(&input, &pg) ||
      input.size() < 2) {
    return Malformed("truncate ack");
  }
  out->pg = pg;
  out->replica = static_cast<ReplicaIdx>(input[0]);
  out->status_code = static_cast<uint8_t>(input[1]);
  return Status::OK();
}

void PgmrplMsg::EncodeTo(std::string* dst) const {
  PutVarint32(dst, pg);
  PutVarint64(dst, pgmrpl);
  dst->push_back(has_snapshot ? 1 : 0);
  if (has_snapshot) {
    PutVarint64(dst, vdl_snapshot);
    PutVarint64(dst, pg_tail);
  }
}

Status PgmrplMsg::DecodeFrom(Slice input, PgmrplMsg* out) {
  uint32_t pg;
  if (!GetVarint32(&input, &pg) || !GetVarint64(&input, &out->pgmrpl) ||
      input.empty()) {
    return Malformed("pgmrpl");
  }
  out->pg = pg;
  out->has_snapshot = input[0] != 0;
  input.remove_prefix(1);
  if (out->has_snapshot &&
      (!GetVarint64(&input, &out->vdl_snapshot) ||
       !GetVarint64(&input, &out->pg_tail))) {
    return Malformed("pgmrpl snapshot");
  }
  return Status::OK();
}

void GossipPullMsg::EncodeTo(std::string* dst) const {
  PutVarint32(dst, pg);
  dst->push_back(static_cast<char>(replica));
  PutVarint64(dst, epoch);
  PutVarint64(dst, cfg_epoch);
  PutVarint64(dst, scl);
  PutVarint64(dst, max_lsn);
}

Status GossipPullMsg::DecodeFrom(Slice input, GossipPullMsg* out) {
  uint32_t pg;
  if (!GetVarint32(&input, &pg) || input.empty()) return Malformed("gossip");
  out->pg = pg;
  out->replica = static_cast<ReplicaIdx>(input[0]);
  input.remove_prefix(1);
  if (!GetVarint64(&input, &out->epoch) ||
      !GetVarint64(&input, &out->cfg_epoch) ||
      !GetVarint64(&input, &out->scl) ||
      !GetVarint64(&input, &out->max_lsn)) {
    return Malformed("gossip");
  }
  return Status::OK();
}

void GossipPushMsg::EncodeRecordsTo(PgId pg, Epoch epoch, uint64_t cfg_epoch,
                                    const std::vector<const LogRecord*>& records,
                                    std::string* dst) {
  PutVarint32(dst, pg);
  PutVarint64(dst, epoch);
  PutVarint64(dst, cfg_epoch);
  std::string blob;
  EncodeRecordBatch(records, &blob);
  PutLengthPrefixedSlice(dst, blob);
}

Status GossipPushMsg::DecodeFrom(Slice input, GossipPushMsg* out) {
  uint32_t pg;
  Slice blob;
  if (!GetVarint32(&input, &pg) || !GetVarint64(&input, &out->epoch) ||
      !GetVarint64(&input, &out->cfg_epoch) ||
      !GetLengthPrefixedSlice(&input, &blob)) {
    return Malformed("gossip push");
  }
  out->pg = pg;
  out->records = DecodeSharedRecords(blob);
  return out->records ? Status::OK() : Malformed("gossip push");
}

void ReplicaStreamMsg::EncodeTo(std::string* dst) const {
  PutVarint64(dst, vdl);
  std::string blob;
  EncodeRecordBatch(records, &blob);
  PutLengthPrefixedSlice(dst, blob);
  PutVarint64(dst, commits.size());
  for (const auto& [lsn, time] : commits) {
    PutVarint64(dst, lsn);
    PutVarint64(dst, time);
  }
}

Status ReplicaStreamMsg::DecodeFrom(Slice input, ReplicaStreamMsg* out) {
  Slice blob;
  uint64_t n;
  if (!GetVarint64(&input, &out->vdl) ||
      !GetLengthPrefixedSlice(&input, &blob) || !GetVarint64(&input, &n)) {
    return Malformed("replica stream");
  }
  Status s = DecodeRecordBatch(blob, &out->records);
  if (!s.ok()) return s;
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t lsn, time;
    if (!GetVarint64(&input, &lsn) || !GetVarint64(&input, &time)) {
      return Malformed("replica stream commit");
    }
    out->commits.emplace_back(lsn, time);
  }
  return Status::OK();
}

void ReplicaReadPointMsg::EncodeTo(std::string* dst) const {
  PutVarint64(dst, read_point);
}

Status ReplicaReadPointMsg::DecodeFrom(Slice input, ReplicaReadPointMsg* out) {
  if (!GetVarint64(&input, &out->read_point)) {
    return Malformed("replica read point");
  }
  return Status::OK();
}

void SegmentStateReqMsg::EncodeTo(std::string* dst) const {
  PutVarint64(dst, req_id);
  PutVarint32(dst, pg);
}

Status SegmentStateReqMsg::DecodeFrom(Slice input, SegmentStateReqMsg* out) {
  uint32_t pg;
  if (!GetVarint64(&input, &out->req_id) || !GetVarint32(&input, &pg)) {
    return Malformed("segment state req");
  }
  out->pg = pg;
  return Status::OK();
}

void SegmentStateRespMsg::EncodeTo(std::string* dst) const {
  PutVarint64(dst, req_id);
  PutVarint32(dst, pg);
  PutLengthPrefixedSlice(dst, state);
}

Status SegmentStateRespMsg::DecodeFrom(Slice input, SegmentStateRespMsg* out) {
  uint32_t pg;
  Slice state;
  if (!GetVarint64(&input, &out->req_id) || !GetVarint32(&input, &pg) ||
      !GetLengthPrefixedSlice(&input, &state)) {
    return Malformed("segment state resp");
  }
  out->pg = pg;
  out->state = state.ToString();
  return Status::OK();
}

void SegmentChunkReqMsg::EncodeTo(std::string* dst) const {
  PutVarint64(dst, req_id);
  PutVarint32(dst, pg);
  PutVarint32(dst, chunk_index);
  PutVarint32(dst, chunk_bytes);
}

Status SegmentChunkReqMsg::DecodeFrom(Slice input, SegmentChunkReqMsg* out) {
  uint32_t pg;
  if (!GetVarint64(&input, &out->req_id) || !GetVarint32(&input, &pg) ||
      !GetVarint32(&input, &out->chunk_index) ||
      !GetVarint32(&input, &out->chunk_bytes)) {
    return Malformed("segment chunk req");
  }
  out->pg = pg;
  return Status::OK();
}

void SegmentChunkRespMsg::EncodeTo(std::string* dst) const {
  PutVarint64(dst, req_id);
  PutVarint32(dst, pg);
  PutVarint32(dst, chunk_index);
  PutVarint32(dst, total_chunks);
  PutVarint64(dst, total_bytes);
  PutVarint32(dst, blob_crc);
  PutVarint32(dst, chunk_crc);
  PutLengthPrefixedSlice(dst, data);
}

Status SegmentChunkRespMsg::DecodeFrom(Slice input, SegmentChunkRespMsg* out) {
  uint32_t pg;
  Slice data;
  if (!GetVarint64(&input, &out->req_id) || !GetVarint32(&input, &pg) ||
      !GetVarint32(&input, &out->chunk_index) ||
      !GetVarint32(&input, &out->total_chunks) ||
      !GetVarint64(&input, &out->total_bytes) ||
      !GetVarint32(&input, &out->blob_crc) ||
      !GetVarint32(&input, &out->chunk_crc) ||
      !GetLengthPrefixedSlice(&input, &data)) {
    return Malformed("segment chunk resp");
  }
  out->pg = pg;
  out->data = data.ToString();
  return Status::OK();
}

}  // namespace aurora
