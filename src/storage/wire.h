#ifndef AURORA_STORAGE_WIRE_H_
#define AURORA_STORAGE_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/coding.h"
#include "common/slice.h"
#include "common/status.h"
#include "log/types.h"

namespace aurora {

/// Message type tags on the simulated network. One namespace for the whole
/// system so a single dispatcher per node suffices.
enum MsgType : uint16_t {
  // Writer -> storage node.
  kMsgWriteBatch = 1,
  kMsgReadPageReq = 3,
  kMsgTruncateReq = 5,
  kMsgPgmrplUpdate = 7,
  kMsgInventoryReq = 8,
  // Storage node -> writer.
  kMsgWriteAck = 2,
  kMsgReadPageResp = 4,
  kMsgTruncateAck = 6,
  kMsgInventoryResp = 9,
  // Storage node <-> storage node.
  kMsgGossipPull = 10,
  kMsgGossipPush = 11,
  kMsgSegmentStateResp = 13,
  // Writer -> read replica instance (§4.2.4).
  kMsgReplicaLogStream = 14,
  // Replica -> writer: read-point feedback for PGMRPL (§4.2.3).
  kMsgReplicaReadPoint = 15,
  // Chunked repair transfer (replacement <-> donor, §2.2).
  kMsgSegmentChunkReq = 16,
  kMsgSegmentChunkResp = 17,
  // Baseline (mirrored MySQL over EBS) traffic.
  kMsgEbsWrite = 20,
  kMsgEbsWriteAck = 21,
  kMsgEbsRead = 22,
  kMsgEbsReadResp = 23,
  kMsgBinlogShip = 24,
  kMsgBinlogAck = 25,
  kMsgStandbyShip = 26,
  kMsgStandbyAck = 27,
};

// Every message states its format once: `Fields(f)` lists its fields in
// wire order, and wire::Encode and wire::Decode both walk that list. A
// field's C++ type picks its encoding (DESIGN.md §5.2):
//   uint8_t, bool         one byte
//   uint32_t              varint32
//   uint64_t              varint64
//   std::string, Slice    length-prefixed bytes; a decoded Slice points
//                         into the input
//   std::optional<T>      presence byte, then T
//   std::vector<T>        varint64 count, then each T
//   std::pair<A, B>       A, then B
//   a struct              its own field list
// Record batches travel as EncodeRecordBatch blobs in a Slice field.

/// Writer -> segment replica: one ordered batch of redo records for a PG
/// (Figure 3), sent as two fragments. The head holds the only fields that
/// differ between a batch's six copies; the writer encodes the body once
/// and shares it (DESIGN.md §5). Head then body is the whole message.
struct WriteBatchHead {
  PgId pg = 0;
  ReplicaIdx replica = 0;

  template <typename F>
  void Fields(F& f) { f(pg, replica); }
};

/// `vdl_hint` piggybacks the writer's current VDL so storage can bound
/// background materialization; `pgmrpl_hint` does the same for replicas'
/// read points.
struct WriteBatchBody {
  Epoch epoch = 0;
  /// The PG membership config epoch the sender believes current; storage
  /// NAKs (kStaleConfig) batches stamped below its own view, so a writer
  /// that missed a ReplaceReplica can never count an evicted host toward
  /// quorum.
  uint64_t cfg_epoch = 0;
  uint64_t batch_seq = 0;
  Lsn vdl_hint = kInvalidLsn;
  Lsn pgmrpl_hint = kInvalidLsn;
  Slice records;

  template <typename F>
  void Fields(F& f) {
    f(epoch, cfg_epoch, batch_seq, vdl_hint, pgmrpl_hint, records);
  }
};

/// The whole batch, as a storage node decodes it from both fragments.
struct WriteBatchMsg : WriteBatchHead, WriteBatchBody {
  template <typename F>
  void Fields(F& f) {
    WriteBatchHead::Fields(f);
    WriteBatchBody::Fields(f);
  }
};

/// Segment replica -> writer: batch persisted on disk (Figure 4 step 2), or
/// — when `status_code` is kFenced — rejected because the segment has seen a
/// newer volume epoch than the batch carried. `epoch` echoes the segment's
/// epoch so a fenced writer learns how far ahead the volume moved.
struct WriteAckMsg {
  PgId pg = 0;
  ReplicaIdx replica = 0;
  uint64_t batch_seq = 0;
  Lsn scl = kInvalidLsn;
  uint8_t status_code = 0;  // Status::Code: kOk, kFenced or kStaleConfig
  Epoch epoch = 0;          // the segment's current volume epoch
  /// The storage node's current view of the PG membership config epoch; on
  /// a kStaleConfig NAK this tells the writer how far behind it is.
  uint64_t cfg_epoch = 0;

  template <typename F>
  void Fields(F& f) {
    f(pg, replica, batch_seq, scl, status_code, epoch, cfg_epoch);
  }
};

/// Writer -> segment replica: serve a page as of `read_point` (§4.2.3 —
/// single-segment read, not a quorum read).
struct ReadPageReqMsg {
  uint64_t req_id = 0;
  PgId pg = 0;
  PageId page = kInvalidPage;
  Lsn read_point = kInvalidLsn;
  /// The requester's volume epoch; a segment that has seen a newer epoch
  /// answers kFenced so a zombie writer can't serve reads off stale quorum
  /// state. 0 means "unfenced" (replicas read through the stream watermark
  /// and are epoch-agnostic).
  Epoch epoch = 0;
  /// Membership config epoch of the requester's view; 0 means unenforced
  /// (read replicas route via the writer's published membership and are
  /// config-agnostic). A stale value is NAKed with kStaleConfig.
  uint64_t cfg_epoch = 0;
  /// The PG's tail at the read point: its newest record at or below
  /// `read_point` (0 for a PG never written). A segment whose SCL has
  /// reached it is complete at the read point. The writer always sends it;
  /// read replicas send none and rely on the SCL or a completeness snapshot.
  std::optional<Lsn> tail;

  template <typename F>
  void Fields(F& f) {
    f(req_id, pg, page, read_point, epoch, cfg_epoch, tail);
  }
};

/// Segment replica -> reader: the page image, or why the read was refused.
/// `page_bytes` points at bytes that must outlive the message: the served
/// image when encoding, the received payload after decoding.
struct ReadPageRespMsg {
  uint64_t req_id = 0;
  uint8_t status_code = 0;  // Status::Code
  Lsn page_lsn = kInvalidLsn;
  Slice page_bytes;

  template <typename F>
  void Fields(F& f) { f(req_id, status_code, page_lsn, page_bytes); }
};

/// Recovery: writer asks each reachable replica of a PG for its log-chain
/// inventory above a base LSN (§4.3).
struct InventoryReqMsg {
  uint64_t req_id = 0;
  PgId pg = 0;

  template <typename F>
  void Fields(F& f) { f(req_id, pg); }
};

struct InventoryEntry {
  Lsn lsn = kInvalidLsn;
  Lsn prev = kInvalidLsn;   // per-PG backlink
  Lsn vprev = kInvalidLsn;  // volume-wide backlink
  uint8_t flags = 0;

  template <typename F>
  void Fields(F& f) { f(lsn, prev, vprev, flags); }
};

struct InventoryRespMsg {
  uint64_t req_id = 0;
  PgId pg = 0;
  ReplicaIdx replica = 0;
  Epoch epoch = 0;
  Lsn scl = kInvalidLsn;
  /// Highest VDL the writer ever told this segment (a durable completeness
  /// floor: every record at or below it once reached a write quorum).
  Lsn vdl_hint = kInvalidLsn;
  std::vector<InventoryEntry> entries;  // all hot-log records (lsn,prev,flags)

  template <typename F>
  void Fields(F& f) { f(req_id, pg, replica, epoch, scl, vdl_hint, entries); }
};

/// Recovery: truncate every log record above `truncate_above`, stamped with
/// a new volume epoch so repeated/interrupted recoveries are idempotent.
struct TruncateReqMsg {
  uint64_t req_id = 0;
  PgId pg = 0;
  Epoch epoch = 0;
  Lsn truncate_above = kInvalidLsn;

  template <typename F>
  void Fields(F& f) { f(req_id, pg, epoch, truncate_above); }
};

struct TruncateAckMsg {
  uint64_t req_id = 0;
  PgId pg = 0;
  ReplicaIdx replica = 0;
  uint8_t status_code = 0;

  template <typename F>
  void Fields(F& f) { f(req_id, pg, replica, status_code); }
};

/// Writer -> storage: advance the PG's minimum read point (GC low-water
/// mark, §4.2.3). Also carries a consistent completeness snapshot for idle
/// PGs: "as of VDL `vdl_snapshot`, this PG's newest record is `pg_tail`" —
/// a segment whose SCL reaches pg_tail can then serve any read point up to
/// vdl_snapshot even though its SCL is far below it (brand-new and idle
/// PGs would otherwise never be readable).
struct PgmrplMsg {
  PgId pg = 0;
  Lsn pgmrpl = kInvalidLsn;
  Lsn vdl_snapshot = kInvalidLsn;
  Lsn pg_tail = kInvalidLsn;
  bool has_snapshot = false;

  template <typename F>
  void Fields(F& f) {
    f(pg, pgmrpl, has_snapshot);
    if (has_snapshot) f(vdl_snapshot, pg_tail);
  }
};

/// Peer gossip: "here is my SCL; push me anything newer you have"
/// (Figure 4 step 4).
struct GossipPullMsg {
  PgId pg = 0;
  ReplicaIdx replica = 0;  // sender
  Epoch epoch = 0;         // sender's segment epoch
  uint64_t cfg_epoch = 0;  // sender's membership config epoch
  Lsn scl = kInvalidLsn;
  Lsn max_lsn = kInvalidLsn;

  template <typename F>
  void Fields(F& f) { f(pg, replica, epoch, cfg_epoch, scl, max_lsn); }
};

/// Peer gossip fill. Carries the sender's segment epoch: a receiver on a
/// newer epoch drops the push wholesale, so a segment that missed a
/// truncation (only 4/6 ack it) cannot resurrect annulled records into
/// peers that already truncated.
struct GossipPushMsg {
  PgId pg = 0;
  Epoch epoch = 0;
  uint64_t cfg_epoch = 0;  // sender's membership config epoch
  Slice records;

  template <typename F>
  void Fields(F& f) { f(pg, epoch, cfg_epoch, records); }
};

/// Writer -> read replica: the redo stream plus watermark metadata
/// (§4.2.4). Replicas apply records <= vdl to pages already in their cache
/// and discard the rest; `commits` carries (commit LSN, writer timestamp)
/// pairs for snapshot visibility and lag measurement.
struct ReplicaStreamMsg {
  Lsn vdl = kInvalidLsn;
  Slice records;
  std::vector<std::pair<Lsn, uint64_t>> commits;

  template <typename F>
  void Fields(F& f) { f(vdl, records, commits); }
};

/// Replica -> writer: the replica's minimum read point, folded into the
/// PGMRPL (§4.2.3).
struct ReplicaReadPointMsg {
  Lsn read_point = kInvalidLsn;

  template <typename F>
  void Fields(F& f) { f(read_point); }
};

/// A full segment copy, sent unsolicited by gossip's state-transfer
/// backstop to a peer whose gap log shipping can no longer close.
struct SegmentStateRespMsg {
  uint64_t req_id = 0;
  PgId pg = 0;
  std::string state;  // Segment::SerializeTo blob

  template <typename F>
  void Fields(F& f) { f(req_id, pg, state); }
};

/// Chunked repair: the replacement host requests one fixed-size slice of a
/// donor's serialized segment snapshot. Requests are sequence-tagged by
/// (req_id, chunk_index) so the transfer is resumable chunk by chunk over
/// the adversarial fabric.
struct SegmentChunkReqMsg {
  uint64_t req_id = 0;      // repair transfer id (scopes the donor snapshot)
  PgId pg = 0;
  uint32_t chunk_index = 0;
  uint32_t chunk_bytes = 0;  // slice size the requester wants

  template <typename F>
  void Fields(F& f) { f(req_id, pg, chunk_index, chunk_bytes); }
};

/// One chunk of a donor's segment snapshot. Every response repeats the
/// snapshot geometry (total_chunks / total_bytes / blob_crc) so the
/// receiver can detect a donor failover that changed the underlying blob
/// and restart instead of assembling a franken-segment; `chunk_crc` guards
/// the slice itself against fabric corruption (masked CRC32C).
struct SegmentChunkRespMsg {
  uint64_t req_id = 0;
  PgId pg = 0;
  uint32_t chunk_index = 0;
  uint32_t total_chunks = 0;
  uint64_t total_bytes = 0;
  uint32_t blob_crc = 0;   // masked CRC32C of the whole snapshot
  uint32_t chunk_crc = 0;  // masked CRC32C of `data`
  std::string data;

  template <typename F>
  void Fields(F& f) {
    f(req_id, pg, chunk_index, total_chunks, total_bytes, blob_crc,
      chunk_crc, data);
  }
};

namespace wire {

/// Appends the encoding of each field to a string.
class Writer {
 public:
  explicit Writer(std::string* dst) : dst_(dst) {}

  template <typename... T>
  void operator()(const T&... fields) { (Put(fields), ...); }

 private:
  void Put(uint8_t v) { dst_->push_back(static_cast<char>(v)); }
  void Put(bool v) { Put(static_cast<uint8_t>(v)); }
  void Put(uint32_t v) { PutVarint32(dst_, v); }
  void Put(uint64_t v) { PutVarint64(dst_, v); }
  void Put(Slice v) { PutLengthPrefixedSlice(dst_, v); }
  void Put(const std::string& v) { Put(Slice(v)); }
  template <typename T>
  void Put(const std::optional<T>& v) {
    Put(v.has_value());
    if (v.has_value()) Put(*v);
  }
  template <typename T>
  void Put(const std::vector<T>& v) {
    Put(static_cast<uint64_t>(v.size()));
    for (const T& e : v) Put(e);
  }
  template <typename A, typename B>
  void Put(const std::pair<A, B>& v) {
    Put(v.first);
    Put(v.second);
  }
  /// A struct's field list serves both directions; encoding only reads
  /// through it.
  template <typename T>
  void Put(const T& fields) { const_cast<T&>(fields).Fields(*this); }

  std::string* dst_;
};

/// Reads fields in place from a message's head fragment, then its body
/// fragment; a field never straddles the two. The first short or malformed
/// field fails the read and turns every later one into a no-op, so any
/// strict prefix of a message is rejected.
class Reader {
 public:
  Reader(Slice head, Slice body) : in_(head), rest_(body) {}

  template <typename... T>
  void operator()(T&... fields) { (Get(fields), ...); }

  bool ok() const { return ok_; }

 private:
  Slice* In() {
    if (in_.empty()) std::swap(in_, rest_);
    return &in_;
  }
  void Get(uint8_t& v) {
    Slice* in = In();
    if (!ok_ || in->empty()) {
      ok_ = false;
      return;
    }
    v = static_cast<uint8_t>((*in)[0]);
    in->remove_prefix(1);
  }
  void Get(bool& v) {
    uint8_t byte = 0;
    Get(byte);
    v = byte != 0;
  }
  void Get(uint32_t& v) { ok_ = ok_ && GetVarint32(In(), &v); }
  void Get(uint64_t& v) { ok_ = ok_ && GetVarint64(In(), &v); }
  void Get(Slice& v) { ok_ = ok_ && GetLengthPrefixedSlice(In(), &v); }
  void Get(std::string& v) {
    Slice bytes;
    Get(bytes);
    v.assign(bytes.data(), bytes.size());
  }
  template <typename T>
  void Get(std::optional<T>& v) {
    bool present = false;
    Get(present);
    v.reset();
    if (present) Get(v.emplace());
  }
  template <typename T>
  void Get(std::vector<T>& v) {
    uint64_t n = 0;
    Get(n);
    v.clear();
    // Every element takes at least one byte, so a corrupt count fails here
    // instead of reserving more than the rest of the input could hold.
    if (!ok_ || n > in_.size() + rest_.size()) {
      ok_ = false;
      return;
    }
    v.reserve(n);
    while (ok_ && v.size() < n) Get(v.emplace_back());
  }
  template <typename A, typename B>
  void Get(std::pair<A, B>& v) {
    Get(v.first);
    Get(v.second);
  }
  template <typename T>
  void Get(T& fields) { fields.Fields(*this); }

  Slice in_;
  Slice rest_;
  bool ok_ = true;
};

template <typename Msg>
std::string Encode(const Msg& msg) {
  std::string dst;
  Writer writer(&dst);
  writer(msg);
  return dst;
}

/// Decodes a message sent as a head fragment plus a body fragment, without
/// joining them. Either fragment may be empty.
template <typename Msg>
Status Decode(Slice head, Slice body, Msg* out) {
  Reader reader(head, body);
  reader(*out);
  return reader.ok() ? Status::OK() : Status::Corruption("malformed message");
}

template <typename Msg>
Status Decode(Slice input, Msg* out) {
  return Decode(input, Slice(), out);
}

}  // namespace wire
}  // namespace aurora

#endif  // AURORA_STORAGE_WIRE_H_
