#ifndef AURORA_STORAGE_WIRE_H_
#define AURORA_STORAGE_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "log/log_record.h"
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
  kMsgSegmentStateReq = 12,
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

/// The fields of a write batch ahead of its records: everything the
/// receiver's config, epoch and duplicate fences read.
struct WriteBatchHeader {
  PgId pg = 0;
  ReplicaIdx replica = 0;
  Epoch epoch = 0;
  /// The PG membership config epoch the sender believes current; storage
  /// NAKs (kStaleConfig) batches stamped below its own view, so a writer
  /// that missed a ReplaceReplica can never count an evicted host toward
  /// quorum.
  uint64_t cfg_epoch = 0;
  uint64_t batch_seq = 0;
  Lsn vdl_hint = kInvalidLsn;
  Lsn pgmrpl_hint = kInvalidLsn;
};

/// Writer -> segment replica: one ordered batch of redo records for a PG
/// (Figure 3). `vdl_hint` piggybacks the writer's current VDL so storage can
/// bound background materialization; `pgmrpl_hint` does the same for
/// replicas' read points.
struct WriteBatchMsg : WriteBatchHeader {
  std::vector<LogRecord> records;

  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(Slice input, WriteBatchMsg* out);

  /// Header-first, two-fragment decode for zero-copy delivery: `head` is the
  /// per-replica header fragment (pg + replica index, possibly followed by
  /// body bytes when the message arrived in one piece) and `body` the shared
  /// fragment. Parses every field but the records, without concatenating
  /// the fragments, and points `records` at their encoded blob, so a
  /// receiver fences a batch before it decodes any record.
  static Status DecodeHeader(Slice head, Slice body, WriteBatchHeader* out,
                             Slice* records);

  /// Split encoding for single-encode fan-out: the header fragment carries
  /// the only per-replica fields (pg + replica index) while the body —
  /// epoch, seq, watermark hints, and the record blob — is identical across
  /// the 6 replicas of one send, so the writer encodes it once and shares
  /// the buffer. Concatenating header + body yields exactly the EncodeTo
  /// bytes.
  void EncodeHeaderTo(std::string* dst) const;
  static void EncodeBody(Epoch epoch, uint64_t cfg_epoch, uint64_t batch_seq,
                         Lsn vdl_hint, Lsn pgmrpl_hint,
                         const std::vector<LogRecord>& records,
                         std::string* dst);
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

  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(Slice input, WriteAckMsg* out);
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

  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(Slice input, ReadPageReqMsg* out);
};

struct ReadPageRespMsg {
  uint64_t req_id = 0;
  uint8_t status_code = 0;  // Status::Code
  Lsn page_lsn = kInvalidLsn;
  std::string page_bytes;

  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(Slice input, ReadPageRespMsg* out);
};

/// Recovery: writer asks each reachable replica of a PG for its log-chain
/// inventory above a base LSN (§4.3).
struct InventoryReqMsg {
  uint64_t req_id = 0;
  PgId pg = 0;

  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(Slice input, InventoryReqMsg* out);
};

struct InventoryEntry {
  Lsn lsn = kInvalidLsn;
  Lsn prev = kInvalidLsn;   // per-PG backlink
  Lsn vprev = kInvalidLsn;  // volume-wide backlink
  uint8_t flags = 0;
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

  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(Slice input, InventoryRespMsg* out);
};

/// Recovery: truncate every log record above `truncate_above`, stamped with
/// a new volume epoch so repeated/interrupted recoveries are idempotent.
struct TruncateReqMsg {
  uint64_t req_id = 0;
  PgId pg = 0;
  Epoch epoch = 0;
  Lsn truncate_above = kInvalidLsn;

  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(Slice input, TruncateReqMsg* out);
};

struct TruncateAckMsg {
  uint64_t req_id = 0;
  PgId pg = 0;
  ReplicaIdx replica = 0;
  uint8_t status_code = 0;

  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(Slice input, TruncateAckMsg* out);
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

  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(Slice input, PgmrplMsg* out);
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

  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(Slice input, GossipPullMsg* out);
};

/// Peer gossip fill. Carries the sender's segment epoch: a receiver on a
/// newer epoch drops the push wholesale, so a segment that missed a
/// truncation (only 4/6 ack it) cannot resurrect annulled records into
/// peers that already truncated.
struct GossipPushMsg {
  PgId pg = 0;
  Epoch epoch = 0;
  uint64_t cfg_epoch = 0;  // sender's membership config epoch
  /// Decoded into one owner, which the receiving segment keeps records of.
  SharedRecords records;

  static Status DecodeFrom(Slice input, GossipPushMsg* out);

  /// Encodes straight from hot-log record views (Segment::RecordsAbove),
  /// without a deep copy of any record payload.
  static void EncodeRecordsTo(PgId pg, Epoch epoch, uint64_t cfg_epoch,
                              const std::vector<const LogRecord*>& records,
                              std::string* dst);
};

/// Writer -> read replica: the redo stream plus watermark metadata
/// (§4.2.4). Replicas apply records <= vdl to pages already in their cache
/// and discard the rest; `commits` carries (commit LSN, writer timestamp)
/// pairs for snapshot visibility and lag measurement.
struct ReplicaStreamMsg {
  Lsn vdl = kInvalidLsn;
  std::vector<LogRecord> records;
  std::vector<std::pair<Lsn, uint64_t>> commits;

  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(Slice input, ReplicaStreamMsg* out);
};

/// Replica -> writer: the replica's minimum read point, folded into the
/// PGMRPL (§4.2.3).
struct ReplicaReadPointMsg {
  Lsn read_point = kInvalidLsn;

  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(Slice input, ReplicaReadPointMsg* out);
};

/// Repair: a replacement node asks a healthy peer for the full segment
/// state (§2.2 — MTTR is segment transfer time).
struct SegmentStateReqMsg {
  uint64_t req_id = 0;
  PgId pg = 0;

  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(Slice input, SegmentStateReqMsg* out);
};

struct SegmentStateRespMsg {
  uint64_t req_id = 0;
  PgId pg = 0;
  std::string state;  // Segment::SerializeTo blob

  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(Slice input, SegmentStateRespMsg* out);
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

  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(Slice input, SegmentChunkReqMsg* out);
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

  void EncodeTo(std::string* dst) const;
  static Status DecodeFrom(Slice input, SegmentChunkRespMsg* out);
};

}  // namespace aurora

#endif  // AURORA_STORAGE_WIRE_H_
