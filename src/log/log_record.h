#ifndef AURORA_LOG_LOG_RECORD_H_
#define AURORA_LOG_LOG_RECORD_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "log/types.h"

namespace aurora {

/// Physiological redo operations. Each record targets exactly one page; the
/// log applicator (log/applicator.h) interprets the operation against the
/// page's before-image to produce its after-image, deterministically — the
/// same applicator runs in the writer's forward path, on every storage node,
/// and in every read replica's cache (§3.2, §4.2.4).
enum class RedoOp : uint8_t {
  /// (Re)formats the page: payload = {page_type, level}.
  kFormatPage = 1,
  /// Inserts a key/value record into a slotted page. payload = {key, value}.
  kInsert = 2,
  /// Deletes the record with the given key. payload = {key}.
  kDelete = 3,
  /// Replaces the value of an existing key. payload = {key, value}.
  kUpdate = 4,
  /// Sets the next-page link (B+-tree sibling / undo chain). payload = {id}.
  kSetNext = 5,
  /// Sets the prev-page link. payload = {id}.
  kSetPrev = 6,
  /// Sets the page's schema version (online DDL, §7.3). payload = {version}.
  kSetSchemaVersion = 7,
  /// Inserts records in turn, as InnoDB's MLOG_LIST_END_COPY_CREATED does
  /// for the new half of a split. payload = one or more {key, value}
  /// entries (AppendListEntry) in strictly ascending key order.
  kInsertList = 8,
  /// Deletes the record with the given key and every record after it, as
  /// MLOG_LIST_END_DELETE does for the old half of a split. payload = {key}.
  kDeleteListEnd = 9,
};

/// True if `op` is a RedoOp's byte (the last op bounds the range);
/// DecodeFrom refuses any other.
inline bool IsRedoOp(uint8_t op) {
  return op >= static_cast<uint8_t>(RedoOp::kFormatPage) &&
         op <= static_cast<uint8_t>(RedoOp::kDeleteListEnd);
}

/// Record flags.
enum RecordFlags : uint8_t {
  /// Final record of a mini-transaction — a Consistency Point LSN (CPL).
  kFlagCpl = 0x1,
};

/// A redo record that owns nothing: LogRecord's fields, with the payload a
/// view of bytes kept elsewhere, in a decoded batch's arena (RecordBatch)
/// or in the string of a LogRecord, which converts to one. It carries the
/// codec and the payload accessors, and is valid while those bytes are.
struct RecordView {
  Lsn lsn = kInvalidLsn;
  Lsn prev_pg_lsn = kInvalidLsn;
  Lsn prev_vol_lsn = kInvalidLsn;
  PageId page_id = kInvalidPage;
  TxnId txn_id = kInvalidTxn;
  RedoOp op = RedoOp::kFormatPage;
  uint8_t flags = 0;
  Slice payload;

  /// Size of the encoded representation; LSNs advance by this amount.
  size_t EncodedSize() const;

  /// Appends the wire encoding (with CRC) to `dst`.
  void EncodeTo(std::string* dst) const;

  /// Decodes one record from the front of `input`, advancing it; the
  /// payload views `input`'s bytes. Verifies the CRC; returns Corruption on
  /// any malformed input, an op byte that names no RedoOp included.
  static Status DecodeFrom(Slice* input, RecordView* out);

  // --- Payload accessors ---------------------------------------------------
  Status GetFormat(uint8_t* page_type, uint8_t* level) const;
  Status GetKeyValue(Slice* key, Slice* value) const;
  Status GetKey(Slice* key) const;
  Status GetPageId(PageId* id) const;
  Status GetVersion(uint32_t* version) const;
};

/// One redo log record that owns its payload: what the writer's MTRs build
/// and the replica stream and S3 restore decode. LSN and the per-PG
/// backlink are assigned by the writer's LSN allocator at MTR commit time;
/// before that they are kInvalidLsn.
struct LogRecord {
  Lsn lsn = kInvalidLsn;
  /// Backlink: LSN of the previous log record addressed to the same
  /// protection group (§4.2.1). Storage nodes use it to detect gaps and to
  /// compute the Segment Complete LSN.
  Lsn prev_pg_lsn = kInvalidLsn;
  /// Volume-wide backlink: LSN of the immediately preceding record of the
  /// whole volume. Recovery walks this chain to compute the VCL — it makes
  /// every hole visible from its successor, including records that were
  /// lost from all six replicas of some other PG (which the per-PG chain
  /// cannot reveal).
  Lsn prev_vol_lsn = kInvalidLsn;
  PageId page_id = kInvalidPage;
  TxnId txn_id = kInvalidTxn;
  RedoOp op = RedoOp::kFormatPage;
  uint8_t flags = 0;
  std::string payload;

  LogRecord() = default;
  /// An owning copy of `r`.
  explicit LogRecord(const RecordView& r)
      : lsn(r.lsn),
        prev_pg_lsn(r.prev_pg_lsn),
        prev_vol_lsn(r.prev_vol_lsn),
        page_id(r.page_id),
        txn_id(r.txn_id),
        op(r.op),
        flags(r.flags),
        payload(r.payload.ToString()) {}

  /// This record as a view, so that it goes wherever a view does; valid
  /// while the record lives and `payload` is unchanged.
  operator RecordView() const {
    return {lsn, prev_pg_lsn, prev_vol_lsn, page_id, txn_id, op, flags,
            Slice(payload)};
  }

  bool is_cpl() const { return (flags & kFlagCpl) != 0; }
  size_t EncodedSize() const { return RecordView(*this).EncodedSize(); }
  void EncodeTo(std::string* dst) const { RecordView(*this).EncodeTo(dst); }
  /// RecordView::DecodeFrom, keeping a copy of the payload.
  static Status DecodeFrom(Slice* input, LogRecord* out);

  // --- Payload constructors (the only way payloads should be built) -------
  static std::string MakeFormatPayload(uint8_t page_type, uint8_t level);
  static std::string MakeKeyValuePayload(const Slice& key, const Slice& value);
  static std::string MakeKeyPayload(const Slice& key);
  static std::string MakePageIdPayload(PageId id);
  static std::string MakeVersionPayload(uint32_t version);
  /// Appends one {key, value} entry to a kInsertList payload. One entry
  /// alone is the bytes of MakeKeyValuePayload(key, value).
  static void AppendListEntry(std::string* payload, const Slice& key,
                              const Slice& value);
  /// Decodes the next kInsertList entry from the front of `list`, a slice
  /// of a record's payload, advancing it.
  static Status GetListEntry(Slice* list, Slice* key, Slice* value);
};

/// Encodes a batch of records into one wire blob (the unit shipped to a
/// segment replica) and decodes it back. The batch carries no header of its
/// own; records are self-delimiting.
void EncodeRecordBatch(const std::vector<LogRecord>& records, std::string* dst);
/// The same bytes from views (Segment::RecordsAbove/UnbackedRecords).
void EncodeRecordBatch(std::span<const RecordView> records, std::string* dst);
Status DecodeRecordBatch(Slice input, std::vector<LogRecord>* out);

class RecordBatch;
using SharedRecords = std::shared_ptr<const RecordBatch>;
/// A new owner of copies of `records`, linked by page: a restored hot log,
/// a record added on its own.
SharedRecords ShareRecords(const std::vector<LogRecord>& records);
/// Decodes `input` (EncodeRecordBatch's bytes) into a new owner: decoded
/// writer batches and gossip pushes. Null if `input` is malformed.
SharedRecords DecodeSharedRecords(Slice input);

/// One batch of records under a single owner, held compactly: each
/// record's fixed fields in one array and every payload in one arena, both
/// allocated once at their exact sizes, and read as RecordViews. Its
/// records are immutable: the segment replicas that keep them hold runs of
/// it (hot_log.h), so the batch is freed when the last holder drops its
/// last record. Beside each record it keeps the record's same-page links,
/// computed once for every holder: how many places back the batch's
/// previous record of the same page is, and how many ahead its next one
/// is. 0 means none, or farther than a uint16_t counts; a holder then
/// treats the two records as unlinked.
class RecordBatch {
  struct Private {
    explicit Private() = default;
  };

 public:
  /// Room for `records` records whose payloads total `payload_bytes`;
  /// ShareRecords and DecodeSharedRecords fill it.
  RecordBatch(Private, size_t records, size_t payload_bytes);

  size_t size() const { return held_.size(); }
  RecordView operator[](size_t i) const {
    const Held& h = held_[i];
    return {h.lsn,     h.prev_pg_lsn, h.prev_vol_lsn,
            h.page_id, h.txn_id,      h.op,
            h.flags,   Slice(arena_.get() + h.payload_offset, h.payload_size)};
  }
  RecordView back() const { return (*this)[size() - 1]; }
  Lsn lsn(size_t i) const { return held_[i].lsn; }
  /// The first index in [begin, end) whose record's LSN is above `lsn`, or
  /// `end`; the batch's LSNs ascend.
  uint32_t UpperBound(uint32_t begin, uint32_t end, Lsn lsn) const {
    const Held* at = std::partition_point(
        held_.data() + begin, held_.data() + end,
        [lsn](const Held& h) { return h.lsn <= lsn; });
    return static_cast<uint32_t>(at - held_.data());
  }
  uint32_t prev_on_page(uint32_t i) const { return held_[i].prev_on_page; }
  uint32_t next_on_page(uint32_t i) const { return held_[i].next_on_page; }

 private:
  friend SharedRecords ShareRecords(const std::vector<LogRecord>& records);
  friend SharedRecords DecodeSharedRecords(Slice input);

  /// A record as the batch stores it: its fixed fields, where its payload
  /// lies in the arena, and its same-page links.
  struct Held {
    Lsn lsn;
    Lsn prev_pg_lsn;
    Lsn prev_vol_lsn;
    PageId page_id;
    TxnId txn_id;
    uint32_t payload_offset;
    uint32_t payload_size;
    RedoOp op;
    uint8_t flags;
    uint16_t prev_on_page;
    uint16_t next_on_page;
  };
  static_assert(sizeof(Held) <= 56, "a held record's fixed part is 56 bytes");

  /// Appends a copy of `r`, its payload after the previous one's.
  void Append(const RecordView& r);
  /// Sets every record's same-page links.
  void LinkPages();

  std::vector<Held> held_;
  std::unique_ptr<char[]> arena_;
  size_t arena_size_;
  size_t arena_used_ = 0;
};

}  // namespace aurora

#endif  // AURORA_LOG_LOG_RECORD_H_
