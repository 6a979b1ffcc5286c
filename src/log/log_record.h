#ifndef AURORA_LOG_LOG_RECORD_H_
#define AURORA_LOG_LOG_RECORD_H_

#include <cstdint>
#include <memory>
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

/// One redo log record. LSN and the per-PG backlink are assigned by the
/// writer's LSN allocator at MTR commit time; before that they are
/// kInvalidLsn.
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

  bool is_cpl() const { return (flags & kFlagCpl) != 0; }

  /// Size of the encoded representation; LSNs advance by this amount.
  size_t EncodedSize() const;

  /// Appends the wire encoding (with CRC) to `dst`.
  void EncodeTo(std::string* dst) const;

  /// Decodes one record from the front of `input`, advancing it. Verifies
  /// the CRC; returns Corruption on any malformed input, an op byte that
  /// names no RedoOp included.
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

  // --- Payload accessors ---------------------------------------------------
  Status GetFormat(uint8_t* page_type, uint8_t* level) const;
  Status GetKeyValue(Slice* key, Slice* value) const;
  Status GetKey(Slice* key) const;
  Status GetPageId(PageId* id) const;
  Status GetVersion(uint32_t* version) const;
  /// Decodes the next kInsertList entry from the front of `list`, a slice
  /// of this record's payload, advancing it.
  static Status GetListEntry(Slice* list, Slice* key, Slice* value);
};

/// Encodes a batch of records into one wire blob (the unit shipped to a
/// segment replica) and decodes it back. The batch carries no header of its
/// own; records are self-delimiting.
void EncodeRecordBatch(const std::vector<LogRecord>& records, std::string* dst);
/// View-based overload (Segment::RecordsAbove/UnbackedRecords): encodes the
/// pointed-to records without copying them first. Same bytes as above.
void EncodeRecordBatch(const std::vector<const LogRecord*>& records,
                       std::string* dst);
Status DecodeRecordBatch(Slice input, std::vector<LogRecord>* out);

/// One decoded batch under a single owner. Its records are immutable: the
/// segment replicas that keep them hold runs of it (hot_log.h), so the batch
/// is freed when the last holder drops its last record. Beside each record
/// it keeps the record's same-page links, computed once for every holder:
/// how many places back the batch's previous record of the same page is,
/// and how many ahead its next one is. 0 means none, or farther than a
/// uint16_t counts; a holder then treats the two records as unlinked.
class RecordBatch {
 public:
  explicit RecordBatch(std::vector<LogRecord> records);

  size_t size() const { return records_.size(); }
  const LogRecord& operator[](size_t i) const { return records_[i]; }
  const LogRecord* data() const { return records_.data(); }
  const LogRecord& back() const { return records_.back(); }
  uint32_t prev_on_page(uint32_t i) const { return links_[i].prev; }
  uint32_t next_on_page(uint32_t i) const { return links_[i].next; }

 private:
  struct PageLinks {
    uint16_t prev = 0;
    uint16_t next = 0;
  };
  std::vector<LogRecord> records_;
  std::vector<PageLinks> links_;
};
using SharedRecords = std::shared_ptr<const RecordBatch>;
/// A new owner of `records`, linked by page: decoded writer batches and
/// gossip pushes, a restored hot log, a record added on its own.
SharedRecords ShareRecords(std::vector<LogRecord> records);
/// DecodeRecordBatch into a new owner; null if `input` is malformed.
SharedRecords DecodeSharedRecords(Slice input);

}  // namespace aurora

#endif  // AURORA_LOG_LOG_RECORD_H_
