#ifndef AURORA_LOG_MTR_H_
#define AURORA_LOG_MTR_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "log/log_record.h"
#include "page/page.h"

namespace aurora {

/// A mini-transaction (MTR): a group of page modifications that must be
/// made durable and become visible atomically — e.g. a B+-tree split that
/// touches two leaves, a parent, and the allocator's meta page (§4.1, §5).
///
/// Usage (forward path): build redo records with the Make*Payload helpers,
/// call Apply() for each — which both mutates the in-cache page via the
/// shared log applicator and buffers the record — then hand the MTR to the
/// engine's log. The final record's LSN becomes a Consistency Point LSN.
class MiniTransaction {
 public:
  explicit MiniTransaction(TxnId txn_id) : txn_id_(txn_id) {}
  /// Hands the before-image buffers back to this thread's free list.
  ~MiniTransaction();

  MiniTransaction(const MiniTransaction&) = delete;
  MiniTransaction& operator=(const MiniTransaction&) = delete;

  /// Applies `record` (no LSN yet) to `page` and buffers it. The record's
  /// txn id is filled from this MTR. The page's before-image is snapshotted
  /// on first touch so the whole MTR can be rolled back (see Abort()); the
  /// snapshot buffer comes from a per-thread free list, so a steady stream
  /// of MTRs copies pages without allocating.
  Status Apply(Page* page, LogRecord record);
  /// Apply() of an `op` record on `page` itself carrying `payload`.
  Status Apply(Page* page, RedoOp op, std::string payload);

  /// Restores every touched page to its before-image, byte for byte, and
  /// clears the record buffer. Used when an operation must restart (e.g. a
  /// page fetch became necessary halfway through planning) — MTR atomicity
  /// means a partially built MTR must leave no trace.
  void Abort();

  bool empty() const { return records_.empty(); }
  size_t size() const { return records_.size(); }
  TxnId txn_id() const { return txn_id_; }

  std::vector<LogRecord>& records() { return records_; }
  const std::vector<LogRecord>& records() const { return records_; }
  /// Page pointer paired with each record (same index), for LSN stamping at
  /// commit. Pointers must stay valid until commit (pages pinned).
  const std::vector<Page*>& pages() const { return pages_; }

  /// LSN of the final (CPL) record; valid after the sink committed the MTR.
  Lsn commit_lsn() const { return commit_lsn_; }
  void set_commit_lsn(Lsn lsn) { commit_lsn_ = lsn; }

 private:
  TxnId txn_id_;
  std::vector<LogRecord> records_;
  std::vector<Page*> pages_;
  std::vector<std::pair<Page*, std::string>> before_images_;
  Lsn commit_lsn_ = kInvalidLsn;
};

}  // namespace aurora

#endif  // AURORA_LOG_MTR_H_
