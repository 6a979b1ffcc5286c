#ifndef AURORA_LOG_APPLICATOR_H_
#define AURORA_LOG_APPLICATOR_H_

#include "common/status.h"
#include "log/log_record.h"
#include "page/page.h"

namespace aurora {

/// The redo log applicator: applies a log record to the before-image of its
/// page to produce the after-image (§3.2). This is deliberately the single
/// code path shared by
///   - the writer's forward processing (through MiniTransaction),
///   - every storage node's background coalescing (Figure 4 step 5),
///   - every read replica's buffer-cache maintenance (§4.2.4), and
///   - recovery.
/// "A great simplifying principle of a traditional database is that the same
/// redo log applicator is used in the forward processing path as well as on
/// recovery" (§4.3) — Aurora keeps the principle but moves where it runs.
class LogApplicator {
 public:
  /// Applies `record` to `page`.
  ///
  /// Idempotent at page granularity: if the record carries a valid LSN that
  /// is <= the page's current LSN, it has already been applied and the call
  /// is a no-op returning OK. On success the page LSN advances to the
  /// record's LSN (when valid).
  ///
  /// Records with invalid LSNs (forward path, before allocation) are applied
  /// unconditionally and do not stamp the page; the MTR commit stamps pages.
  ///
  /// A record whose op names no RedoOp returns Corruption and leaves the
  /// page untouched. A LogRecord converts to the view.
  static Status Apply(const RecordView& record, Page* page);

  /// Applies a batch in order, stopping at the first error.
  static Status ApplyAll(const std::vector<LogRecord>& records, Page* page);
};

}  // namespace aurora

#endif  // AURORA_LOG_APPLICATOR_H_
