#ifndef AURORA_PAGE_PAGE_PROVIDER_H_
#define AURORA_PAGE_PAGE_PROVIDER_H_

#include "common/result.h"
#include "log/mtr.h"
#include "log/types.h"
#include "page/page.h"

namespace aurora {

/// Access to the page space, implemented by the writer's buffer pool (cache
/// misses trigger asynchronous storage fetches), by the baseline engine's
/// buffer pool (misses read from simulated EBS), and by plain in-memory maps
/// in tests.
///
/// Asynchrony contract: the simulation is single-threaded, so operations
/// cannot block on I/O. `GetPage` returns Busy when the page is not resident;
/// the implementation starts the fetch and the caller's operation is retried
/// from scratch once it lands (optimistic restart, LeanStore-style). B+-tree
/// operations are therefore structured as read-only planning (which may
/// Busy-restart) followed by mutation that touches only resident pages.
class PageProvider {
 public:
  virtual ~PageProvider() = default;

  /// Returns the resident page, or Busy after initiating an async fetch.
  /// The pointer stays valid until the current event handler returns (pages
  /// touched by an in-flight operation are pinned by the caller's context).
  virtual Result<Page*> GetPage(PageId id) = 0;

  /// Allocates a fresh page id, formats the page through `mtr` (so the
  /// allocation itself is redo-logged) and returns it resident. Providers
  /// with a free-list hand back previously freed ids before growing the
  /// page space.
  virtual Result<Page*> AllocatePage(PageType type, uint8_t level,
                                     MiniTransaction* mtr) = 0;

  /// Returns `page` to the allocator: reformats it as kFree through `mtr`
  /// (the free is redo-logged like any structural change) and queues its id
  /// for reuse by a later AllocatePage. The caller must already have
  /// unlinked the page from every durable structure. Read-only providers
  /// reject the call.
  virtual Status FreePage(Page* page, MiniTransaction* mtr) = 0;

  virtual size_t page_size() const = 0;
};

// --- The meta-page allocator both engines keep (§5) ------------------------
// Page 0 holds the allocator and the catalog: a "next_page" record with the
// first page id never handed out, one "free:" + fixed64 id record (empty
// value) per page handed back, and the engines' "tbl:" catalog entries.
// Each call logs its change through `mtr`.

/// Formats `frame` as page `id`, a `type` page at `level`.
Status FormatPage(Page* frame, PageId id, PageType type, uint8_t level,
                  MiniTransaction* mtr);
/// Formats `meta` as page 0 with its counter at page 1.
Status FormatMetaPage(Page* meta, MiniTransaction* mtr);
/// Logs `key` -> `value` on `meta` with `op` (kInsert or kUpdate).
Status PutMetaRecord(Page* meta, RedoOp op, const Slice& key,
                     const Slice& value, MiniTransaction* mtr);
/// The counter: the first page id never handed out.
Result<PageId> NextPageId(const Page* meta);
/// Moves the counter to `next`, reserving every id below it.
Status SetNextPageId(Page* meta, PageId next, MiniTransaction* mtr);
/// Takes the lowest freed page id, or else the counter's next one, and
/// sets `*reused` to which.
Result<PageId> TakePageId(Page* meta, MiniTransaction* mtr, bool* reused);
/// Lists `page` free, when the meta page has room, and formats it kFree.
Status FreeToMetaPage(Page* meta, Page* page, MiniTransaction* mtr);

}  // namespace aurora

#endif  // AURORA_PAGE_PAGE_PROVIDER_H_
