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

}  // namespace aurora

#endif  // AURORA_PAGE_PAGE_PROVIDER_H_
