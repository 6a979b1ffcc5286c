#ifndef AURORA_PAGE_BTREE_H_
#define AURORA_PAGE_BTREE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "log/mtr.h"
#include "page/page.h"
#include "page/page_provider.h"

namespace aurora {

/// A single-writer B+-tree over slotted pages — the InnoDB-style access
/// method of §5. All structural modifications (splits, root growth) happen
/// inside the caller's mini-transaction, so they reach storage (and
/// replicas) atomically.
///
/// Concurrency: the simulation executes one event at a time, so there is no
/// page latching; isolation between transactions is provided above this
/// layer by the lock manager. Keys are arbitrary byte strings in memcmp
/// order; values must fit in ~1/4 of a page.
///
/// I/O: operations return Busy when a needed page is not resident in the
/// PageProvider (which then fetches it asynchronously); callers retry the
/// whole operation. Mutating operations are planned so that no mutation is
/// emitted until every page they could touch is resident.
class BTree {
 public:
  /// Creates a new tree: allocates an anchor (meta) page holding the root
  /// pointer and an empty leaf root, inside `mtr`. Returns the anchor id,
  /// which identifies the tree from then on.
  static Result<PageId> Create(PageProvider* provider, MiniTransaction* mtr);

  /// Opens an existing tree by its anchor page id.
  BTree(PageProvider* provider, PageId anchor_id)
      : provider_(provider), anchor_id_(anchor_id) {}

  /// Point lookup; Busy on cache miss (retry), NotFound if absent.
  Status Get(const Slice& key, std::string* value);

  /// Inserts a new key. InvalidArgument if it already exists.
  Status Insert(const Slice& key, const Slice& value, MiniTransaction* mtr);

  /// Updates an existing key. NotFound if absent.
  Status Update(const Slice& key, const Slice& value, MiniTransaction* mtr);

  /// Inserts or updates.
  Status Upsert(const Slice& key, const Slice& value, MiniTransaction* mtr);

  /// Deletes a key. NotFound if absent. A leaf emptied by the delete is
  /// unlinked from the sibling chain, its separator is removed from the
  /// parent, and the page is returned to the provider's free-list — so
  /// insert/delete churn reaches a steady-state page count instead of
  /// growing without bound. (Partially filled pages are still not merged.)
  Status Delete(const Slice& key, MiniTransaction* mtr);

  /// Range scan: up to `limit` records with key >= start, in order.
  Status Scan(const Slice& start, int limit,
              std::vector<std::pair<std::string, std::string>>* out);

  /// The leaf walk behind Scan: calls `visit(Slice key, Slice value)` on up
  /// to `limit` records with key >= start, in order, without copying them.
  /// The slices point into resident pages and die with the next page fetch
  /// or mutation. Touches exactly the pages Scan(start, limit) touches, and
  /// returns Busy on the same miss.
  template <typename Visit>
  Status Walk(const Slice& start, int limit, Visit&& visit);

  /// Number of records reachable from the root (full scan; tests only).
  Result<uint64_t> CountForTesting();

  /// Validates structural invariants: key ordering within and across pages,
  /// child separators, sibling links, uniform leaf depth. Tests/scrubber.
  Status CheckInvariants();

  PageId anchor_id() const { return anchor_id_; }
  /// Current root page id (resolves through the anchor; Busy on miss).
  Result<PageId> root_id();

 private:
  struct PathEntry {
    Page* page;
    int child_slot;  // slot followed to descend (internal levels only)
  };

  /// Descends from the root to the leaf owning `key` and returns it in
  /// `*leaf`, recording the path (leaf last) when `path` is non-null.
  Status DescendToLeaf(const Slice& key, std::vector<PathEntry>* path,
                       Page** leaf);

  /// Ensures every page a split cascade starting at the leaf could touch is
  /// resident; returns Busy (with fetch started) otherwise.
  Status PlanForInsert(const std::vector<PathEntry>& path, size_t key_size,
                       size_t value_size);

  /// Ensures both sibling leaves of a leaf about to be unlinked are
  /// resident; returns Busy (with fetch started) otherwise.
  Status PlanForUnlink(const std::vector<PathEntry>& path);

  /// Splices the (just emptied) leaf at the end of `path` out of the leaf
  /// chain, drops its child entry from the parent and frees the page.
  Status UnlinkEmptyLeaf(std::vector<PathEntry>* path, MiniTransaction* mtr);

  /// Splits `page` (leaf or internal), inserting the separator into the
  /// parent, cascading upward; `path` is the descent path with `page` last.
  /// On return, `*target` is the page (old or new) that should receive the
  /// pending record with `key`.
  Status SplitAndPropagate(std::vector<PathEntry>* path, const Slice& key,
                           MiniTransaction* mtr, Page** target);

  static std::string EncodeChild(PageId id);
  static PageId DecodeChild(const Slice& value);

  PageProvider* provider_;
  PageId anchor_id_;
};

template <typename Visit>
Status BTree::Walk(const Slice& start, int limit, Visit&& visit) {
  Page* leaf = nullptr;
  Status s = DescendToLeaf(start, /*path=*/nullptr, &leaf);
  if (!s.ok()) return s;
  int slot = leaf->LowerBound(start);
  while (limit > 0) {
    if (slot >= leaf->slot_count()) {
      PageId next = leaf->next_page();
      if (next == kInvalidPage) break;
      Result<Page*> p = provider_->GetPage(next);
      if (!p.ok()) return p.status();
      leaf = *p;
      slot = 0;
      continue;
    }
    visit(leaf->KeyAt(slot), leaf->ValueAt(slot));
    ++slot;
    --limit;
  }
  return Status::OK();
}

}  // namespace aurora

#endif  // AURORA_PAGE_BTREE_H_
