#ifndef AURORA_ENGINE_BUFFER_POOL_H_
#define AURORA_ENGINE_BUFFER_POOL_H_

#include <deque>
#include <list>
#include <utility>

#include "common/inline_function.h"
#include "common/result.h"
#include "common/slot_index.h"
#include "log/types.h"
#include "page/page.h"

namespace aurora {

/// Buffer-pool counters.
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t eviction_blocked = 0;  // candidate page had page LSN > VDL
  uint64_t installs = 0;

  /// Every member once, under its exported metric name.
  template <typename F>
  static constexpr void Fields(F f) {
    using S = BufferPoolStats;
    f("hits", &S::hits);
    f("misses", &S::misses);
    f("evictions", &S::evictions);
    f("eviction_blocked", &S::eviction_blocked);
    f("installs", &S::installs);
  }
};

/// The writer's (and each replica's) page cache.
///
/// Aurora never writes a page back on eviction — pages on storage are
/// materialized from the log — but it enforces the §4.2.3 rule: a page may
/// be evicted only if its page LSN is at or below the VDL, guaranteeing that
/// (a) every change to the page is hardened in the durable log and (b) a
/// re-fetch at read-point = VDL returns the latest version. (The paper's
/// text states this inequality reversed; see DESIGN.md for the erratum
/// note.)
///
/// Misses are asynchronous: Lookup returns nullptr, the caller starts a
/// storage fetch, and Install() copies the fetched bytes into a slot. A
/// slot freed by eviction keeps its page buffer and its LRU node, so at
/// steady state an install allocates nothing.
class BufferPool {
 public:
  /// `vdl` is consulted at eviction time and must outlive the pool.
  BufferPool(size_t capacity_pages, size_t page_size, const Lsn* vdl)
      : capacity_(capacity_pages), page_size_(page_size), vdl_(vdl) {}

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Returns the resident page (touching LRU) or nullptr on miss.
  Page* Lookup(PageId id);
  bool Contains(PageId id) const { return Find(id) != SlotIndex::kNone; }

  /// Makes `id` resident and returns its page, and whether it claimed a
  /// slot for it. A page already resident is kept as it is (a duplicate
  /// fetch landed; the resident copy may be newer, since it absorbs writes)
  /// and returned with false. A claimed page still holds the bytes of the
  /// slot's previous page: the caller writes the image. Install (fetched
  /// bytes) and InstallNew (a zeroed page) write theirs; an owner that
  /// builds its own (the mirrored-MySQL baseline) claims directly. Never
  /// evicts synchronously — callers invoke EvictExcess() at a safe point
  /// (no operation holding raw page pointers may be on the stack),
  /// typically right after a fetch lands and before its waiters are
  /// resumed.
  std::pair<Page*, bool> Claim(PageId id);

  /// Makes a fetched page resident by copying `bytes` (one page, already
  /// checked by the caller) into its slot.
  Page* Install(PageId id, Slice bytes);

  /// Evicts cold pages (respecting the VDL rule, pins and the filter) until
  /// the pool is back at capacity or nothing more is evictable.
  void EvictExcess();

  /// Creates a brand-new, unformatted resident page (allocation path; no
  /// storage fetch).
  Page* InstallNew(PageId id);

  /// Marks a page unevictable (allocator meta page, tree anchors).
  void Pin(PageId id);
  void Unpin(PageId id);

  /// Additional eviction veto (the mirrored-MySQL baseline vetoes dirty
  /// pages, which must be flushed before leaving the pool). Return false to
  /// keep the page resident.
  using EvictFilter = InlineFunction<bool(PageId, const Page&)>;
  void set_evict_filter(EvictFilter filter) {
    evict_filter_ = std::move(filter);
  }

  /// Drops a page regardless of rules (replica cache invalidation).
  void Discard(PageId id);

  /// Drops everything (crash simulation).
  void Clear();

  size_t size() const { return index_.size(); }
  size_t capacity() const { return capacity_; }
  const BufferPoolStats& stats() const { return stats_; }

  /// Number of resident pages whose page LSN exceeds the VDL (unevictable
  /// "dirty-like" pages awaiting durability).
  size_t CountAboveVdl() const;

 private:
  using Slot = uint32_t;

  /// A resident page. Entries sit in stable slots (Page pointers handed out
  /// stay valid until eviction); a freed slot is reused by the next install.
  /// `lru_it` is the slot's own node, on `lru_` while the slot is live and
  /// on `free_` after; it is never reallocated.
  struct Entry {
    PageId id = kInvalidPage;
    Page page;
    std::list<Slot>::iterator lru_it;
    bool pinned = false;
    explicit Entry(size_t page_size) : page(page_size) {}
  };

  /// The slot holding `id`, or SlotIndex::kNone.
  Slot Find(PageId id) const {
    return index_.Find(Mix64(id),
                       [&](Slot s) { return slots_[s].id == id; });
  }
  /// Moves `e` to the most-recent end of the LRU list (relinks its node;
  /// a hit allocates nothing).
  void Touch(Entry* e);
  /// Drops the page in `slot` from the index and moves its node to `free_`.
  void Free(Slot slot);
  void MaybeEvict();

  size_t capacity_;
  size_t page_size_;
  const Lsn* vdl_;
  EvictFilter evict_filter_;
  /// Resident pages live in `slots_` (a deque: slots never move) and are
  /// found through `index_`, by a fixed hash of the page id.
  std::deque<Entry> slots_;
  SlotIndex index_;
  std::list<Slot> lru_;   // front = most recent
  std::list<Slot> free_;  // freed slots, next to reuse first
  BufferPoolStats stats_;
};

}  // namespace aurora

#endif  // AURORA_ENGINE_BUFFER_POOL_H_
