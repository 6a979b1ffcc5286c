#ifndef AURORA_STORAGE_SEGMENT_H_
#define AURORA_STORAGE_SEGMENT_H_

#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/slot_index.h"
#include "common/status.h"
#include "log/log_record.h"
#include "log/types.h"
#include "page/page.h"
#include "storage/base_image_store.h"
#include "storage/hot_log.h"
#include "storage/wire.h"

namespace aurora {

/// Counters for the per-segment reconstructed-page cache.
struct PageCacheStats {
  uint64_t hits = 0;          // served straight from a cached image
  uint64_t partial_hits = 0;  // cached image + replay of a short LSN suffix
  uint64_t misses = 0;        // full rebuild from base page + hot log
  uint64_t evictions = 0;     // LRU evictions under the byte budget

  /// Every member once, under its exported metric name.
  template <typename F>
  static constexpr void Fields(F f) {
    using S = PageCacheStats;
    f("hits", &S::hits);
    f("partial_hits", &S::partial_hits);
    f("misses", &S::misses);
    f("evictions", &S::evictions);
  }
};

/// One segment replica: the durable state a storage node keeps for one
/// protection group (§2.2, Figure 4). Pure state machine — all timing
/// (disk persistence, gossip cadence, scrubbing) lives in StorageNode.
///
/// State:
///  - the hot log: redo records addressed to this PG, in LSN order;
///  - the backlink chain index, from which the Segment Complete LSN (SCL) is
///    maintained: the highest LSN below which this replica has every record
///    of the PG (§4.2.1);
///  - materialized base pages: each page's image advanced by coalescing log
///    records (Figure 4 step 5), never beyond min(SCL, VDL hint, PGMRPL) so
///    that (a) truncation after a crash can never undo a materialized page
///    and (b) any read point >= PGMRPL remains reconstructable. Images are
///    immutable and interned in the volume's BaseImageStore, so replicas
///    that built equal images hold one;
///  - watermarks: VDL hint (piggybacked by the writer), PGMRPL, the volume
///    epoch, and the S3 backup high-water mark.
class Segment {
 public:
  /// `images` is the volume's store of base images, shared with its other
  /// segments; a segment built on its own gets a private store.
  Segment(PgId pg, size_t page_size,
          std::shared_ptr<BaseImageStore> images = nullptr)
      : pg_(pg),
        page_size_(page_size),
        images_(images != nullptr ? std::move(images)
                                  : std::make_shared<BaseImageStore>()) {}

  // Movable, not copyable: cache entries point at their own LRU nodes.
  Segment(Segment&&) = default;
  Segment& operator=(Segment&&) = default;
  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;

  /// Pre-loaded (snapshot-restored) volumes: pages that have never been
  /// written through the log can be synthesized deterministically on first
  /// touch instead of being materialized eagerly — the simulation analogue
  /// of a volume restored from an S3 snapshot. The function returns true if
  /// it produced the page's base image.
  using PageSynthesizer = std::function<bool(PageId, Page*)>;
  void set_page_synthesizer(PageSynthesizer fn) {
    synthesizer_ = std::move(fn);
  }

  PgId pg() const { return pg_; }
  size_t page_size() const { return page_size_; }

  // --- Hot log -------------------------------------------------------------
  /// Adds `(*owner)[index]` (from a writer batch or peer gossip);
  /// duplicates are ignored. Returns true if the record was new. Advances
  /// the SCL when the backlink chain extends. A record newer than every held
  /// one is appended in O(1); an older one is placed by binary search. The
  /// segment keeps the record in `owner`, a decoded batch the PG's other
  /// replicas usually keep too: records are never modified.
  bool AddRecord(const SharedRecords& owner, uint32_t index);
  /// Adds a private copy of `record` (restore, tests, benchmarks).
  bool AddRecord(const LogRecord& record) {
    return AddRecord(ShareRecords({record}), 0);
  }

  /// Segment Complete LSN: every record of the PG with LSN <= scl() is here.
  Lsn scl() const { return scl_; }
  /// Highest record LSN seen (may be beyond a gap).
  Lsn max_lsn() const { return max_lsn_; }
  /// True when records exist above the SCL (a gap is open).
  bool has_gap() const { return max_lsn_ > scl_; }

  bool HasRecord(Lsn lsn) const { return hot_log_.Contains(lsn); }
  size_t hot_log_size() const { return hot_log_.size(); }
  /// Runs the hot log keeps its records in (hot_log.h).
  size_t hot_log_runs() const { return hot_log_.runs(); }
  /// Entries of the page index: one per record that is not page-implied
  /// (hot_log.h), which is about one per page and run.
  size_t page_index_entries() const;

  /// Records this replica has with LSN > `from`, up to `max` of them, in
  /// LSN order — the gossip-push payload. Returns views of the held
  /// records, valid until this segment drops them (GC, truncation, state
  /// install), so consume synchronously.
  std::vector<RecordView> RecordsAbove(Lsn from, size_t max) const;

  /// The recovery inventory: (lsn, prev, flags) of every hot-log record.
  std::vector<InventoryEntry> Inventory() const;

  // --- Watermarks ----------------------------------------------------------
  void SetVdlHint(Lsn vdl) {
    if (vdl > vdl_hint_) vdl_hint_ = vdl;
  }
  Lsn vdl_hint() const { return vdl_hint_; }
  void SetPgmrpl(Lsn lsn) {
    if (lsn > pgmrpl_) pgmrpl_ = lsn;
  }
  Lsn pgmrpl() const { return pgmrpl_; }
  Epoch epoch() const { return epoch_; }

  /// Adopts `epoch` if it is newer than the segment's current epoch without
  /// truncating anything (write batches and gossip from a promoted writer
  /// fence this segment forward; see Truncate for the annulling path).
  /// Returns true if the epoch advanced. The epoch is part of SerializeTo,
  /// so adoption is durable once the node next persists.
  bool ObserveEpoch(Epoch epoch) {
    if (epoch <= epoch_) return false;
    epoch_ = epoch;
    return true;
  }

  /// Completeness snapshot for read replicas, whose requests carry no tail:
  /// as of volume VDL `vdl_snapshot`, this PG's newest record is `pg_tail`.
  /// Lets GetPageAsOf serve read points up to vdl_snapshot once the chain
  /// reaches pg_tail.
  void SetCompletenessSnapshot(Lsn vdl_snapshot, Lsn pg_tail) {
    if (vdl_snapshot > snapshot_vdl_) {
      snapshot_vdl_ = vdl_snapshot;
      snapshot_tail_ = pg_tail;
    }
  }

  // --- Materialization & reads ---------------------------------------------
  /// Applies up to `max_records` coalescable records (LSN <= the
  /// materialization limit) to base pages, advancing a copy of each touched
  /// page's image once, and interns the results. Returns how many records
  /// were applied.
  size_t CoalesceStep(size_t max_records);

  /// LSN up to which base pages may be advanced.
  Lsn MaterializationLimit() const;

  /// All records with LSN <= `floor` are reflected in base pages.
  Lsn applied_lsn() const { return applied_lsn_; }

  /// Whether this replica holds every record of the PG at or below
  /// `read_point`: the SCL covers the read point, a completeness snapshot
  /// does, or the reader's `tail` (the PG's newest record at or below the
  /// read point) is at or below the SCL. A tail the hot log contradicts —
  /// it holds a record of the PG in (tail, read_point] — is refused
  /// whatever the SCL says.
  bool CompleteAt(Lsn read_point, std::optional<Lsn> tail) const;

  /// The gates a read passes before any page is built: Unavailable unless
  /// CompleteAt (the caller picked the wrong segment), Stale if read_point
  /// is below the materialized floor.
  Status CheckReadPoint(Lsn read_point, std::optional<Lsn> tail) const;

  /// Reconstructs the page as of `read_point` (base image + log applies).
  /// Fails with CheckReadPoint's status, or NotFound if the page has never
  /// been written. The image is published: nothing modifies it after this
  /// returns, and a reconstruction cache entry may share it, so a full
  /// cache hit copies nothing, and neither does a read the base image
  /// already answers (no record of the page in (page LSN, read_point]),
  /// which returns the base image itself. The caller may keep it as long as
  /// it likes; replacing or evicting the entry only drops the cache's
  /// reference.
  Result<std::shared_ptr<const Page>> GetPageAsOf(
      PageId page, Lsn read_point,
      std::optional<Lsn> tail = std::nullopt) const;

  /// Number of materialized base pages.
  size_t num_pages() const { return base_pages_.size(); }

  // --- Reconstruction cache -------------------------------------------------
  /// Byte budget for the reconstructed-page cache consulted by GetPageAsOf.
  /// The cache is "simply a cache of the log application" (§4.2.3): each
  /// entry is a page image tagged with the LSN through which it was built,
  /// so a read at the same (or a newer, record-free) point skips the base
  /// copy + replay + CRC entirely, and a newer point replays only the LSN
  /// suffix. A budget below one page size disables caching; shrinking the
  /// budget evicts immediately.
  void set_page_cache_budget(uint64_t bytes);
  uint64_t page_cache_budget() const { return cache_budget_bytes_; }
  /// Current cache footprint (whole-page granularity).
  uint64_t page_cache_bytes() const {
    return cache_index_.size() * page_size_;
  }
  const PageCacheStats& page_cache_stats() const { return cache_stats_; }

  // --- GC / truncation / scrub ----------------------------------------------
  /// Drops hot-log records that are both applied to base pages and below the
  /// PGMRPL (Figure 4 step 7), except the chain head (the record at the
  /// SCL). Returns how many records were collected.
  size_t GarbageCollect();

  /// True while the retained hot log still holds the successor record of a
  /// replica whose contiguous prefix ends at `scl` — i.e., log shipping can
  /// still bridge that replica's gap. Once GC collects the successor, the
  /// gap is only healable by a full state copy.
  bool CanBridgeFrom(Lsn scl) const {
    return FindBacklink(scl) != kInvalidLsn;
  }

  /// Removes every record with LSN > `above`. Stale if `epoch` is older than
  /// the segment's current epoch; otherwise adopts the epoch. Idempotent.
  Status Truncate(Lsn above, Epoch epoch);

  /// Verifies CRCs of all base pages (Figure 4 step 8); returns the number
  /// of corrupt pages found (and records them for repair).
  size_t ScrubPages();
  const std::set<PageId>& corrupt_pages() const { return corrupt_pages_; }
  /// Drops a corrupt base page so it re-materializes from a peer copy.
  void DropPageForRepair(PageId page);
  /// Installs a healthy copy of a base page fetched from a peer. The copy
  /// may be ahead of this replica's applied floor; redo application is
  /// idempotent so subsequent coalescing is safe.
  void RestoreBasePage(PageId page, Page healthy);
  /// Testing hook: flips a bit in a materialized base page. Like
  /// CorruptNthBasePage it flips it in a private copy, never in an image a
  /// peer may share.
  void CorruptBasePageForTesting(PageId page);
  /// Latent-fault hook for sim::Disk: flips a bit in the nth (mod count)
  /// materialized base page, as if a sector under it rotted. Returns false
  /// if there is no formatted base page to corrupt.
  bool CorruptNthBasePage(uint64_t nth);

  // --- Backup --------------------------------------------------------------
  /// Records with LSN in (backup_lsn, scl] not yet staged to S3. Views as
  /// for RecordsAbove — consume synchronously.
  std::vector<RecordView> UnbackedRecords(size_t max) const;
  void MarkBackedUp(Lsn through) {
    if (through > backup_lsn_) backup_lsn_ = through;
  }
  Lsn backup_lsn() const { return backup_lsn_; }

  // --- Repair (re-replication) ----------------------------------------------
  /// Full-state serialization: hot log, base pages, watermarks. The blob
  /// size models the bytes moved during segment repair (§2.2).
  void SerializeTo(std::string* dst) const;
  Status DeserializeFrom(Slice input);

  /// Approximate byte footprint (hot log + pages), for repair-time modeling.
  uint64_t ApproximateBytes() const;

 private:
  /// One backlink-index entry: the record `lsn` links back to `prev`.
  struct Backlink {
    Lsn prev;
    Lsn lsn;
  };
  using Backlinks = std::deque<Backlink>;
  using Slot = uint32_t;

  /// Places the record in the hot log and both indexes; false if its LSN
  /// is already there.
  bool Insert(const SharedRecords& owner, uint32_t index);
  void AdvanceScl();
  /// The record whose backlink is `prev` (the newest added), or kInvalidLsn.
  Lsn FindBacklink(Lsn prev) const;
  /// Where an explicit entry for `prev` is or would go in chain_.
  Backlinks::const_iterator ExplicitSlot(Lsn prev) const;
  Backlinks::const_iterator FindExplicit(Lsn prev) const;
  void SetBacklink(Lsn prev, Lsn lsn);
  void EraseExplicit(Lsn prev);
  /// Erases the link keyed `prev`, explicit or implied.
  void EraseBacklink(Lsn prev);
  /// Keeps the link prev -> lsn, which its run stopped implying (a split or
  /// GC separated the two records), unless it was erased or overridden.
  void Unimply(Lsn prev, Lsn lsn);
  /// Applies `page`'s hot-log records in (after, through] to `*image`,
  /// first making it a copy of `from` if it is null. Leaves it null when
  /// there are none.
  Status Replay(PageId page, Lsn after, Lsn through, const Page& from,
                std::shared_ptr<Page>* image) const;

  /// One page's entries in the page index: the LSNs of its hot-log records
  /// that are not page-implied, ascending. The page's other records follow
  /// each entry in its run (HotLog::WalkPage), below the next entry. A slot
  /// whose list empties is freed, and the next page to need one reuses it.
  struct PageRecords {
    PageId page = kInvalidPage;
    std::vector<Lsn> entries;
  };
  Slot FindPageRecords(PageId page) const {
    return page_index_.Find(Mix64(page), [&](Slot s) {
      return page_records_[s].page == page;
    });
  }
  void AddPageEntry(PageId page, Lsn lsn);
  void ReleasePageRecordsIfEmpty(Slot slot);

  /// A reconstructed page image valid through built_lsn: it reflects every
  /// record of the page with LSN <= built_lsn and nothing above. The image
  /// is never modified once cached (a reader may still hold it); a newer
  /// build replaces the pointer. `lru_it` is the slot's own node, which
  /// moves between cache_lru_ and cache_free_ and is never reallocated.
  /// Mutable state because GetPageAsOf is logically const.
  struct CacheEntry {
    PageId page = kInvalidPage;
    std::shared_ptr<const Page> image;
    Lsn built_lsn = kInvalidLsn;
    std::list<Slot>::iterator lru_it;
  };
  bool CacheEnabled() const { return cache_budget_bytes_ >= page_size_; }
  Slot CacheFind(PageId page) const {
    return cache_index_.Find(Mix64(page), [&](Slot s) {
      return cache_slots_[s].page == page;
    });
  }
  /// Caches `image` for `page`, which has no entry, evicting the least
  /// recently used entries to fit it under the budget.
  void CacheAdd(PageId page, std::shared_ptr<const Page> image,
                Lsn built_lsn) const;
  /// Moves the entry to the most-recent end of the LRU list.
  void CacheTouch(const CacheEntry& entry) const {
    cache_lru_.splice(cache_lru_.end(), cache_lru_, entry.lru_it);
  }
  void CacheEvictOldest() const;
  void CacheFree(Slot slot) const;
  void CacheErase(PageId page);
  void CacheClear();
  /// Drops entries whose validity predicate fails (e.g. after truncation or
  /// GC moved the window they were built against).
  template <typename Pred>
  void CacheEraseIf(Pred pred) {
    for (auto it = cache_lru_.begin(); it != cache_lru_.end();) {
      const Slot slot = *it++;  // CacheFree moves the slot's node away
      if (pred(cache_slots_[slot])) CacheFree(slot);
    }
  }

  PgId pg_;
  size_t page_size_;

  /// LSN-ordered (DESIGN.md §5): records nearly always arrive as the
  /// segment's newest, so inserts append; GC pops the front and truncation
  /// the back. Runs share their batches with the PG's other replicas;
  /// dropping one only releases this replica's reference.
  HotLog hot_log_;
  /// The backlink index (prev -> the newest record added with it, erased
  /// by prev): implied records' links (hot_log.h), overridden by chain_'s
  /// entries (sorted by prev) and hidden by dead_links_ (erased since).
  Backlinks chain_;
  std::set<Lsn> dead_links_;
  /// Per-page entry lists in stable slots (a deque: slots never move),
  /// found through `page_index_` by a fixed hash of the page id, so no
  /// address or bucket order reaches the simulation.
  std::deque<PageRecords> page_records_;
  std::vector<Slot> free_page_records_;
  SlotIndex page_index_;

  /// Replaces the base image of `it`'s page with a copy that has one bit
  /// flipped, and drops the page's cache entry.
  void CorruptBasePage(std::map<PageId, BaseImageStore::Image>::iterator it);

  std::map<PageId, BaseImageStore::Image> base_pages_;
  std::shared_ptr<BaseImageStore> images_;
  PageSynthesizer synthesizer_;
  Lsn applied_lsn_ = kInvalidLsn;

  Lsn scl_ = kInvalidLsn;
  Lsn max_lsn_ = kInvalidLsn;
  Lsn vdl_hint_ = kInvalidLsn;
  Lsn pgmrpl_ = kInvalidLsn;
  Lsn backup_lsn_ = kInvalidLsn;
  Lsn snapshot_vdl_ = kInvalidLsn;
  Lsn snapshot_tail_ = kInvalidLsn;
  Epoch epoch_ = 0;

  /// Mutable because the read path (GetPageAsOf, logically const) records a
  /// CRC mismatch it discovers so the scrub/repair machinery can heal it.
  mutable std::set<PageId> corrupt_pages_;

  /// The reconstruction cache (DESIGN.md §5): entries in stable slots found
  /// through `cache_index_` by a fixed hash of the page id. `cache_lru_`
  /// lists the live slots, least recently added or served first, which is
  /// the order eviction takes them in; `cache_free_` holds the freed
  /// slots' nodes for reuse.
  uint64_t cache_budget_bytes_ = 0;  // 0 = cache disabled
  mutable std::deque<CacheEntry> cache_slots_;
  mutable SlotIndex cache_index_;
  mutable std::list<Slot> cache_lru_;
  mutable std::list<Slot> cache_free_;
  mutable PageCacheStats cache_stats_;
};

}  // namespace aurora

#endif  // AURORA_STORAGE_SEGMENT_H_
