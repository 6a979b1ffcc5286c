#include "storage/segment.h"

#include <algorithm>
#include <limits>

#include "common/coding.h"
#include "common/logging.h"
#include "log/applicator.h"

namespace aurora {

bool Segment::AddRecord(const SharedRecords& owner, uint32_t index) {
  const RecordView record = (*owner)[index];
  const Lsn lsn = record.lsn;
  const Lsn prev = record.prev_pg_lsn;
  const PageId page = record.page_id;
  if (lsn == kInvalidLsn) return false;
  // Records at or below the applied floor are already reflected in base
  // pages (and possibly garbage collected); re-adding them (late gossip)
  // would leave unreclaimable junk.
  if (lsn <= applied_lsn_) return false;
  const bool newest = lsn > hot_log_.last_lsn();
  if (!Insert(owner, index)) return false;
  if (lsn > max_lsn_) max_lsn_ = lsn;
  // A record above the cached entry's build point is picked up by partial
  // replay; one at or below it (late gossip filling a gap) means the cached
  // image was built without it — drop the entry.
  if (cache_index_.size() != 0) {
    const Slot slot = CacheFind(page);
    if (slot != SlotIndex::kNone && lsn <= cache_slots_[slot].built_lsn) {
      CacheFree(slot);
    }
  }
  // The newest record extending the chain ends it: every backlink points
  // below its record, so nothing held can link on to it.
  if (newest && prev == scl_) {
    scl_ = lsn;
  } else {
    AdvanceScl();
  }
  return true;
}

bool Segment::Insert(const SharedRecords& owner, uint32_t index) {
  const RecordView record = (*owner)[index];
  const Lsn lsn = record.lsn;
  const Lsn prev = record.prev_pg_lsn;
  // A split cuts records from their previous page record: they need entries.
  const HotLog::Placed placed =
      hot_log_.Add(owner, index, [this](const RecordView& r) {
        AddPageEntry(r.page_id, r.lsn);
      });
  if (placed.held) return false;
  if (placed.cut != kInvalidLsn) Unimply(placed.cut_prev, placed.cut);
  if (placed.implied) {
    // Its run states the link, and it is the newest with this backlink.
    EraseExplicit(prev);
    if (!dead_links_.empty()) dead_links_.erase(prev);
  } else {
    SetBacklink(prev, lsn);
  }
  if (!placed.page_implied) AddPageEntry(record.page_id, lsn);
  return true;
}

void Segment::AddPageEntry(PageId page, Lsn lsn) {
  Slot slot = FindPageRecords(page);
  if (slot == SlotIndex::kNone) {
    if (free_page_records_.empty()) {
      slot = static_cast<Slot>(page_records_.size());
      page_records_.emplace_back();
    } else {
      slot = free_page_records_.back();
      free_page_records_.pop_back();
    }
    page_records_[slot].page = page;
    page_index_.Insert(Mix64(page), slot);
  }
  std::vector<Lsn>& entries = page_records_[slot].entries;
  if (entries.empty() || lsn > entries.back()) {
    entries.push_back(lsn);
  } else {
    entries.insert(std::lower_bound(entries.begin(), entries.end(), lsn), lsn);
  }
}

void Segment::ReleasePageRecordsIfEmpty(Slot slot) {
  PageRecords& records = page_records_[slot];
  if (!records.entries.empty()) return;
  page_index_.Erase(Mix64(records.page), slot);
  records = PageRecords();  // frees the list's storage
  free_page_records_.push_back(slot);
}

size_t Segment::page_index_entries() const {
  size_t n = 0;
  for (const PageRecords& records : page_records_) n += records.entries.size();
  return n;
}

void Segment::AdvanceScl() {
  for (Lsn next = FindBacklink(scl_); next != kInvalidLsn;
       next = FindBacklink(scl_)) {
    scl_ = next;
  }
}

Lsn Segment::FindBacklink(Lsn prev) const {
  auto it = FindExplicit(prev);
  if (it != chain_.end()) return it->lsn;
  if (dead_links_.count(prev) != 0) return kInvalidLsn;
  return hot_log_.ImpliedSuccessor(prev);
}

Segment::Backlinks::const_iterator Segment::ExplicitSlot(Lsn prev) const {
  // Runs start at the newest records, so new entries nearly always append.
  if (chain_.empty() || prev > chain_.back().prev) return chain_.end();
  return std::lower_bound(
      chain_.begin(), chain_.end(), prev,
      [](const Backlink& b, Lsn key) { return b.prev < key; });
}

Segment::Backlinks::const_iterator Segment::FindExplicit(Lsn prev) const {
  auto it = ExplicitSlot(prev);
  return it == chain_.end() || it->prev != prev ? chain_.end() : it;
}

void Segment::SetBacklink(Lsn prev, Lsn lsn) {
  auto it = chain_.begin() + (ExplicitSlot(prev) - chain_.cbegin());
  if (it != chain_.end() && it->prev == prev) {
    // Records sharing a backlink (an annulled record that gossip brought
    // back beside its successor): the last one added wins.
    it->lsn = lsn;
  } else {
    chain_.insert(it, {prev, lsn});
  }
}

void Segment::EraseExplicit(Lsn prev) {
  auto it = FindExplicit(prev);
  if (it != chain_.end()) chain_.erase(it);
}

void Segment::EraseBacklink(Lsn prev) {
  EraseExplicit(prev);
  if (hot_log_.ImpliedSuccessor(prev) != kInvalidLsn) {
    dead_links_.insert(prev);
  } else {
    dead_links_.erase(prev);
  }
}

void Segment::Unimply(Lsn prev, Lsn lsn) {
  // No run implies `prev` any more, so its dead mark has done its job.
  if (dead_links_.erase(prev) != 0) return;
  if (FindExplicit(prev) == chain_.end()) SetBacklink(prev, lsn);
}

std::vector<RecordView> Segment::RecordsAbove(Lsn from, size_t max) const {
  std::vector<RecordView> out;
  for (auto it = hot_log_.UpperBound(from);
       it != hot_log_.end() && out.size() < max; ++it) {
    out.push_back(*it);
  }
  return out;
}

std::vector<InventoryEntry> Segment::Inventory() const {
  std::vector<InventoryEntry> out;
  out.reserve(hot_log_.size());
  for (const RecordView r : hot_log_) {
    out.push_back({r.lsn, r.prev_pg_lsn, r.prev_vol_lsn, r.flags});
  }
  return out;
}

Lsn Segment::MaterializationLimit() const {
  // Never materialize beyond what is (a) locally complete, (b) known
  // durable volume-wide (so post-crash truncation cannot undo a base page),
  // and (c) below every possible outstanding read point.
  return std::min(scl_, std::min(vdl_hint_, pgmrpl_));
}

size_t Segment::CoalesceStep(size_t max_records) {
  const Lsn limit = MaterializationLimit();
  // The step's records, grouped by page and in LSN order within a page.
  std::vector<RecordView> step;
  for (auto it = hot_log_.UpperBound(applied_lsn_);
       it != hot_log_.end() && it->lsn <= limit && step.size() < max_records;
       ++it) {
    step.push_back(*it);
  }
  if (step.empty()) return 0;
  std::sort(step.begin(), step.end(),
            [](const RecordView& a, const RecordView& b) {
              return a.page_id != b.page_id ? a.page_id < b.page_id
                                            : a.lsn < b.lsn;
            });
  // Each page's records, with its base image or the page this step
  // creates. A record cannot apply to an unformatted page unless it formats
  // it: the page's base image was dropped for repair after its format
  // record retired into it. The step stops below the first such record, so
  // the materialization frontier holds there until a peer copy is
  // restored, and creates no base page for it: an empty entry is
  // indistinguishable from a missing one, and reads must keep treating the
  // page as lost.
  struct Touched {
    size_t begin;
    size_t end;
    std::map<PageId, BaseImageStore::Image>::iterator base;
    std::shared_ptr<Page> created;  // when the page has no base image
  };
  std::vector<Touched> touched;
  Lsn stop = std::numeric_limits<Lsn>::max();
  for (size_t begin = 0; begin < step.size();) {
    const PageId id = step[begin].page_id;
    size_t end = begin + 1;
    while (end < step.size() && step[end].page_id == id) ++end;
    Touched t{begin, end, base_pages_.find(id), nullptr};
    if (t.base == base_pages_.end()) {
      t.created = std::make_shared<Page>(page_size_);
      if (synthesizer_) synthesizer_(id, t.created.get());
    }
    const Page& start = t.created ? *t.created : *t.base->second;
    if (!start.IsFormatted() && step[begin].op != RedoOp::kFormatPage) {
      stop = std::min(stop, step[begin].lsn);
    }
    touched.push_back(std::move(t));
    begin = end;
  }
  size_t applied = 0;
  for (Touched& t : touched) {
    size_t end = t.begin;
    while (end < t.end && step[end].lsn < stop) ++end;
    if (end == t.begin) {
      if (t.base != base_pages_.end() && step[t.begin].lsn == stop) {
        base_pages_.erase(t.base);
      }
      continue;
    }
    // Peers, readers and the reconstruction cache may hold the base image:
    // advance a copy.
    const PageId id = step[t.begin].page_id;
    std::shared_ptr<Page> image =
        t.created ? std::move(t.created)
                  : std::make_shared<Page>(*t.base->second);
    for (size_t i = t.begin; i < end; ++i) {
      Status s = LogApplicator::Apply(step[i], image.get());
      AURORA_CHECK(s.ok(), "coalesce apply failed (non-deterministic redo?)");
      applied_lsn_ = std::max(applied_lsn_, step[i].lsn);
    }
    // One CRC per page: nothing reads the image within a step, so only the
    // step's final bytes need one.
    image->UpdateCrc();
    BaseImageStore::Image interned = images_->Intern(id, std::move(image));
    if (t.base != base_pages_.end()) {
      t.base->second = std::move(interned);
    } else {
      base_pages_.emplace(id, std::move(interned));
    }
    applied += end - t.begin;
  }
  return applied;
}

bool Segment::CompleteAt(Lsn read_point, std::optional<Lsn> tail) const {
  if (tail.has_value()) {
    // A record of this PG in (tail, read_point] contradicts the reader's
    // tail: this log and the writer's disagree, so vouch for nothing.
    auto next = hot_log_.UpperBound(*tail);
    if (next != hot_log_.end() && next->lsn <= read_point) return false;
    // The PG has no records in (tail, read_point], so a chain that reaches
    // the tail covers the read point.
    if (*tail <= read_point && scl_ >= *tail) return true;
  }
  // The chain covers the read point directly, or a consistent snapshot
  // proves this PG has no records in (scl, read_point].
  return read_point <= scl_ ||
         (read_point <= snapshot_vdl_ && scl_ >= snapshot_tail_);
}

Status Segment::CheckReadPoint(Lsn read_point, std::optional<Lsn> tail) const {
  if (!CompleteAt(read_point, tail)) {
    return Status::Unavailable("segment incomplete at read point");
  }
  if (read_point < applied_lsn_) {
    return Status::Stale("read point below materialized floor");
  }
  return Status::OK();
}

Result<std::shared_ptr<const Page>> Segment::GetPageAsOf(
    PageId page, Lsn read_point, std::optional<Lsn> tail) const {
  Status gate = CheckReadPoint(read_point, tail);
  if (!gate.ok()) return gate;

  const bool cache_on = CacheEnabled();
  bool historical = false;  // read point below the cached version: bypass
  if (cache_on) {
    const Slot slot = CacheFind(page);
    if (slot != SlotIndex::kNone) {
      CacheEntry& entry = cache_slots_[slot];
      if (read_point >= entry.built_lsn) {
        // Partial hit: replay only the records for this page in
        // (built_lsn, read_point] on a copy of the cached image. Redo
        // application is deterministic, so this yields byte-identical
        // results to a full rebuild (the cached image already reflects
        // everything <= built_lsn). With none, it is a full hit.
        std::shared_ptr<Page> result;
        Status s =
            Replay(page, entry.built_lsn, read_point, *entry.image, &result);
        if (!s.ok()) return s;
        if (result == nullptr) {
          ++cache_stats_.hits;
          CacheTouch(entry);
          return entry.image;
        }
        result->UpdateCrc();
        ++cache_stats_.partial_hits;
        entry.image = std::move(result);
        entry.built_lsn = read_point;
        CacheTouch(entry);
        return entry.image;
      }
      historical = true;
    }
  }

  std::shared_ptr<const Page> image;
  auto base_it = base_pages_.find(page);
  if (base_it != base_pages_.end() && base_it->second->IsFormatted()) {
    const Page& base = *base_it->second;
    // Verify the stored image before serving it: a latent sector fault
    // planted between scrub rounds must surface as Corruption (triggering
    // read-repair from a peer), never as a silently wrong page.
    if (!base.VerifyCrc()) {
      corrupt_pages_.insert(page);
      return Status::Corruption("base page CRC mismatch");
    }
    // Redo at or below the page LSN would be skipped, so only newer
    // records change the image. With none, the base image is the answer.
    std::shared_ptr<Page> result;
    Status s = Replay(page, base.page_lsn(), read_point, base, &result);
    if (!s.ok()) return s;
    if (result == nullptr) {
      image = base_it->second;
    } else {
      result->UpdateCrc();
      image = std::move(result);
    }
  } else {
    std::shared_ptr<Page> result;
    if (base_it != base_pages_.end()) {
      result = std::make_shared<Page>(*base_it->second);
    } else {
      result = std::make_shared<Page>(page_size_);
      if (synthesizer_) synthesizer_(page, result.get());
    }
    Status s = Replay(page, kInvalidLsn, read_point, *result, &result);
    if (!s.ok()) return s;
    if (!result->IsFormatted()) {
      return Status::NotFound("page never written");
    }
    result->UpdateCrc();
    image = std::move(result);
  }
  if (cache_on) {
    ++cache_stats_.misses;
    // Historical reads must not displace the newer cached version.
    if (!historical) CacheAdd(page, image, read_point);
  }
  return image;
}

Status Segment::Replay(PageId page, Lsn after, Lsn through, const Page& from,
                       std::shared_ptr<Page>* image) const {
  const Slot slot = FindPageRecords(page);
  if (slot == SlotIndex::kNone) return Status::OK();
  const std::vector<Lsn>& entries = page_records_[slot].entries;
  // The last entry at or below `after` may lead to records above it.
  auto it = std::upper_bound(entries.begin(), entries.end(), after);
  if (it != entries.begin()) --it;
  // Each entry's records lie below the next entry, so the walk is in LSN
  // order and ends at the first record above `through`.
  Status s;
  bool more = true;
  for (; more && it != entries.end() && *it <= through; ++it) {
    hot_log_.WalkPage(*it, [&](const RecordView& rec) {
      if (rec.lsn > through) return more = false;
      if (rec.lsn <= after) return true;
      if (*image == nullptr) *image = std::make_shared<Page>(from);
      s = LogApplicator::Apply(rec, image->get());
      return more = s.ok();
    });
  }
  return s;
}

void Segment::set_page_cache_budget(uint64_t bytes) {
  cache_budget_bytes_ = bytes;
  if (!CacheEnabled()) {
    CacheClear();
    return;
  }
  while (cache_index_.size() * page_size_ > cache_budget_bytes_) {
    CacheEvictOldest();
  }
}

void Segment::CacheAdd(PageId page, std::shared_ptr<const Page> image,
                       Lsn built_lsn) const {
  // Evict to fit the new entry under the byte budget (LRU order).
  while (cache_index_.size() != 0 &&
         (cache_index_.size() + 1) * page_size_ > cache_budget_bytes_) {
    CacheEvictOldest();
  }
  Slot slot;
  if (cache_free_.empty()) {
    slot = static_cast<Slot>(cache_slots_.size());
    cache_slots_.emplace_back();
    cache_lru_.push_back(slot);
    cache_slots_[slot].lru_it = std::prev(cache_lru_.end());
  } else {
    slot = cache_free_.front();
    cache_lru_.splice(cache_lru_.end(), cache_free_, cache_free_.begin());
  }
  CacheEntry& entry = cache_slots_[slot];
  entry.page = page;
  entry.image = std::move(image);
  entry.built_lsn = built_lsn;
  cache_index_.Insert(Mix64(page), slot);
}

void Segment::CacheEvictOldest() const {
  CacheFree(cache_lru_.front());
  ++cache_stats_.evictions;
}

void Segment::CacheFree(Slot slot) const {
  CacheEntry& entry = cache_slots_[slot];
  cache_index_.Erase(Mix64(entry.page), slot);
  entry.page = kInvalidPage;
  entry.image.reset();  // a reader may still hold it
  cache_free_.splice(cache_free_.begin(), cache_lru_, entry.lru_it);
}

void Segment::CacheErase(PageId page) {
  const Slot slot = CacheFind(page);
  if (slot != SlotIndex::kNone) CacheFree(slot);
}

void Segment::CacheClear() {
  cache_slots_.clear();
  cache_index_.Clear();
  cache_lru_.clear();
  cache_free_.clear();
}

size_t Segment::GarbageCollect() {
  const Lsn floor = std::min(applied_lsn_, pgmrpl_);
  size_t collected = 0;
  while (!hot_log_.empty() && hot_log_.front().lsn <= floor) {
    const RecordView rec = hot_log_.front();
    // The chain head stays: recovery learns the PG's newest record (the
    // backlink of the next one) from this hot log's inventory.
    if (rec.lsn == scl_) break;
    // Its backlink names a record older than any held, which no run can
    // imply, so only an explicit entry can hold it.
    EraseExplicit(rec.prev_pg_lsn);
    // Collecting this record can strand a cached image of its page:
    // (a) if the image predates the record (built_lsn < lsn), a later
    //     partial replay could no longer find it in the hot log and would
    //     serve the page without it (the full rebuild has it via the base);
    // (b) if the page's base image is gone (dropped for repair, awaiting a
    //     peer copy), this record was the only remaining source of its
    //     data, and a surviving image would outlive the segment's own
    //     knowledge. Reads must degrade exactly as without the cache.
    // Entries for pages untouched by this collection stay valid: their
    // images already reflect everything the hot log is forgetting.
    if (cache_index_.size() != 0) {
      const Slot slot = CacheFind(rec.page_id);
      if (slot != SlotIndex::kNone) {
        auto base_it = base_pages_.find(rec.page_id);
        const bool base_lost = base_it == base_pages_.end() ||
                               !base_it->second->IsFormatted();
        if (base_lost || cache_slots_[slot].built_lsn < rec.lsn) {
          CacheFree(slot);
        }
      }
    }
    // Popping may free the batch `rec` views: read it first.
    const Lsn lsn = rec.lsn;
    const Slot slot = FindPageRecords(rec.page_id);
    const HotLog::Popped popped = hot_log_.PopFront();
    if (popped.implied != kInvalidLsn) Unimply(lsn, popped.implied);
    // The log's oldest record starts its run, so it is its page's oldest
    // entry; its run's next record of the page, if any, takes its place.
    std::vector<Lsn>& entries = page_records_[slot].entries;
    if (popped.page_next != kInvalidLsn) {
      entries.front() = popped.page_next;
    } else {
      entries.erase(entries.begin());
      ReleasePageRecordsIfEmpty(slot);
    }
    ++collected;
  }
  return collected;
}

Status Segment::Truncate(Lsn above, Epoch epoch) {
  if (epoch < epoch_) {
    return Status::Stale("truncate from an older volume epoch");
  }
  epoch_ = epoch;
  AURORA_CHECK(applied_lsn_ <= above,
               "truncation below materialized pages — VDL went backwards");
  while (!hot_log_.empty() && hot_log_.back().lsn > above) {
    const RecordView rec = hot_log_.back();
    const Lsn prev = rec.prev_pg_lsn;
    // The log's newest record is also its page's newest, so if it has an
    // entry, that is its page's newest entry.
    const Slot slot = FindPageRecords(rec.page_id);
    std::vector<Lsn>& entries = page_records_[slot].entries;
    if (entries.back() == rec.lsn) {
      entries.pop_back();
      ReleasePageRecordsIfEmpty(slot);
    }
    hot_log_.PopBack();
    EraseBacklink(prev);
  }
  // The newest surviving record, not `above` itself: the writer's next
  // record of this PG links to it, and the chain must meet the SCL there.
  Lsn newest = applied_lsn_;
  if (!hot_log_.empty()) newest = std::max(newest, hot_log_.back().lsn);
  if (scl_ > above) scl_ = newest;
  if (max_lsn_ > above) max_lsn_ = newest;
  if (backup_lsn_ > above) backup_lsn_ = above;
  // Cached images built beyond the truncation point contain records that no
  // longer exist.
  CacheEraseIf([above](const CacheEntry& e) { return e.built_lsn > above; });
  // The chain may now extend again from a lower point (it shouldn't, but
  // recompute defensively).
  AdvanceScl();
  return Status::OK();
}

size_t Segment::ScrubPages() {
  size_t corrupt = 0;
  for (const auto& [id, page] : base_pages_) {
    if (!page->VerifyCrc()) {
      corrupt_pages_.insert(id);
      ++corrupt;
    }
  }
  return corrupt;
}

void Segment::DropPageForRepair(PageId page) {
  base_pages_.erase(page);
  corrupt_pages_.erase(page);
  CacheErase(page);
}

void Segment::RestoreBasePage(PageId page, Page healthy) {
  corrupt_pages_.erase(page);
  base_pages_.insert_or_assign(
      page, images_->Intern(page, std::make_shared<Page>(std::move(healthy))));
  // The installed copy may be ahead of what the cached image was built
  // against; rebuild from the fresh base on the next read.
  CacheErase(page);
}

void Segment::CorruptBasePage(
    std::map<PageId, BaseImageStore::Image>::iterator it) {
  // Peers may share the image: rot a private copy, which is never interned.
  auto copy = std::make_shared<Page>(*it->second);
  copy->CorruptForTesting(100);
  it->second = std::move(copy);
  // Keep reads faithful to the (now corrupt) base image so scrub/repair
  // observe the corruption rather than a cached clean copy.
  CacheErase(it->first);
}

void Segment::CorruptBasePageForTesting(PageId page) {
  auto it = base_pages_.find(page);
  if (it != base_pages_.end()) {
    CorruptBasePage(it);
  } else {
    CacheErase(page);
  }
}

bool Segment::CorruptNthBasePage(uint64_t nth) {
  if (base_pages_.empty()) return false;
  auto it = base_pages_.begin();
  std::advance(it, nth % base_pages_.size());
  if (!it->second->IsFormatted()) return false;
  CorruptBasePage(it);
  return true;
}

std::vector<RecordView> Segment::UnbackedRecords(size_t max) const {
  std::vector<RecordView> out;
  for (auto it = hot_log_.UpperBound(backup_lsn_);
       it != hot_log_.end() && it->lsn <= scl_ && out.size() < max; ++it) {
    out.push_back(*it);
  }
  return out;
}

void Segment::SerializeTo(std::string* dst) const {
  PutVarint32(dst, pg_);
  PutVarint64(dst, page_size_);
  PutVarint64(dst, scl_);
  PutVarint64(dst, max_lsn_);
  PutVarint64(dst, vdl_hint_);
  PutVarint64(dst, pgmrpl_);
  PutVarint64(dst, backup_lsn_);
  PutVarint64(dst, epoch_);
  PutVarint64(dst, applied_lsn_);
  PutVarint64(dst, hot_log_.size());
  for (const RecordView r : hot_log_) r.EncodeTo(dst);
  PutVarint64(dst, base_pages_.size());
  for (const auto& [id, page] : base_pages_) {
    PutVarint64(dst, id);
    PutLengthPrefixedSlice(dst, page->raw());
  }
}

Status Segment::DeserializeFrom(Slice input) {
  uint32_t pg;
  uint64_t page_size, n_records, n_pages;
  if (!GetVarint32(&input, &pg) || !GetVarint64(&input, &page_size) ||
      !GetVarint64(&input, &scl_) || !GetVarint64(&input, &max_lsn_) ||
      !GetVarint64(&input, &vdl_hint_) || !GetVarint64(&input, &pgmrpl_) ||
      !GetVarint64(&input, &backup_lsn_) || !GetVarint64(&input, &epoch_) ||
      !GetVarint64(&input, &applied_lsn_) ||
      !GetVarint64(&input, &n_records)) {
    return Status::Corruption("bad segment state header");
  }
  pg_ = pg;
  page_size_ = page_size;
  hot_log_ = HotLog();
  chain_.clear();
  dead_links_.clear();
  page_records_.clear();
  free_page_records_.clear();
  page_index_.Clear();
  base_pages_.clear();
  CacheClear();
  // One owner for the whole restored hot log, as for a decoded batch.
  std::vector<LogRecord> records;
  for (uint64_t i = 0; i < n_records; ++i) {
    LogRecord rec;
    Status s = LogRecord::DecodeFrom(&input, &rec);
    if (!s.ok()) return s;
    records.push_back(std::move(rec));
  }
  const SharedRecords owner = ShareRecords(records);
  for (uint32_t i = 0; i < owner->size(); ++i) Insert(owner, i);
  if (!GetVarint64(&input, &n_pages)) {
    return Status::Corruption("bad segment state pages");
  }
  for (uint64_t i = 0; i < n_pages; ++i) {
    uint64_t id;
    Slice raw;
    if (!GetVarint64(&input, &id) || !GetLengthPrefixedSlice(&input, &raw)) {
      return Status::Corruption("bad segment page entry");
    }
    auto page = std::make_shared<Page>(page_size_);
    Status s = page->LoadRaw(raw);
    if (!s.ok()) return s;
    base_pages_.emplace(id, images_->Intern(id, std::move(page)));
  }
  return Status::OK();
}

uint64_t Segment::ApproximateBytes() const {
  uint64_t bytes = 0;
  for (const RecordView r : hot_log_) bytes += r.EncodedSize();
  bytes += base_pages_.size() * page_size_;
  return bytes;
}

}  // namespace aurora
