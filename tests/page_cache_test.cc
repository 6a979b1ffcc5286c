#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "storage/segment.h"

namespace aurora {
namespace {

// Same chain shape as segment_test.cc: record i gets lsn base+i*10, backlink
// to its predecessor, targeting page (i % pages), format on first touch.
std::vector<LogRecord> MakeChain(int n, Lsn base = 100, int pages = 4) {
  std::vector<LogRecord> records;
  Lsn prev = kInvalidLsn;
  Lsn vprev = kInvalidLsn;
  for (int i = 0; i < n; ++i) {
    LogRecord r;
    r.lsn = base + static_cast<Lsn>(i) * 10;
    r.prev_pg_lsn = prev;
    r.prev_vol_lsn = vprev;
    r.page_id = static_cast<PageId>(i % pages);
    r.txn_id = 1;
    if (i % pages == i) {
      r.op = RedoOp::kFormatPage;
      r.payload = LogRecord::MakeFormatPayload(
          static_cast<uint8_t>(PageType::kBTreeLeaf), 0);
    } else {
      r.op = RedoOp::kInsert;
      r.payload = LogRecord::MakeKeyValuePayload(
          "k" + std::to_string(i), "v" + std::to_string(i));
    }
    if (i % 3 == 2) r.flags = kFlagCpl;
    prev = r.lsn;
    vprev = r.lsn;
    records.push_back(std::move(r));
  }
  return records;
}

// A cached segment and a cache-disabled control driven with identical
// inputs; the cache must be invisible in every observable way.
struct SegmentPair {
  Segment cached;
  Segment control;
  explicit SegmentPair(size_t page_size = 4096,
                       uint64_t budget = 64 * 4096)
      : cached(0, page_size), control(0, page_size) {
    cached.set_page_cache_budget(budget);
  }
  void Add(const std::vector<LogRecord>& records) {
    for (const auto& r : records) {
      cached.AddRecord(r);
      control.AddRecord(r);
    }
  }
  // Reads both segments at (page, rp) and requires identical outcomes.
  void ExpectSameRead(PageId page, Lsn rp,
                      std::optional<Lsn> tail = std::nullopt) {
    auto a = cached.GetPageAsOf(page, rp, tail);
    auto b = control.GetPageAsOf(page, rp, tail);
    ASSERT_EQ(a.ok(), b.ok()) << "page " << page << " @" << rp << ": "
                              << a.status().ToString() << " vs "
                              << b.status().ToString();
    if (a.ok()) {
      EXPECT_EQ((*a)->raw(), (*b)->raw()) << "page " << page << " @" << rp;
    } else {
      EXPECT_EQ(a.status().code(), b.status().code())
          << "page " << page << " @" << rp;
    }
  }
};

TEST(PageCacheTest, FullHitServesIdenticalBytesWithoutReplay) {
  SegmentPair pair;
  pair.Add(MakeChain(12));
  const Lsn rp = pair.control.scl();

  pair.ExpectSameRead(0, rp);
  EXPECT_EQ(pair.cached.page_cache_stats().misses, 1u);
  EXPECT_EQ(pair.cached.page_cache_stats().hits, 0u);

  pair.ExpectSameRead(0, rp);
  EXPECT_EQ(pair.cached.page_cache_stats().hits, 1u);
  EXPECT_EQ(pair.cached.page_cache_stats().misses, 1u);
  // The control's stats stay untouched (its cache is disabled).
  EXPECT_EQ(pair.control.page_cache_stats().misses, 0u);
  EXPECT_EQ(pair.control.page_cache_bytes(), 0u);
}

TEST(PageCacheTest, PartialHitReplaysOnlyTheSuffix) {
  SegmentPair pair;
  auto records = MakeChain(16);
  pair.Add(records);
  // Build the entry at a mid-chain read point, then read at the tip: only
  // the records in between should be replayed on top of the cached image.
  pair.ExpectSameRead(0, records[7].lsn);
  EXPECT_EQ(pair.cached.page_cache_stats().misses, 1u);
  pair.ExpectSameRead(0, pair.control.scl());
  EXPECT_EQ(pair.cached.page_cache_stats().partial_hits, 1u);
  // The partial hit re-tagged the entry at the tip: reading there again is
  // now a full hit.
  pair.ExpectSameRead(0, pair.control.scl());
  EXPECT_EQ(pair.cached.page_cache_stats().hits, 1u);
}

TEST(PageCacheTest, HistoricalReadBypassesWithoutDisplacingNewerEntry) {
  SegmentPair pair;
  auto records = MakeChain(16);
  pair.Add(records);
  const Lsn tip = pair.control.scl();
  pair.ExpectSameRead(0, tip);  // miss, entry built at tip
  pair.ExpectSameRead(0, records[4].lsn);  // historical: bypass
  EXPECT_EQ(pair.cached.page_cache_stats().misses, 2u);
  // The newer entry survived the historical read.
  pair.ExpectSameRead(0, tip);
  EXPECT_EQ(pair.cached.page_cache_stats().hits, 1u);
}

TEST(PageCacheTest, LruEvictionRespectsByteBudget) {
  // Budget for exactly two cached pages.
  SegmentPair pair(4096, 2 * 4096);
  pair.Add(MakeChain(16));
  const Lsn tip = pair.control.scl();
  pair.ExpectSameRead(0, tip);
  pair.ExpectSameRead(1, tip);
  EXPECT_EQ(pair.cached.page_cache_bytes(), 2 * 4096u);
  pair.ExpectSameRead(2, tip);  // evicts page 0 (least recently used)
  EXPECT_EQ(pair.cached.page_cache_bytes(), 2 * 4096u);
  EXPECT_EQ(pair.cached.page_cache_stats().evictions, 1u);
  // Page 0 is a miss again; page 2 is a hit.
  pair.ExpectSameRead(2, tip);
  EXPECT_EQ(pair.cached.page_cache_stats().hits, 1u);
  pair.ExpectSameRead(0, tip);
  EXPECT_EQ(pair.cached.page_cache_stats().misses, 4u);
}

TEST(PageCacheTest, BudgetBelowPageSizeDisablesCaching) {
  SegmentPair pair(4096, 4095);
  pair.Add(MakeChain(8));
  pair.ExpectSameRead(0, pair.control.scl());
  pair.ExpectSameRead(0, pair.control.scl());
  EXPECT_EQ(pair.cached.page_cache_stats().hits, 0u);
  EXPECT_EQ(pair.cached.page_cache_stats().misses, 0u);
  EXPECT_EQ(pair.cached.page_cache_bytes(), 0u);
}

TEST(PageCacheTest, ShrinkingBudgetEvictsImmediately) {
  SegmentPair pair;
  pair.Add(MakeChain(16));
  const Lsn tip = pair.control.scl();
  for (PageId p = 0; p < 4; ++p) pair.ExpectSameRead(p, tip);
  EXPECT_EQ(pair.cached.page_cache_bytes(), 4 * 4096u);
  pair.cached.set_page_cache_budget(2 * 4096);
  EXPECT_EQ(pair.cached.page_cache_bytes(), 2 * 4096u);
  pair.cached.set_page_cache_budget(0);
  EXPECT_EQ(pair.cached.page_cache_bytes(), 0u);
}

TEST(PageCacheTest, LateRecordAtOrBelowBuildPointInvalidates) {
  // Serve a read point beyond the chain tip via a completeness snapshot,
  // then let a new record arrive below that build point: the cached image
  // was built without it and must be dropped, not partially replayed.
  SegmentPair pair;
  auto records = MakeChain(8);
  for (int i = 0; i < 4; ++i) {
    pair.cached.AddRecord(records[i]);
    pair.control.AddRecord(records[i]);
  }
  const Lsn snapshot_vdl = records[7].lsn + 100;
  pair.cached.SetCompletenessSnapshot(snapshot_vdl, pair.control.scl());
  pair.control.SetCompletenessSnapshot(snapshot_vdl, pair.control.scl());

  pair.ExpectSameRead(0, snapshot_vdl);  // entry built at snapshot_vdl
  EXPECT_EQ(pair.cached.page_cache_stats().misses, 1u);

  // records[4] targets page 0 and has lsn <= the build point.
  ASSERT_EQ(records[4].page_id, 0u);
  ASSERT_LE(records[4].lsn, snapshot_vdl);
  pair.cached.AddRecord(records[4]);
  pair.control.AddRecord(records[4]);

  pair.ExpectSameRead(0, pair.control.scl());
  EXPECT_EQ(pair.cached.page_cache_stats().misses, 2u);  // entry was dropped
  EXPECT_EQ(pair.cached.page_cache_stats().hits, 0u);
}

TEST(PageCacheTest, TruncationDropsEntriesBuiltAboveTheCut) {
  SegmentPair pair;
  auto records = MakeChain(16);
  pair.Add(records);
  const Lsn tip = pair.control.scl();
  pair.ExpectSameRead(0, tip);  // entry built at tip
  const Lsn cut = records[7].lsn;
  ASSERT_TRUE(pair.cached.Truncate(cut, 1).ok());
  ASSERT_TRUE(pair.control.Truncate(cut, 1).ok());
  // A read at the (clamped) scl must rebuild — the old image contained
  // truncated records.
  pair.ExpectSameRead(0, pair.control.scl());
  EXPECT_EQ(pair.cached.page_cache_stats().misses, 2u);
  EXPECT_EQ(pair.cached.page_cache_stats().hits, 0u);
}

TEST(PageCacheTest, GcDropsStrandedEntriesButKeepsCurrentOnes) {
  SegmentPair pair;
  auto records = MakeChain(16);
  pair.Add(records);
  const Lsn tip = pair.control.scl();
  // An entry built early in the chain (missing page 0's later records)...
  pair.ExpectSameRead(0, records[5].lsn);
  // ...and one built at the tip (reflecting everything for page 3).
  pair.ExpectSameRead(3, tip);
  // Materialize and GC everything up to records[11]: page 0's records in
  // (records[5], records[11]] vanish from the hot log, so the early entry
  // can't be patched by partial replay any more and must be dropped. Page
  // 3's tip entry already reflects every collected record and survives.
  const Lsn floor = records[11].lsn;
  for (Segment* seg : {&pair.cached, &pair.control}) {
    seg->SetVdlHint(floor);
    seg->SetPgmrpl(floor);
    seg->CoalesceStep(1000);
    seg->GarbageCollect();
  }
  pair.ExpectSameRead(0, pair.control.scl());
  pair.ExpectSameRead(0, floor);
  EXPECT_EQ(pair.cached.page_cache_stats().partial_hits, 0u);
  // The tip entry for page 3 still serves.
  const uint64_t hits_before = pair.cached.page_cache_stats().hits;
  pair.ExpectSameRead(3, tip);
  EXPECT_EQ(pair.cached.page_cache_stats().hits, hits_before + 1);
}

TEST(PageCacheTest, DropForRepairAndRestoreInvalidate) {
  SegmentPair pair;
  auto records = MakeChain(16);
  pair.Add(records);
  const Lsn limit = records[11].lsn;
  for (Segment* seg : {&pair.cached, &pair.control}) {
    seg->SetVdlHint(limit);
    seg->SetPgmrpl(limit);
    seg->CoalesceStep(1000);
  }
  const Lsn tip = pair.control.scl();
  pair.ExpectSameRead(0, tip);  // cache it
  pair.cached.DropPageForRepair(0);
  pair.control.DropPageForRepair(0);
  pair.ExpectSameRead(0, tip);  // rebuilt from log, not served stale

  // Restore a healthy copy (as scrub repair does) and re-read.
  auto healthy = pair.control.GetPageAsOf(0, pair.control.applied_lsn());
  ASSERT_TRUE(healthy.ok());
  pair.ExpectSameRead(0, tip);  // cache it again
  pair.cached.RestoreBasePage(0, **healthy);
  pair.control.RestoreBasePage(0, **healthy);
  pair.ExpectSameRead(0, tip);
  pair.ExpectSameRead(0, pair.control.applied_lsn());
}

// Property test: a randomized schedule of writes (with gaps), watermark
// advances, coalescing, GC, truncation, and page repair must produce
// byte-identical pages and identical error statuses with the cache on vs.
// off at every probed (page, read_point).
class PageCacheEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, PageCacheEquivalenceTest,
                         ::testing::Values(1, 17, 4242, 987654));

TEST_P(PageCacheEquivalenceTest, RandomScheduleMatchesCacheOffControl) {
  constexpr int kPages = 6;
  constexpr int kSteps = 400;
  Random rng(GetParam());

  // Small budget so eviction churns; the control has caching disabled.
  SegmentPair pair(2048, 3 * 2048);

  Lsn next_lsn = 100;
  Lsn chain_tail = kInvalidLsn;
  Epoch epoch = 0;
  std::vector<Lsn> delivered;
  std::vector<LogRecord> pending;          // generated, not yet delivered
  Lsn format_lsn[kPages] = {};             // 0 = page not (re)formatted

  auto generate = [&] {
    LogRecord r;
    r.lsn = next_lsn;
    next_lsn += 10;
    r.prev_pg_lsn = chain_tail;
    r.prev_vol_lsn = chain_tail;
    chain_tail = r.lsn;
    r.page_id = static_cast<PageId>(rng.Uniform(kPages));
    r.txn_id = 1;
    if (format_lsn[r.page_id] == 0) {
      r.op = RedoOp::kFormatPage;
      r.payload = LogRecord::MakeFormatPayload(
          static_cast<uint8_t>(PageType::kBTreeLeaf), 0);
      format_lsn[r.page_id] = r.lsn;
    } else {
      // Keys are unique per record (the writer emits kUpdate, never a
      // duplicate kInsert, for an existing key).
      r.op = RedoOp::kInsert;
      r.payload = LogRecord::MakeKeyValuePayload(
          "k" + std::to_string(r.lsn), "v" + std::to_string(r.lsn));
    }
    if (rng.Uniform(3) == 0) r.flags = kFlagCpl;
    pending.push_back(std::move(r));
  };

  auto deliver_random_pending = [&] {
    if (pending.empty()) return;
    size_t i = rng.Uniform(pending.size());
    LogRecord r = pending[i];
    pending.erase(pending.begin() + static_cast<long>(i));
    if (pair.cached.AddRecord(r)) delivered.push_back(r.lsn);
    pair.control.AddRecord(r);
  };

  auto random_delivered_lsn = [&]() -> Lsn {
    if (delivered.empty()) return 100;
    return delivered[rng.Uniform(delivered.size())];
  };

  for (int step = 0; step < kSteps; ++step) {
    uint64_t op = rng.Uniform(100);
    if (op < 35) {
      generate();
      deliver_random_pending();
    } else if (op < 55) {
      deliver_random_pending();
    } else if (op < 65) {
      Lsn hint = random_delivered_lsn();
      pair.cached.SetVdlHint(hint);
      pair.control.SetVdlHint(hint);
    } else if (op < 72) {
      Lsn hint = random_delivered_lsn();
      pair.cached.SetPgmrpl(hint);
      pair.control.SetPgmrpl(hint);
    } else if (op < 82) {
      size_t n = rng.Uniform(20) + 1;
      size_t a = pair.cached.CoalesceStep(n);
      size_t b = pair.control.CoalesceStep(n);
      ASSERT_EQ(a, b);
    } else if (op < 88) {
      ASSERT_EQ(pair.cached.GarbageCollect(), pair.control.GarbageCollect());
    } else if (op < 93) {
      // Truncate at or above the applied floor (the segment CHECKs that).
      Lsn above = std::max(pair.control.applied_lsn(),
                           random_delivered_lsn());
      ++epoch;
      Status sa = pair.cached.Truncate(above, epoch);
      Status sb = pair.control.Truncate(above, epoch);
      ASSERT_EQ(sa.code(), sb.code());
      // Annulled: pending records above the cut and format knowledge for
      // pages whose format record was removed.
      std::vector<LogRecord> kept;
      for (auto& r : pending) {
        if (r.lsn <= above) kept.push_back(std::move(r));
      }
      pending.swap(kept);
      std::vector<Lsn> kept_lsns;
      for (Lsn l : delivered) {
        if (l <= above) kept_lsns.push_back(l);
      }
      delivered.swap(kept_lsns);
      for (int p = 0; p < kPages; ++p) {
        if (format_lsn[p] > above) format_lsn[p] = 0;
      }
      if (chain_tail > above) chain_tail = pair.control.scl();
    } else if (op < 97) {
      PageId page = static_cast<PageId>(rng.Uniform(kPages));
      pair.cached.DropPageForRepair(page);
      pair.control.DropPageForRepair(page);
    } else {
      // Peer repair: install the control's reconstruction into both.
      PageId page = static_cast<PageId>(rng.Uniform(kPages));
      auto healthy =
          pair.control.GetPageAsOf(page, pair.control.applied_lsn());
      if (healthy.ok()) {
        pair.cached.RestoreBasePage(page, **healthy);
        pair.control.RestoreBasePage(page, **healthy);
      }
    }

    // Probe: every page at a few read points spanning complete, historical,
    // stale, and incomplete cases.
    const Lsn probes[] = {pair.control.scl(), pair.control.applied_lsn(),
                          random_delivered_lsn(),
                          pair.control.scl() + 1 + rng.Uniform(50)};
    for (PageId page = 0; page < kPages; ++page) {
      for (Lsn rp : probes) {
        if (rp == kInvalidLsn) continue;
        pair.ExpectSameRead(page, rp);
        if (::testing::Test::HasFatalFailure()) return;
        // The same read carrying a writer's tail: at the SCL, at a random
        // delivered record (possibly contradicted by the log), or at the
        // read point itself.
        const Lsn tails[] = {pair.control.scl(), random_delivered_lsn(), rp};
        pair.ExpectSameRead(page, rp, tails[rng.Uniform(3)]);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    ASSERT_LE(pair.cached.page_cache_bytes(),
              pair.cached.page_cache_budget());
  }

  // The schedule must actually have exercised the cache.
  EXPECT_GT(pair.cached.page_cache_stats().hits, 0u);
  EXPECT_GT(pair.cached.page_cache_stats().misses, 0u);
}

// The reconstruction cache's bookkeeping as it was kept before the slot
// layout: entries in a std::map and an LRU clock whose stamps key a second
// map, oldest first. The model mirrors the segment's hot log (LSN -> page)
// and which pages have a formatted base image, so it makes every keep,
// replace, evict and invalidate decision on its own; a cache-off control
// segment supplies the bytes of partial hits and misses.
class CacheModel {
 public:
  CacheModel(size_t page_size, uint64_t budget)
      : page_size_(page_size), budget_(budget) {}

  void SetBudget(uint64_t bytes) {
    budget_ = bytes;
    if (!Enabled()) {
      Clear();
      return;
    }
    while (entries_.size() * page_size_ > budget_) EvictOldest();
  }
  // A record the segment accepted.
  void Added(const LogRecord& r) {
    hot_log_[r.lsn] = r.page_id;
    auto it = entries_.find(r.page_id);
    if (it != entries_.end() && r.lsn <= it->second.built_lsn) Erase(it);
  }
  // Coalescing applied the held records in (from, to] to base pages.
  void Coalesced(Lsn from, Lsn to) {
    for (auto it = hot_log_.upper_bound(from);
         it != hot_log_.end() && it->first <= to; ++it) {
      has_base_.insert(it->second);
    }
  }
  // GC collected the `n` oldest records.
  void Collected(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      auto rec = hot_log_.begin();
      auto it = entries_.find(rec->second);
      if (it != entries_.end() && (has_base_.count(rec->second) == 0 ||
                                   it->second.built_lsn < rec->first)) {
        Erase(it);
      }
      hot_log_.erase(rec);
    }
  }
  void Truncated(Lsn above) {
    hot_log_.erase(hot_log_.upper_bound(above), hot_log_.end());
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (it->second.built_lsn > above) {
        Erase(it++);
      } else {
        ++it;
      }
    }
  }
  void Dropped(PageId page) {
    has_base_.erase(page);
    Forget(page);
  }
  void Restored(PageId page) {
    has_base_.insert(page);
    Forget(page);
  }
  void Clear() {
    entries_.clear();
    lru_.clear();
  }

  // The outcome the cached segment must give for a read whose gates
  // passed, given the control's outcome; updates stats and entries.
  std::string Read(PageId page, Lsn rp,
                   const Result<std::shared_ptr<const Page>>& control) {
    const std::string outcome =
        control.ok() ? (*control)->raw() : control.status().ToString();
    if (!Enabled()) return outcome;
    bool historical = false;
    auto it = entries_.find(page);
    if (it != entries_.end()) {
      Entry& e = it->second;
      if (rp >= e.built_lsn) {
        if (!HasRecordsIn(page, e.built_lsn, rp)) {
          ++stats_.hits;
          Touch(&e, page);
          return e.image;
        }
        if (control.ok()) {
          ++stats_.partial_hits;
          e.image = outcome;
          e.built_lsn = rp;
          Touch(&e, page);
        }
        return outcome;
      }
      historical = true;
    }
    if (control.ok()) {
      ++stats_.misses;
      if (!historical) Add(page, outcome, rp);
    }
    return outcome;
  }

  const PageCacheStats& stats() const { return stats_; }
  uint64_t bytes() const { return entries_.size() * page_size_; }

 private:
  struct Entry {
    std::string image;
    Lsn built_lsn;
    uint64_t stamp;
  };

  bool Enabled() const { return budget_ >= page_size_; }
  bool HasRecordsIn(PageId page, Lsn after, Lsn through) const {
    for (auto it = hot_log_.upper_bound(after);
         it != hot_log_.end() && it->first <= through; ++it) {
      if (it->second == page) return true;
    }
    return false;
  }
  void Touch(Entry* e, PageId page) {
    lru_.erase(e->stamp);
    e->stamp = ++clock_;
    lru_.emplace(e->stamp, page);
  }
  void Add(PageId page, const std::string& image, Lsn built_lsn) {
    while (!entries_.empty() &&
           (entries_.size() + 1) * page_size_ > budget_) {
      EvictOldest();
    }
    const uint64_t stamp = ++clock_;
    entries_.emplace(page, Entry{image, built_lsn, stamp});
    lru_.emplace(stamp, page);
  }
  void EvictOldest() {
    auto oldest = lru_.begin();
    entries_.erase(oldest->second);
    lru_.erase(oldest);
    ++stats_.evictions;
  }
  void Erase(std::map<PageId, Entry>::iterator it) {
    lru_.erase(it->second.stamp);
    entries_.erase(it);
  }
  void Forget(PageId page) {
    auto it = entries_.find(page);
    if (it != entries_.end()) Erase(it);
  }

  size_t page_size_;
  uint64_t budget_;
  std::map<PageId, Entry> entries_;
  std::map<uint64_t, PageId> lru_;  // stamp -> page, oldest first
  uint64_t clock_ = 0;
  PageCacheStats stats_;
  std::map<Lsn, PageId> hot_log_;
  std::set<PageId> has_base_;  // pages with a formatted base image
};

std::string Outcome(const Result<std::shared_ptr<const Page>>& r) {
  return r.ok() ? (*r)->raw() : r.status().ToString();
}

// The slot / hash index / LRU list layout against the map-and-stamp model
// over randomized schedules: in-order adds and late fills at or below a
// build point, full, partial and historical reads (some beyond the SCL
// through a tail or a completeness snapshot), coalescing, GC, truncation,
// a budget that shrinks and grows between 2 and 8 pages (and sometimes
// disables the cache), drop-for-repair and restore, and deserialization.
// After every step the served bytes, statuses, PageCacheStats and the
// footprint must match the model exactly.
class PageCacheModelTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, PageCacheModelTest,
                         ::testing::Values(3, 29, 777, 31337));

TEST_P(PageCacheModelTest, RandomScheduleMatchesMapModel) {
  constexpr size_t kPageSize = 2048;
  constexpr int kPages = 10;
  constexpr int kSteps = 500;
  Random rng(GetParam());
  Segment seg(0, kPageSize);
  Segment control(0, kPageSize);
  uint64_t budget = 4 * kPageSize;
  seg.set_page_cache_budget(budget);
  CacheModel model(kPageSize, budget);

  Lsn next_lsn = 100;
  Lsn chain_tail = kInvalidLsn;
  Epoch epoch = 0;
  std::vector<LogRecord> pending;  // generated, not yet delivered
  std::vector<Lsn> delivered;
  Lsn format_lsn[kPages] = {};

  auto generate = [&] {
    LogRecord r;
    r.lsn = next_lsn;
    next_lsn += 10;
    r.prev_pg_lsn = chain_tail;
    r.prev_vol_lsn = chain_tail;
    chain_tail = r.lsn;
    r.page_id = static_cast<PageId>(rng.Uniform(kPages));
    r.txn_id = 1;
    if (format_lsn[r.page_id] == 0) {
      r.op = RedoOp::kFormatPage;
      r.payload = LogRecord::MakeFormatPayload(
          static_cast<uint8_t>(PageType::kBTreeLeaf), 0);
      format_lsn[r.page_id] = r.lsn;
    } else {
      r.op = RedoOp::kInsert;
      r.payload = LogRecord::MakeKeyValuePayload(
          "k" + std::to_string(r.lsn), "v" + std::to_string(r.lsn));
    }
    pending.push_back(std::move(r));
  };
  // Delivers the oldest pending record, or (late fill) a random one.
  auto deliver = [&](bool in_order) {
    if (pending.empty()) return;
    const size_t i = in_order ? 0 : rng.Uniform(pending.size());
    const LogRecord r = pending[i];
    pending.erase(pending.begin() + static_cast<long>(i));
    const bool added = seg.AddRecord(r);
    ASSERT_EQ(added, control.AddRecord(r));
    if (added) {
      model.Added(r);
      delivered.push_back(r.lsn);
    }
  };
  auto random_delivered = [&]() -> Lsn {
    return delivered.empty() ? 100 : delivered[rng.Uniform(delivered.size())];
  };
  auto read = [&](PageId page, Lsn rp, std::optional<Lsn> tail) {
    auto real = seg.GetPageAsOf(page, rp, tail);
    auto ctl = control.GetPageAsOf(page, rp, tail);
    const std::string want = control.CheckReadPoint(rp, tail).ok()
                                 ? model.Read(page, rp, ctl)
                                 : Outcome(ctl);
    ASSERT_EQ(Outcome(real), want) << "page " << page << " @" << rp;
    const PageCacheStats& a = seg.page_cache_stats();
    const PageCacheStats& b = model.stats();
    ASSERT_EQ(a.hits, b.hits);
    ASSERT_EQ(a.partial_hits, b.partial_hits);
    ASSERT_EQ(a.misses, b.misses);
    ASSERT_EQ(a.evictions, b.evictions);
    ASSERT_EQ(seg.page_cache_bytes(), model.bytes());
  };

  for (int step = 0; step < kSteps; ++step) {
    const uint64_t op = rng.Uniform(100);
    if (op < 30) {
      generate();
      ASSERT_NO_FATAL_FAILURE(deliver(/*in_order=*/true));
    } else if (op < 40) {
      generate();
      generate();
      ASSERT_NO_FATAL_FAILURE(deliver(/*in_order=*/false));
    } else if (op < 48) {
      const Lsn hint = random_delivered();
      for (Segment* s : {&seg, &control}) {
        s->SetVdlHint(hint);
        s->SetPgmrpl(hint);
      }
    } else if (op < 55) {
      const Lsn from = control.applied_lsn();
      const size_t n = rng.Uniform(12) + 1;
      ASSERT_EQ(seg.CoalesceStep(n), control.CoalesceStep(n));
      model.Coalesced(from, control.applied_lsn());
    } else if (op < 61) {
      const size_t n = seg.GarbageCollect();
      ASSERT_EQ(n, control.GarbageCollect());
      model.Collected(n);
    } else if (op < 64) {
      const Lsn above = std::max(control.applied_lsn(), random_delivered());
      ++epoch;
      ASSERT_TRUE(seg.Truncate(above, epoch).ok());
      ASSERT_TRUE(control.Truncate(above, epoch).ok());
      model.Truncated(above);
      std::vector<LogRecord> kept;
      for (LogRecord& r : pending) {
        if (r.lsn <= above) kept.push_back(std::move(r));
      }
      pending.swap(kept);
      std::vector<Lsn> kept_lsns;
      for (Lsn l : delivered) {
        if (l <= above) kept_lsns.push_back(l);
      }
      delivered.swap(kept_lsns);
      for (Lsn& f : format_lsn) {
        if (f > above) f = 0;
      }
      if (chain_tail > above) chain_tail = control.scl();
    } else if (op < 70) {
      // Shrink or grow the budget; now and then disable the cache.
      budget = rng.Uniform(8) == 0 ? kPageSize - 1
                                   : (2 + rng.Uniform(7)) * kPageSize;
      seg.set_page_cache_budget(budget);
      model.SetBudget(budget);
    } else if (op < 73) {
      const PageId page = static_cast<PageId>(rng.Uniform(kPages));
      seg.DropPageForRepair(page);
      control.DropPageForRepair(page);
      model.Dropped(page);
    } else if (op < 76) {
      const PageId page = static_cast<PageId>(rng.Uniform(kPages));
      auto healthy = control.GetPageAsOf(page, control.applied_lsn());
      if (healthy.ok()) {
        seg.RestoreBasePage(page, **healthy);
        control.RestoreBasePage(page, **healthy);
        model.Restored(page);
      }
    } else if (op < 78) {
      // State transfer: both rebuild from the control's blob, which holds
      // no cache.
      std::string blob;
      control.SerializeTo(&blob);
      ASSERT_TRUE(seg.DeserializeFrom(blob).ok());
      ASSERT_TRUE(control.DeserializeFrom(blob).ok());
      model.Clear();
    } else if (op < 80) {
      // A completeness snapshot lets reads build above the SCL, so later
      // fills land at or below a build point.
      const Lsn vdl = next_lsn + rng.Uniform(30);
      for (Segment* s : {&seg, &control}) {
        s->SetCompletenessSnapshot(vdl, control.scl());
      }
    }
    if (HasFatalFailure()) return;

    // Reads: full and partial hits at the SCL and above it, historical
    // reads below cached build points, and reads the gates refuse.
    for (int i = 0; i < 8; ++i) {
      const PageId page = static_cast<PageId>(rng.Uniform(kPages));
      const Lsn probes[] = {control.scl(), control.scl(),
                            control.applied_lsn(), random_delivered(),
                            next_lsn + rng.Uniform(40)};
      const Lsn rp = probes[rng.Uniform(5)];
      std::optional<Lsn> tail;
      if (rng.Uniform(3) == 0) tail = control.scl();
      ASSERT_NO_FATAL_FAILURE(read(page, rp, tail));
    }
  }
  // The schedule must have exercised every path it pins.
  const PageCacheStats& stats = seg.page_cache_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.partial_hits, 0u);
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GT(stats.evictions, 0u);
}

// A served image is published: it stays valid and unchanged in the hands
// of a reader after its cache entry is replaced, evicted, truncated away or
// cleared. ASan checks the lifetime; the bytes check that nothing wrote
// through the shared image.
TEST(PageCacheTest, ServedImageOutlivesItsEntry) {
  Segment seg(0, 4096);
  seg.set_page_cache_budget(2 * 4096);
  auto records = MakeChain(24);
  for (int i = 0; i < 16; ++i) seg.AddRecord(records[i]);
  std::vector<std::pair<std::shared_ptr<const Page>, std::string>> held;
  auto hold = [&](PageId page) {
    ASSERT_TRUE(seg.GetPageAsOf(page, seg.scl()).ok());  // cached
    auto hit = seg.GetPageAsOf(page, seg.scl());
    ASSERT_TRUE(hit.ok());
    held.emplace_back(*hit, (*hit)->raw());
  };
  auto expect_held_intact = [&] {
    for (const auto& [image, snapshot] : held) {
      EXPECT_EQ(image->raw(), snapshot);
    }
  };

  // Replaced: new records make the next read a partial hit, which
  // publishes a new image instead of writing into the held one.
  ASSERT_NO_FATAL_FAILURE(hold(0));
  const uint64_t hits = seg.page_cache_stats().hits;
  EXPECT_GT(hits, 0u);
  for (int i = 16; i < 24; ++i) seg.AddRecord(records[i]);
  auto newer = seg.GetPageAsOf(0, seg.scl());
  ASSERT_TRUE(newer.ok());
  EXPECT_EQ(seg.page_cache_stats().partial_hits, 1u);
  EXPECT_NE(newer->get(), held.back().first.get());
  EXPECT_NE((*newer)->raw(), held.back().second);
  newer = Status::NotFound("dropped");
  expect_held_intact();

  // Evicted: two other pages push page 0 out of a two-page budget.
  ASSERT_NO_FATAL_FAILURE(hold(0));
  ASSERT_NO_FATAL_FAILURE(hold(1));
  ASSERT_NO_FATAL_FAILURE(hold(2));
  EXPECT_GT(seg.page_cache_stats().evictions, 0u);
  expect_held_intact();

  // Truncated away: the cut drops entries built above it.
  ASSERT_TRUE(seg.Truncate(records[20].lsn, 1).ok());
  EXPECT_EQ(seg.page_cache_bytes(), 0u);
  expect_held_intact();

  // Cleared: by disabling the cache, and by a state transfer.
  ASSERT_NO_FATAL_FAILURE(hold(3));
  seg.set_page_cache_budget(0);
  expect_held_intact();
  seg.set_page_cache_budget(2 * 4096);
  ASSERT_NO_FATAL_FAILURE(hold(1));
  std::string blob;
  seg.SerializeTo(&blob);
  ASSERT_TRUE(seg.DeserializeFrom(blob).ok());
  EXPECT_EQ(seg.page_cache_bytes(), 0u);
  expect_held_intact();
}

}  // namespace
}  // namespace aurora
