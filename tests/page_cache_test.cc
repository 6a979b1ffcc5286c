#include <gtest/gtest.h>

#include <optional>
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
    Result<Page> a = cached.GetPageAsOf(page, rp, tail);
    Result<Page> b = control.GetPageAsOf(page, rp, tail);
    ASSERT_EQ(a.ok(), b.ok()) << "page " << page << " @" << rp << ": "
                              << a.status().ToString() << " vs "
                              << b.status().ToString();
    if (a.ok()) {
      EXPECT_EQ(a->raw(), b->raw()) << "page " << page << " @" << rp;
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
  Result<Page> healthy = pair.control.GetPageAsOf(0, pair.control.applied_lsn());
  ASSERT_TRUE(healthy.ok());
  pair.ExpectSameRead(0, tip);  // cache it again
  pair.cached.RestoreBasePage(0, *healthy);
  pair.control.RestoreBasePage(0, *healthy);
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
      Result<Page> healthy =
          pair.control.GetPageAsOf(page, pair.control.applied_lsn());
      if (healthy.ok()) {
        pair.cached.RestoreBasePage(page, *healthy);
        pair.control.RestoreBasePage(page, *healthy);
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

}  // namespace
}  // namespace aurora
