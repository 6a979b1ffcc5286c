#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "log/log_record.h"
#include "storage/base_image_store.h"
#include "storage/segment.h"

namespace aurora {
namespace {

constexpr size_t kPageSize = 4096;

// A PG's chain of `n` records over `pages` pages, LSNs 100, 110, ...: each
// page's first record formats it, the rest insert distinct keys.
std::vector<LogRecord> Chain(int n, int pages) {
  std::vector<LogRecord> records;
  Lsn prev = kInvalidLsn;
  for (int i = 0; i < n; ++i) {
    LogRecord r;
    r.lsn = 100 + static_cast<Lsn>(i) * 10;
    r.prev_pg_lsn = prev;
    r.prev_vol_lsn = prev;
    r.page_id = static_cast<PageId>(i % pages);
    r.txn_id = 1;
    if (i < pages) {
      r.op = RedoOp::kFormatPage;
      r.payload = LogRecord::MakeFormatPayload(
          static_cast<uint8_t>(PageType::kBTreeLeaf), 0);
    } else {
      r.op = RedoOp::kInsert;
      std::string key = "k";
      key += std::to_string(i);
      r.payload = LogRecord::MakeKeyValuePayload(key, std::string(40, 'v'));
    }
    r.flags = kFlagCpl;
    prev = r.lsn;
    records.push_back(std::move(r));
  }
  return records;
}

// Records [begin, end) of `chain` as one decoded batch.
SharedRecords Batch(const std::vector<LogRecord>& chain, size_t begin,
                    size_t end) {
  return ShareRecords(
      std::vector<LogRecord>(chain.begin() + begin, chain.begin() + end));
}

// Adds the batch to `seg` and lets it materialize through its last record.
void Deliver(Segment* seg, const SharedRecords& batch) {
  for (uint32_t i = 0; i < batch->size(); ++i) seg->AddRecord(batch, i);
  seg->SetVdlHint(batch->back().lsn);
  seg->SetPgmrpl(batch->back().lsn);
}

void CoalesceAll(Segment* seg, size_t step) {
  while (seg->CoalesceStep(step) > 0) {
  }
}

// The six replicas of one PG, sharing one store.
struct Replicas {
  std::shared_ptr<BaseImageStore> store = std::make_shared<BaseImageStore>();
  std::vector<Segment> segs;
  explicit Replicas(int n = kReplicasPerPg) {
    for (int i = 0; i < n; ++i) segs.emplace_back(0, kPageSize, store);
  }
  void Deliver(const SharedRecords& batch) {
    for (Segment& seg : segs) aurora::Deliver(&seg, batch);
  }
};

// A segment with its own store that coalesces `batch` in one step: the
// bytes every replica must serve.
std::string Expected(const SharedRecords& batch, PageId page, Lsn rp) {
  Segment lone(0, kPageSize);
  Deliver(&lone, batch);
  CoalesceAll(&lone, 1 << 20);
  auto image = lone.GetPageAsOf(page, rp);
  EXPECT_TRUE(image.ok());
  return image.ok() ? (*image)->raw() : "";
}

// Six replicas coalescing the same batches, in steps of different sizes
// taken in turn, end up holding one image object per page, with the bytes
// a lone segment builds.
TEST(BaseImageStoreTest, SixReplicasHoldOneImagePerPage) {
  constexpr int kPages = 4;
  const std::vector<LogRecord> chain = Chain(96, kPages);
  Replicas r;
  const size_t steps[kReplicasPerPg] = {1, 5, 16, 64, 7, 3};
  for (size_t begin = 0; begin < chain.size(); begin += 48) {
    r.Deliver(Batch(chain, begin, begin + 48));
    for (bool progress = true; progress;) {
      progress = false;
      for (int i = 0; i < kReplicasPerPg; ++i) {
        progress |= r.segs[i].CoalesceStep(steps[i]) > 0;
      }
    }
  }
  const Lsn rp = chain.back().lsn;
  const SharedRecords all = Batch(chain, 0, chain.size());
  for (PageId page = 0; page < kPages; ++page) {
    SCOPED_TRACE(page);
    auto first = r.segs[0].GetPageAsOf(page, rp);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ((*first)->raw(), Expected(all, page, rp));
    for (Segment& seg : r.segs) {
      EXPECT_EQ(seg.applied_lsn(), rp);
      auto image = seg.GetPageAsOf(page, rp);
      ASSERT_TRUE(image.ok());
      EXPECT_EQ(image->get(), first->get());
    }
  }
}

// Interning compares bytes: two replicas that reach one page LSN by
// different histories (here, different payloads at the same LSN, as an
// annulled record would give) keep their own images.
TEST(BaseImageStoreTest, EqualPageLsnWithOtherBytesStaysApart) {
  std::vector<LogRecord> a = Chain(8, 2);
  std::vector<LogRecord> b = a;
  b.back().payload = LogRecord::MakeKeyValuePayload("other", "bytes");
  ASSERT_EQ(a.back().page_id, b.back().page_id);
  const PageId page = a.back().page_id;
  Replicas r(2);
  Deliver(&r.segs[0], Batch(a, 0, a.size()));
  Deliver(&r.segs[1], Batch(b, 0, b.size()));
  for (Segment& seg : r.segs) CoalesceAll(&seg, 100);
  const Lsn rp = a.back().lsn;
  auto from_a = r.segs[0].GetPageAsOf(page, rp);
  auto from_b = r.segs[1].GetPageAsOf(page, rp);
  ASSERT_TRUE(from_a.ok());
  ASSERT_TRUE(from_b.ok());
  EXPECT_EQ((*from_a)->page_lsn(), (*from_b)->page_lsn());
  EXPECT_NE(from_a->get(), from_b->get());
  EXPECT_EQ((*from_a)->raw(), Expected(Batch(a, 0, a.size()), page, rp));
  EXPECT_EQ((*from_b)->raw(), Expected(Batch(b, 0, b.size()), page, rp));
  // Pages the two histories agree on are shared.
  auto other_a = r.segs[0].GetPageAsOf(page ^ 1, rp);
  auto other_b = r.segs[1].GetPageAsOf(page ^ 1, rp);
  ASSERT_TRUE(other_a.ok());
  ASSERT_TRUE(other_b.ok());
  EXPECT_EQ(other_a->get(), other_b->get());
}

// Either fault hook rots a private copy of the shared image: scrub and
// reads find the fault on the corrupted replica only, and further
// coalescing leaves the peers' pages correct.
TEST(BaseImageStoreTest, CorruptingOneReplicaLeavesItsPeersClean) {
  constexpr int kPages = 4;
  constexpr int kVictim = 2;
  const std::vector<LogRecord> chain = Chain(48, kPages);
  for (bool nth : {false, true}) {
    SCOPED_TRACE(nth ? "CorruptNthBasePage" : "CorruptBasePageForTesting");
    Replicas r;
    r.Deliver(Batch(chain, 0, 24));
    for (Segment& seg : r.segs) CoalesceAll(&seg, 100);
    if (nth) {
      ASSERT_TRUE(r.segs[kVictim].CorruptNthBasePage(kPages));  // page 0
    } else {
      r.segs[kVictim].CorruptBasePageForTesting(0);
    }
    const Lsn rp = chain[23].lsn;
    const std::string clean = Expected(Batch(chain, 0, 24), 0, rp);
    for (int i = 0; i < kReplicasPerPg; ++i) {
      SCOPED_TRACE(i);
      EXPECT_EQ(r.segs[i].ScrubPages(), i == kVictim ? 1u : 0u);
      auto image = r.segs[i].GetPageAsOf(0, rp);
      if (i == kVictim) {
        EXPECT_TRUE(image.status().IsCorruption());
      } else {
        ASSERT_TRUE(image.ok());
        EXPECT_EQ((*image)->raw(), clean);
      }
    }
    // The next step advances a copy of the rotten image on the victim
    // alone.
    r.Deliver(Batch(chain, 24, chain.size()));
    for (Segment& seg : r.segs) CoalesceAll(&seg, 100);
    const Lsn end = chain.back().lsn;
    const std::string newer = Expected(Batch(chain, 0, chain.size()), 0, end);
    for (int i = 0; i < kReplicasPerPg; ++i) {
      if (i == kVictim) continue;
      SCOPED_TRACE(i);
      EXPECT_EQ(r.segs[i].ScrubPages(), 0u);
      auto image = r.segs[i].GetPageAsOf(0, end);
      ASSERT_TRUE(image.ok());
      EXPECT_EQ((*image)->raw(), newer);
    }
  }
}

// An image a reader holds, and one only the reconstruction cache holds,
// keep their bytes when the next coalesce step advances the page: the step
// copies the shared image instead of writing into it.
TEST(BaseImageStoreTest, HeldImagesKeepTheirBytesAcrossCoalesce) {
  const std::vector<LogRecord> chain = Chain(32, 2);
  Segment seg(0, kPageSize);
  seg.set_page_cache_budget(16 * kPageSize);
  Deliver(&seg, Batch(chain, 0, 16));
  CoalesceAll(&seg, 100);
  const Lsn rp = chain[15].lsn;
  auto reader = seg.GetPageAsOf(0, rp);
  ASSERT_TRUE(reader.ok());
  const std::string reader_bytes = (*reader)->raw();
  std::weak_ptr<const Page> cached;
  std::string cached_bytes;
  {
    auto image = seg.GetPageAsOf(1, rp);
    ASSERT_TRUE(image.ok());
    cached = *image;
    cached_bytes = (*image)->raw();
  }

  Deliver(&seg, Batch(chain, 16, chain.size()));
  CoalesceAll(&seg, 100);
  EXPECT_EQ((*reader)->raw(), reader_bytes);
  std::shared_ptr<const Page> still_cached = cached.lock();
  ASSERT_NE(still_cached, nullptr);
  EXPECT_EQ(still_cached->raw(), cached_bytes);
  still_cached.reset();

  const Lsn end = chain.back().lsn;
  const SharedRecords all = Batch(chain, 0, chain.size());
  for (PageId page = 0; page < 2; ++page) {
    auto image = seg.GetPageAsOf(page, end);
    ASSERT_TRUE(image.ok());
    EXPECT_EQ((*image)->raw(), Expected(all, page, end));
    EXPECT_NE((*image)->raw(), page == 0 ? reader_bytes : cached_bytes);
  }
}

// A miss on a page whose base image has no newer record returns the base
// image object itself, the one its peer holds too, with the bytes a replay
// of the whole hot log builds. A newer record makes the read build a copy.
TEST(BaseImageStoreTest, MissServesTheBaseImageItself) {
  const std::vector<LogRecord> chain = Chain(17, 2);
  const SharedRecords coalesced = Batch(chain, 0, 16);
  Replicas r(2);
  r.Deliver(coalesced);
  for (Segment& seg : r.segs) CoalesceAll(&seg, 100);
  r.segs[0].set_page_cache_budget(16 * kPageSize);
  Segment replay(0, kPageSize);  // hot log only: every read replays
  for (uint32_t i = 0; i < coalesced->size(); ++i) {
    replay.AddRecord(coalesced, i);
  }
  const Lsn rp = chain[15].lsn;
  for (PageId page = 0; page < 2; ++page) {
    SCOPED_TRACE(page);
    auto a = r.segs[0].GetPageAsOf(page, rp);
    auto b = r.segs[1].GetPageAsOf(page, rp);
    auto again = r.segs[1].GetPageAsOf(page, rp);
    auto replayed = replay.GetPageAsOf(page, rp);
    ASSERT_TRUE(a.ok() && b.ok() && again.ok() && replayed.ok());
    EXPECT_EQ(r.segs[0].page_cache_stats().misses, page + 1u);
    EXPECT_EQ(a->get(), b->get());
    EXPECT_EQ(again->get(), b->get());
    EXPECT_NE(a->get(), replayed->get());
    EXPECT_EQ((*a)->raw(), (*replayed)->raw());
  }

  // One record above the base image, not yet coalesced.
  const SharedRecords newer = Batch(chain, 16, 17);
  ASSERT_EQ(chain[16].page_id, 0u);
  r.segs[1].AddRecord(newer, 0);
  replay.AddRecord(newer, 0);
  const Lsn end = chain[16].lsn;
  auto base = r.segs[0].GetPageAsOf(0, rp);
  auto built = r.segs[1].GetPageAsOf(0, end);
  auto replayed = replay.GetPageAsOf(0, end);
  ASSERT_TRUE(base.ok() && built.ok() && replayed.ok());
  EXPECT_NE(built->get(), base->get());
  EXPECT_EQ((*built)->raw(), (*replayed)->raw());
}

// Replicas on their own threads, as PDES shard threads run them, intern
// and read through one store at once. TSan checks the locking;
// the end state is one correct image object per page.
TEST(BaseImageStoreTest, ReplicasOnThreadsShareOneStore) {
  constexpr int kPages = 8;
  constexpr size_t kBatch = 100;
  const std::vector<LogRecord> chain = Chain(600, kPages);
  std::vector<SharedRecords> batches;
  for (size_t begin = 0; begin < chain.size(); begin += kBatch) {
    batches.push_back(Batch(chain, begin, begin + kBatch));
  }
  Replicas r;
  for (Segment& seg : r.segs) seg.set_page_cache_budget(4 * kPageSize);
  std::vector<std::thread> threads;
  for (int i = 0; i < kReplicasPerPg; ++i) {
    threads.emplace_back([&, i] {
      Segment& seg = r.segs[i];
      for (const SharedRecords& batch : batches) {
        Deliver(&seg, batch);
        // Each read serves page 0's base image, or a copy the cache holds.
        while (seg.CoalesceStep(7 + 5 * i) > 0) {
          EXPECT_TRUE(seg.GetPageAsOf(0, seg.applied_lsn()).ok());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Without the cache, a read at the applied LSN serves the base image.
  for (Segment& seg : r.segs) seg.set_page_cache_budget(0);
  const Lsn rp = chain.back().lsn;
  const SharedRecords all = Batch(chain, 0, chain.size());
  for (PageId page = 0; page < kPages; ++page) {
    SCOPED_TRACE(page);
    auto first = r.segs[0].GetPageAsOf(page, rp);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ((*first)->raw(), Expected(all, page, rp));
    for (Segment& seg : r.segs) {
      auto image = seg.GetPageAsOf(page, rp);
      ASSERT_TRUE(image.ok());
      EXPECT_EQ(image->get(), first->get());
    }
  }
}

}  // namespace
}  // namespace aurora
