// Micro-benchmarks (google-benchmark) for the hot data-path primitives:
// redo encode/decode, CRC32C, the log applicator, slotted-page ops and
// compaction, B+-tree point operations and leaf splits, a write statement's
// mini-transaction, the engine's lock table and buffer pool, and
// storage-node segment apply. These bound the simulated engine's CPU cost
// model and catch data-path regressions.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/crc32c.h"
#include "common/random.h"
#include "engine/buffer_pool.h"
#include "engine/lock_manager.h"
#include "harness/synthetic_table.h"
#include "log/applicator.h"
#include "log/log_record.h"
#include "log/mtr.h"
#include "page/btree.h"
#include "page/page.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "storage/base_image_store.h"
#include "storage/segment.h"
#include "tests/test_util.h"

namespace aurora {
namespace {

void BM_Crc32c(benchmark::State& state) {
  std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c::Value(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4096)->Arg(16384);

void BM_LogRecordEncodeDecode(benchmark::State& state) {
  LogRecord rec;
  rec.lsn = 123456789;
  rec.prev_pg_lsn = 123456000;
  rec.prev_vol_lsn = 123456700;
  rec.page_id = 42;
  rec.txn_id = 7;
  rec.op = RedoOp::kUpdate;
  rec.payload = LogRecord::MakeKeyValuePayload("key0000000000001",
                                               std::string(100, 'v'));
  for (auto _ : state) {
    std::string buf;
    rec.EncodeTo(&buf);
    Slice in(buf);
    LogRecord out;
    benchmark::DoNotOptimize(LogRecord::DecodeFrom(&in, &out));
  }
}
BENCHMARK(BM_LogRecordEncodeDecode);

void BM_ApplicatorApply(benchmark::State& state) {
  Page page(16384);
  page.Format(1, PageType::kBTreeLeaf, 0);
  Lsn lsn = 1;
  int i = 0;
  for (auto _ : state) {
    LogRecord rec;
    rec.lsn = ++lsn;
    rec.page_id = 1;
    rec.op = RedoOp::kUpdate;
    char key[32];
    snprintf(key, sizeof(key), "key%06d", i % 100);
    if (page.slot_count() <= i % 100) {
      rec.op = RedoOp::kInsert;
    }
    rec.payload =
        LogRecord::MakeKeyValuePayload(key, std::string(40, 'a' + i % 26));
    Status s = LogApplicator::Apply(rec, &page);
    benchmark::DoNotOptimize(s);
    ++i;
    if (page.FreeSpace() < 256) {
      page.Format(1, PageType::kBTreeLeaf, 0);
      i = 0;
    }
  }
}
BENCHMARK(BM_ApplicatorApply);

void BM_PagePointLookup(benchmark::State& state) {
  Page page(16384);
  page.Format(1, PageType::kBTreeLeaf, 0);
  for (int i = 0; i < 100; ++i) {
    char key[32];
    snprintf(key, sizeof(key), "key%06d", i);
    (void)page.InsertRecord(key, std::string(40, 'v'));
  }
  int i = 0;
  for (auto _ : state) {
    char key[32];
    snprintf(key, sizeof(key), "key%06d", i++ % 100);
    Slice v;
    benchmark::DoNotOptimize(page.GetRecord(key, &v));
  }
}
BENCHMARK(BM_PagePointLookup);

void BM_BTreeGet(benchmark::State& state) {
  testing::MemoryPageProvider provider(16384);
  testing::LocalWalSink sink;
  MiniTransaction boot(0);
  auto anchor = BTree::Create(&provider, &boot);
  (void)sink.CommitMtr(&boot);
  BTree tree(&provider, *anchor);
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; ++i) {
    MiniTransaction mtr(1);
    (void)tree.Insert(testing::Key(i), std::string(100, 'v'), &mtr);
    (void)sink.CommitMtr(&mtr);
  }
  int i = 0;
  std::string value;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Get(testing::Key(i++ % n), &value));
  }
}
BENCHMARK(BM_BTreeGet)->Arg(1000)->Arg(100000);

void BM_BTreeInsert(benchmark::State& state) {
  testing::MemoryPageProvider provider(16384);
  testing::LocalWalSink sink;
  MiniTransaction boot(0);
  auto anchor = BTree::Create(&provider, &boot);
  (void)sink.CommitMtr(&boot);
  BTree tree(&provider, *anchor);
  uint64_t i = 0;
  for (auto _ : state) {
    MiniTransaction mtr(1);
    Status s = tree.Insert(testing::Key(i++), std::string(100, 'v'), &mtr);
    benchmark::DoNotOptimize(s);
    (void)sink.CommitMtr(&mtr);
  }
}
BENCHMARK(BM_BTreeInsert);

// Drops committed MTRs: what remains is the cost of building them.
class NullWalSink {
 public:
  Status CommitMtr(MiniTransaction* /*mtr*/) { return Status::OK(); }
};

// One write statement's MTR as the writer builds it: a txn-table insert,
// an undo insert carrying the old row, and the row's update, against
// resident 4 KiB trees of 1,000 rows. Arg 0 commits to a sink that drops
// the records; arg 1 aborts, restoring every touched page. Committed
// txn-table and undo rows are purged every 1,024 iterations outside the
// timed region, so the trees keep a steady size.
void BM_MtrWriteRow(benchmark::State& state) {
  constexpr int kRows = 1000;
  constexpr uint64_t kPurgeEvery = 1024;
  const bool abort = state.range(0) == 1;
  testing::MemoryPageProvider provider(4096);
  NullWalSink sink;
  MiniTransaction boot(0);
  BTree txns(&provider, *BTree::Create(&provider, &boot));
  BTree undo(&provider, *BTree::Create(&provider, &boot));
  BTree table(&provider, *BTree::Create(&provider, &boot));
  for (int i = 0; i < kRows; ++i) {
    (void)table.Insert(testing::Key(i), std::string(100, 'r'), &boot);
  }
  (void)sink.CommitMtr(&boot);
  const std::string undo_value(130, 'u');
  const std::string row_value(100, 'w');
  uint64_t txn = 1;
  uint64_t purged = 1;
  for (auto _ : state) {
    MiniTransaction mtr(txn);
    const std::string txn_key = testing::Key(txn);
    (void)txns.Insert(txn_key, "a", &mtr);
    (void)undo.Insert("u" + txn_key, undo_value, &mtr);
    Status s = table.Update(testing::Key(txn * 7919 % kRows), row_value, &mtr);
    benchmark::DoNotOptimize(s);
    if (abort) {
      mtr.Abort();
    } else {
      (void)sink.CommitMtr(&mtr);
    }
    if (++txn - purged == kPurgeEvery && !abort) {
      state.PauseTiming();
      for (; purged < txn; ++purged) {
        MiniTransaction purge(0);
        (void)txns.Delete(testing::Key(purged), &purge);
        (void)undo.Delete("u" + testing::Key(purged), &purge);
      }
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_MtrWriteRow)->Arg(0)->Arg(1);

// One leaf split as the writer logs it: a 100-byte row inserted into a full
// leaf that is not the root, in one MTR, at 4 KiB and 16 KiB pages. The
// counters give the redo one split MTR carries, the row's own kInsert
// included; its records have no LSNs yet, so the bytes count each LSN field
// as one byte. Outside the timed region the new page's id goes back to the
// free list and the MTR aborts, restoring every page for the next split.
void BM_BTreeSplit(benchmark::State& state) {
  testing::MemoryPageProvider provider(static_cast<size_t>(state.range(0)));
  NullWalSink sink;
  MiniTransaction boot(0);
  BTree tree(&provider, *BTree::Create(&provider, &boot));
  (void)sink.CommitMtr(&boot);
  const std::string row(100, 'r');
  // Tallies a split MTR's records, hands its new pages' ids back to the
  // free list and aborts it.
  size_t records = 0, bytes = 0;
  auto take_back = [&](MiniTransaction* mtr) {
    records += mtr->size();
    std::vector<Page*> allocated;
    for (size_t i = 0; i < mtr->size(); ++i) {
      bytes += mtr->records()[i].EncodedSize();
      if (mtr->records()[i].op == RedoOp::kFormatPage) {
        allocated.push_back(mtr->pages()[i]);
      }
    }
    for (Page* page : allocated) (void)provider.FreePage(page, mtr);
    mtr->Abort();
  };
  // Rows in key order until one would split a leaf below the root.
  uint64_t next = 0;
  std::string key;
  for (bool root_split = false;;) {
    key = testing::Key(next++);
    MiniTransaction mtr(1);
    (void)tree.Insert(key, row, &mtr);
    bool split = false, root_moved = false;
    for (const LogRecord& r : mtr.records()) {
      split |= r.op == RedoOp::kFormatPage;  // the new right page
      root_moved |= r.op == RedoOp::kUpdate;
    }
    if (split && root_split && !root_moved) {
      take_back(&mtr);
      break;
    }
    root_split |= root_moved;
    (void)sink.CommitMtr(&mtr);
  }
  records = bytes = 0;
  for (auto _ : state) {
    MiniTransaction mtr(1);
    Status s = tree.Insert(key, row, &mtr);
    benchmark::DoNotOptimize(s);
    state.PauseTiming();
    take_back(&mtr);
    state.ResumeTiming();
  }
  const double splits = static_cast<double>(state.iterations());
  state.counters["records_per_split"] = static_cast<double>(records) / splits;
  state.counters["bytes_per_split"] = static_cast<double>(bytes) / splits;
}
BENCHMARK(BM_BTreeSplit)->Arg(4096)->Arg(16384);

// One compaction of a full 4 KiB leaf: a third of its 100-byte rows are
// dead, and an insert one byte larger than the free space fits only once
// the page compacts. Each iteration first reloads the uncompacted image (a
// timed 4 KiB copy).
void BM_PageCompact(benchmark::State& state) {
  Page page(4096);
  page.Format(1, PageType::kBTreeLeaf, 0);
  int rows = 0;
  while (page.InsertRecord(testing::Key(rows), std::string(100, 'v')).ok()) {
    ++rows;
  }
  for (int i = 0; i < rows; i += 3) (void)page.DeleteRecord(testing::Key(i));
  const std::string full = page.raw();
  const std::string key = testing::Key(rows);
  const std::string value(page.FreeSpace() + 1, 'n');
  if (!page.InsertRecord(key, value).ok() || page.FreeSpace() < 1024) {
    state.SkipWithError("the insert did not compact the page");
    return;
  }
  for (auto _ : state) {
    (void)page.LoadRaw(full);
    Status s = page.InsertRecord(key, value);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_PageCompact);

std::string RowKey(uint64_t row) {
  char buf[32];
  snprintf(buf, sizeof(buf), "key%016llu",
           static_cast<unsigned long long>(row));
  return buf;
}

// The lock path of one read_only_cached transaction: ten shared locks on
// distinct 19-byte row keys, then ReleaseAll, against a table that already
// holds the locks of 127 other transactions (128 connections).
void BM_LockManagerUncontended(benchmark::State& state) {
  constexpr int kLocksPerTxn = 10;
  sim::EventLoop loop;
  LockManager locks(&loop);
  uint64_t row = 0;
  for (TxnId other = 1000; other < 1127; ++other) {
    for (int i = 0; i < kLocksPerTxn; ++i) {
      (void)locks.Lock(other, 1, RowKey(row++ * 7919 % 1000003),
                       LockMode::kShared);
    }
  }
  std::vector<std::string> keys;
  for (int i = 0; i < kLocksPerTxn; ++i) {
    keys.push_back(RowKey(row++ * 7919 % 1000003));
  }
  TxnId txn = 1;
  for (auto _ : state) {
    for (const std::string& key : keys) {
      Status s = locks.Lock(txn, 1, key, LockMode::kShared);
      benchmark::DoNotOptimize(s);
    }
    locks.ReleaseAll(txn++);
  }
  state.SetItemsProcessed(state.iterations() * kLocksPerTxn);
}
BENCHMARK(BM_LockManagerUncontended);

// A buffer-pool hit (lookup plus LRU touch) over 4,096 resident pages.
void BM_BufferPoolHit(benchmark::State& state) {
  constexpr PageId kPages = 4096;
  Lsn vdl = 0;
  BufferPool pool(kPages, 4096, &vdl);
  for (PageId id = 0; id < kPages; ++id) pool.InstallNew(id);
  PageId id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.Lookup(id));
    id = (id + 997) % kPages;
  }
}
BENCHMARK(BM_BufferPoolHit);

// BM_SegmentGetPageAsOf/2: oltp_read_miss's shape. 4 KiB pages, the
// default 4 MiB (1,024-page) cache budget and 1,700 synthesized leaves
// read uniformly at the SCL. Between reads, update records land on random
// leaves (one per kReadsPerUpdate reads), and every 64 records the segment
// coalesces and collects, as a storage node does; the time per read
// includes both. Reads see full hits, partial hits, misses and evictions;
// the counters give each outcome's share of the reads.
void SegmentReadMissShape(benchmark::State& state) {
  constexpr size_t kPageSize = 4096;
  constexpr uint64_t kRows = 37400;  // 22 rows per leaf
  constexpr uint64_t kReadsPerUpdate = 4;
  const SyntheticTableLayout layout(0, kRows, kPageSize, 100);
  Segment seg(0, kPageSize);
  seg.set_page_synthesizer(
      [&layout](PageId id, Page* out) { return layout.BuildPage(id, out); });
  seg.set_page_cache_budget(1024 * kPageSize);
  Random rng(7);
  Lsn lsn = kInvalidLsn;
  uint64_t n = 0;
  for (auto _ : state) {
    if (++n % kReadsPerUpdate == 0) {
      const uint64_t row = rng.Uniform(kRows);
      LogRecord r;
      r.lsn = lsn + 1;
      r.prev_pg_lsn = lsn;
      r.prev_vol_lsn = lsn;
      r.page_id = layout.LeafOf(row);
      r.txn_id = 1;
      r.op = RedoOp::kUpdate;
      r.payload = LogRecord::MakeKeyValuePayload(
          SyntheticTableLayout::KeyOf(row), layout.StoredValueOf(row + 1));
      r.flags = kFlagCpl;
      lsn = r.lsn;
      seg.AddRecord(r);
      if (lsn % 64 == 0) {
        seg.SetVdlHint(lsn);
        seg.SetPgmrpl(lsn);
        seg.CoalesceStep(64);
        seg.GarbageCollect();
      }
    }
    auto result = seg.GetPageAsOf(layout.LeafOf(rng.Uniform(kRows)), lsn);
    benchmark::DoNotOptimize(result);
  }
  const PageCacheStats& stats = seg.page_cache_stats();
  const double reads = static_cast<double>(state.iterations());
  state.counters["hit_share"] = static_cast<double>(stats.hits) / reads;
  state.counters["partial_share"] =
      static_cast<double>(stats.partial_hits) / reads;
  state.counters["miss_share"] = static_cast<double>(stats.misses) / reads;
  state.counters["eviction_share"] =
      static_cast<double>(stats.evictions) / reads;
}

// Storage-node page reconstruction with the LSN-versioned cache off (arg 0)
// vs on (arg 1). Cache off replays the page's full redo chain on every
// read; cache on serves repeated reads at the same read point from the
// cached image (a full hit after the first miss). Arg 2 is
// SegmentReadMissShape.
void BM_SegmentGetPageAsOf(benchmark::State& state) {
  if (state.range(0) == 2) {
    SegmentReadMissShape(state);
    return;
  }
  constexpr size_t kPageSize = 16384;
  constexpr int kPages = 4;
  constexpr int kRecords = 256;
  Segment seg(0, kPageSize);
  if (state.range(0) != 0) seg.set_page_cache_budget(64 * kPageSize);
  Lsn prev = kInvalidLsn;
  for (int i = 0; i < kRecords; ++i) {
    LogRecord r;
    r.lsn = 100 + static_cast<Lsn>(i) * 10;
    r.prev_pg_lsn = prev;
    r.prev_vol_lsn = prev;
    r.page_id = static_cast<PageId>(i % kPages);
    r.txn_id = 1;
    if (i < kPages) {
      r.op = RedoOp::kFormatPage;
      r.payload = LogRecord::MakeFormatPayload(
          static_cast<uint8_t>(PageType::kBTreeLeaf), 0);
    } else {
      r.op = RedoOp::kInsert;
      r.payload = LogRecord::MakeKeyValuePayload("k" + std::to_string(i),
                                                 std::string(64, 'v'));
    }
    prev = r.lsn;
    seg.AddRecord(r);
  }
  const Lsn rp = seg.scl();
  PageId page = 0;
  for (auto _ : state) {
    auto result = seg.GetPageAsOf(page, rp);
    benchmark::DoNotOptimize(result);
    page = static_cast<PageId>((page + 1) % kPages);
  }
}
BENCHMARK(BM_SegmentGetPageAsOf)->Arg(0)->Arg(1)->Arg(2);

// One sysbench-style update record of a PG whose records hit `pages`
// pages round-robin.
LogRecord SegmentRecord(Lsn lsn, Lsn prev, PageId pages) {
  LogRecord r;
  r.lsn = lsn;
  r.prev_pg_lsn = prev;
  r.prev_vol_lsn = lsn - 1;
  r.page_id = lsn % pages;
  r.txn_id = 1;
  r.op = RedoOp::kUpdate;
  r.payload = LogRecord::MakeKeyValuePayload(
      "key" + std::to_string(lsn % 64), std::string(100, 'v'));
  r.flags = kFlagCpl;
  return r;
}

// Storage-node record intake (Figure 4 steps 1-2 bookkeeping): adding a
// decoded 1,000-record write batch (one shared owner, as a storage node
// decodes it) to a segment that already retains range(0) records, which GC
// has not collected. range(1) = 0 delivers the batch in LSN order; 1 swaps
// one adjacent pair in every 50 records, so 2% of them arrive after their
// successor (jitter-reordered batches). Time is per batch; truncating the
// batch off again between iterations is not timed.
void BM_SegmentAddRecord(benchmark::State& state) {
  constexpr size_t kBatch = 1000;
  constexpr PageId kPages = 1024;
  const bool reorder = state.range(1) != 0;
  Segment seg(0, 4096);
  Lsn lsn = 0;
  for (int64_t i = 0; i < state.range(0); ++i, ++lsn) {
    seg.AddRecord(SegmentRecord(lsn + 1, lsn, kPages));
  }
  const Lsn retained = lsn;
  std::vector<LogRecord> batch;
  for (size_t i = 0; i < kBatch; ++i, ++lsn) {
    batch.push_back(SegmentRecord(lsn + 1, lsn, kPages));
  }
  if (reorder) {
    for (size_t i = 0; i + 1 < kBatch; i += 50) {
      std::swap(batch[i], batch[i + 1]);
    }
  }
  const SharedRecords records = ShareRecords(batch);
  for (auto _ : state) {
    for (uint32_t i = 0; i < records->size(); ++i) {
      benchmark::DoNotOptimize(seg.AddRecord(records, i));
    }
    state.PauseTiming();
    (void)seg.Truncate(retained, 0);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_SegmentAddRecord)
    ->Args({10000, 0})
    ->Args({10000, 1})
    ->Args({500000, 0})
    ->Args({500000, 1});

// Storage-node materialization (Figure 4 step 5): one CoalesceStep at the
// default budget of 512 records over 16 KiB pages, records spread over 8
// pages. Delivering the records and collecting them afterwards is not
// timed.
void BM_SegmentCoalesceStep(benchmark::State& state) {
  constexpr size_t kStep = 512;
  constexpr PageId kPages = 8;
  Segment seg(0, 16384);
  Lsn lsn = 0;
  for (PageId page = 0; page < kPages; ++page, ++lsn) {
    LogRecord format = SegmentRecord(lsn + 1, lsn, kPages);
    format.page_id = page;
    format.op = RedoOp::kFormatPage;
    format.payload = LogRecord::MakeFormatPayload(
        static_cast<uint8_t>(PageType::kBTreeLeaf), 0);
    seg.AddRecord(format);
  }
  for (int key = 0; key < 64; ++key) {
    for (PageId page = 0; page < kPages; ++page, ++lsn) {
      LogRecord insert = SegmentRecord(lsn + 1, lsn, kPages);
      insert.page_id = page;
      insert.op = RedoOp::kInsert;
      insert.payload = LogRecord::MakeKeyValuePayload(
          "key" + std::to_string(key), std::string(100, 'v'));
      seg.AddRecord(insert);
    }
  }
  for (auto _ : state) {
    state.PauseTiming();
    for (size_t i = 0; i < kStep; ++i, ++lsn) {
      seg.AddRecord(SegmentRecord(lsn + 1, lsn, kPages));
    }
    seg.SetVdlHint(lsn);
    seg.SetPgmrpl(lsn);
    state.ResumeTiming();
    benchmark::DoNotOptimize(seg.CoalesceStep(kStep));
    state.PauseTiming();
    seg.GarbageCollect();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * kStep);
}
BENCHMARK(BM_SegmentCoalesceStep);

// Storage-node intake of one writer batch fan-out (Figure 4 step 1 on all
// six replicas): a 235-record encoded batch (write_only's mean batch) is
// decoded and added to six segments that each retain 10,000 records, the
// way six StorageNode::HandleWriteBatch calls sharing one decode memo do.
// Time is per batch; the ns_per_record counter divides it by the batch's
// records, all six replicas included. Truncating the batch off again,
// which frees it, is not timed.
void BM_StorageWriteFanout(benchmark::State& state) {
  constexpr size_t kBatch = 235;
  constexpr PageId kPages = 1024;
  constexpr Lsn kRetained = 10000;
  std::vector<Segment> replicas;
  for (int i = 0; i < kReplicasPerPg; ++i) replicas.emplace_back(0, 4096);
  for (Segment& seg : replicas) {
    for (Lsn lsn = 0; lsn < kRetained; ++lsn) {
      seg.AddRecord(SegmentRecord(lsn + 1, lsn, kPages));
    }
  }
  std::vector<LogRecord> batch;
  for (Lsn lsn = kRetained; lsn < kRetained + kBatch; ++lsn) {
    batch.push_back(SegmentRecord(lsn + 1, lsn, kPages));
  }
  std::string blob;
  EncodeRecordBatch(batch, &blob);
  double timed_ns = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    sim::DecodeMemo memo;
    for (Segment& seg : replicas) {
      const SharedRecords records = memo.Get<RecordBatch>(
          [&blob] { return DecodeSharedRecords(blob); });
      for (uint32_t i = 0; i < records->size(); ++i) {
        benchmark::DoNotOptimize(seg.AddRecord(records, i));
      }
    }
    timed_ns += std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    state.PauseTiming();
    for (Segment& seg : replicas) (void)seg.Truncate(kRetained, 0);
    state.ResumeTiming();
  }
  state.counters["ns_per_record"] =
      timed_ns / static_cast<double>(state.iterations() * kBatch);
}
BENCHMARK(BM_StorageWriteFanout);

// Materialization on the six replicas of one PG (Figure 4 step 5, six
// times): each replica coalesces the same decoded 512-record batch of
// updates over 64 pages of 4 KiB, and the six share one BaseImageStore, as
// a volume's segments do. Time is per batch; ns_per_record divides it by
// the batch's records, all six replicas included. images_per_page is the
// number of distinct base image objects the six hold per page at the end:
// 1 when they share every image, 6 when each keeps its own. Delivering the
// batch and collecting it afterwards is not timed.
void BM_ReplicaCoalesceSharedImages(benchmark::State& state) {
  constexpr size_t kBatch = 512;
  constexpr PageId kPages = 64;
  constexpr size_t kPageSize = 4096;
  const auto images = std::make_shared<BaseImageStore>();
  std::vector<Segment> replicas;
  for (int i = 0; i < kReplicasPerPg; ++i) {
    replicas.emplace_back(0, kPageSize, images);
  }
  // Each page gets a format record and the one key its updates name.
  Lsn lsn = 0;
  std::vector<LogRecord> setup;
  for (PageId page = 0; page < kPages; ++page) {
    LogRecord format = SegmentRecord(lsn + 1, lsn, kPages);
    format.page_id = page;
    format.op = RedoOp::kFormatPage;
    format.payload = LogRecord::MakeFormatPayload(
        static_cast<uint8_t>(PageType::kBTreeLeaf), 0);
    setup.push_back(std::move(format));
    ++lsn;
    LogRecord insert = SegmentRecord(lsn + 1, lsn, kPages);
    insert.page_id = page;
    insert.op = RedoOp::kInsert;
    insert.payload = LogRecord::MakeKeyValuePayload(
        "key" + std::to_string(page), std::string(100, 'v'));
    setup.push_back(std::move(insert));
    ++lsn;
  }
  auto deliver = [&replicas](const std::vector<LogRecord>& records) {
    const Lsn last = records.back().lsn;
    const SharedRecords batch = ShareRecords(records);
    for (Segment& seg : replicas) {
      for (uint32_t i = 0; i < batch->size(); ++i) seg.AddRecord(batch, i);
      seg.SetVdlHint(last);
      seg.SetPgmrpl(last);
    }
  };
  deliver(setup);
  for (Segment& seg : replicas) seg.CoalesceStep(2 * kPages);
  double timed_ns = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<LogRecord> batch;
    for (size_t i = 0; i < kBatch; ++i, ++lsn) {
      batch.push_back(SegmentRecord(lsn + 1, lsn, kPages));
    }
    deliver(batch);
    state.ResumeTiming();
    const auto start = std::chrono::steady_clock::now();
    for (Segment& seg : replicas) {
      benchmark::DoNotOptimize(seg.CoalesceStep(kBatch));
    }
    timed_ns += std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    state.PauseTiming();
    for (Segment& seg : replicas) seg.GarbageCollect();
    state.ResumeTiming();
  }
  state.counters["ns_per_record"] =
      timed_ns / static_cast<double>(state.iterations() * kBatch);
  // A read at the applied LSN, with no newer record, serves the base image
  // object itself.
  size_t distinct = 0;
  for (PageId page = 0; page < kPages; ++page) {
    std::vector<const Page*> held;
    for (const Segment& seg : replicas) {
      auto image = seg.GetPageAsOf(page, seg.applied_lsn());
      if (image.ok()) held.push_back(image->get());
    }
    std::sort(held.begin(), held.end());
    distinct += std::unique(held.begin(), held.end()) - held.begin();
  }
  state.counters["images_per_page"] =
      static_cast<double>(distinct) / static_cast<double>(kPages);
}
BENCHMARK(BM_ReplicaCoalesceSharedImages);

// The read-after-write pattern of fig10 on one segment (§4.2.3): 200
// decoded 250-record batches of updates over 64 pages of 4 KiB, none
// coalesced, so reading a page replays every record of it from the hot log.
// Each iteration reads every page at the newest LSN; ns_per_read is the
// time per read. entries_per_record is the page index's entries per
// hot-log record: 1 when each record has its own, about 64 / 250 when a
// run's records of one page share one.
void BM_SegmentReadAfterWrite(benchmark::State& state) {
  constexpr size_t kBatches = 200;
  constexpr size_t kBatch = 250;
  constexpr PageId kPages = 64;
  Segment seg(0, 4096);
  auto deliver = [&seg](const std::vector<LogRecord>& records) {
    const SharedRecords batch = ShareRecords(records);
    for (uint32_t i = 0; i < batch->size(); ++i) seg.AddRecord(batch, i);
  };
  // Each page gets a format record and the one key its updates name.
  Lsn lsn = 0;
  std::vector<LogRecord> setup;
  for (PageId page = 0; page < kPages; ++page) {
    LogRecord format = SegmentRecord(lsn + 1, lsn, kPages);
    format.page_id = page;
    format.op = RedoOp::kFormatPage;
    format.payload = LogRecord::MakeFormatPayload(
        static_cast<uint8_t>(PageType::kBTreeLeaf), 0);
    setup.push_back(std::move(format));
    ++lsn;
    LogRecord insert = SegmentRecord(lsn + 1, lsn, kPages);
    insert.page_id = page;
    insert.op = RedoOp::kInsert;
    insert.payload = LogRecord::MakeKeyValuePayload(
        "key" + std::to_string(page), std::string(100, 'v'));
    setup.push_back(std::move(insert));
    ++lsn;
  }
  deliver(setup);
  for (size_t b = 0; b < kBatches; ++b) {
    std::vector<LogRecord> batch;
    for (size_t i = 0; i < kBatch; ++i, ++lsn) {
      batch.push_back(SegmentRecord(lsn + 1, lsn, kPages));
    }
    deliver(batch);
  }
  const Lsn newest = seg.max_lsn();
  double timed_ns = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    for (PageId page = 0; page < kPages; ++page) {
      auto image = seg.GetPageAsOf(page, newest);
      if (!image.ok()) state.SkipWithError("read failed");
      benchmark::DoNotOptimize(image);
    }
    timed_ns += std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  }
  state.counters["ns_per_read"] =
      timed_ns / static_cast<double>(state.iterations() * kPages);
  state.counters["entries_per_record"] =
      static_cast<double>(seg.page_index_entries()) /
      static_cast<double>(seg.hot_log_size());
}
BENCHMARK(BM_SegmentReadAfterWrite);

}  // namespace
}  // namespace aurora

namespace {

/// Console reporter that additionally captures per-benchmark timings and
/// user counters so they can be emitted through the metrics registry as
/// BENCH_*.json.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      // Benchmark names ("BM_Crc32c/4096") become one leaf per benchmark.
      captured.emplace_back(run.benchmark_name() + ".real_time_ns",
                            run.GetAdjustedRealTime());
      for (const auto& [name, counter] : run.counters) {
        captured.emplace_back(run.benchmark_name() + "." + name,
                              counter.value);
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<std::pair<std::string, double>> captured;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  aurora::bench::BenchReport report("micro_core");
  for (const auto& [key, value] : reporter.captured) {
    report.Result(key, value);
  }
  report.Write();
  return 0;
}
