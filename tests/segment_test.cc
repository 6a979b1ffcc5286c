#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "common/coding.h"
#include "common/random.h"
#include "log/applicator.h"
#include "page/btree.h"
#include "storage/segment.h"
#include "storage/wire.h"
#include "tests/test_util.h"

namespace aurora {
namespace {

// Builds a valid per-PG record chain: record i gets lsn base+i*10, backlink
// to its predecessor, targeting page (i % pages).
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

TEST(SegmentTest, SclAdvancesOnlyOverContiguousChain) {
  Segment seg(0, 4096);
  auto records = MakeChain(10);
  // Deliver 0,1,2 then 5,6 (gap at 3,4), then fill the hole.
  for (int i : {0, 1, 2}) seg.AddRecord(records[i]);
  EXPECT_EQ(seg.scl(), records[2].lsn);
  for (int i : {5, 6}) seg.AddRecord(records[i]);
  EXPECT_EQ(seg.scl(), records[2].lsn);
  EXPECT_TRUE(seg.has_gap());
  EXPECT_EQ(seg.max_lsn(), records[6].lsn);
  seg.AddRecord(records[4]);
  EXPECT_EQ(seg.scl(), records[2].lsn);  // still missing 3
  seg.AddRecord(records[3]);
  EXPECT_EQ(seg.scl(), records[6].lsn);  // chain healed through 6
  EXPECT_FALSE(seg.has_gap());
}

TEST(SegmentTest, DuplicateRecordsIgnored) {
  Segment seg(0, 4096);
  auto records = MakeChain(5);
  for (const auto& r : records) EXPECT_TRUE(seg.AddRecord(r));
  for (const auto& r : records) EXPECT_FALSE(seg.AddRecord(r));
  EXPECT_EQ(seg.hot_log_size(), 5u);
}

TEST(SegmentTest, RecordsAboveReturnsOrderedSuffix) {
  Segment seg(0, 4096);
  auto records = MakeChain(10);
  for (const auto& r : records) seg.AddRecord(r);
  auto above = seg.RecordsAbove(records[4].lsn, 100);
  ASSERT_EQ(above.size(), 5u);
  EXPECT_EQ(above[0].lsn, records[5].lsn);
  auto capped = seg.RecordsAbove(kInvalidLsn, 3);
  EXPECT_EQ(capped.size(), 3u);
}

TEST(SegmentTest, CoalesceRespectsWatermarks) {
  Segment seg(0, 4096);
  auto records = MakeChain(9);
  for (const auto& r : records) seg.AddRecord(r);
  // No VDL hint, no PGMRPL: nothing may materialize.
  EXPECT_EQ(seg.CoalesceStep(100), 0u);
  seg.SetVdlHint(records[5].lsn);
  EXPECT_EQ(seg.CoalesceStep(100), 0u);  // PGMRPL still zero
  seg.SetPgmrpl(records[5].lsn);
  EXPECT_EQ(seg.CoalesceStep(100), 6u);  // records 0..5
  EXPECT_EQ(seg.applied_lsn(), records[5].lsn);
  EXPECT_GT(seg.num_pages(), 0u);
}

TEST(SegmentTest, GetPageAsOfReconstructsHistoricalVersions) {
  Segment seg(0, 4096);
  // One page, three inserts at lsn 100, 110, 120.
  std::vector<LogRecord> records;
  Lsn prev = kInvalidLsn;
  for (int i = 0; i < 3; ++i) {
    LogRecord r;
    r.lsn = 100 + i * 10;
    r.prev_pg_lsn = prev;
    r.page_id = 7;
    r.op = i == 0 ? RedoOp::kFormatPage : RedoOp::kInsert;
    r.payload = i == 0
                    ? LogRecord::MakeFormatPayload(
                          static_cast<uint8_t>(PageType::kBTreeLeaf), 0)
                    : LogRecord::MakeKeyValuePayload("k" + std::to_string(i),
                                                     "v");
    r.flags = kFlagCpl;
    prev = r.lsn;
    records.push_back(std::move(r));
    seg.AddRecord(records.back());
  }
  seg.SetVdlHint(120);
  auto v100 = seg.GetPageAsOf(7, 100);
  ASSERT_TRUE(v100.ok());
  EXPECT_EQ((*v100)->slot_count(), 0);
  auto v110 = seg.GetPageAsOf(7, 115);
  ASSERT_TRUE(v110.ok());
  EXPECT_EQ((*v110)->slot_count(), 1);
  auto v120 = seg.GetPageAsOf(7, 120);
  ASSERT_TRUE(v120.ok());
  EXPECT_EQ((*v120)->slot_count(), 2);
  // Beyond the SCL: this replica can't vouch for completeness.
  EXPECT_TRUE(seg.GetPageAsOf(7, 500).status().IsUnavailable());
  // Unknown page.
  EXPECT_TRUE(seg.GetPageAsOf(99, 110).status().IsNotFound());
}

TEST(SegmentTest, CompletenessSnapshotAllowsIdlePgReads) {
  Segment seg(0, 4096);
  auto records = MakeChain(3);
  for (const auto& r : records) seg.AddRecord(r);
  Lsn tail = records[2].lsn;
  // A much higher volume VDL, with this PG idle since `tail`.
  seg.SetVdlHint(10000);
  seg.SetCompletenessSnapshot(10000, tail);
  auto page = seg.GetPageAsOf(0, 9000);
  EXPECT_TRUE(page.ok()) << page.status().ToString();
  // But if the chain hasn't reached the promised tail, refuse.
  Segment lagging(0, 4096);
  lagging.AddRecord(records[0]);
  lagging.SetCompletenessSnapshot(10000, tail);
  EXPECT_TRUE(lagging.GetPageAsOf(0, 9000).status().IsUnavailable());
}

TEST(SegmentTest, ReadTailWithinTheSclServesHigherReadPoints) {
  Segment seg(0, 4096);
  auto records = MakeChain(3);
  for (const auto& r : records) seg.AddRecord(r);
  const Lsn tail = records[2].lsn;
  // The volume VDL moved far past this idle PG and no snapshot says so:
  // only the reader's tail proves the segment complete at 9000.
  EXPECT_TRUE(seg.GetPageAsOf(0, 9000).status().IsUnavailable());
  EXPECT_TRUE(seg.CompleteAt(9000, tail));
  auto page = seg.GetPageAsOf(0, 9000, tail);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  auto at_tail = seg.GetPageAsOf(0, tail);
  ASSERT_TRUE(at_tail.ok());
  EXPECT_EQ((*page)->raw(), (*at_tail)->raw());
  // 0 is a valid tail: a PG never written is complete anywhere.
  Segment empty(1, 4096);
  EXPECT_TRUE(empty.CompleteAt(9000, kInvalidLsn));
  EXPECT_FALSE(empty.CompleteAt(9000, std::nullopt));
  // A tail above the read point proves nothing.
  EXPECT_FALSE(seg.CompleteAt(9000, 9500));
}

TEST(SegmentTest, ReadTailAboveTheSclIsRefused) {
  auto records = MakeChain(3);
  Segment lagging(0, 4096);
  lagging.AddRecord(records[0]);
  lagging.AddRecord(records[2]);  // record 1 missing: SCL stays at record 0
  ASSERT_EQ(lagging.scl(), records[0].lsn);
  EXPECT_TRUE(lagging.GetPageAsOf(0, 9000, records[2].lsn)
                  .status()
                  .IsUnavailable());
  EXPECT_TRUE(lagging.GetPageAsOf(0, records[2].lsn, records[2].lsn)
                  .status()
                  .IsUnavailable());
  lagging.AddRecord(records[1]);
  EXPECT_TRUE(lagging.GetPageAsOf(0, 9000, records[2].lsn).ok());
}

TEST(SegmentTest, ReadTailContradictedByTheLogIsRefused) {
  Segment seg(0, 4096);
  auto records = MakeChain(3);
  for (const auto& r : records) seg.AddRecord(r);
  // The reader claims the PG's newest record at or below the read point is
  // record 1, but this log holds record 2 in (tail, read_point]: refuse,
  // even where the SCL alone would vouch for the read point.
  const Lsn tail = records[1].lsn;
  EXPECT_TRUE(seg.GetPageAsOf(0, 9000, tail).status().IsUnavailable());
  EXPECT_TRUE(
      seg.GetPageAsOf(0, records[2].lsn, tail).status().IsUnavailable());
  // A read point below the contradicting record is consistent with it.
  EXPECT_TRUE(seg.GetPageAsOf(0, records[2].lsn - 1, tail).ok());
}

TEST(SegmentTest, GarbageCollectionDropsAppliedRecordsBelowPgmrpl) {
  Segment seg(0, 4096);
  auto records = MakeChain(9);
  for (const auto& r : records) seg.AddRecord(r);
  seg.SetVdlHint(records[8].lsn);
  seg.SetPgmrpl(records[5].lsn);
  seg.CoalesceStep(100);
  size_t collected = seg.GarbageCollect();
  EXPECT_EQ(collected, 6u);
  EXPECT_EQ(seg.hot_log_size(), 3u);
  // Reads at or above the floor still work.
  EXPECT_TRUE(seg.GetPageAsOf(0, records[6].lsn).ok());
  // Reads below the materialized floor are stale.
  EXPECT_TRUE(seg.GetPageAsOf(0, records[1].lsn).status().IsStale());
}

TEST(SegmentTest, TruncateRemovesSuffixAndHonoursEpochs) {
  Segment seg(0, 4096);
  auto records = MakeChain(10);
  for (const auto& r : records) seg.AddRecord(r);
  Lsn cut = records[6].lsn;
  ASSERT_TRUE(seg.Truncate(cut, 5).ok());
  EXPECT_EQ(seg.epoch(), 5u);
  EXPECT_EQ(seg.max_lsn(), cut);
  EXPECT_EQ(seg.scl(), cut);
  EXPECT_EQ(seg.hot_log_size(), 7u);
  // Older epoch refused; same/newer accepted (idempotent).
  EXPECT_TRUE(seg.Truncate(cut, 4).IsStale());
  EXPECT_TRUE(seg.Truncate(cut, 5).ok());
  EXPECT_TRUE(seg.Truncate(cut, 6).ok());
}

TEST(SegmentTest, TruncateBetweenRecordsKeepsTheChainExtensible) {
  Segment seg(0, 4096);
  auto records = MakeChain(10);
  for (const auto& r : records) seg.AddRecord(r);
  // The cut falls between records 6 and 7 (another PG's LSN, say): the
  // SCL drops to record 6, the PG's newest surviving record.
  ASSERT_TRUE(seg.Truncate(records[6].lsn + 5, 5).ok());
  EXPECT_EQ(seg.scl(), records[6].lsn);
  EXPECT_FALSE(seg.has_gap());
  // The next incarnation's record links to record 6 and extends the SCL.
  LogRecord next = records[7];
  next.lsn = 100000;
  ASSERT_TRUE(seg.AddRecord(next));
  EXPECT_EQ(seg.scl(), next.lsn);
}

TEST(SegmentTest, SerializeRoundTripPreservesEverything) {
  Segment seg(3, 4096);
  auto records = MakeChain(8);
  for (const auto& r : records) seg.AddRecord(r);
  seg.SetVdlHint(records[7].lsn);
  seg.SetPgmrpl(records[4].lsn);
  seg.CoalesceStep(100);
  seg.MarkBackedUp(records[3].lsn);

  std::string blob;
  seg.SerializeTo(&blob);
  Segment copy(0, 256);
  ASSERT_TRUE(copy.DeserializeFrom(blob).ok());
  EXPECT_EQ(copy.pg(), 3u);
  EXPECT_EQ(copy.page_size(), 4096u);
  EXPECT_EQ(copy.scl(), seg.scl());
  EXPECT_EQ(copy.applied_lsn(), seg.applied_lsn());
  EXPECT_EQ(copy.hot_log_size(), seg.hot_log_size());
  EXPECT_EQ(copy.num_pages(), seg.num_pages());
  EXPECT_EQ(copy.backup_lsn(), seg.backup_lsn());
  // The copy serves identical pages.
  Lsn rp = seg.applied_lsn();
  auto a = seg.GetPageAsOf(0, rp);
  auto b = copy.GetPageAsOf(0, rp);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ((*a)->raw(), (*b)->raw());
}

TEST(SegmentTest, ScrubFindsCorruptMaterializedPage) {
  Segment seg(0, 4096);
  auto records = MakeChain(6);
  for (const auto& r : records) seg.AddRecord(r);
  seg.SetVdlHint(records[5].lsn);
  seg.SetPgmrpl(records[5].lsn);
  seg.CoalesceStep(100);
  EXPECT_EQ(seg.ScrubPages(), 0u);
  seg.CorruptBasePageForTesting(0);
  EXPECT_EQ(seg.ScrubPages(), 1u);
  EXPECT_EQ(seg.corrupt_pages().count(0), 1u);
  seg.DropPageForRepair(0);
  EXPECT_TRUE(seg.corrupt_pages().empty());
}

TEST(SegmentTest, InventoryListsChainMetadata) {
  Segment seg(0, 4096);
  auto records = MakeChain(4);
  for (const auto& r : records) seg.AddRecord(r);
  auto inv = seg.Inventory();
  ASSERT_EQ(inv.size(), 4u);
  EXPECT_EQ(inv[0].lsn, records[0].lsn);
  EXPECT_EQ(inv[1].prev, records[0].lsn);
  EXPECT_EQ(inv[2].vprev, records[1].lsn);
}

// The segment bookkeeping as ordered trees keyed by LSN (hot log, backlink
// index, per-page LSN sets), without the reconstruction cache: the
// reference model a Segment must match after every step of a schedule.
class ReferenceSegment {
 public:
  explicit ReferenceSegment(size_t page_size) : page_size_(page_size) {}

  Lsn scl() const { return scl_; }
  Lsn max_lsn() const { return max_lsn_; }
  Lsn applied_lsn() const { return applied_lsn_; }
  Lsn backup_lsn() const { return backup_lsn_; }
  Epoch epoch() const { return epoch_; }
  size_t hot_log_size() const { return hot_log_.size(); }

  bool AddRecord(const RecordView& r) {
    if (r.lsn == kInvalidLsn || r.lsn <= applied_lsn_) return false;
    if (!hot_log_.emplace(r.lsn, LogRecord(r)).second) return false;
    chain_[r.prev_pg_lsn] = r.lsn;
    records_by_page_[r.page_id].insert(r.lsn);
    max_lsn_ = std::max(max_lsn_, r.lsn);
    AdvanceScl();
    return true;
  }
  void SetVdlHint(Lsn v) { vdl_hint_ = std::max(vdl_hint_, v); }
  void SetPgmrpl(Lsn v) { pgmrpl_ = std::max(pgmrpl_, v); }
  void MarkBackedUp(Lsn v) { backup_lsn_ = std::max(backup_lsn_, v); }
  void SetCompletenessSnapshot(Lsn vdl, Lsn tail) {
    if (vdl > snapshot_vdl_) {
      snapshot_vdl_ = vdl;
      snapshot_tail_ = tail;
    }
  }

  size_t CoalesceStep(size_t max_records) {
    const Lsn limit = std::min(scl_, std::min(vdl_hint_, pgmrpl_));
    size_t applied = 0;
    for (auto it = hot_log_.upper_bound(applied_lsn_);
         it != hot_log_.end() && it->first <= limit && applied < max_records;
         ++it) {
      const LogRecord& rec = it->second;
      Page& page =
          base_pages_.try_emplace(rec.page_id, page_size_).first->second;
      if (!page.IsFormatted() && rec.op != RedoOp::kFormatPage) {
        base_pages_.erase(rec.page_id);
        break;
      }
      EXPECT_TRUE(LogApplicator::Apply(rec, &page).ok());
      page.UpdateCrc();
      applied_lsn_ = it->first;
      ++applied;
    }
    return applied;
  }

  size_t GarbageCollect() {
    const Lsn floor = std::min(applied_lsn_, pgmrpl_);
    size_t collected = 0;
    for (auto it = hot_log_.begin();
         it != hot_log_.end() && it->first <= floor && it->first != scl_;) {
      Forget(it->second);
      it = hot_log_.erase(it);
      ++collected;
    }
    return collected;
  }

  Status Truncate(Lsn above, Epoch epoch) {
    if (epoch < epoch_) {
      return Status::Stale("truncate from an older volume epoch");
    }
    epoch_ = epoch;
    for (auto it = hot_log_.upper_bound(above); it != hot_log_.end();) {
      Forget(it->second);
      it = hot_log_.erase(it);
    }
    Lsn newest = applied_lsn_;
    if (!hot_log_.empty()) newest = std::max(newest, hot_log_.rbegin()->first);
    if (scl_ > above) scl_ = newest;
    if (max_lsn_ > above) max_lsn_ = newest;
    if (backup_lsn_ > above) backup_lsn_ = above;
    AdvanceScl();
    return Status::OK();
  }

  bool CanBridgeFrom(Lsn scl) const { return chain_.count(scl) > 0; }

  bool CompleteAt(Lsn read_point, std::optional<Lsn> tail) const {
    if (tail.has_value()) {
      auto next = hot_log_.upper_bound(*tail);
      if (next != hot_log_.end() && next->first <= read_point) return false;
      if (*tail <= read_point && scl_ >= *tail) return true;
    }
    return read_point <= scl_ ||
           (read_point <= snapshot_vdl_ && scl_ >= snapshot_tail_);
  }

  Status CheckReadPoint(Lsn read_point, std::optional<Lsn> tail) const {
    if (!CompleteAt(read_point, tail)) {
      return Status::Unavailable("segment incomplete at read point");
    }
    if (read_point < applied_lsn_) {
      return Status::Stale("read point below materialized floor");
    }
    return Status::OK();
  }

  Result<Page> GetPageAsOf(PageId page, Lsn read_point,
                           std::optional<Lsn> tail) const {
    Status gate = CheckReadPoint(read_point, tail);
    if (!gate.ok()) return gate;
    Page result(page_size_);
    auto base = base_pages_.find(page);
    if (base != base_pages_.end()) {
      if (base->second.IsFormatted() && !base->second.VerifyCrc()) {
        return Status::Corruption("base page CRC mismatch");
      }
      result = base->second;
    }
    auto recs = records_by_page_.find(page);
    if (recs != records_by_page_.end()) {
      for (Lsn lsn : recs->second) {
        if (lsn > read_point) break;
        Status s = LogApplicator::Apply(hot_log_.at(lsn), &result);
        if (!s.ok()) return s;
      }
    }
    if (!result.IsFormatted()) return Status::NotFound("page never written");
    result.UpdateCrc();
    return result;
  }

  std::vector<InventoryEntry> Inventory() const {
    std::vector<InventoryEntry> out;
    for (const auto& [lsn, rec] : hot_log_) {
      out.push_back({lsn, rec.prev_pg_lsn, rec.prev_vol_lsn, rec.flags});
    }
    return out;
  }
  std::vector<RecordView> RecordsAbove(Lsn from, size_t max) const {
    std::vector<RecordView> out;
    for (auto it = hot_log_.upper_bound(from);
         it != hot_log_.end() && out.size() < max; ++it) {
      out.push_back(it->second);
    }
    return out;
  }
  std::vector<RecordView> UnbackedRecords(size_t max) const {
    std::vector<RecordView> out;
    for (auto it = hot_log_.upper_bound(backup_lsn_);
         it != hot_log_.end() && it->first <= scl_ && out.size() < max; ++it) {
      out.push_back(it->second);
    }
    return out;
  }

  void SerializeTo(std::string* dst) const {
    PutVarint32(dst, 0);
    PutVarint64(dst, page_size_);
    for (Lsn v : {scl_, max_lsn_, vdl_hint_, pgmrpl_, backup_lsn_, epoch_,
                  applied_lsn_}) {
      PutVarint64(dst, v);
    }
    PutVarint64(dst, hot_log_.size());
    for (const auto& [lsn, rec] : hot_log_) rec.EncodeTo(dst);
    PutVarint64(dst, base_pages_.size());
    for (const auto& [id, page] : base_pages_) {
      PutVarint64(dst, id);
      PutLengthPrefixedSlice(dst, page.raw());
    }
  }

  /// Rebuilds this model from a SerializeTo blob, indexing records in blob
  /// (LSN) order as a deserializing segment does.
  void DeserializeFrom(Slice in) {
    uint32_t pg;
    uint64_t page_size, n;
    ASSERT_TRUE(GetVarint32(&in, &pg) && GetVarint64(&in, &page_size));
    for (Lsn* v : {&scl_, &max_lsn_, &vdl_hint_, &pgmrpl_, &backup_lsn_,
                   &epoch_, &applied_lsn_}) {
      ASSERT_TRUE(GetVarint64(&in, v));
    }
    hot_log_.clear();
    chain_.clear();
    records_by_page_.clear();
    base_pages_.clear();
    ASSERT_TRUE(GetVarint64(&in, &n));
    for (uint64_t i = 0; i < n; ++i) {
      LogRecord rec;
      ASSERT_TRUE(LogRecord::DecodeFrom(&in, &rec).ok());
      chain_[rec.prev_pg_lsn] = rec.lsn;
      records_by_page_[rec.page_id].insert(rec.lsn);
      hot_log_.emplace(rec.lsn, std::move(rec));
    }
    ASSERT_TRUE(GetVarint64(&in, &n));
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t id;
      Slice raw;
      ASSERT_TRUE(GetVarint64(&in, &id) && GetLengthPrefixedSlice(&in, &raw));
      Page page(page_size_);
      ASSERT_TRUE(page.LoadRaw(raw).ok());
      base_pages_.emplace(id, std::move(page));
    }
  }

 private:
  void AdvanceScl() {
    for (auto it = chain_.find(scl_); it != chain_.end();
         it = chain_.find(scl_)) {
      scl_ = it->second;
    }
  }
  void Forget(const LogRecord& rec) {
    chain_.erase(rec.prev_pg_lsn);
    auto page_it = records_by_page_.find(rec.page_id);
    page_it->second.erase(rec.lsn);
    if (page_it->second.empty()) records_by_page_.erase(page_it);
  }

  size_t page_size_;
  std::map<Lsn, LogRecord> hot_log_;
  std::map<Lsn, Lsn> chain_;  // prev lsn -> lsn
  std::map<PageId, std::set<Lsn>> records_by_page_;
  std::map<PageId, Page> base_pages_;
  Lsn applied_lsn_ = kInvalidLsn;
  Lsn scl_ = kInvalidLsn;
  Lsn max_lsn_ = kInvalidLsn;
  Lsn vdl_hint_ = kInvalidLsn;
  Lsn pgmrpl_ = kInvalidLsn;
  Lsn backup_lsn_ = kInvalidLsn;
  Lsn snapshot_vdl_ = kInvalidLsn;
  Lsn snapshot_tail_ = kInvalidLsn;
  Epoch epoch_ = 0;
};

std::vector<Lsn> LsnsOf(const std::vector<RecordView>& records) {
  std::vector<Lsn> out;
  for (const RecordView& r : records) out.push_back(r.lsn);
  return out;
}

std::string ReadOutcome(const Result<Page>& page) {
  return page.ok() ? page->raw() : page.status().ToString();
}
std::string ReadOutcome(const Result<std::shared_ptr<const Page>>& page) {
  return page.ok() ? (*page)->raw() : page.status().ToString();
}

// A Segment and its reference model fed the same steps, for the directed
// hot-log run tests. After every step both agree on the SCL, on
// CanBridgeFrom at every LSN a record names, on the inventory, and on every
// page read (bytes or status) at every such LSN. The segment caches two
// reconstructed pages, so its reads also replay from cached images.
class RunSteps {
 public:
  RunSteps() : seg_(0, 4096), ref_(4096) { seg_.set_page_cache_budget(8192); }

  // One record of a batch: its LSN, its backlink and its page.
  struct Rec {
    Lsn lsn;
    Lsn prev;
    PageId page = 0;
  };
  // One decoded batch, linked as a decode links it. The first LSN batched
  // for a page formats it, in every batch that holds it; every other record
  // sets the page's next link to its own LSN, so each record changes its
  // page's bytes.
  SharedRecords Batch(const std::vector<Rec>& recs) {
    std::vector<LogRecord> records;
    for (const Rec& rec : recs) {
      LogRecord r;
      r.lsn = rec.lsn;
      r.prev_pg_lsn = rec.prev;
      r.prev_vol_lsn = rec.lsn - 1;
      r.page_id = rec.page;
      r.txn_id = 1;
      const bool format =
          formats_.try_emplace(rec.page, rec.lsn).first->second == rec.lsn;
      r.op = format ? RedoOp::kFormatPage : RedoOp::kSetNext;
      r.payload = format ? LogRecord::MakeFormatPayload(
                               static_cast<uint8_t>(PageType::kBTreeLeaf), 0)
                         : LogRecord::MakePageIdPayload(rec.lsn);
      records.push_back(std::move(r));
    }
    return ShareRecords(records);
  }

  // Delivers the batch's records in order, except those in `lost`.
  void Add(const SharedRecords& owner, const std::set<Lsn>& lost = {}) {
    for (uint32_t i = 0; i < owner->size(); ++i) {
      const RecordView r = (*owner)[i];
      if (lost.count(r.lsn) != 0) continue;
      probes_.insert({r.lsn, r.prev_pg_lsn});
      EXPECT_EQ(seg_.AddRecord(owner, i), ref_.AddRecord(r)) << r.lsn;
      Check("add " + std::to_string(r.lsn));
    }
  }
  // Coalesces everything at or below `through`, then collects.
  void Collect(Lsn through) {
    seg_.SetVdlHint(through);
    seg_.SetPgmrpl(through);
    ref_.SetVdlHint(through);
    ref_.SetPgmrpl(through);
    EXPECT_EQ(seg_.CoalesceStep(1000), ref_.CoalesceStep(1000));
    EXPECT_EQ(seg_.GarbageCollect(), ref_.GarbageCollect());
    Check("collect through " + std::to_string(through));
  }
  void Truncate(Lsn above, Epoch epoch) {
    EXPECT_EQ(seg_.Truncate(above, epoch).ToString(),
              ref_.Truncate(above, epoch).ToString());
    Check("truncate above " + std::to_string(above));
  }

  const Segment& seg() const { return seg_; }

 private:
  void Check(const std::string& step) {
    SCOPED_TRACE(step);
    EXPECT_EQ(seg_.scl(), ref_.scl());
    for (Lsn lsn : probes_) {
      EXPECT_EQ(seg_.CanBridgeFrom(lsn), ref_.CanBridgeFrom(lsn))
          << "from " << lsn;
    }
    std::vector<std::pair<Lsn, Lsn>> inv, ref_inv;
    for (const InventoryEntry& e : seg_.Inventory()) {
      inv.emplace_back(e.lsn, e.prev);
    }
    for (const InventoryEntry& e : ref_.Inventory()) {
      ref_inv.emplace_back(e.lsn, e.prev);
    }
    EXPECT_EQ(inv, ref_inv);
    for (const auto& [page, format] : formats_) {
      for (Lsn lsn : probes_) {
        EXPECT_EQ(ReadOutcome(seg_.GetPageAsOf(page, lsn)),
                  ReadOutcome(ref_.GetPageAsOf(page, lsn, std::nullopt)))
            << "page " << page << " at " << lsn;
      }
    }
  }

  Segment seg_;
  ReferenceSegment ref_;
  std::set<Lsn> probes_;
  std::map<PageId, Lsn> formats_;  // each page's format record
};

TEST(SegmentTest, InOrderBatchFormsOneRun) {
  RunSteps steps;
  steps.Add(steps.Batch({{100, 0}, {110, 100}, {120, 110}, {130, 120}}));
  EXPECT_EQ(steps.seg().hot_log_runs(), 1u);
  EXPECT_EQ(steps.seg().scl(), 130u);
  // The next batch links to the first one's last record: a second run.
  steps.Add(steps.Batch({{140, 130}, {150, 140}}));
  EXPECT_EQ(steps.seg().hot_log_runs(), 2u);
  EXPECT_EQ(steps.seg().hot_log_size(), 6u);
}

// A gossip push is its own batch: its first new record starts a run even
// where its index continues the newest run's batch.
TEST(SegmentTest, GossipPushStartsItsOwnRun) {
  RunSteps steps;
  steps.Add(steps.Batch({{100, 0}, {110, 100}, {125, 110}}),
            /*lost=*/{125});
  steps.Add(steps.Batch({{100, 0}, {110, 100}, {120, 110}}));
  EXPECT_EQ(steps.seg().hot_log_runs(), 2u);
  EXPECT_EQ(steps.seg().scl(), 120u);
}

// A late record inside a run splits it, and the record cut from its
// predecessor keeps its backlink (120 -> 130 stays bridgeable).
TEST(SegmentTest, LateRecordSplitsARun) {
  RunSteps steps;
  steps.Add(steps.Batch({{100, 0}, {110, 100}, {120, 110}, {130, 120}}));
  steps.Add(steps.Batch({{125, 105}}));  // an annulled record
  EXPECT_EQ(steps.seg().hot_log_runs(), 3u);
  EXPECT_TRUE(steps.seg().CanBridgeFrom(120));
  // A batch delivered after its successor batch joins one run as well.
  steps.Add(steps.Batch({{160, 150}, {170, 160}}));
  steps.Add(steps.Batch({{140, 130}, {150, 140}}));
  EXPECT_EQ(steps.seg().hot_log_runs(), 5u);
  EXPECT_EQ(steps.seg().scl(), 170u);
}

// GC of a run's first record keeps the link to its successor.
TEST(SegmentTest, GcAcrossARunsFirstRecord) {
  RunSteps steps;
  steps.Add(steps.Batch({{100, 0}, {110, 100}, {120, 110}}));
  steps.Add(steps.Batch({{130, 120}, {140, 130}, {150, 140}, {160, 150}}));
  steps.Collect(110);
  EXPECT_TRUE(steps.seg().CanBridgeFrom(110));
  steps.Collect(140);
  EXPECT_TRUE(steps.seg().CanBridgeFrom(140));
  EXPECT_EQ(steps.seg().hot_log_runs(), 1u);
}

TEST(SegmentTest, TruncationInsideARun) {
  RunSteps steps;
  steps.Add(steps.Batch({{100, 0}, {110, 100}, {120, 110}, {130, 120}}));
  steps.Truncate(115, 1);
  EXPECT_EQ(steps.seg().scl(), 110u);
  EXPECT_FALSE(steps.seg().CanBridgeFrom(110));
  // The next incarnation links to the newest record kept.
  steps.Add(steps.Batch({{140, 110}, {150, 140}}));
  EXPECT_EQ(steps.seg().scl(), 150u);
  steps.Collect(140);
}

// An annulled record that gossip brings back shares its backlink with an
// implied record and overrides it; truncating it erases that backlink, and
// the implied record must not revive it.
TEST(SegmentTest, AnnulledCollisionErasedByTruncation) {
  RunSteps steps;
  steps.Add(steps.Batch({{100, 0}, {110, 100}, {120, 110}, {130, 120}}));
  steps.Add(steps.Batch({{125, 110}}));
  steps.Truncate(121, 1);
  EXPECT_FALSE(steps.seg().CanBridgeFrom(110));
  steps.Add(steps.Batch({{135, 120}, {145, 135}}));
  steps.Collect(135);
  EXPECT_FALSE(steps.seg().CanBridgeFrom(110));
}

// The same collision, erased by GC instead.
TEST(SegmentTest, AnnulledCollisionErasedByGc) {
  RunSteps steps;
  steps.Add(steps.Batch({{100, 0}, {110, 100}, {120, 110}, {130, 120}}));
  steps.Add(steps.Batch({{135, 110}}));
  steps.Add(steps.Batch({{115, 110}}));
  steps.Collect(110);
  steps.Collect(130);
  steps.Truncate(130, 1);
  steps.Add(steps.Batch({{140, 130}}));
}

// Records of one page that follow each other in a run are page-implied:
// the page index keeps one entry per page and run, and reads reach the
// rest through the batch's same-page links.
TEST(SegmentTest, PageRecordsOfARunShareOneEntry) {
  RunSteps steps;
  steps.Add(steps.Batch({{100, 0, 0},
                         {110, 100, 1},
                         {120, 110, 0},
                         {130, 120, 1},
                         {140, 130, 0}}));
  EXPECT_EQ(steps.seg().hot_log_runs(), 1u);
  EXPECT_EQ(steps.seg().page_index_entries(), 2u);
  steps.Add(steps.Batch({{150, 140, 0}, {160, 150, 0}, {170, 160, 1}}));
  EXPECT_EQ(steps.seg().page_index_entries(), 4u);
}

// A run that starts inside its batch (its first record was lost) does not
// hold the previous page record of a record whose batch links it to one.
TEST(SegmentTest, RunStartingInsideItsBatchIndexesEachPage) {
  RunSteps steps;
  steps.Add(steps.Batch({{100, 0, 0}, {110, 100, 1}, {120, 110, 0}}),
            /*lost=*/{100});
  EXPECT_EQ(steps.seg().page_index_entries(), 2u);
  steps.Add(steps.Batch({{100, 0, 0}}));  // gossip fills the gap
  EXPECT_EQ(steps.seg().scl(), 120u);
  EXPECT_EQ(steps.seg().page_index_entries(), 3u);
}

// A late record that splits a run cuts tail records from their previous
// page records in the head: each gets an entry, and reads still reach
// every record of their pages.
TEST(SegmentTest, SplitIndexesRecordsCutFromTheirPage) {
  RunSteps steps;
  steps.Add(steps.Batch({{100, 0, 0},
                         {110, 100, 1},
                         {120, 110, 0},
                         {130, 120, 1},
                         {140, 130, 0},
                         {150, 140, 1}}));
  EXPECT_EQ(steps.seg().page_index_entries(), 2u);
  steps.Add(steps.Batch({{125, 105, 0}}));  // an annulled record
  EXPECT_EQ(steps.seg().hot_log_runs(), 3u);
  // 125, and 130 and 140 cut from 110 and 120; 150 follows 130.
  EXPECT_EQ(steps.seg().page_index_entries(), 5u);
}

// GC of a run's first record hands its entry to the run's next record of
// the same page.
TEST(SegmentTest, GcOfARunsFirstRecordPromotesItsPageSuccessor) {
  RunSteps steps;
  steps.Add(steps.Batch({{100, 0, 0},
                         {110, 100, 1},
                         {120, 110, 0},
                         {130, 120, 1},
                         {140, 130, 0}}));
  steps.Collect(100);
  EXPECT_EQ(steps.seg().hot_log_size(), 4u);
  EXPECT_EQ(steps.seg().page_index_entries(), 2u);
  steps.Collect(110);
  EXPECT_EQ(steps.seg().page_index_entries(), 2u);
  steps.Collect(130);
  EXPECT_EQ(steps.seg().hot_log_size(), 1u);
  EXPECT_EQ(steps.seg().page_index_entries(), 1u);
}

// Truncating a record with an entry drops the entry; truncating an implied
// record leaves its page's entry to the records before it.
TEST(SegmentTest, TruncationDropsAnExplicitNewestEntry) {
  RunSteps steps;
  steps.Add(steps.Batch({{100, 0, 0}, {110, 100, 1}, {120, 110, 0}}));
  steps.Add(steps.Batch({{130, 120, 1}, {140, 130, 1}}));
  EXPECT_EQ(steps.seg().page_index_entries(), 3u);
  steps.Truncate(135, 1);
  EXPECT_EQ(steps.seg().page_index_entries(), 3u);
  steps.Truncate(125, 2);
  EXPECT_EQ(steps.seg().page_index_entries(), 2u);
  // The next incarnation's record of page 1 reads after 110, not 130.
  steps.Add(steps.Batch({{150, 120, 1}}));
  EXPECT_EQ(steps.seg().page_index_entries(), 3u);
}

// A same-page link counts at most 65,535 places. A record farther from its
// batch's previous record of the page is not linked to it: it gets an entry
// of its own, and reads still reach both.
TEST(SegmentTest, PageRecordsTooFarApartToLinkAreBothIndexed) {
  constexpr uint32_t kGap = 65537;  // wraps to 1 in a uint16_t
  std::vector<LogRecord> records;
  for (uint32_t i = 0; i <= kGap; ++i) {
    LogRecord r;
    r.lsn = 100 + i;
    r.prev_pg_lsn = i == 0 ? kInvalidLsn : 99 + i;
    r.prev_vol_lsn = r.prev_pg_lsn;
    r.page_id = i == 0 || i == kGap ? 0 : 1;
    r.txn_id = 1;
    if (i < 2) {
      r.op = RedoOp::kFormatPage;
      r.payload = LogRecord::MakeFormatPayload(
          static_cast<uint8_t>(PageType::kBTreeLeaf), 0);
    } else {
      r.op = RedoOp::kSetNext;
      r.payload = LogRecord::MakePageIdPayload(r.lsn);
    }
    records.push_back(std::move(r));
  }
  const SharedRecords batch = ShareRecords(records);
  EXPECT_EQ(batch->next_on_page(0), 0u);
  EXPECT_EQ(batch->prev_on_page(kGap), 0u);
  EXPECT_EQ(batch->next_on_page(1), 1u);
  Segment seg(0, 4096);
  for (uint32_t i = 0; i < batch->size(); ++i) {
    ASSERT_TRUE(seg.AddRecord(batch, i));
  }
  EXPECT_EQ(seg.hot_log_runs(), 1u);
  EXPECT_EQ(seg.page_index_entries(), 3u);
  Page expected(4096);
  ASSERT_TRUE(LogApplicator::Apply(records.front(), &expected).ok());
  ASSERT_TRUE(LogApplicator::Apply(records.back(), &expected).ok());
  expected.UpdateCrc();
  EXPECT_EQ(ReadOutcome(seg.GetPageAsOf(0, seg.scl())), expected.raw());
}

// The writer's B+-tree, split at the leaf and the internal level, shipped to
// a segment in writer-sized batches: with the first half of the log
// coalesced into base images and the rest replayed from the hot log, the
// segment and its reference model serve every page with the writer's bytes.
TEST(SegmentTest, ReplayedBTreeSplitsServeTheWritersPages) {
  constexpr size_t kPageSize = 512;
  testing::MemoryPageProvider provider(kPageSize);
  testing::LocalWalSink sink;
  MiniTransaction create(0);
  Result<PageId> anchor = BTree::Create(&provider, &create);
  ASSERT_TRUE(anchor.ok());
  ASSERT_TRUE(sink.CommitMtr(&create).ok());
  BTree tree(&provider, *anchor);
  Random rng(11);
  for (int i = 0; i < 400; ++i) {
    MiniTransaction mtr(1);
    Status s = tree.Insert(testing::Key(rng.Uniform(100000)),
                           std::string(20, 'a' + i % 26), &mtr);
    if (s.IsInvalidArgument()) continue;  // a repeated key
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_TRUE(sink.CommitMtr(&mtr).ok());
  }
  Result<PageId> root = tree.root_id();
  ASSERT_TRUE(root.ok());
  ASSERT_GE((*provider.GetPage(*root))->level(), 2) << "no internal split";
  const std::vector<LogRecord>& log = sink.all_records();
  ASSERT_GT(std::count_if(log.begin(), log.end(), [](const LogRecord& r) {
              return r.op == RedoOp::kDeleteListEnd;
            }),
            0);

  Segment seg(0, kPageSize);
  ReferenceSegment ref(kPageSize);
  for (size_t begin = 0; begin < log.size(); begin += 64) {
    const SharedRecords batch = ShareRecords(std::vector<LogRecord>(
        log.begin() + static_cast<std::ptrdiff_t>(begin),
        log.begin() + static_cast<std::ptrdiff_t>(
                          std::min(begin + 64, log.size()))));
    for (uint32_t i = 0; i < batch->size(); ++i) {
      ASSERT_TRUE(seg.AddRecord(batch, i));
      ASSERT_TRUE(ref.AddRecord((*batch)[i]));
    }
  }
  ASSERT_EQ(seg.scl(), log.back().lsn);
  const Lsn half = log[log.size() / 2].lsn;
  seg.SetVdlHint(half);
  seg.SetPgmrpl(half);
  ref.SetVdlHint(half);
  ref.SetPgmrpl(half);
  EXPECT_EQ(seg.CoalesceStep(log.size()), ref.CoalesceStep(log.size()));
  for (const auto& [id, page] : provider.pages()) {
    Page expected = *page;
    expected.UpdateCrc();
    EXPECT_EQ(ReadOutcome(seg.GetPageAsOf(id, seg.scl())), expected.raw())
        << "page " << id;
    EXPECT_EQ(ReadOutcome(ref.GetPageAsOf(id, ref.scl(), std::nullopt)),
              expected.raw())
        << "page " << id;
  }
}

// One randomized schedule against two segment replicas of one PG, each
// checked against its own reference model: one Segment with the
// reconstruction cache off and one with a cache small enough to evict. Both
// replicas are fed the same shared record objects, as a write fan-out feeds
// them, but run their own watermark, coalesce, GC, truncation and state-
// transfer schedules, so one replica dropping or rebuilding its records must
// never change what the other sees. The schedule plays the delivery shapes
// a storage node sees (in-order batches, reordered batches, duplicates,
// late records below the applied floor, gossip filling gaps, annulled
// records coming back and sharing a backlink with the next incarnation),
// and each replica must agree with its model on every observable after
// every step. The records format pages, insert keys one at a time or as a
// split's list, cut a list's tail as a split does, and set page links.
class SegmentEquivalence {
 public:
  static constexpr size_t kPageSize = 4096;
  static constexpr PageId kPages = 5;

  // `max_batch` bounds a writer batch's records. Above 6 it also turns gap
  // fills into gossip pushes: a stretch of consecutive records, decoded
  // into one owner, that can start with records a replica already holds.
  explicit SegmentEquivalence(uint64_t seed, uint64_t max_batch = 6)
      : rng_(seed),
        max_batch_(max_batch),
        replicas_{Replica(false), Replica(true)} {}

  // Tail cuts the schedule produced: a list applied by both replicas was
  // cut, as a split cuts its page.
  size_t cuts() const { return cuts_; }

  void Run(int steps) {
    for (step_ = 0; step_ < steps; ++step_) {
      Step();
      for (Replica& r : replicas_) {
        SCOPED_TRACE(r.cache ? "cache on" : "cache off");
        ExpectEquivalent(r);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }

 private:
  // One segment replica and the reference model it must match.
  struct Replica {
    explicit Replica(bool with_cache)
        : cache(with_cache), ref(kPageSize), seg(0, kPageSize) {
      if (cache) seg.set_page_cache_budget(2 * kPageSize);
    }
    bool cache;
    ReferenceSegment ref;
    Segment seg;
  };

  LogRecord Produce() {
    LogRecord r;
    next_lsn_ += 1 + rng_.Uniform(40);  // other PGs' records take the gaps
    r.lsn = next_lsn_;
    r.prev_pg_lsn = tail_;
    r.prev_vol_lsn = r.lsn - 1;
    r.page_id = rng_.Uniform(kPages);
    r.txn_id = 1;
    if (formatted_[r.page_id] == kInvalidLsn) {
      r.op = RedoOp::kFormatPage;
      r.payload = LogRecord::MakeFormatPayload(
          static_cast<uint8_t>(PageType::kBTreeLeaf), 0);
      formatted_[r.page_id] = r.lsn;
    } else if (listed_[r.page_id] != kInvalidLsn &&
               listed_[r.page_id] <= AppliedEverywhere()) {
      // A split's cut of the list's tail. It waits until every replica has
      // applied the list: then no truncation can annul the list under it.
      r.op = RedoOp::kDeleteListEnd;
      r.payload = LogRecord::MakeKeyPayload(ListKey(listed_[r.page_id], 1));
      listed_[r.page_id] = kInvalidLsn;
      ++cuts_;
    } else if (inserts_[r.page_id] < 40) {
      ++inserts_[r.page_id];
      if (listed_[r.page_id] == kInvalidLsn && rng_.Bernoulli(0.2)) {
        // A split's list: keys above every key the page already holds.
        r.op = RedoOp::kInsertList;
        for (int i = 0; i < 3; ++i) {
          LogRecord::AppendListEntry(&r.payload, ListKey(r.lsn, i),
                                     "v" + std::to_string(step_));
        }
        listed_[r.page_id] = r.lsn;
      } else {
        r.op = RedoOp::kInsert;
        r.payload = LogRecord::MakeKeyValuePayload(
            "k" + std::to_string(r.lsn), "v" + std::to_string(step_));
      }
    } else {
      r.op = RedoOp::kSetNext;
      r.payload = LogRecord::MakePageIdPayload(r.lsn);
    }
    if (rng_.Bernoulli(0.4)) r.flags = kFlagCpl;
    tail_ = r.lsn;
    produced_.push_back(r);
    return r;
  }

  // Entry `i` of the list logged at `lsn`. List keys sort above every
  // kInsert key and by LSN, so a cut at entry 1 removes that list's entries
  // 1 and 2 and no other page record.
  static std::string ListKey(Lsn lsn, int i) {
    char buf[32];
    snprintf(buf, sizeof(buf), "l%012llu.%d",
             static_cast<unsigned long long>(lsn), i);
    return buf;
  }

  Lsn AppliedEverywhere() const {
    return std::min(replicas_[0].ref.applied_lsn(),
                    replicas_[1].ref.applied_lsn());
  }

  // Both replicas receive the same record object.
  void Deliver(const SharedRecords& owner, uint32_t i) {
    for (Replica& r : replicas_) {
      const bool added = r.ref.AddRecord((*owner)[i]);
      EXPECT_EQ(r.seg.AddRecord(owner, i), added) << Where();
    }
  }
  // A record decoded on its own (a gossip push, a late copy).
  void Deliver(const LogRecord& rec) {
    Deliver(ShareRecords({rec}), 0);
  }

  template <typename T>
  const T& Pick(const std::vector<T>& v) {
    return v[rng_.Uniform(v.size())];
  }

  // A random LSN near the produced range, biased toward record LSNs.
  Lsn Probe() {
    if (!produced_.empty() && rng_.Bernoulli(0.6)) {
      return Pick(produced_).lsn - rng_.Uniform(2);
    }
    return rng_.Uniform(next_lsn_ + 50);
  }

  void Step() {
    switch (rng_.Uniform(12)) {
      case 0:
      case 1:
      case 2: {  // a writer batch, usually in order, sometimes reordered
        std::vector<LogRecord> batch;
        for (uint64_t n = 1 + rng_.Uniform(max_batch_); n > 0; --n) {
          batch.push_back(Produce());
        }
        if (rng_.Bernoulli(0.2)) {
          for (size_t i = batch.size(); i > 1; --i) {
            std::swap(batch[i - 1], batch[rng_.Uniform(i)]);
          }
        }
        // One decoded batch: both replicas keep pointers into it.
        const SharedRecords owner = ShareRecords(batch);
        for (uint32_t i = 0; i < owner->size(); ++i) {
          if (rng_.Bernoulli(0.1)) {
            held_.emplace_back((*owner)[i]);  // lost to both replicas for now
          } else {
            Deliver(owner, i);
          }
        }
        break;
      }
      case 3:  // gossip fills a gap
        if (max_batch_ > 6 && !produced_.empty()) {
          const size_t from = rng_.Uniform(produced_.size());
          const size_t to =
              std::min(produced_.size(), from + 1 + rng_.Uniform(12));
          const SharedRecords push = ShareRecords(std::vector<LogRecord>(
              produced_.begin() + from, produced_.begin() + to));
          for (uint32_t i = 0; i < push->size(); ++i) Deliver(push, i);
          std::erase_if(held_, [&](const LogRecord& r) {
            return r.lsn >= (*push)[0].lsn && r.lsn <= push->back().lsn;
          });
        } else if (!held_.empty()) {
          const size_t i = rng_.Uniform(held_.size());
          Deliver(held_[i]);
          held_.erase(held_.begin() + static_cast<std::ptrdiff_t>(i));
        }
        break;
      case 4:  // a duplicate, or a late record at or below the applied floor
        if (!produced_.empty()) Deliver(Pick(produced_));
        break;
      case 5:  // gossip from a peer that missed the truncation
        if (!annulled_.empty()) Deliver(Pick(annulled_));
        break;
      case 6:  // watermarks, as each replica's own messages carry them
        for (Replica& r : replicas_) {
          if (rng_.Bernoulli(0.3)) continue;
          const Lsn vdl = Probe();
          r.ref.SetVdlHint(vdl);
          r.seg.SetVdlHint(vdl);
          const Lsn pgmrpl = std::min(vdl, Probe());
          r.ref.SetPgmrpl(pgmrpl);
          r.seg.SetPgmrpl(pgmrpl);
          const Lsn backed = std::min(r.ref.scl(), Probe());
          r.ref.MarkBackedUp(backed);
          r.seg.MarkBackedUp(backed);
          const Lsn snap = Probe();
          r.ref.SetCompletenessSnapshot(snap, tail_);
          r.seg.SetCompletenessSnapshot(snap, tail_);
        }
        break;
      case 7:
      case 8:
        for (Replica& r : replicas_) {
          if (rng_.Bernoulli(0.3)) continue;
          const size_t budget = 1 + rng_.Uniform(12);
          EXPECT_EQ(r.seg.CoalesceStep(budget), r.ref.CoalesceStep(budget))
              << Where();
        }
        break;
      case 9:
        for (Replica& r : replicas_) {
          if (rng_.Bernoulli(0.3)) continue;
          EXPECT_EQ(r.seg.GarbageCollect(), r.ref.GarbageCollect())
              << Where();
        }
        break;
      case 10:
        if (rng_.Bernoulli(0.3)) Truncate();
        break;
      case 11:  // state transfer: a replica rebuilds itself from its blob
        for (Replica& r : replicas_) {
          if (rng_.Bernoulli(0.5)) continue;
          std::string ref_blob;
          r.ref.SerializeTo(&ref_blob);
          r.ref = ReferenceSegment(kPageSize);
          r.ref.DeserializeFrom(ref_blob);
          std::string blob;
          r.seg.SerializeTo(&blob);
          r.seg = Segment(0, kPageSize);
          if (r.cache) r.seg.set_page_cache_budget(2 * kPageSize);
          ASSERT_TRUE(r.seg.DeserializeFrom(blob).ok()) << Where();
        }
        break;
    }
  }

  // Recovery: annul everything above a cut at or above every replica's
  // applied floor; the next incarnation links to the newest record kept. A
  // replica may miss the truncation, keeping the annulled records as one
  // that slept through it would.
  void Truncate() {
    Lsn floor = kInvalidLsn;
    Epoch epoch = 0;
    for (const Replica& r : replicas_) {
      floor = std::max(floor, r.ref.applied_lsn());
      epoch = std::max(epoch, r.ref.epoch());
    }
    const Lsn above = floor + rng_.Uniform(next_lsn_ - floor + 1);
    Epoch sent = epoch + 1;
    if (rng_.Bernoulli(0.2)) sent = epoch;  // a retried truncation
    if (rng_.Bernoulli(0.1) && epoch > 0) sent = epoch - 1;
    bool annulled = false;
    for (Replica& r : replicas_) {
      if (rng_.Bernoulli(0.3)) continue;
      const Status s = r.ref.Truncate(above, sent);
      EXPECT_EQ(r.seg.Truncate(above, sent).ToString(), s.ToString())
          << Where();
      annulled |= s.ok();
    }
    if (!annulled) return;
    std::vector<LogRecord> kept;
    tail_ = kInvalidLsn;
    for (LogRecord& r : produced_) {
      if (r.lsn > above) {
        annulled_.push_back(std::move(r));
      } else {
        tail_ = std::max(tail_, r.lsn);
        kept.push_back(std::move(r));
      }
    }
    produced_ = std::move(kept);
    std::erase_if(held_, [above](const LogRecord& r) { return r.lsn > above; });
    for (Lsn& lsn : formatted_) {
      if (lsn > above) lsn = kInvalidLsn;
    }
    for (Lsn& lsn : listed_) {
      if (lsn > above) lsn = kInvalidLsn;
    }
  }

  std::string Where() const { return "step " + std::to_string(step_); }

  void ExpectEquivalent(Replica& r) {
    Segment* seg = &r.seg;
    ReferenceSegment& ref = r.ref;
    ASSERT_EQ(seg->scl(), ref.scl()) << Where();
    ASSERT_EQ(seg->max_lsn(), ref.max_lsn()) << Where();
    ASSERT_EQ(seg->applied_lsn(), ref.applied_lsn()) << Where();
    ASSERT_EQ(seg->backup_lsn(), ref.backup_lsn()) << Where();
    ASSERT_EQ(seg->hot_log_size(), ref.hot_log_size()) << Where();
    const auto inv = seg->Inventory();
    const auto ref_inv = ref.Inventory();
    ASSERT_EQ(inv.size(), ref_inv.size()) << Where();
    for (size_t i = 0; i < inv.size(); ++i) {
      ASSERT_EQ(inv[i].lsn, ref_inv[i].lsn) << Where();
      ASSERT_EQ(inv[i].prev, ref_inv[i].prev) << Where();
      ASSERT_EQ(inv[i].vprev, ref_inv[i].vprev) << Where();
      ASSERT_EQ(inv[i].flags, ref_inv[i].flags) << Where();
    }
    const size_t max = 1 + rng_.Uniform(8);
    ASSERT_EQ(LsnsOf(seg->UnbackedRecords(SIZE_MAX)),
              LsnsOf(ref.UnbackedRecords(SIZE_MAX)))
        << Where();
    ASSERT_EQ(LsnsOf(seg->UnbackedRecords(max)),
              LsnsOf(ref.UnbackedRecords(max)))
        << Where();
    std::vector<Lsn> probes = {kInvalidLsn, ref.scl(), ref.max_lsn(),
                               ref.applied_lsn(), tail_};
    for (int i = 0; i < 6; ++i) probes.push_back(Probe());
    for (Lsn from : probes) {
      ASSERT_EQ(LsnsOf(seg->RecordsAbove(from, max)),
                LsnsOf(ref.RecordsAbove(from, max)))
          << Where();
      ASSERT_EQ(seg->CanBridgeFrom(from), ref.CanBridgeFrom(from))
          << Where() << " from " << from;
      for (std::optional<Lsn> tail :
           {std::optional<Lsn>(), std::optional<Lsn>(tail_),
            std::optional<Lsn>(Probe())}) {
        ASSERT_EQ(seg->CheckReadPoint(from, tail).ToString(),
                  ref.CheckReadPoint(from, tail).ToString())
            << Where();
      }
    }
    for (PageId page = 0; page <= kPages; ++page) {
      for (Lsn rp : {ref.scl(), ref.applied_lsn(), tail_, Probe()}) {
        for (std::optional<Lsn> tail :
             {std::optional<Lsn>(), std::optional<Lsn>(tail_)}) {
          ASSERT_EQ(ReadOutcome(seg->GetPageAsOf(page, rp, tail)),
                    ReadOutcome(ref.GetPageAsOf(page, rp, tail)))
              << Where() << " page " << page << " at " << rp;
        }
      }
    }
    // Records, watermarks and base pages, byte for byte.
    std::string ref_blob, blob;
    ref.SerializeTo(&ref_blob);
    seg->SerializeTo(&blob);
    ASSERT_EQ(blob, ref_blob) << Where();
  }

  Random rng_;
  const uint64_t max_batch_;
  std::array<Replica, 2> replicas_;
  int step_ = 0;
  Lsn next_lsn_ = 100;
  Lsn tail_ = kInvalidLsn;  // the current incarnation's newest record
  std::vector<LogRecord> produced_;  // this incarnation's records, sent or not
  std::vector<LogRecord> held_;      // sent, but not yet to the replicas
  std::vector<LogRecord> annulled_;  // cut by a truncation
  std::array<Lsn, kPages> formatted_{};  // each page's format record, if kept
  std::array<int, kPages> inserts_{};
  std::array<Lsn, kPages> listed_{};  // each page's list not yet cut, if kept
  size_t cuts_ = 0;
};

// The LSN-ordered hot log and its indexes behave exactly like the ordered
// trees they replaced, across every delivery shape and background step, and
// replicas sharing record objects never see each other's GC, truncation or
// rebuild.
TEST(SegmentEquivalenceTest, RandomSchedulesMatchTheTreeModel) {
  size_t cuts = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SegmentEquivalence schedule(seed);
    schedule.Run(300);
    cuts += schedule.cuts();
    if (HasFailure()) return;
  }
  EXPECT_GT(cuts, 0u);  // the schedules play splits, not only inserts
}

// The same with 1-40-record batches, so the hot log holds long runs that
// late records split, GC and truncation cut into, and gossip pushes extend.
TEST(SegmentEquivalenceTest, LongBatchSchedulesMatchTheTreeModel) {
  size_t cuts = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SegmentEquivalence schedule(seed, /*max_batch=*/40);
    schedule.Run(300);
    cuts += schedule.cuts();
    if (HasFailure()) return;
  }
  EXPECT_GT(cuts, 0u);  // the schedules play splits, not only inserts
}

// A record batch blob for the messages that carry one.
const std::string& ChainBlob() {
  static const std::string blob = [] {
    std::string b;
    EncodeRecordBatch(MakeChain(2), &b);
    return b;
  }();
  return blob;
}

WriteBatchMsg SampleWriteBatch(Slice records) {
  WriteBatchMsg m;
  m.pg = 300;
  m.replica = 5;
  m.epoch = 7;
  m.cfg_epoch = 2;
  m.batch_seq = uint64_t{1} << 40;
  m.vdl_hint = 100000;
  m.pgmrpl_hint = 90000;
  m.records = records;
  return m;
}

ReadPageReqMsg SampleReadPageReq(std::optional<Lsn> tail) {
  return {.req_id = uint64_t{1} << 33,
          .pg = 2,
          .page = 130,
          .read_point = 5000,
          .epoch = 3,
          .cfg_epoch = 4,
          .tail = tail};
}

uint8_t Code(Status::Code code) { return static_cast<uint8_t>(code); }

// Calls f(name, message, hex) for one instance of every live message type,
// with multi-byte varints where a field allows them, and for the absent
// form of each optional, conditional, vector or string field. `hex` is the
// instance's encoding as captured from the original hand-written
// per-message codec, before the field lists replaced it.
template <typename F>
void ForEachSample(F&& f) {
  f("WriteBatch", SampleWriteBatch(ChainBlob()),
    "ac02050702808080808020a08d0690bf051c80bc73eb640000000101000201006df708"
    "c86e646401010100020100");
  std::string no_records;
  EncodeRecordBatch(std::vector<LogRecord>(), &no_records);
  f("WriteBatchNoRecords", SampleWriteBatch(no_records),
    "ac02050702808080808020a08d0690bf0500");
  f("WriteAck",
    WriteAckMsg{.pg = 300,
                .replica = 4,
                .batch_seq = uint64_t{1} << 40,
                .scl = 123456,
                .status_code = Code(Status::Code::kStaleConfig),
                .epoch = 9,
                .cfg_epoch = 200},
    "ac0204808080808020c0c4070d09c801");
  f("ReadPageReq", SampleReadPageReq(4321), "80808080200282018827030401e121");
  f("ReadPageReqTailZero", SampleReadPageReq(kInvalidLsn),
    "8080808020028201882703040100");
  f("ReadPageReqNoTail", SampleReadPageReq(std::nullopt),
    "80808080200282018827030400");
  f("ReadPageResp",
    ReadPageRespMsg{.req_id = 77,
                    .status_code = Code(Status::Code::kOk),
                    .page_lsn = 65536,
                    .page_bytes = Slice("pg\0\xff", 4)},
    "4d0080800404706700ff");
  f("ReadPageRespNoPage",
    ReadPageRespMsg{.req_id = 77,
                    .status_code = Code(Status::Code::kNotFound),
                    .page_lsn = kInvalidLsn,
                    .page_bytes = ""},
    "4d010000");
  f("InventoryReq", InventoryReqMsg{.req_id = 9, .pg = 70000}, "09f0a204");
  const InventoryRespMsg inventory{
      .req_id = 9,
      .pg = 2,
      .replica = 1,
      .epoch = 3,
      .scl = 500,
      .vdl_hint = 450,
      .entries = {{100, 90, 95, kFlagCpl}, {110, 100, 100, 0}}};
  f("InventoryResp", inventory, "09020103f403c20302645a5f016e646400");
  InventoryRespMsg no_entries = inventory;
  no_entries.entries.clear();
  f("InventoryRespNoEntries", no_entries, "09020103f403c20300");
  f("TruncateReq",
    TruncateReqMsg{.req_id = 5, .pg = 4, .epoch = 9, .truncate_above = 1234},
    "050409d209");
  f("TruncateAck",
    TruncateAckMsg{.req_id = 5,
                   .pg = 4,
                   .replica = 3,
                   .status_code = Code(Status::Code::kStale)},
    "0504030b");
  f("Pgmrpl",
    PgmrplMsg{.pg = 1,
              .pgmrpl = 777,
              .vdl_snapshot = 800,
              .pg_tail = 600,
              .has_snapshot = true},
    "01890601a006d804");
  f("PgmrplNoSnapshot", PgmrplMsg{.pg = 1, .pgmrpl = 777}, "01890600");
  f("GossipPull",
    GossipPullMsg{.pg = 12,
                  .replica = 2,
                  .epoch = 3,
                  .cfg_epoch = 4,
                  .scl = 5000,
                  .max_lsn = 6000},
    "0c0203048827f02e");
  f("GossipPush",
    GossipPushMsg{.pg = 12, .epoch = 3, .cfg_epoch = 4, .records = ChainBlob()},
    "0c03041c80bc73eb640000000101000201006df708c86e646401010100020100");
  f("ReplicaStream",
    ReplicaStreamMsg{.vdl = 123,
                     .records = ChainBlob(),
                     .commits = {{50, 1111}, {60, 2222}}},
    "7b1c80bc73eb640000000101000201006df708c86e6464010101000201000232d708"
    "3cae11");
  f("ReplicaStreamEmpty",
    ReplicaStreamMsg{.vdl = 123, .records = Slice(), .commits = {}},
    "7b0000");
  f("ReplicaReadPoint", ReplicaReadPointMsg{.read_point = 99999}, "9f8d06");
  f("SegmentStateResp",
    SegmentStateRespMsg{.req_id = 0, .pg = 8, .state = "state"},
    "0008057374617465");
  f("SegmentChunkReq",
    SegmentChunkReqMsg{.req_id = uint64_t{1} << 20,
                       .pg = 8,
                       .chunk_index = 3,
                       .chunk_bytes = 65536},
    "8080400803808004");
  const SegmentChunkRespMsg chunk{.req_id = uint64_t{1} << 20,
                                  .pg = 8,
                                  .chunk_index = 3,
                                  .total_chunks = 10,
                                  .total_bytes = 600000,
                                  .blob_crc = 0xdeadbeef,
                                  .chunk_crc = 0x12345678,
                                  .data = "chunk"};
  f("SegmentChunkResp", chunk,
    "80804008030ac0cf24effdb6f50df8acd19101056368756e6b");
  SegmentChunkRespMsg no_data = chunk;
  no_data.chunk_index = 12;
  no_data.chunk_crc = 0;
  no_data.data.clear();
  f("SegmentChunkRespNoData", no_data, "808040080c0ac0cf24effdb6f50d0000");
}

std::string Hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (unsigned char c : bytes) {
    hex.push_back(kDigits[c >> 4]);
    hex.push_back(kDigits[c & 15]);
  }
  return hex;
}

// No wire byte moved when the per-message codecs gave way to field lists.
TEST(WireTest, EncodingMatchesGoldenBytes) {
  ForEachSample([](const char* name, const auto& msg, const char* hex) {
    EXPECT_EQ(Hex(wire::Encode(msg)), hex) << name;
  });
  // The write batch as the writer sends it: a per-replica head plus the
  // body it shares between all six copies.
  const WriteBatchMsg batch = SampleWriteBatch(ChainBlob());
  EXPECT_EQ(Hex(wire::Encode(static_cast<const WriteBatchHead&>(batch))),
            "ac0205");
  EXPECT_EQ(Hex(wire::Encode(static_cast<const WriteBatchBody&>(batch))),
            "0702808080808020a08d0690bf051c80bc73eb640000000101000201006df708"
            "c86e646401010100020100");
}

TEST(WireTest, AllMessageTypesRoundTrip) {
  ForEachSample([](const char* name, const auto& msg, const char*) {
    SCOPED_TRACE(name);
    const std::string bytes = wire::Encode(msg);
    std::decay_t<decltype(msg)> out;
    ASSERT_TRUE(wire::Decode(bytes, &out).ok());
    // Every encoding is prefix-free, so equal bytes mean equal fields.
    EXPECT_EQ(wire::Encode(out), bytes);
  });
  {
    const WriteBatchMsg m = SampleWriteBatch(ChainBlob());
    const std::string bytes = wire::Encode(m);  // `out.records` points here
    WriteBatchMsg out;
    ASSERT_TRUE(wire::Decode(bytes, &out).ok());
    EXPECT_EQ(out.pg, m.pg);
    EXPECT_EQ(out.replica, m.replica);
    EXPECT_EQ(out.epoch, m.epoch);
    EXPECT_EQ(out.cfg_epoch, m.cfg_epoch);
    EXPECT_EQ(out.batch_seq, m.batch_seq);
    EXPECT_EQ(out.vdl_hint, m.vdl_hint);
    EXPECT_EQ(out.pgmrpl_hint, m.pgmrpl_hint);
    std::vector<LogRecord> records;
    ASSERT_TRUE(DecodeRecordBatch(out.records, &records).ok());
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[1].lsn, MakeChain(2)[1].lsn);
  }
  {
    InventoryRespMsg m;
    m.req_id = 9;
    m.pg = 2;
    m.replica = 1;
    m.epoch = 3;
    m.scl = 500;
    m.vdl_hint = 450;
    m.entries = {{100, 90, 95, kFlagCpl}, {110, 100, 100, 0}};
    InventoryRespMsg out;
    ASSERT_TRUE(wire::Decode(wire::Encode(m), &out).ok());
    EXPECT_EQ(out.vdl_hint, 450u);
    ASSERT_EQ(out.entries.size(), 2u);
    EXPECT_EQ(out.entries[0].vprev, 95u);
    EXPECT_EQ(out.entries[0].flags, kFlagCpl);
  }
  {
    PgmrplMsg m;
    m.pg = 1;
    m.pgmrpl = 777;
    m.has_snapshot = true;
    m.vdl_snapshot = 800;
    m.pg_tail = 600;
    PgmrplMsg out;
    ASSERT_TRUE(wire::Decode(wire::Encode(m), &out).ok());
    EXPECT_TRUE(out.has_snapshot);
    EXPECT_EQ(out.vdl_snapshot, 800u);
    EXPECT_EQ(out.pg_tail, 600u);
  }
  for (std::optional<Lsn> tail :
       {std::optional<Lsn>(), std::optional<Lsn>(kInvalidLsn),
        std::optional<Lsn>(4321)}) {
    ReadPageReqMsg m;
    m.req_id = 11;
    m.pg = 2;
    m.page = 130;
    m.read_point = 5000;
    m.epoch = 3;
    m.cfg_epoch = 4;
    m.tail = tail;
    ReadPageReqMsg out;
    out.tail = 99;  // decoding must clear a stale value
    ASSERT_TRUE(wire::Decode(wire::Encode(m), &out).ok());
    EXPECT_EQ(out.req_id, 11u);
    EXPECT_EQ(out.pg, 2u);
    EXPECT_EQ(out.page, 130u);
    EXPECT_EQ(out.read_point, 5000u);
    EXPECT_EQ(out.epoch, 3u);
    EXPECT_EQ(out.cfg_epoch, 4u);
    EXPECT_EQ(out.tail, tail);
  }
  {
    ReplicaStreamMsg m;
    m.vdl = 123;
    m.records = ChainBlob();
    m.commits = {{50, 1111}, {60, 2222}};
    ReplicaStreamMsg out;
    ASSERT_TRUE(wire::Decode(wire::Encode(m), &out).ok());
    EXPECT_EQ(out.vdl, 123u);
    EXPECT_EQ(out.commits.size(), 2u);
    EXPECT_EQ(out.commits[1].second, 2222u);
  }
  {
    TruncateReqMsg m;
    m.req_id = 5;
    m.pg = 4;
    m.epoch = 9;
    m.truncate_above = 1234;
    TruncateReqMsg out;
    ASSERT_TRUE(wire::Decode(wire::Encode(m), &out).ok());
    EXPECT_EQ(out.truncate_above, 1234u);
    EXPECT_EQ(out.epoch, 9u);
  }
}

TEST(WireTest, WriteBatchHeadPlusBodyMatchesWholeEncoding) {
  // The single-encode fan-out path splits the message at the per-replica
  // boundary; concatenating the two fragments must reproduce the whole
  // encoding, and decoding the fragments in place must give the same
  // message as decoding the whole.
  const WriteBatchMsg m = SampleWriteBatch(ChainBlob());
  const std::string whole = wire::Encode(m);
  const std::string head = wire::Encode(static_cast<const WriteBatchHead&>(m));
  const std::string body = wire::Encode(static_cast<const WriteBatchBody&>(m));
  EXPECT_EQ(head + body, whole);
  WriteBatchMsg out;
  ASSERT_TRUE(wire::Decode(head, body, &out).ok());
  EXPECT_EQ(wire::Encode(out), whole);
  EXPECT_EQ(out.pg, m.pg);
  EXPECT_EQ(out.replica, m.replica);
  EXPECT_EQ(out.epoch, m.epoch);
  EXPECT_EQ(out.cfg_epoch, m.cfg_epoch);
  EXPECT_EQ(out.batch_seq, m.batch_seq);
  EXPECT_EQ(out.vdl_hint, m.vdl_hint);
  EXPECT_EQ(out.pgmrpl_hint, m.pgmrpl_hint);
  // The records stay in the shared body, undecoded and uncopied.
  EXPECT_EQ(out.records.data(), body.data() + body.size() - ChainBlob().size());
  std::vector<LogRecord> records;
  ASSERT_TRUE(DecodeRecordBatch(out.records, &records).ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].lsn, MakeChain(2)[1].lsn);
  // The whole message in the body fragment decodes the same.
  WriteBatchMsg single;
  ASSERT_TRUE(wire::Decode(Slice(), whole, &single).ok());
  EXPECT_EQ(wire::Encode(single), whole);
}

TEST(WireTest, TruncatedMessagesRejected) {
  // Every type, cut anywhere: inside a varint, inside a length-prefixed
  // blob, before a presence flag or a count, or between a flag and what it
  // announces.
  ForEachSample([](const char* name, const auto& msg, const char*) {
    const std::string bytes = wire::Encode(msg);
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      std::decay_t<decltype(msg)> out;
      EXPECT_FALSE(wire::Decode(Slice(bytes.data(), cut), &out).ok())
          << name << " cut " << cut;
    }
  });
  // A write batch whose shared body is cut anywhere, behind an intact head.
  const WriteBatchMsg m = SampleWriteBatch(ChainBlob());
  const std::string head = wire::Encode(static_cast<const WriteBatchHead&>(m));
  const std::string body = wire::Encode(static_cast<const WriteBatchBody&>(m));
  for (size_t cut = 0; cut < body.size(); ++cut) {
    WriteBatchMsg out;
    EXPECT_FALSE(wire::Decode(head, Slice(body.data(), cut), &out).ok())
        << "body cut " << cut;
  }
}

TEST(WireTest, CorruptCountIsRejectedBeforeAnyReserve) {
  // An inventory response whose entry count claims far more entries than
  // the rest of the input could hold.
  std::string bytes = wire::Encode(InventoryRespMsg{});
  bytes.pop_back();  // the empty vector's count
  PutVarint64(&bytes, uint64_t{1} << 60);
  bytes += wire::Encode(InventoryEntry{100, 90, 95, kFlagCpl});
  InventoryRespMsg out;
  EXPECT_FALSE(wire::Decode(bytes, &out).ok());
  EXPECT_EQ(out.entries.capacity(), 0u);
}

}  // namespace
}  // namespace aurora
