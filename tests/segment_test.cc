#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/random.h"
#include "storage/segment.h"
#include "storage/wire.h"

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
  EXPECT_EQ(above[0]->lsn, records[5].lsn);
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
  EXPECT_EQ(v100->slot_count(), 0);
  auto v110 = seg.GetPageAsOf(7, 115);
  ASSERT_TRUE(v110.ok());
  EXPECT_EQ(v110->slot_count(), 1);
  auto v120 = seg.GetPageAsOf(7, 120);
  ASSERT_TRUE(v120.ok());
  EXPECT_EQ(v120->slot_count(), 2);
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
  EXPECT_EQ(page->raw(), at_tail->raw());
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
  EXPECT_EQ(a->raw(), b->raw());
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

TEST(WireTest, AllMessageTypesRoundTrip) {
  {
    WriteBatchMsg m;
    m.pg = 3;
    m.replica = 5;
    m.epoch = 7;
    m.batch_seq = 42;
    m.vdl_hint = 1000;
    m.pgmrpl_hint = 900;
    m.records = MakeChain(3);
    std::string buf;
    m.EncodeTo(&buf);
    WriteBatchMsg out;
    ASSERT_TRUE(WriteBatchMsg::DecodeFrom(buf, &out).ok());
    EXPECT_EQ(out.pg, m.pg);
    EXPECT_EQ(out.replica, m.replica);
    EXPECT_EQ(out.batch_seq, m.batch_seq);
    EXPECT_EQ(out.records.size(), 3u);
    EXPECT_EQ(out.records[2].lsn, m.records[2].lsn);
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
    std::string buf;
    m.EncodeTo(&buf);
    InventoryRespMsg out;
    ASSERT_TRUE(InventoryRespMsg::DecodeFrom(buf, &out).ok());
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
    std::string buf;
    m.EncodeTo(&buf);
    PgmrplMsg out;
    ASSERT_TRUE(PgmrplMsg::DecodeFrom(buf, &out).ok());
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
    std::string buf;
    m.EncodeTo(&buf);
    ReadPageReqMsg out;
    out.tail = 99;  // decoding must clear a stale value
    ASSERT_TRUE(ReadPageReqMsg::DecodeFrom(buf, &out).ok());
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
    m.records = MakeChain(2);
    m.commits = {{50, 1111}, {60, 2222}};
    std::string buf;
    m.EncodeTo(&buf);
    ReplicaStreamMsg out;
    ASSERT_TRUE(ReplicaStreamMsg::DecodeFrom(buf, &out).ok());
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
    std::string buf;
    m.EncodeTo(&buf);
    TruncateReqMsg out;
    ASSERT_TRUE(TruncateReqMsg::DecodeFrom(buf, &out).ok());
    EXPECT_EQ(out.truncate_above, 1234u);
    EXPECT_EQ(out.epoch, 9u);
  }
}

TEST(WireTest, WriteBatchHeaderPlusBodyMatchesEncodeTo) {
  // The single-encode fan-out path splits the message at the per-replica
  // boundary; concatenating the two halves must reproduce EncodeTo exactly
  // so receivers decode with the unchanged DecodeFrom.
  WriteBatchMsg m;
  m.pg = 3;
  m.replica = 5;
  m.epoch = 7;
  m.cfg_epoch = 2;
  m.batch_seq = 42;
  m.vdl_hint = 1000;
  m.pgmrpl_hint = 900;
  m.records = MakeChain(3);
  std::string whole;
  m.EncodeTo(&whole);
  std::string split;
  m.EncodeHeaderTo(&split);
  WriteBatchMsg::EncodeBody(m.epoch, m.cfg_epoch, m.batch_seq, m.vdl_hint,
                            m.pgmrpl_hint, m.records, &split);
  EXPECT_EQ(split, whole);
  WriteBatchMsg out;
  ASSERT_TRUE(WriteBatchMsg::DecodeFrom(split, &out).ok());
  EXPECT_EQ(out.pg, m.pg);
  EXPECT_EQ(out.replica, m.replica);
  EXPECT_EQ(out.epoch, m.epoch);
  EXPECT_EQ(out.cfg_epoch, m.cfg_epoch);
  EXPECT_EQ(out.batch_seq, m.batch_seq);
  EXPECT_EQ(out.vdl_hint, m.vdl_hint);
  EXPECT_EQ(out.pgmrpl_hint, m.pgmrpl_hint);
  ASSERT_EQ(out.records.size(), 3u);
  EXPECT_EQ(out.records[2].lsn, m.records[2].lsn);
}

TEST(WireTest, TruncatedMessagesRejected) {
  WriteBatchMsg m;
  m.pg = 1;
  m.records = MakeChain(2);
  std::string buf;
  m.EncodeTo(&buf);
  for (size_t cut : {size_t{0}, size_t{1}, buf.size() / 2, buf.size() - 1}) {
    WriteBatchMsg out;
    EXPECT_FALSE(
        WriteBatchMsg::DecodeFrom(Slice(buf.data(), cut), &out).ok());
  }
  // A read request is cut anywhere: inside a varint, before the tail's
  // presence flag, or between the flag and the tail.
  for (std::optional<Lsn> tail : {std::optional<Lsn>(), std::optional<Lsn>(300000)}) {
    ReadPageReqMsg r;
    r.req_id = 11;
    r.pg = 2;
    r.page = 130;
    r.read_point = 5000;
    r.tail = tail;
    std::string rbuf;
    r.EncodeTo(&rbuf);
    for (size_t cut = 0; cut < rbuf.size(); ++cut) {
      ReadPageReqMsg out;
      EXPECT_FALSE(
          ReadPageReqMsg::DecodeFrom(Slice(rbuf.data(), cut), &out).ok())
          << "cut " << cut;
    }
  }
}

}  // namespace
}  // namespace aurora
