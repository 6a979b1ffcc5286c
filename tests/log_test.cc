#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "log/applicator.h"
#include "log/log_record.h"
#include "log/mtr.h"
#include "page/page.h"
#include "tests/test_util.h"

namespace aurora {
namespace {

LogRecord MakeInsert(PageId page, const std::string& k, const std::string& v) {
  LogRecord r;
  r.page_id = page;
  r.op = RedoOp::kInsert;
  r.payload = LogRecord::MakeKeyValuePayload(k, v);
  return r;
}

TEST(LogRecordTest, EncodeDecodeRoundTrip) {
  LogRecord r;
  r.lsn = 123456;
  r.prev_pg_lsn = 123000;
  r.page_id = 42;
  r.txn_id = 7;
  r.op = RedoOp::kUpdate;
  r.flags = kFlagCpl;
  r.payload = LogRecord::MakeKeyValuePayload("key", "value");

  std::string buf;
  r.EncodeTo(&buf);
  EXPECT_EQ(buf.size(), r.EncodedSize());

  Slice in(buf);
  LogRecord d;
  ASSERT_TRUE(LogRecord::DecodeFrom(&in, &d).ok());
  EXPECT_TRUE(in.empty());
  EXPECT_EQ(d.lsn, r.lsn);
  EXPECT_EQ(d.prev_pg_lsn, r.prev_pg_lsn);
  EXPECT_EQ(d.page_id, r.page_id);
  EXPECT_EQ(d.txn_id, r.txn_id);
  EXPECT_EQ(d.op, r.op);
  EXPECT_TRUE(d.is_cpl());
  EXPECT_EQ(d.payload, r.payload);
}

TEST(LogRecordTest, CrcDetectsBitFlips) {
  LogRecord r = MakeInsert(1, "k", "v");
  r.lsn = 10;
  std::string buf;
  r.EncodeTo(&buf);
  for (size_t i = 0; i < buf.size(); ++i) {
    std::string corrupted = buf;
    corrupted[i] ^= 0x40;
    Slice in(corrupted);
    LogRecord d;
    Status s = LogRecord::DecodeFrom(&in, &d);
    EXPECT_TRUE(s.IsCorruption()) << "flip at byte " << i;
  }
}

TEST(LogRecordTest, TruncatedInputIsCorruption) {
  LogRecord r = MakeInsert(1, "key", "value");
  std::string buf;
  r.EncodeTo(&buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    Slice in(buf.data(), cut);
    LogRecord d;
    EXPECT_FALSE(LogRecord::DecodeFrom(&in, &d).ok()) << "cut=" << cut;
  }
}

TEST(LogRecordTest, BatchRoundTrip) {
  std::vector<LogRecord> batch;
  for (int i = 0; i < 50; ++i) {
    LogRecord r = MakeInsert(i, "k" + std::to_string(i), std::string(i, 'v'));
    r.lsn = 100 + i;
    batch.push_back(r);
  }
  std::string buf;
  EncodeRecordBatch(batch, &buf);
  std::vector<LogRecord> out;
  ASSERT_TRUE(DecodeRecordBatch(buf, &out).ok());
  ASSERT_EQ(out.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(out[i].lsn, batch[i].lsn);
    EXPECT_EQ(out[i].payload, batch[i].payload);
  }
}

// A batch as a writer ships one: every op with payloads of 0, 15 and 16
// bytes (either side of the short-string boundary), then a kInsertList
// that fills a 4 KiB page.
std::vector<LogRecord> MixedBatch() {
  std::vector<LogRecord> out;
  Lsn lsn = 1000;
  auto add = [&](LogRecord r) {
    r.lsn = lsn;
    r.prev_pg_lsn = lsn - 7;
    r.prev_vol_lsn = out.empty() ? kInvalidLsn : out.back().lsn;
    r.txn_id = 42;
    lsn += r.EncodedSize();
    out.push_back(std::move(r));
  };
  for (uint8_t op = 1; IsRedoOp(op); ++op) {
    for (size_t size : {0, 15, 16}) {
      LogRecord r;
      r.page_id = 10 + op % 3;
      r.op = static_cast<RedoOp>(op);
      r.flags = size == 16 ? kFlagCpl : 0;
      r.payload = std::string(size, static_cast<char>('a' + op));
      add(std::move(r));
    }
  }
  LogRecord list;
  list.page_id = 11;
  list.op = RedoOp::kInsertList;
  for (uint64_t i = 0; list.payload.size() < 4000; ++i) {
    LogRecord::AppendListEntry(&list.payload, testing::Key(i),
                               std::string(100, 'v'));
  }
  add(std::move(list));
  return out;
}

void ExpectSameRecord(const RecordView& got, const LogRecord& want) {
  EXPECT_EQ(got.lsn, want.lsn);
  EXPECT_EQ(got.prev_pg_lsn, want.prev_pg_lsn);
  EXPECT_EQ(got.prev_vol_lsn, want.prev_vol_lsn);
  EXPECT_EQ(got.page_id, want.page_id);
  EXPECT_EQ(got.txn_id, want.txn_id);
  EXPECT_EQ(got.op, want.op);
  EXPECT_EQ(got.flags, want.flags);
  EXPECT_EQ(got.payload, Slice(want.payload));
}

// A decoded batch holds each record as LogRecord::DecodeFrom decodes it,
// and ShareRecords holds copies of its records the same way.
TEST(RecordBatchTest, HoldsEachRecordAsDecodeFromDecodesIt) {
  const std::vector<LogRecord> records = MixedBatch();
  std::string blob;
  EncodeRecordBatch(records, &blob);
  const SharedRecords batch = DecodeSharedRecords(blob);
  ASSERT_NE(batch, nullptr);
  ASSERT_EQ(batch->size(), records.size());
  Slice in(blob);
  for (size_t i = 0; i < batch->size(); ++i) {
    LogRecord want;
    ASSERT_TRUE(LogRecord::DecodeFrom(&in, &want).ok());
    SCOPED_TRACE(i);
    ExpectSameRecord((*batch)[i], want);
    EXPECT_EQ(batch->lsn(i), want.lsn);
  }
  const SharedRecords copies = ShareRecords(records);
  ASSERT_EQ(copies->size(), records.size());
  for (size_t i = 0; i < copies->size(); ++i) {
    SCOPED_TRACE(i);
    ExpectSameRecord((*copies)[i], records[i]);
  }
}

TEST(RecordBatchTest, HeldRecordsEncodeToTheBlobTheyCameFrom) {
  std::string blob;
  EncodeRecordBatch(MixedBatch(), &blob);
  const SharedRecords batch = DecodeSharedRecords(blob);
  ASSERT_NE(batch, nullptr);
  std::vector<RecordView> held;
  size_t bytes = 0;
  for (size_t i = 0; i < batch->size(); ++i) {
    held.push_back((*batch)[i]);
    bytes += held.back().EncodedSize();
  }
  std::string again;
  EncodeRecordBatch(held, &again);
  EXPECT_EQ(again, blob);
  EXPECT_EQ(bytes, blob.size());
}

// A blob cut inside a record, or with any byte changed, decodes to no
// batch; a cut between records is a shorter batch.
TEST(RecordBatchTest, TruncatedOrCorruptBlobYieldsNoBatch) {
  const std::vector<LogRecord> records = MixedBatch();
  std::string blob;
  EncodeRecordBatch(records, &blob);
  std::map<size_t, size_t> boundaries;  // blob prefix -> records in it
  for (size_t i = 0, at = 0; i < records.size(); ++i) {
    at += records[i].EncodedSize();
    boundaries[at] = i + 1;
  }
  for (size_t cut = 1; cut < blob.size(); ++cut) {
    const SharedRecords batch = DecodeSharedRecords(Slice(blob.data(), cut));
    auto whole = boundaries.find(cut);
    if (whole == boundaries.end()) {
      EXPECT_EQ(batch, nullptr) << "cut=" << cut;
    } else {
      ASSERT_NE(batch, nullptr) << "cut=" << cut;
      EXPECT_EQ(batch->size(), whole->second) << "cut=" << cut;
    }
  }
  for (size_t i = 0; i < blob.size(); ++i) {
    std::string corrupt = blob;
    corrupt[i] ^= 0x40;
    EXPECT_EQ(DecodeSharedRecords(corrupt), nullptr) << "flip at byte " << i;
  }
}

TEST(LogRecordTest, PayloadAccessors) {
  LogRecord r;
  r.payload = LogRecord::MakeFormatPayload(
      static_cast<uint8_t>(PageType::kBTreeLeaf), 3);
  uint8_t type, level;
  ASSERT_TRUE(RecordView(r).GetFormat(&type, &level).ok());
  EXPECT_EQ(static_cast<PageType>(type), PageType::kBTreeLeaf);
  EXPECT_EQ(level, 3);

  r.payload = LogRecord::MakePageIdPayload(991);
  PageId pid;
  ASSERT_TRUE(RecordView(r).GetPageId(&pid).ok());
  EXPECT_EQ(pid, 991u);

  r.payload = LogRecord::MakeVersionPayload(17);
  uint32_t ver;
  ASSERT_TRUE(RecordView(r).GetVersion(&ver).ok());
  EXPECT_EQ(ver, 17u);

  r.payload = LogRecord::MakeKeyPayload("thekey");
  Slice k;
  ASSERT_TRUE(RecordView(r).GetKey(&k).ok());
  EXPECT_EQ(k.ToString(), "thekey");

  r.payload = "";
  EXPECT_TRUE(RecordView(r).GetFormat(&type, &level).IsCorruption());
  EXPECT_TRUE(RecordView(r).GetPageId(&pid).IsCorruption());
}

class ApplicatorTest : public ::testing::Test {
 protected:
  ApplicatorTest() : page_(4096) {
    LogRecord fmt;
    fmt.lsn = 1;
    fmt.page_id = 9;
    fmt.op = RedoOp::kFormatPage;
    fmt.payload = LogRecord::MakeFormatPayload(
        static_cast<uint8_t>(PageType::kBTreeLeaf), 0);
    EXPECT_TRUE(LogApplicator::Apply(fmt, &page_).ok());
  }
  Page page_;
};

TEST_F(ApplicatorTest, FormatInitializesPage) {
  EXPECT_TRUE(page_.IsFormatted());
  EXPECT_EQ(page_.page_id(), 9u);
  EXPECT_EQ(page_.page_lsn(), 1u);
}

TEST_F(ApplicatorTest, AppliesAllOps) {
  LogRecord ins = MakeInsert(9, "k", "v1");
  ins.lsn = 2;
  ASSERT_TRUE(LogApplicator::Apply(ins, &page_).ok());

  LogRecord upd;
  upd.lsn = 3;
  upd.page_id = 9;
  upd.op = RedoOp::kUpdate;
  upd.payload = LogRecord::MakeKeyValuePayload("k", "v2");
  ASSERT_TRUE(LogApplicator::Apply(upd, &page_).ok());
  Slice v;
  ASSERT_TRUE(page_.GetRecord("k", &v));
  EXPECT_EQ(v.ToString(), "v2");

  LogRecord nxt;
  nxt.lsn = 4;
  nxt.page_id = 9;
  nxt.op = RedoOp::kSetNext;
  nxt.payload = LogRecord::MakePageIdPayload(55);
  ASSERT_TRUE(LogApplicator::Apply(nxt, &page_).ok());
  EXPECT_EQ(page_.next_page(), 55u);

  LogRecord prv;
  prv.lsn = 5;
  prv.page_id = 9;
  prv.op = RedoOp::kSetPrev;
  prv.payload = LogRecord::MakePageIdPayload(44);
  ASSERT_TRUE(LogApplicator::Apply(prv, &page_).ok());
  EXPECT_EQ(page_.prev_page(), 44u);

  LogRecord sv;
  sv.lsn = 6;
  sv.page_id = 9;
  sv.op = RedoOp::kSetSchemaVersion;
  sv.payload = LogRecord::MakeVersionPayload(3);
  ASSERT_TRUE(LogApplicator::Apply(sv, &page_).ok());
  EXPECT_EQ(page_.schema_version(), 3u);

  LogRecord del;
  del.lsn = 7;
  del.page_id = 9;
  del.op = RedoOp::kDelete;
  del.payload = LogRecord::MakeKeyPayload("k");
  ASSERT_TRUE(LogApplicator::Apply(del, &page_).ok());
  EXPECT_FALSE(page_.GetRecord("k", &v));

  EXPECT_EQ(page_.page_lsn(), 7u);
}

TEST_F(ApplicatorTest, IdempotentByLsn) {
  LogRecord ins = MakeInsert(9, "k", "v");
  ins.lsn = 5;
  ASSERT_TRUE(LogApplicator::Apply(ins, &page_).ok());
  // Re-applying the same record (or any record with lsn <= page lsn) must be
  // a no-op, not a duplicate-key error.
  ASSERT_TRUE(LogApplicator::Apply(ins, &page_).ok());
  EXPECT_EQ(page_.slot_count(), 1);
  EXPECT_EQ(page_.page_lsn(), 5u);
}

TEST_F(ApplicatorTest, DeterministicAfterImage) {
  // Same before-image + same records => bit-identical after-image.
  std::vector<LogRecord> recs;
  Random rng(4);
  Lsn lsn = 10;
  for (int i = 0; i < 200; ++i) {
    LogRecord r;
    r.page_id = 9;
    r.lsn = lsn++;
    uint64_t k = rng.Uniform(40);
    int op = static_cast<int>(rng.Uniform(3));
    if (op == 0) {
      r.op = RedoOp::kInsert;
      r.payload = LogRecord::MakeKeyValuePayload(
          "k" + std::to_string(k), std::string(rng.Uniform(20) + 1, 'x'));
    } else if (op == 1) {
      r.op = RedoOp::kUpdate;
      r.payload = LogRecord::MakeKeyValuePayload(
          "k" + std::to_string(k), std::string(rng.Uniform(20) + 1, 'y'));
    } else {
      r.op = RedoOp::kDelete;
      r.payload = LogRecord::MakeKeyPayload("k" + std::to_string(k));
    }
    recs.push_back(r);
  }
  Page a = page_;
  Page b = page_;
  for (const LogRecord& r : recs) {
    Status sa = LogApplicator::Apply(r, &a);
    Status sb = LogApplicator::Apply(r, &b);
    // Individual ops may legitimately fail (delete of absent key etc.);
    // determinism demands both copies fail identically.
    EXPECT_EQ(sa.code(), sb.code());
  }
  EXPECT_EQ(a.raw(), b.raw());
}

TEST_F(ApplicatorTest, ApplyAllStopsOnError) {
  std::vector<LogRecord> recs;
  LogRecord ok = MakeInsert(9, "a", "1");
  ok.lsn = 2;
  LogRecord bad;
  bad.lsn = 3;
  bad.page_id = 9;
  bad.op = RedoOp::kDelete;
  bad.payload = LogRecord::MakeKeyPayload("nonexistent");
  recs.push_back(ok);
  recs.push_back(bad);
  EXPECT_TRUE(LogApplicator::ApplyAll(recs, &page_).IsNotFound());
}

// A record carrying an op byte that names no RedoOp, with a valid CRC.
LogRecord UnknownOpRecord(uint8_t op) {
  LogRecord r = MakeInsert(9, "k", "v");
  r.lsn = 20;
  r.op = static_cast<RedoOp>(op);
  return r;
}

TEST(LogRecordTest, UnknownOpIsRejectedByDecode) {
  for (uint8_t op : {uint8_t{0}, uint8_t{10}, uint8_t{255}}) {
    std::string buf;
    UnknownOpRecord(op).EncodeTo(&buf);
    Slice in(buf);
    LogRecord d;
    EXPECT_TRUE(LogRecord::DecodeFrom(&in, &d).IsCorruption()) << int{op};
  }
}

TEST_F(ApplicatorTest, UnknownOpIsCorruptionAndLeavesThePage) {
  ASSERT_TRUE(LogApplicator::Apply(MakeInsert(9, "a", "1"), &page_).ok());
  const std::string before = page_.raw();
  for (uint8_t op : {uint8_t{0}, uint8_t{10}, uint8_t{255}}) {
    EXPECT_TRUE(LogApplicator::Apply(UnknownOpRecord(op), &page_)
                    .IsCorruption())
        << int{op};
    EXPECT_EQ(page_.raw(), before) << int{op};
  }
}

LogRecord MakeInsertList(
    PageId page, const std::vector<std::pair<std::string, std::string>>& kvs) {
  LogRecord r;
  r.page_id = page;
  r.op = RedoOp::kInsertList;
  for (const auto& [k, v] : kvs) LogRecord::AppendListEntry(&r.payload, k, v);
  return r;
}

LogRecord MakeDeleteListEnd(PageId page, const std::string& key) {
  LogRecord r;
  r.page_id = page;
  r.op = RedoOp::kDeleteListEnd;
  r.payload = LogRecord::MakeKeyPayload(key);
  return r;
}

TEST(LogRecordTest, ListRecordsRoundTrip) {
  LogRecord list = MakeInsertList(3, {{"a", "1"}, {"b", ""}, {"c", "333"}});
  list.lsn = 77;
  LogRecord cut = MakeDeleteListEnd(3, "b");
  cut.lsn = 99;
  cut.flags = kFlagCpl;
  std::string buf;
  EncodeRecordBatch({list, cut}, &buf);
  std::vector<LogRecord> out;
  ASSERT_TRUE(DecodeRecordBatch(buf, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].op, RedoOp::kInsertList);
  EXPECT_EQ(out[0].payload, list.payload);
  EXPECT_EQ(out[1].op, RedoOp::kDeleteListEnd);
  EXPECT_EQ(out[1].lsn, 99u);
  EXPECT_TRUE(out[1].is_cpl());
  Slice entries(out[0].payload), k, v;
  std::vector<std::string> seen;
  while (!entries.empty()) {
    ASSERT_TRUE(LogRecord::GetListEntry(&entries, &k, &v).ok());
    seen.push_back(k.ToString() + "=" + v.ToString());
  }
  EXPECT_EQ(seen, (std::vector<std::string>{"a=1", "b=", "c=333"}));
  Slice key;
  ASSERT_TRUE(RecordView(out[1]).GetKey(&key).ok());
  EXPECT_EQ(key.ToString(), "b");
  // One entry alone is a kInsert's payload.
  EXPECT_EQ(MakeInsertList(3, {{"a", "1"}}).payload,
            LogRecord::MakeKeyValuePayload("a", "1"));
}

TEST_F(ApplicatorTest, ListRecordsApplyInTurn) {
  ASSERT_TRUE(LogApplicator::Apply(MakeInsert(9, "b", "0"), &page_).ok());
  LogRecord list = MakeInsertList(9, {{"a", "1"}, {"c", "3"}, {"d", "4"}});
  list.lsn = 5;
  ASSERT_TRUE(LogApplicator::Apply(list, &page_).ok());
  EXPECT_EQ(page_.slot_count(), 4);
  EXPECT_EQ(page_.page_lsn(), 5u);
  LogRecord cut = MakeDeleteListEnd(9, "c");
  cut.lsn = 6;
  ASSERT_TRUE(LogApplicator::Apply(cut, &page_).ok());
  ASSERT_EQ(page_.slot_count(), 2);
  EXPECT_EQ(page_.KeyAt(0).ToString(), "a");
  EXPECT_EQ(page_.KeyAt(1).ToString(), "b");
  EXPECT_EQ(page_.page_lsn(), 6u);
}

// A malformed list is refused before the page changes: no entry, a
// truncated entry, keys out of order, or a cut at a key the page lacks.
TEST_F(ApplicatorTest, MalformedListRecordsFailAndLeaveThePage) {
  ASSERT_TRUE(LogApplicator::Apply(MakeInsert(9, "b", "0"), &page_).ok());
  const std::string before = page_.raw();
  LogRecord truncated = MakeInsertList(9, {{"c", "3"}, {"d", "4"}});
  truncated.payload.pop_back();
  LogRecord partial = MakeInsertList(9, {{"c", "3"}});
  partial.payload.push_back('\x05');  // an entry cut after its key length
  const std::vector<std::pair<std::string, LogRecord>> bad = {
      {"empty", MakeInsertList(9, {})},
      {"truncated value", truncated},
      {"partial entry", partial},
      {"descending", MakeInsertList(9, {{"d", "4"}, {"c", "3"}})},
      {"repeated", MakeInsertList(9, {{"c", "3"}, {"c", "4"}})},
  };
  for (const auto& [what, record] : bad) {
    EXPECT_TRUE(LogApplicator::Apply(record, &page_).IsCorruption()) << what;
    EXPECT_EQ(page_.raw(), before) << what;
  }
  EXPECT_TRUE(
      LogApplicator::Apply(MakeDeleteListEnd(9, "a"), &page_).IsNotFound());
  EXPECT_EQ(page_.raw(), before);
  LogRecord no_key = MakeDeleteListEnd(9, "b");
  no_key.payload.clear();
  EXPECT_TRUE(LogApplicator::Apply(no_key, &page_).IsCorruption());
  EXPECT_EQ(page_.raw(), before);
}

TEST(MtrTest, AppliesAndBuffers) {
  Page page(4096);
  MiniTransaction mtr(77);
  LogRecord fmt;
  fmt.page_id = 3;
  fmt.op = RedoOp::kFormatPage;
  fmt.payload = LogRecord::MakeFormatPayload(
      static_cast<uint8_t>(PageType::kBTreeLeaf), 0);
  ASSERT_TRUE(mtr.Apply(&page, fmt).ok());
  ASSERT_TRUE(mtr.Apply(&page, MakeInsert(3, "k", "v")).ok());
  EXPECT_EQ(mtr.size(), 2u);
  EXPECT_EQ(mtr.records()[0].txn_id, 77u);
  EXPECT_TRUE(page.IsFormatted());
  Slice v;
  EXPECT_TRUE(page.GetRecord("k", &v));
}

TEST(MtrTest, LocalSinkAssignsMonotonicLsnsAndCpl) {
  testing::MemoryPageProvider provider(4096);
  testing::LocalWalSink sink;

  MiniTransaction m1(1);
  auto p1 = provider.AllocatePage(PageType::kBTreeLeaf, 0, &m1);
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(m1.Apply(*p1, MakeInsert((*p1)->page_id(), "a", "1")).ok());
  ASSERT_TRUE(sink.CommitMtr(&m1).ok());

  MiniTransaction m2(2);
  ASSERT_TRUE(m2.Apply(*p1, MakeInsert((*p1)->page_id(), "b", "2")).ok());
  ASSERT_TRUE(sink.CommitMtr(&m2).ok());

  const auto& all = sink.all_records();
  ASSERT_EQ(all.size(), 3u);
  // Strictly increasing LSNs; each record's backlink is its predecessor.
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_GT(all[i].lsn, all[i - 1].lsn);
    EXPECT_EQ(all[i].prev_pg_lsn, all[i - 1].lsn);
  }
  // Last record of each MTR is a CPL.
  EXPECT_TRUE(all[1].is_cpl());
  EXPECT_TRUE(all[2].is_cpl());
  EXPECT_FALSE(all[0].is_cpl());
  EXPECT_EQ(m1.commit_lsn(), all[1].lsn);
  // Pages stamped with their latest record's LSN.
  EXPECT_EQ((*p1)->page_lsn(), all[2].lsn);
}

// A leaf page `id` of `size` bytes holding rows "r000".."r{n-1}" with
// values of `value_size` bytes, built directly (no MTR).
Page MakeLeaf(PageId id, size_t size, int n, size_t value_size, char fill) {
  Page page(size);
  page.Format(id, PageType::kBTreeLeaf, 0);
  for (int i = 0; i < n; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "r%03d", i);
    EXPECT_TRUE(page.InsertRecord(key, std::string(value_size, fill)).ok());
  }
  return page;
}

LogRecord MakeUpdate(PageId page, const std::string& k, const std::string& v) {
  LogRecord r = MakeInsert(page, k, v);
  r.op = RedoOp::kUpdate;
  return r;
}

LogRecord MakeDelete(PageId page, const std::string& k) {
  LogRecord r;
  r.page_id = page;
  r.op = RedoOp::kDelete;
  r.payload = LogRecord::MakeKeyPayload(k);
  return r;
}

// Before-image buffers are recycled across MTRs on a thread; whatever an
// MTR touched, Abort() must hand back each page's own first-touch bytes.
TEST(MtrTest, AbortRestoresEveryTouchedPageByteForByte) {
  Page a = MakeLeaf(1, 4096, 10, 40, 'a');
  Page b = MakeLeaf(2, 4096, 10, 40, 'b');
  // c is full, with a third of its rows dead: the next insert only fits
  // once the page compacts.
  Page c = MakeLeaf(3, 4096, 0, 0, 'c');
  int rows = 0;
  for (;; ++rows) {
    char key[16];
    snprintf(key, sizeof(key), "r%03d", rows);
    if (!c.InsertRecord(key, std::string(100, 'c')).ok()) break;
  }
  for (int i = 0; i < rows; i += 3) {
    char key[16];
    snprintf(key, sizeof(key), "r%03d", i);
    ASSERT_TRUE(c.DeleteRecord(key).ok());
  }
  const size_t need = 1 + 4 + 1 + 100 + 2;  // varints, key, value, slot
  ASSERT_LT(c.FreeSpace(), need);
  ASSERT_TRUE(c.HasRoomFor(4, 100));
  const std::string a0 = a.raw(), b0 = b.raw(), c0 = c.raw();

  MiniTransaction mtr(5);
  ASSERT_TRUE(mtr.Apply(&a, MakeInsert(1, "a-new", "x")).ok());
  ASSERT_TRUE(mtr.Apply(&b, MakeUpdate(2, "r004", std::string(60, 'B'))).ok());
  ASSERT_TRUE(mtr.Apply(&a, MakeDelete(1, "r002")).ok());  // second touch
  ASSERT_TRUE(mtr.Apply(&c, MakeInsert(3, "zzzz", std::string(100, 'C'))).ok());
  EXPECT_GT(c.FreeSpace(), c0.size() / 8) << "the insert did not compact";
  EXPECT_NE(a.raw(), a0);
  EXPECT_NE(c.raw(), c0);
  mtr.Abort();
  EXPECT_TRUE(mtr.empty());
  EXPECT_EQ(a.raw(), a0);
  EXPECT_EQ(b.raw(), b0);
  EXPECT_EQ(c.raw(), c0);

  // The next MTR on this thread reuses the buffers that held a, b and c;
  // pages of other sizes must come back at their own size and bytes.
  for (size_t size : {4096, 8192, 1024}) {
    Page d = MakeLeaf(4, size, 6, 20, 'd');
    const std::string d0 = d.raw();
    MiniTransaction next(6);
    ASSERT_TRUE(next.Apply(&d, MakeInsert(4, "d-new", "y")).ok());
    ASSERT_TRUE(next.Apply(&d, MakeDelete(4, "r001")).ok());
    next.Abort();
    EXPECT_EQ(d.raw(), d0) << size;
  }
}

// A committed MTR's images go back to the free list with nothing that
// still names their pages: a later MTR's Abort restores only the pages it
// touched itself, to their state when it first touched them.
TEST(MtrTest, CommittedMtrLeavesNothingForTheNextRestore) {
  testing::LocalWalSink sink;
  Page p = MakeLeaf(1, 4096, 8, 30, 'p');
  Page q = MakeLeaf(2, 4096, 8, 30, 'q');
  const std::string p_before = p.raw();
  {
    MiniTransaction m1(1);
    ASSERT_TRUE(m1.Apply(&p, MakeInsert(1, "p-new", "committed")).ok());
    ASSERT_TRUE(sink.CommitMtr(&m1).ok());
  }
  const std::string p1 = p.raw();
  ASSERT_NE(p1, p_before);
  const std::string q1 = q.raw();

  MiniTransaction m2(2);
  ASSERT_TRUE(m2.Apply(&q, MakeDelete(2, "r003")).ok());
  m2.Abort();
  EXPECT_EQ(q.raw(), q1);
  EXPECT_EQ(p.raw(), p1);  // m1's change stays

  MiniTransaction m3(3);
  ASSERT_TRUE(m3.Apply(&p, MakeDelete(1, "p-new")).ok());
  ASSERT_TRUE(m3.Apply(&q, MakeInsert(2, "q-new", "v")).ok());
  m3.Abort();
  EXPECT_EQ(p.raw(), p1);  // back to m1's result, not to before m1
  EXPECT_EQ(q.raw(), q1);
  Slice v;
  EXPECT_TRUE(p.GetRecord("p-new", &v));
}

}  // namespace
}  // namespace aurora
