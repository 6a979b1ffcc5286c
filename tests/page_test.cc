#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <thread>

#include "common/random.h"
#include "log/applicator.h"
#include "log/mtr.h"
#include "page/page.h"
#include "tests/test_util.h"

namespace aurora {
namespace {

class PageTest : public ::testing::TestWithParam<size_t> {
 protected:
  PageTest() : page_(GetParam()) {
    page_.Format(42, PageType::kBTreeLeaf, 0);
  }
  Page page_;
};

INSTANTIATE_TEST_SUITE_P(PageSizes, PageTest,
                         ::testing::Values(512, 4096, 16384, 32768));

TEST_P(PageTest, FormatSetsHeader) {
  EXPECT_TRUE(page_.IsFormatted());
  EXPECT_EQ(page_.page_id(), 42u);
  EXPECT_EQ(page_.page_type(), PageType::kBTreeLeaf);
  EXPECT_EQ(page_.level(), 0);
  EXPECT_EQ(page_.slot_count(), 0);
  EXPECT_EQ(page_.page_lsn(), kInvalidLsn);
  EXPECT_EQ(page_.next_page(), kInvalidPage);
  EXPECT_EQ(page_.prev_page(), kInvalidPage);
}

TEST_P(PageTest, UnformattedPageDetected) {
  Page p(GetParam());
  EXPECT_FALSE(p.IsFormatted());
}

TEST_P(PageTest, InsertAndGet) {
  ASSERT_TRUE(page_.InsertRecord("bob", "builder").ok());
  ASSERT_TRUE(page_.InsertRecord("alice", "wonder").ok());
  Slice v;
  ASSERT_TRUE(page_.GetRecord("alice", &v));
  EXPECT_EQ(v.ToString(), "wonder");
  ASSERT_TRUE(page_.GetRecord("bob", &v));
  EXPECT_EQ(v.ToString(), "builder");
  EXPECT_FALSE(page_.GetRecord("carol", &v));
}

TEST_P(PageTest, KeysKeptSorted) {
  const char* keys[] = {"delta", "alpha", "echo", "bravo", "charlie"};
  for (const char* k : keys) ASSERT_TRUE(page_.InsertRecord(k, "v").ok());
  ASSERT_EQ(page_.slot_count(), 5);
  for (int i = 1; i < 5; ++i) {
    EXPECT_TRUE(page_.KeyAt(i - 1) < page_.KeyAt(i));
  }
}

TEST_P(PageTest, DuplicateInsertRejected) {
  ASSERT_TRUE(page_.InsertRecord("k", "v1").ok());
  EXPECT_TRUE(page_.InsertRecord("k", "v2").IsInvalidArgument());
  Slice v;
  ASSERT_TRUE(page_.GetRecord("k", &v));
  EXPECT_EQ(v.ToString(), "v1");
}

TEST_P(PageTest, DeleteRemovesRecord) {
  ASSERT_TRUE(page_.InsertRecord("a", "1").ok());
  ASSERT_TRUE(page_.InsertRecord("b", "2").ok());
  ASSERT_TRUE(page_.DeleteRecord("a").ok());
  Slice v;
  EXPECT_FALSE(page_.GetRecord("a", &v));
  EXPECT_TRUE(page_.GetRecord("b", &v));
  EXPECT_EQ(page_.slot_count(), 1);
  EXPECT_TRUE(page_.DeleteRecord("a").IsNotFound());
}

TEST_P(PageTest, UpdateChangesValue) {
  ASSERT_TRUE(page_.InsertRecord("k", "old").ok());
  ASSERT_TRUE(page_.UpdateRecord("k", "new-and-longer").ok());
  Slice v;
  ASSERT_TRUE(page_.GetRecord("k", &v));
  EXPECT_EQ(v.ToString(), "new-and-longer");
  EXPECT_TRUE(page_.UpdateRecord("missing", "x").IsNotFound());
}

TEST_P(PageTest, FillsUntilOutOfRangeThenStillConsistent) {
  int inserted = 0;
  while (true) {
    std::string k = "key" + std::to_string(10000 + inserted);
    Status s = page_.InsertRecord(k, std::string(20, 'v'));
    if (s.IsOutOfRange()) break;
    ASSERT_TRUE(s.ok());
    ++inserted;
  }
  EXPECT_GT(inserted, 5);
  EXPECT_EQ(page_.slot_count(), inserted);
  // Every inserted record still readable.
  for (int i = 0; i < inserted; ++i) {
    Slice v;
    EXPECT_TRUE(page_.GetRecord("key" + std::to_string(10000 + i), &v));
  }
}

TEST_P(PageTest, DeadSpaceReclaimedByCompaction) {
  // Fill the page, delete everything, then fill again: compaction must make
  // the space reusable.
  for (int round = 0; round < 3; ++round) {
    int inserted = 0;
    while (true) {
      std::string k = "k" + std::to_string(100000 + inserted);
      if (!page_.InsertRecord(k, std::string(30, 'x')).ok()) break;
      ++inserted;
    }
    EXPECT_GT(inserted, 3);
    for (int i = 0; i < inserted; ++i) {
      ASSERT_TRUE(page_.DeleteRecord("k" + std::to_string(100000 + i)).ok());
    }
    EXPECT_EQ(page_.slot_count(), 0);
  }
}

TEST_P(PageTest, UpdateGrowthUsesCompaction) {
  // Insert small values then grow them, forcing dead-space reuse.
  int n = 0;
  while (page_.HasRoomFor(8, 8) && n < 50) {
    ASSERT_TRUE(
        page_.InsertRecord("k" + std::to_string(1000 + n), "tiny").ok());
    ++n;
  }
  // Grow the first few values; some will require compaction.
  int grown = 0;
  for (int i = 0; i < n; ++i) {
    Status s = page_.UpdateRecord("k" + std::to_string(1000 + i),
                                  std::string(16, 'G'));
    if (s.ok()) {
      ++grown;
    } else {
      EXPECT_TRUE(s.IsOutOfRange());
      break;
    }
  }
  EXPECT_GT(grown, 0);
  for (int i = 0; i < grown; ++i) {
    Slice v;
    ASSERT_TRUE(page_.GetRecord("k" + std::to_string(1000 + i), &v));
    EXPECT_EQ(v.ToString(), std::string(16, 'G'));
  }
}

// Compaction rewrites the heap in slot (= key) order from the header on,
// with no dead space, and leaves the bytes between the new heap end and the
// slot directory as they were. So every byte of a compacted page is pinned:
// header, heap and slots equal those of a page with the same header that
// had only the surviving records inserted in key order, and the gap equals
// the page's bytes before the operation. Page CRCs cover the gap, which is
// why the writer and every storage replica must build it the same way.
TEST_P(PageTest, CompactionLayoutIsPinned) {
  const size_t size = GetParam();
  auto set_header = [](Page* p) {
    p->set_page_lsn(777);
    p->set_next_page(43);
    p->set_prev_page(41);
    p->set_schema_version(3);
  };
  set_header(&page_);
  std::map<std::string, std::string> live;
  const std::string mid(size / 32, 'm');
  for (int i = 0;; ++i) {
    std::string k = "k" + std::to_string(1000 + i);
    if (!page_.InsertRecord(k, mid).ok()) break;
    live[k] = mid;
  }
  ASSERT_GT(live.size(), 6u);
  // Deletes leave dead space; none of them compacts.
  int n = 0;
  for (auto it = live.begin(); it != live.end(); ++n) {
    if (n % 3 == 0) {
      ASSERT_TRUE(page_.DeleteRecord(it->first).ok());
      it = live.erase(it);
    } else {
      ++it;
    }
  }
  // Growing the last row does not fit in the free space: the update drops
  // the old record and re-inserts, which compacts first.
  const std::string last = live.rbegin()->first;
  const std::string grown(mid.size() + page_.FreeSpace(), 'G');
  const std::string before = page_.raw();
  ASSERT_TRUE(page_.UpdateRecord(last, grown).ok());
  live[last] = grown;

  Page want(size);
  want.Format(42, PageType::kBTreeLeaf, 0);
  set_header(&want);
  for (const auto& [k, v] : live) ASSERT_TRUE(want.InsertRecord(k, v).ok());
  ASSERT_EQ(page_.slot_count(), want.slot_count());
  ASSERT_EQ(page_.FreeSpace(), want.FreeSpace());
  const size_t slots_begin = size - 2 * live.size();
  const size_t heap_end = slots_begin - page_.FreeSpace();
  const std::string& got = page_.raw();
  EXPECT_EQ(got.substr(0, heap_end), want.raw().substr(0, heap_end));
  EXPECT_EQ(got.substr(slots_begin), want.raw().substr(slots_begin));
  EXPECT_EQ(got.substr(heap_end, slots_begin - heap_end),
            before.substr(heap_end, slots_begin - heap_end));
  EXPECT_NE(got.substr(heap_end, slots_begin - heap_end),
            std::string(slots_begin - heap_end, '\0'))
      << "the gap should still hold stale record bytes";
}

TEST_P(PageTest, LowerBoundSemantics) {
  for (const char* k : {"b", "d", "f"}) {
    ASSERT_TRUE(page_.InsertRecord(k, "v").ok());
  }
  EXPECT_EQ(page_.LowerBound("a"), 0);
  EXPECT_EQ(page_.LowerBound("b"), 0);
  EXPECT_EQ(page_.LowerBound("c"), 1);
  EXPECT_EQ(page_.LowerBound("f"), 2);
  EXPECT_EQ(page_.LowerBound("g"), 3);
  EXPECT_EQ(page_.UpperBoundChild("a"), -1);
  EXPECT_EQ(page_.UpperBoundChild("b"), 0);
  EXPECT_EQ(page_.UpperBoundChild("e"), 1);
  EXPECT_EQ(page_.UpperBoundChild("z"), 2);
}

TEST_P(PageTest, HeaderFieldsRoundTrip) {
  page_.set_page_lsn(123456789);
  page_.set_next_page(77);
  page_.set_prev_page(66);
  page_.set_schema_version(5);
  EXPECT_EQ(page_.page_lsn(), 123456789u);
  EXPECT_EQ(page_.next_page(), 77u);
  EXPECT_EQ(page_.prev_page(), 66u);
  EXPECT_EQ(page_.schema_version(), 5u);
}

TEST_P(PageTest, CrcDetectsCorruption) {
  ASSERT_TRUE(page_.InsertRecord("k", "v").ok());
  page_.UpdateCrc();
  EXPECT_TRUE(page_.VerifyCrc());
  Page copy = page_;
  copy.CorruptForTesting(GetParam() / 2);
  EXPECT_FALSE(copy.VerifyCrc());
  EXPECT_TRUE(page_.VerifyCrc());
}

TEST_P(PageTest, LoadRawRoundTrip) {
  ASSERT_TRUE(page_.InsertRecord("k", "v").ok());
  page_.UpdateCrc();
  Page other(GetParam());
  ASSERT_TRUE(other.LoadRaw(page_.raw()).ok());
  EXPECT_TRUE(other.VerifyCrc());
  Slice v;
  ASSERT_TRUE(other.GetRecord("k", &v));
  EXPECT_EQ(v.ToString(), "v");
  Page wrong_size(GetParam() == 512 ? 1024 : 512);
  EXPECT_TRUE(wrong_size.LoadRaw(page_.raw()).IsInvalidArgument());
}

// Property test: a long random op sequence against a std::map reference
// model must agree exactly.
TEST(PagePropertyTest, RandomOpsMatchReferenceModel) {
  Page page(4096);
  page.Format(1, PageType::kBTreeLeaf, 0);
  std::map<std::string, std::string> model;
  Random rng(2024);
  for (int step = 0; step < 20000; ++step) {
    std::string key = "k" + std::to_string(rng.Uniform(200));
    int op = static_cast<int>(rng.Uniform(4));
    if (op == 0) {
      std::string val(rng.Uniform(40) + 1, 'a' + step % 26);
      Status s = page.InsertRecord(key, val);
      if (model.count(key)) {
        EXPECT_TRUE(s.IsInvalidArgument());
      } else if (s.ok()) {
        model[key] = val;
      } else {
        EXPECT_TRUE(s.IsOutOfRange());
      }
    } else if (op == 1) {
      Status s = page.DeleteRecord(key);
      EXPECT_EQ(s.ok(), model.erase(key) > 0);
    } else if (op == 2) {
      std::string val(rng.Uniform(40) + 1, 'A' + step % 26);
      Status s = page.UpdateRecord(key, val);
      if (!model.count(key)) {
        EXPECT_TRUE(s.IsNotFound());
      } else if (s.ok()) {
        model[key] = val;
      } else {
        EXPECT_TRUE(s.IsOutOfRange());
      }
    } else {
      Slice v;
      bool found = page.GetRecord(key, &v);
      auto it = model.find(key);
      ASSERT_EQ(found, it != model.end()) << "step " << step;
      if (found) {
        EXPECT_EQ(v.ToString(), it->second);
      }
    }
    ASSERT_EQ(page.slot_count(), static_cast<int>(model.size()));
  }
  // Final full comparison in slot order.
  int i = 0;
  for (const auto& [k, v] : model) {
    EXPECT_EQ(page.KeyAt(i).ToString(), k);
    EXPECT_EQ(page.ValueAt(i).ToString(), v);
    ++i;
  }
}

// The writer builds a page through mini-transactions; a storage replica
// replays the same redo onto its own copy on another thread (each thread
// compacts through its own scratch buffer). Compactions included, the two
// images must be identical byte for byte.
TEST(PageCompactionTest, WriterAndReplicaBuildIdenticalImages) {
  testing::LocalWalSink sink;
  Page writer(4096);
  Random rng(77);
  {
    MiniTransaction mtr(1);
    LogRecord fmt;
    fmt.page_id = 5;
    fmt.op = RedoOp::kFormatPage;
    fmt.payload = LogRecord::MakeFormatPayload(
        static_cast<uint8_t>(PageType::kBTreeLeaf), 0);
    ASSERT_TRUE(mtr.Apply(&writer, std::move(fmt)).ok());
    ASSERT_TRUE(sink.CommitMtr(&mtr).ok());
  }
  std::map<std::string, size_t> live;
  for (int step = 0; step < 3000; ++step) {
    const std::string key = "k" + std::to_string(rng.Uniform(60));
    const size_t len = 20 + rng.Uniform(100);
    const bool exists = live.count(key) != 0;
    const bool del = exists && rng.Uniform(3) == 0;
    LogRecord rec;
    rec.page_id = 5;
    if (del) {
      rec.op = RedoOp::kDelete;
      rec.payload = LogRecord::MakeKeyPayload(key);
    } else {
      rec.op = exists ? RedoOp::kUpdate : RedoOp::kInsert;
      rec.payload = LogRecord::MakeKeyValuePayload(key, std::string(len, 'v'));
    }
    MiniTransaction mtr(2);
    Status s = mtr.Apply(&writer, std::move(rec));
    if (s.IsOutOfRange()) {  // page full: nothing to log
      mtr.Abort();
      continue;
    }
    ASSERT_TRUE(s.ok()) << step;
    ASSERT_TRUE(sink.CommitMtr(&mtr).ok());
    if (del) {
      live.erase(key);
    } else {
      live[key] = len;
    }
  }
  ASSERT_EQ(writer.slot_count(), static_cast<int>(live.size()));
  Page replica(4096);
  std::thread storage([&] {
    EXPECT_TRUE(LogApplicator::ApplyAll(sink.all_records(), &replica).ok());
  });
  storage.join();
  EXPECT_EQ(replica.raw(), writer.raw());
  EXPECT_EQ(replica.page_lsn(), sink.all_records().back().lsn);
}

// A B+-tree leaf or internal page of `size` bytes under random inserts and
// deletes until one insert no longer fits, so it carries dead space. An
// internal page holds the empty key in slot 0 and 8-byte child values, as
// the tree's do.
Page RandomTreePage(size_t size, PageType type, Random* rng) {
  const bool internal = type == PageType::kBTreeInternal;
  Page page(size);
  page.Format(7, type, internal ? 1 : 0);
  if (internal) {
    EXPECT_TRUE(page.InsertRecord("", std::string(8, 'c')).ok());
  }
  for (int i = 0;; ++i) {
    const std::string key = "k" + std::to_string(rng->Uniform(1000000));
    const size_t len = internal ? 8 : 1 + rng->Uniform(60);
    Status s = page.InsertRecord(key, std::string(len, 'a' + i % 26));
    if (s.IsOutOfRange()) return page;
    if (rng->Bernoulli(0.25)) {
      const int slot = 1 + static_cast<int>(rng->Uniform(page.slot_count()));
      if (slot < page.slot_count()) {
        EXPECT_TRUE(page.DeleteRecord(page.KeyAt(slot).ToString()).ok());
      }
    }
  }
}

// One kDeleteListEnd is the tail of a split's left page: cutting it off in
// one step leaves the bytes that deleting each record from the last one down
// leaves.
TEST(PageListOpsTest, DeleteFromMatchesDeletingEachKeyFromTheLastDown) {
  Random rng(31);
  for (size_t size : {size_t{4096}, size_t{16384}}) {
    for (PageType type : {PageType::kBTreeLeaf, PageType::kBTreeInternal}) {
      for (int trial = 0; trial < 25; ++trial) {
        SCOPED_TRACE(std::to_string(size) + " type " +
                     std::to_string(static_cast<int>(type)) + " trial " +
                     std::to_string(trial));
        Page page = RandomTreePage(size, type, &rng);
        const int from = static_cast<int>(rng.Uniform(page.slot_count()));
        const std::string key = page.KeyAt(from).ToString();
        Page each = page;
        for (int j = each.slot_count() - 1; j >= from; --j) {
          ASSERT_TRUE(each.DeleteRecord(each.KeyAt(j).ToString()).ok());
        }
        ASSERT_TRUE(page.DeleteFrom(key).ok());
        EXPECT_EQ(page.slot_count(), from);
        EXPECT_EQ(page.raw(), each.raw());
        EXPECT_TRUE(page.DeleteFrom(key).IsNotFound());
        EXPECT_EQ(page.raw(), each.raw());
      }
    }
  }
}

// One kInsertList is the new right page of a split: its entries, inserted
// in turn, leave the bytes one kInsert per entry leaves, on an empty page
// and on a used one, where the list lands between old keys and can force a
// compaction part way through.
TEST(PageListOpsTest, InsertListMatchesOneInsertPerEntry) {
  Random rng(32);
  for (size_t size : {size_t{4096}, size_t{16384}}) {
    for (PageType type : {PageType::kBTreeLeaf, PageType::kBTreeInternal}) {
      const bool internal = type == PageType::kBTreeInternal;
      for (int trial = 0; trial < 25; ++trial) {
        SCOPED_TRACE(std::to_string(size) + " type " +
                     std::to_string(static_cast<int>(type)) + " trial " +
                     std::to_string(trial));
        Page page = RandomTreePage(size, type, &rng);
        if (trial % 2 == 0) {
          page.Format(7, type, internal ? 1 : 0);
        } else {
          for (int d = static_cast<int>(rng.Uniform(20)); d > 0; --d) {
            const int slot = 1 + static_cast<int>(rng.Uniform(
                                     page.slot_count() - 1));
            ASSERT_TRUE(page.DeleteRecord(page.KeyAt(slot).ToString()).ok());
          }
        }
        std::map<std::string, std::string> entries;
        for (int e = 1 + static_cast<int>(rng.Uniform(150)); e > 0; --e) {
          const std::string key = "k" + std::to_string(rng.Uniform(1000000));
          Slice unused;
          if (page.GetRecord(key, &unused)) continue;
          entries[key] = std::string(internal ? 8 : 1 + rng.Uniform(60),
                                     'A' + e % 26);
        }
        // One kInsert per entry, in key order, while they fit; the list
        // carries the entries that did.
        Page each = page;
        LogRecord list;
        list.page_id = 7;
        list.op = RedoOp::kInsertList;
        for (const auto& [key, value] : entries) {
          LogRecord insert;
          insert.page_id = 7;
          insert.op = RedoOp::kInsert;
          insert.payload = LogRecord::MakeKeyValuePayload(key, value);
          Status s = LogApplicator::Apply(insert, &each);
          if (s.IsOutOfRange()) break;
          ASSERT_TRUE(s.ok()) << s.ToString();
          LogRecord::AppendListEntry(&list.payload, key, value);
        }
        if (list.payload.empty()) continue;
        ASSERT_TRUE(LogApplicator::Apply(list, &page).ok());
        EXPECT_EQ(page.raw(), each.raw());
      }
    }
  }
}

}  // namespace
}  // namespace aurora
