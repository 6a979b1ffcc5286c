#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "common/random.h"
#include "log/applicator.h"
#include "page/btree.h"
#include "tests/test_util.h"

namespace aurora {
namespace {

using testing::Key;

class BTreeTest : public ::testing::TestWithParam<size_t> {
 protected:
  BTreeTest() : provider_(GetParam()) {
    MiniTransaction mtr(0);
    auto anchor = BTree::Create(&provider_, &mtr);
    EXPECT_TRUE(anchor.ok());
    EXPECT_TRUE(sink_.CommitMtr(&mtr).ok());
    tree_ = std::make_unique<BTree>(&provider_, *anchor);
  }

  Status Insert(const std::string& k, const std::string& v) {
    MiniTransaction mtr(1);
    Status s = tree_->Insert(k, v, &mtr);
    if (s.ok()) return sink_.CommitMtr(&mtr);
    return s;
  }
  Status Update(const std::string& k, const std::string& v) {
    MiniTransaction mtr(1);
    Status s = tree_->Update(k, v, &mtr);
    if (s.ok()) return sink_.CommitMtr(&mtr);
    return s;
  }
  Status Delete(const std::string& k) {
    MiniTransaction mtr(1);
    Status s = tree_->Delete(k, &mtr);
    if (s.ok()) return sink_.CommitMtr(&mtr);
    return s;
  }

  testing::MemoryPageProvider provider_;
  testing::LocalWalSink sink_;
  std::unique_ptr<BTree> tree_;
};

INSTANTIATE_TEST_SUITE_P(PageSizes, BTreeTest,
                         ::testing::Values(512, 1024, 4096));

TEST_P(BTreeTest, EmptyTreeLookupsFail) {
  std::string v;
  EXPECT_TRUE(tree_->Get("nope", &v).IsNotFound());
  auto count = tree_->CountForTesting();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 0u);
  EXPECT_TRUE(tree_->CheckInvariants().ok());
}

TEST_P(BTreeTest, InsertAndGet) {
  ASSERT_TRUE(Insert("apple", "red").ok());
  ASSERT_TRUE(Insert("banana", "yellow").ok());
  std::string v;
  ASSERT_TRUE(tree_->Get("apple", &v).ok());
  EXPECT_EQ(v, "red");
  ASSERT_TRUE(tree_->Get("banana", &v).ok());
  EXPECT_EQ(v, "yellow");
  EXPECT_TRUE(tree_->Get("cherry", &v).IsNotFound());
}

TEST_P(BTreeTest, DuplicateInsertRejected) {
  ASSERT_TRUE(Insert("k", "1").ok());
  EXPECT_TRUE(Insert("k", "2").IsInvalidArgument());
}

TEST_P(BTreeTest, SplitsKeepAllKeysSequential) {
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(Insert(Key(i), "v" + std::to_string(i)).ok()) << i;
  }
  ASSERT_TRUE(tree_->CheckInvariants().ok());
  auto count = tree_->CountForTesting();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, static_cast<uint64_t>(n));
  for (int i = 0; i < n; ++i) {
    std::string v;
    ASSERT_TRUE(tree_->Get(Key(i), &v).ok()) << i;
    EXPECT_EQ(v, "v" + std::to_string(i));
  }
  // Multi-level tree must have been built.
  EXPECT_GT(provider_.num_pages(), 4u);
}

TEST_P(BTreeTest, SplitsKeepAllKeysReverseOrder) {
  const int n = 1500;
  for (int i = n - 1; i >= 0; --i) {
    ASSERT_TRUE(Insert(Key(i), "v").ok());
  }
  ASSERT_TRUE(tree_->CheckInvariants().ok());
  auto count = tree_->CountForTesting();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, static_cast<uint64_t>(n));
}

TEST_P(BTreeTest, RandomOrderInsertion) {
  Random rng(31);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 1500; ++i) {
    std::string k = Key(rng.Uniform(100000));
    std::string v = "v" + std::to_string(i);
    Status s = Insert(k, v);
    if (model.count(k)) {
      EXPECT_TRUE(s.IsInvalidArgument());
    } else {
      ASSERT_TRUE(s.ok());
      model[k] = v;
    }
  }
  ASSERT_TRUE(tree_->CheckInvariants().ok());
  for (const auto& [k, v] : model) {
    std::string got;
    ASSERT_TRUE(tree_->Get(k, &got).ok());
    EXPECT_EQ(got, v);
  }
}

TEST_P(BTreeTest, UpdateInPlaceAndWithGrowth) {
  for (int i = 0; i < 500; ++i) ASSERT_TRUE(Insert(Key(i), "small").ok());
  // Grow values enough to force splits during update.
  std::string big(GetParam() / 8, 'B');
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(Update(Key(i), big).ok()) << i;
  }
  ASSERT_TRUE(tree_->CheckInvariants().ok());
  for (int i = 0; i < 500; ++i) {
    std::string v;
    ASSERT_TRUE(tree_->Get(Key(i), &v).ok());
    EXPECT_EQ(v, big);
  }
  EXPECT_TRUE(Update("missing", "x").IsNotFound());
}

TEST_P(BTreeTest, DeleteThenReinsert) {
  for (int i = 0; i < 800; ++i) ASSERT_TRUE(Insert(Key(i), "v").ok());
  for (int i = 0; i < 800; i += 2) ASSERT_TRUE(Delete(Key(i)).ok());
  ASSERT_TRUE(tree_->CheckInvariants().ok());
  auto count = tree_->CountForTesting();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 400u);
  std::string v;
  EXPECT_TRUE(tree_->Get(Key(0), &v).IsNotFound());
  EXPECT_TRUE(tree_->Get(Key(1), &v).ok());
  EXPECT_TRUE(Delete(Key(0)).IsNotFound());
  for (int i = 0; i < 800; i += 2) ASSERT_TRUE(Insert(Key(i), "v2").ok());
  ASSERT_TRUE(tree_->CheckInvariants().ok());
}

TEST_P(BTreeTest, EmptiedLeavesAreUnlinkedAndFreed) {
  // Deleting a contiguous range empties whole leaves; they must leave the
  // leaf chain (scans cross the gap) and land on the provider's free-list.
  const int n = 1000;
  for (int i = 0; i < n; ++i) ASSERT_TRUE(Insert(Key(i), "v").ok());
  const size_t before = provider_.num_pages();
  for (int i = 200; i < 800; ++i) ASSERT_TRUE(Delete(Key(i)).ok());
  ASSERT_TRUE(tree_->CheckInvariants().ok());
  auto count = tree_->CountForTesting();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 400u);
  EXPECT_GT(provider_.num_free(), 0u);

  // Scan across the deleted gap.
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(tree_->Scan(Key(150), 100, &out).ok());
  ASSERT_EQ(out.size(), 100u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(out[i].first, Key(150 + i));
  for (int i = 50; i < 100; ++i) EXPECT_EQ(out[i].first, Key(800 + i - 50));

  // Refilling the range draws from the free-list, not the high-water mark.
  for (int i = 200; i < 800; ++i) ASSERT_TRUE(Insert(Key(i), "v").ok());
  ASSERT_TRUE(tree_->CheckInvariants().ok());
  EXPECT_LE(provider_.num_pages(), before);
}

TEST_P(BTreeTest, ChurnReachesSteadyStatePageCount) {
  // The DESIGN.md §5 regression: before empty-leaf unlinking, every
  // fill/drain cycle grew the page space monotonically. With the free-list
  // the footprint must plateau at the first cycle's peak.
  const int n = 600;
  size_t peak = 0;
  for (int cycle = 0; cycle < 6; ++cycle) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(Insert(Key(i), "value-" + std::to_string(i)).ok());
    }
    for (int i = 0; i < n; ++i) ASSERT_TRUE(Delete(Key(i)).ok());
    ASSERT_TRUE(tree_->CheckInvariants().ok());
    auto count = tree_->CountForTesting();
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, 0u);
    if (cycle == 0) {
      peak = provider_.num_pages();
    } else {
      EXPECT_LE(provider_.num_pages(), peak) << "cycle " << cycle;
    }
  }
  EXPECT_GT(provider_.num_free(), 0u);
}

TEST_P(BTreeTest, UpsertInsertsOrUpdates) {
  MiniTransaction m1(1);
  ASSERT_TRUE(tree_->Upsert("k", "v1", &m1).ok());
  ASSERT_TRUE(sink_.CommitMtr(&m1).ok());
  MiniTransaction m2(1);
  ASSERT_TRUE(tree_->Upsert("k", "v2", &m2).ok());
  ASSERT_TRUE(sink_.CommitMtr(&m2).ok());
  std::string v;
  ASSERT_TRUE(tree_->Get("k", &v).ok());
  EXPECT_EQ(v, "v2");
}

TEST_P(BTreeTest, ScanReturnsSortedRange) {
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(Insert(Key(i), Key(i)).ok());
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(tree_->Scan(Key(100), 250, &out).ok());
  ASSERT_EQ(out.size(), 250u);
  for (int i = 0; i < 250; ++i) {
    EXPECT_EQ(out[i].first, Key(100 + i));
  }
  out.clear();
  ASSERT_TRUE(tree_->Scan(Key(990), 100, &out).ok());
  EXPECT_EQ(out.size(), 10u);  // runs off the end of the tree
}

TEST_P(BTreeTest, OversizedKeyOrValueRejected) {
  std::string huge_key(GetParam(), 'K');
  std::string huge_val(GetParam(), 'V');
  EXPECT_TRUE(Insert(huge_key, "v").IsInvalidArgument());
  EXPECT_TRUE(Insert("k", huge_val).IsInvalidArgument());
  EXPECT_TRUE(Insert("", "v").IsInvalidArgument());
}

// A split logs the entries it moves as two list records: one kInsertList
// for the new right page and one kDeleteListEnd at the separator for the
// page that split, never a kInsert or kDelete per moved entry. Replaying
// the MTR's records on copies of its pages' before-images rebuilds the
// after-images byte for byte. Keys of page_size / 16 bytes keep the fan-out
// small, so the loop meets a leaf split alone and one that splits its
// parent too.
TEST_P(BTreeTest, SplitLogsTwoListRecordsPerLevel) {
  Random rng(5);
  int leaf_splits = 0, parent_splits = 0;
  for (int i = 0; i < 5000 && (leaf_splits == 0 || parent_splits == 0);
       ++i) {
    std::string key = Key(rng.Uniform(1000000));
    key.resize(GetParam() / 16, '.');
    MiniTransaction mtr(1);
    Status s = tree_->Insert(key, "v", &mtr);
    if (s.IsInvalidArgument()) continue;  // a repeated key
    ASSERT_TRUE(s.ok()) << s.ToString();
    const std::vector<LogRecord> records = mtr.records();
    const std::vector<Page*> pages = mtr.pages();
    std::map<Page*, std::string> after;
    for (Page* p : pages) after[p] = p->raw();
    mtr.Abort();  // every touched page is back at its before-image
    std::map<Page*, Page> replay;
    for (size_t r = 0; r < records.size(); ++r) {
      Page& copy = replay.try_emplace(pages[r], *pages[r]).first->second;
      ASSERT_TRUE(LogApplicator::Apply(records[r], &copy).ok()) << r;
    }
    for (const auto& [page, bytes] : after) {
      EXPECT_EQ(replay.at(page).raw(), bytes) << "insert " << i;
    }
    int lists = 0, cuts = 0, inserts = 0, deletes = 0, root_moves = 0;
    for (const LogRecord& r : records) {
      lists += r.op == RedoOp::kInsertList;
      cuts += r.op == RedoOp::kDeleteListEnd;
      inserts += r.op == RedoOp::kInsert;
      deletes += r.op == RedoOp::kDelete;
      root_moves += r.op == RedoOp::kUpdate;  // the anchor's root pointer
    }
    // Per split level one list and one cut, and one separator into the
    // parent (two into a new root); then the key itself.
    EXPECT_EQ(cuts, lists) << "insert " << i;
    EXPECT_EQ(deletes, 0) << "insert " << i;
    EXPECT_EQ(inserts, lists + root_moves + 1) << "insert " << i;
    leaf_splits += lists == 1;
    parent_splits += lists == 2;
    ASSERT_TRUE(Insert(key, "v").ok());
  }
  EXPECT_GT(leaf_splits, 0);
  EXPECT_GT(parent_splits, 0);
  EXPECT_TRUE(tree_->CheckInvariants().ok());
}

// Property: rebuilding every page purely from the log (the storage node's
// view of the world) reproduces the tree bit-for-bit. This is the
// "log is the database" invariant at the unit level.
TEST_P(BTreeTest, TreeIsFullyReconstructibleFromLog) {
  Random rng(8);
  for (int i = 0; i < 1200; ++i) {
    std::string k = Key(rng.Uniform(5000));
    MiniTransaction mtr(1);
    Status s = tree_->Upsert(k, "v" + std::to_string(i), &mtr);
    ASSERT_TRUE(s.ok());
    ASSERT_TRUE(sink_.CommitMtr(&mtr).ok());
    if (i % 3 == 0) {
      MiniTransaction d(1);
      if (tree_->Delete(Key(rng.Uniform(5000)), &d).ok()) {
        ASSERT_TRUE(sink_.CommitMtr(&d).ok());
      }
    }
  }
  // Replay the entire log into a fresh page space.
  std::map<PageId, Page> rebuilt;
  for (const LogRecord& r : sink_.all_records()) {
    auto [it, inserted] = rebuilt.try_emplace(r.page_id, GetParam());
    ASSERT_TRUE(LogApplicator::Apply(r, &it->second).ok());
  }
  ASSERT_EQ(rebuilt.size(), provider_.num_pages());
  for (const auto& [id, page] : provider_.pages()) {
    auto it = rebuilt.find(id);
    ASSERT_NE(it, rebuilt.end()) << "page " << id;
    EXPECT_EQ(it->second.raw(), page->raw()) << "page " << id;
  }
}

}  // namespace
}  // namespace aurora
