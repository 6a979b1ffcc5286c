#include <gtest/gtest.h>

#include <string>

#include "harness/cluster.h"
#include "page/btree.h"
#include "tests/test_util.h"

namespace aurora {
namespace {

using testing::Key;

ClusterOptions FeatureCluster() {
  ClusterOptions o;
  o.engine.page_size = 4096;
  o.engine.pages_per_pg = 64;
  o.engine.buffer_pool_pages = 2048;
  o.storage_nodes_per_az = 3;
  return o;
}

class EngineFeatureTest : public ::testing::Test {
 protected:
  EngineFeatureTest() : cluster_(FeatureCluster()) {
    EXPECT_TRUE(cluster_.BootstrapSync().ok());
    EXPECT_TRUE(cluster_.CreateTableSync("t").ok());
    table_ = *cluster_.TableAnchorSync("t");
  }

  AuroraCluster cluster_;
  PageId table_ = kInvalidPage;
};

// --- LAL back-pressure (§4.2.1) -------------------------------------------

TEST_F(EngineFeatureTest, TinyLalThrottlesWritesWithoutLosingThem) {
  ClusterOptions o = FeatureCluster();
  o.engine.lal = 2000;  // a handful of records
  AuroraCluster c(o);
  ASSERT_TRUE(c.BootstrapSync().ok());
  ASSERT_TRUE(c.CreateTableSync("t").ok());
  PageId table = *c.TableAnchorSync("t");
  // Fire many writes concurrently: they must all eventually commit, with
  // back-pressure stalls recorded along the way.
  int committed = 0;
  const int n = 60;
  for (int i = 0; i < n; ++i) {
    TxnId txn = c.writer()->Begin();
    c.writer()->Put(txn, table, Key(i), std::string(300, 'x'), [&, txn](Status s) {
      if (!s.ok()) return;
      c.writer()->Commit(txn, [&](Status cs) {
        if (cs.ok()) ++committed;
      });
    });
  }
  c.RunUntil([&] { return committed == n; }, Minutes(2));
  EXPECT_EQ(committed, n);
  EXPECT_GT(c.writer()->stats().backpressure_stalls, 0u);
  EXPECT_FALSE(c.writer()->in_backpressure());
}

// --- Online DDL (§7.3) ------------------------------------------------------

TEST_F(EngineFeatureTest, InstantDdlVersionsRowsLazily) {
  ASSERT_TRUE(cluster_.PutSync(table_, "old-row", "v0-value").ok());

  uint32_t version = 0;
  bool done = false;
  cluster_.writer()->AlterTableSchema("t", [&](Result<uint32_t> v) {
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    version = *v;
    done = true;
  });
  ASSERT_TRUE(cluster_.RunUntil([&] { return done; }, Seconds(30)));
  EXPECT_EQ(version, 1u);

  // Rows written before the ALTER stay readable (decoded via their stamped
  // version); rows written after carry the new version. No table copy.
  auto old_row = cluster_.GetSync(table_, "old-row");
  ASSERT_TRUE(old_row.ok());
  EXPECT_EQ(*old_row, "v0-value");
  ASSERT_TRUE(cluster_.PutSync(table_, "new-row", "v1-value").ok());
  EXPECT_EQ(*cluster_.GetSync(table_, "new-row"), "v1-value");

  // A second ALTER bumps again.
  done = false;
  cluster_.writer()->AlterTableSchema("t", [&](Result<uint32_t> v) {
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, 2u);
    done = true;
  });
  ASSERT_TRUE(cluster_.RunUntil([&] { return done; }, Seconds(30)));
  EXPECT_TRUE(
      cluster_.writer()->TableAnchor("nonexistent").status().IsNotFound());
}

// --- Zero-downtime patching (§7.4) ------------------------------------------

TEST_F(EngineFeatureTest, ZdpPreservesInFlightSessions) {
  // A client keeps issuing autocommit writes; a patch lands mid-stream.
  int committed = 0, failed = 0;
  bool stop = false;
  std::function<void(int)> issue = [&](int i) {
    if (stop) return;
    TxnId txn = cluster_.writer()->Begin();
    cluster_.writer()->Put(txn, table_, Key(i % 50), "v",
                           [&, txn, i](Status s) {
      if (!s.ok()) {
        ++failed;
        issue(i + 1);
        return;
      }
      cluster_.writer()->Commit(txn, [&, i](Status cs) {
        cs.ok() ? ++committed : ++failed;
        issue(i + 1);
      });
    });
  };
  issue(0);

  bool patched = false;
  cluster_.loop()->Schedule(Millis(100), [&] {
    cluster_.writer()->ZeroDowntimePatch(Millis(50), [&](Status s) {
      EXPECT_TRUE(s.ok()) << s.ToString();
      patched = true;
    });
  });
  cluster_.RunUntil([&] { return patched && committed > 100; }, Minutes(2));
  stop = true;
  cluster_.RunFor(Seconds(1));

  EXPECT_TRUE(patched);
  EXPECT_EQ(failed, 0);     // no session ever saw an error
  EXPECT_GT(committed, 100);
  EXPECT_FALSE(cluster_.writer()->patching());
}

TEST_F(EngineFeatureTest, ZdpRejectsConcurrentPatch) {
  bool first = false;
  cluster_.writer()->ZeroDowntimePatch(Millis(100), [&](Status s) {
    EXPECT_TRUE(s.ok());
    first = true;
  });
  Status second = Status::OK();
  cluster_.writer()->ZeroDowntimePatch(Millis(100),
                                       [&](Status s) { second = s; });
  EXPECT_TRUE(second.IsBusy());
  cluster_.RunUntil([&] { return first; }, Seconds(30));
}

TEST_F(EngineFeatureTest, ZdpHoldsDeleteOfPostWatermarkTxn) {
  ASSERT_TRUE(cluster_.PutSync(table_, "row", "v").ok());
  bool patched = false;
  cluster_.writer()->ZeroDowntimePatch(Millis(50), [&](Status s) {
    EXPECT_TRUE(s.ok()) << s.ToString();
    patched = true;
  });
  ASSERT_TRUE(cluster_.writer()->patching());
  // A transaction begun during the swap: its first statement is a Delete,
  // which must wait at the door like a Put or a Get would.
  TxnId txn = cluster_.writer()->Begin();
  bool deleted = false;
  cluster_.writer()->Delete(txn, table_, "row", [&](Status s) {
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_TRUE(patched) << "Delete ran during the engine swap";
    deleted = true;
  });
  ASSERT_TRUE(cluster_.RunUntil([&] { return deleted; }, Seconds(30)));
  bool committed = false;
  cluster_.writer()->Commit(txn, [&](Status s) {
    EXPECT_TRUE(s.ok());
    committed = true;
  });
  ASSERT_TRUE(cluster_.RunUntil([&] { return committed; }, Seconds(30)));
  EXPECT_TRUE(cluster_.GetSync(table_, "row").status().IsNotFound());
}

// --- Scan ---------------------------------------------------------------------

TEST_F(EngineFeatureTest, ScanReturnsSortedDecodedRows) {
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(cluster_.PutSync(table_, Key(i), "v" + std::to_string(i)).ok());
  }
  TxnId txn = cluster_.writer()->Begin();
  bool done = false;
  std::vector<std::pair<std::string, std::string>> rows;
  cluster_.writer()->Scan(
      txn, table_, Key(10), 15,
      [&](Result<std::vector<std::pair<std::string, std::string>>> r) {
        ASSERT_TRUE(r.ok());
        rows = std::move(*r);
        done = true;
      });
  cluster_.RunUntil([&] { return done; }, Seconds(30));
  ASSERT_EQ(rows.size(), 15u);
  EXPECT_EQ(rows[0].first, Key(10));
  EXPECT_EQ(rows[0].second, "v10");
  EXPECT_EQ(rows[14].first, Key(24));
}

// --- Purge ---------------------------------------------------------------------

// Purge deletes a finished transaction's undo records, at most 32 per MTR,
// then its transaction-table row. Here three finished transactions sit side
// by side in the undo tree: a 70-record one (three purge MTRs, 32 + 32 + 6,
// the last with its txn-table row), a one-row transaction that interleaved
// with it and commits after it, and a rolled-back one; a fourth stays open.
// The big transaction's undo records carry 200-byte old rows, so they span
// several leaves and each purge walk of it crosses a leaf boundary; its last
// chunk is followed by the other transactions' records, which it must leave
// alone. Once purge drains, only the open transaction's rows remain.
TEST_F(EngineFeatureTest, PurgeLeavesOnlyOpenTransactionsRows) {
  Database* db = cluster_.writer();
  auto count = [&](const std::string& tree) -> uint64_t {
    Result<PageId> anchor = db->TableAnchor(tree);
    EXPECT_TRUE(anchor.ok());
    Result<uint64_t> n = BTree(db, *anchor).CountForTesting();
    EXPECT_TRUE(n.ok());
    return n.ok() ? *n : 0;
  };
  auto run = [&](auto op) {
    bool done = false;
    Status st;
    op([&](Status s) {
      st = s;
      done = true;
    });
    cluster_.RunUntil([&] { return done; }, Seconds(30));
    EXPECT_TRUE(done);
    return st;
  };
  auto put = [&](TxnId txn, const std::string& key, const std::string& value) {
    ASSERT_TRUE(run([&](auto cb) { db->Put(txn, table_, key, value, cb); }).ok())
        << key;
  };
  const std::string old_row(200, 'o');
  for (int i = 0; i < 70; ++i) {
    ASSERT_TRUE(cluster_.PutSync(table_, Key(i), old_row).ok());
  }
  ASSERT_TRUE(cluster_.PutSync(table_, Key(300), old_row).ok());
  cluster_.RunFor(Seconds(1));
  ASSERT_EQ(count("__undo"), 0u);
  ASSERT_EQ(count("__txn"), 0u);

  const TxnId big = db->Begin();
  const TxnId small = db->Begin();
  const TxnId rolled = db->Begin();
  const TxnId open = db->Begin();
  for (int i = 0; i < 70; ++i) {
    put(big, Key(i), "big" + std::to_string(i));
    if (i == 35) put(small, Key(100), "small");
  }
  put(rolled, Key(201), "inserted then rolled back");
  put(rolled, Key(300), "updated then rolled back");
  put(open, Key(400), "open");
  put(open, Key(401), "open");
  EXPECT_EQ(count("__undo"), 70u + 1 + 2 + 2);
  EXPECT_EQ(count("__txn"), 4u);

  ASSERT_TRUE(run([&](auto cb) { db->Commit(big, cb); }).ok());
  ASSERT_TRUE(run([&](auto cb) { db->Commit(small, cb); }).ok());
  ASSERT_TRUE(run([&](auto cb) { db->Rollback(rolled, cb); }).ok());
  cluster_.RunFor(Seconds(2));
  EXPECT_EQ(count("__undo"), 2u);
  EXPECT_EQ(count("__txn"), 1u);
  for (int i = 0; i < 70; ++i) {
    auto got = cluster_.GetSync(table_, Key(i));
    ASSERT_TRUE(got.ok()) << i;
    EXPECT_EQ(*got, "big" + std::to_string(i));
  }
  auto got = cluster_.GetSync(table_, Key(100));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "small");
  EXPECT_TRUE(cluster_.GetSync(table_, Key(201)).status().IsNotFound());
  got = cluster_.GetSync(table_, Key(300));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, old_row);

  ASSERT_TRUE(run([&](auto cb) { db->Commit(open, cb); }).ok());
  cluster_.RunFor(Seconds(1));
  EXPECT_EQ(count("__undo"), 0u);
  EXPECT_EQ(count("__txn"), 0u);
  got = cluster_.GetSync(table_, Key(401));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "open");
}

// --- Determinism ----------------------------------------------------------------

TEST(DeterminismTest, SameSeedSameOutcome) {
  auto run = [](uint64_t seed) {
    ClusterOptions o = FeatureCluster();
    o.seed = seed;
    AuroraCluster c(o);
    EXPECT_TRUE(c.BootstrapSync().ok());
    EXPECT_TRUE(c.CreateTableSync("t").ok());
    PageId table = *c.TableAnchorSync("t");
    for (int i = 0; i < 60; ++i) {
      EXPECT_TRUE(c.PutSync(table, Key(i), Key(i * 7)).ok());
    }
    c.RunFor(Seconds(1));
    // A tuple of state that would diverge under any nondeterminism.
    return std::make_tuple(c.writer()->vdl(), c.writer()->next_lsn(),
                           c.loop()->now(),
                           c.network()->total().messages_sent,
                           c.network()->total().bytes_sent);
  };
  EXPECT_EQ(run(1234), run(1234));
  EXPECT_NE(std::get<2>(run(1234)), std::get<2>(run(99)));
}

}  // namespace
}  // namespace aurora
