#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/random.h"
#include "harness/cluster.h"
#include "tests/test_util.h"

namespace aurora {
namespace {

using testing::Key;

ClusterOptions ReplicaCluster(int replicas) {
  ClusterOptions o;
  o.engine.page_size = 4096;
  o.engine.pages_per_pg = 64;
  o.engine.buffer_pool_pages = 1024;
  o.storage_nodes_per_az = 3;
  o.num_replicas = replicas;
  return o;
}

class ReplicaTest : public ::testing::Test {
 protected:
  ReplicaTest() : cluster_(ReplicaCluster(2)) {
    EXPECT_TRUE(cluster_.BootstrapSync().ok());
    EXPECT_TRUE(cluster_.CreateTableSync("t").ok());
    table_ = *cluster_.TableAnchorSync("t");
  }

  // Writes `key` in the open transaction `txn`, leaving it open.
  void PutIn(TxnId txn, const std::string& key, const std::string& value) {
    bool done = false;
    cluster_.writer()->Put(txn, table_, key, value, [&](Status s) {
      EXPECT_TRUE(s.ok()) << s.ToString();
      done = true;
    });
    cluster_.RunUntil([&] { return done; }, Seconds(10));
  }

  // A snapshot read of `key` on the writer by `reader` (0: no transaction).
  Result<std::string> SnapshotGet(TxnId reader, const std::string& key) {
    Result<std::string> got = Status::NotFound("");
    bool done = false;
    cluster_.writer()->SnapshotGet(reader, table_, key,
                                   [&](Result<std::string> r) {
                                     got = std::move(r);
                                     done = true;
                                   });
    cluster_.RunUntil([&] { return done; }, Seconds(10));
    EXPECT_TRUE(done) << "snapshot read of " << key << " never finished";
    return got;
  }

  void CommitSync(TxnId txn) {
    bool committed = false;
    cluster_.writer()->Commit(txn, [&](Status) { committed = true; });
    cluster_.RunUntil([&] { return committed; }, Seconds(10));
  }

  AuroraCluster cluster_;
  PageId table_ = kInvalidPage;
};

TEST_F(ReplicaTest, ReplicaServesCommittedData) {
  ASSERT_TRUE(cluster_.PutSync(table_, "k", "v").ok());
  cluster_.RunFor(Millis(50));  // let the stream propagate
  auto got = cluster_.ReplicaGetSync(0, table_, "k");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "v");
}

TEST_F(ReplicaTest, BothReplicasConverge) {
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(cluster_.PutSync(table_, Key(i), "v" + std::to_string(i)).ok());
  }
  cluster_.RunFor(Millis(100));
  for (size_t r = 0; r < 2; ++r) {
    for (int i = 0; i < 50; ++i) {
      auto got = cluster_.ReplicaGetSync(r, table_, Key(i));
      ASSERT_TRUE(got.ok()) << "replica " << r << " key " << i;
      EXPECT_EQ(*got, "v" + std::to_string(i));
    }
  }
}

TEST_F(ReplicaTest, ReplicaAppliesStreamToCachedPages) {
  ASSERT_TRUE(cluster_.PutSync(table_, "k", "v1").ok());
  cluster_.RunFor(Millis(50));
  // Prime the replica cache.
  ASSERT_EQ(*cluster_.ReplicaGetSync(0, table_, "k"), "v1");
  uint64_t fetches_before = cluster_.replica(0)->stats().storage_page_reads;
  // Update flows through the redo stream; the cached page must be patched
  // in place — no new storage fetch for the re-read.
  ASSERT_TRUE(cluster_.PutSync(table_, "k", "v2").ok());
  cluster_.RunFor(Millis(100));
  auto got = cluster_.ReplicaGetSync(0, table_, "k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "v2");
  EXPECT_EQ(cluster_.replica(0)->stats().storage_page_reads, fetches_before);
  EXPECT_GT(cluster_.replica(0)->stats().records_applied, 0u);
}

TEST_F(ReplicaTest, ReplicaDiscardsRecordsForUncachedPages) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(cluster_.PutSync(table_, Key(i), "v").ok());
  }
  cluster_.RunFor(Millis(100));
  // The replica never read anything: every streamed record hit an uncached
  // page and was discarded (§4.2.4 — replicas add no write amplification).
  EXPECT_GT(cluster_.replica(0)->stats().records_discarded, 0u);
}

// A replica that cached a leaf before it split patches it with each
// split's cut of its tail (the new right pages and root are not cached, so
// their lists are dropped) and reads, through the new root, what the writer
// reads.
TEST_F(ReplicaTest, ReplicaReadsWhatTheWriterReadsAcrossSplits) {
  std::map<std::string, std::string> rows;
  for (int i = 0; i < 10; ++i) {
    rows[Key(i * 100)] = "v" + std::to_string(i);
    ASSERT_TRUE(cluster_.PutSync(table_, Key(i * 100), rows[Key(i * 100)]).ok());
  }
  cluster_.RunFor(Millis(50));
  ASSERT_EQ(*cluster_.ReplicaGetSync(0, table_, Key(0)), "v0");  // caches
  const uint64_t applied = cluster_.replica(0)->stats().records_applied;
  Random rng(3);
  for (int i = 0; i < 400; ++i) {
    const std::string key = Key(rng.Uniform(1000));
    rows[key] = std::string(40, 'a' + i % 26) + std::to_string(i);
    ASSERT_TRUE(cluster_.PutSync(table_, key, rows[key]).ok());
  }
  cluster_.RunFor(Millis(200));
  EXPECT_GT(cluster_.replica(0)->stats().records_applied, applied);
  for (const auto& [key, value] : rows) {
    Result<std::string> writer = cluster_.GetSync(table_, key);
    ASSERT_TRUE(writer.ok()) << key;
    EXPECT_EQ(*writer, value) << key;
    Result<std::string> replica = cluster_.ReplicaGetSync(0, table_, key);
    ASSERT_TRUE(replica.ok()) << key << " " << replica.status().ToString();
    EXPECT_EQ(*replica, value) << key;
  }
}

TEST_F(ReplicaTest, ReplicaLagIsMilliseconds) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(cluster_.PutSync(table_, Key(i), "v").ok());
  }
  cluster_.RunFor(Millis(200));
  const Histogram& lag = cluster_.replica(0)->stats().lag_us;
  ASSERT_GT(lag.count(), 0u);
  // §4.2.4: "each replica typically lags behind the writer by a short
  // interval (20 ms or less)".
  EXPECT_LT(lag.P95(), 20000u) << lag.Summary();
}

TEST_F(ReplicaTest, ReplicaReadPointTracksVdl) {
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(cluster_.PutSync(table_, Key(i), "v").ok());
  }
  cluster_.RunFor(Millis(200));
  EXPECT_EQ(cluster_.replica(0)->read_point(), cluster_.writer()->vdl());
}

TEST_F(ReplicaTest, ReplicaCrashAndRestartRecovers) {
  ASSERT_TRUE(cluster_.PutSync(table_, "k", "v1").ok());
  cluster_.RunFor(Millis(50));
  ASSERT_EQ(*cluster_.ReplicaGetSync(0, table_, "k"), "v1");
  cluster_.replica(0)->Crash();
  ASSERT_TRUE(cluster_.PutSync(table_, "k", "v2").ok());
  cluster_.replica(0)->Restart();
  cluster_.RunFor(Millis(200));
  auto got = cluster_.ReplicaGetSync(0, table_, "k");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "v2");
}

TEST_F(ReplicaTest, MissRotatesPastDeadSameAzSegments) {
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(cluster_.PutSync(table_, Key(i), "v" + std::to_string(i)).ok());
  }
  cluster_.RunFor(Millis(100));
  // The replica's cache is cold, and the segments it tries first (its own
  // AZ's) are down: every fetch must time out on them and rotate on.
  ReadReplica* replica = cluster_.replica(0);
  const sim::Topology* topo = cluster_.topology();
  int crashed = 0;
  for (size_t i = 0; i < cluster_.num_storage_nodes(); ++i) {
    sim::NodeId node = cluster_.storage_node(i)->id();
    if (topo->SameAz(node, replica->node_id())) {
      cluster_.failure_injector()->CrashNode(node, Seconds(30));
      ++crashed;
    }
  }
  ASSERT_GT(crashed, 0);
  const uint64_t fetches_before = replica->stats().storage_page_reads;
  const uint64_t installs_before = replica->buffer_pool()->stats().installs;

  auto got = cluster_.ReplicaGetSync(0, table_, Key(7));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "v7");
  // Retries re-issue a fetch; they never start a second one for the page.
  const uint64_t fetches = replica->stats().storage_page_reads - fetches_before;
  EXPECT_GT(fetches, 0u);
  EXPECT_EQ(fetches,
            replica->buffer_pool()->stats().installs - installs_before);
  // Each page waited out both same-AZ segments before a remote one served.
  EXPECT_GE(replica->stats().read_latency_us.max(),
            fetches * 2 * kReadRetryTimeout);
}

TEST_F(ReplicaTest, SnapshotGetSeesPreImageOfInFlightTxn) {
  ASSERT_TRUE(cluster_.PutSync(table_, "row", "old").ok());
  TxnId txn = cluster_.writer()->Begin();
  PutIn(txn, "row", "new");
  // A snapshot read on the writer must not see the uncommitted value.
  Result<std::string> snap = SnapshotGet(0, "row");
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(*snap, "old");
  CommitSync(txn);
}

// A transaction that changed the row twice still hides both changes: the
// row reads as it was before the first.
TEST_F(ReplicaTest, SnapshotGetSeesPreImageOfFirstChange) {
  ASSERT_TRUE(cluster_.PutSync(table_, "row", "old").ok());
  TxnId txn = cluster_.writer()->Begin();
  PutIn(txn, "row", "mid");
  PutIn(txn, "row", "new");
  Result<std::string> snap = SnapshotGet(0, "row");
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(*snap, "old");
  CommitSync(txn);
}

TEST_F(ReplicaTest, SnapshotGetSeesTheReadersOwnWrite) {
  ASSERT_TRUE(cluster_.PutSync(table_, "row", "old").ok());
  TxnId txn = cluster_.writer()->Begin();
  PutIn(txn, "row", "mid");
  PutIn(txn, "row", "new");
  Result<std::string> snap = SnapshotGet(txn, "row");
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(*snap, "new");
  CommitSync(txn);
}

// A row an in-flight transaction inserted, then updated, does not exist
// for anyone else yet.
TEST_F(ReplicaTest, SnapshotGetHidesARowInsertedThenUpdated) {
  TxnId txn = cluster_.writer()->Begin();
  PutIn(txn, "row", "first");
  PutIn(txn, "row", "second");
  EXPECT_TRUE(SnapshotGet(0, "row").status().IsNotFound());
  CommitSync(txn);
  Result<std::string> snap = SnapshotGet(0, "row");
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(*snap, "second");
}

}  // namespace
}  // namespace aurora
