#include <gtest/gtest.h>

#include <string>

#include "harness/cluster.h"
#include "tests/test_util.h"

namespace aurora {
namespace {

using testing::Key;

ClusterOptions RecoveryCluster() {
  ClusterOptions o;
  o.engine.page_size = 4096;
  o.engine.pages_per_pg = 64;
  o.engine.buffer_pool_pages = 2048;
  o.storage_nodes_per_az = 3;
  return o;
}

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest() : cluster_(RecoveryCluster()) {
    EXPECT_TRUE(cluster_.BootstrapSync().ok());
    EXPECT_TRUE(cluster_.CreateTableSync("t").ok());
    table_ = *cluster_.TableAnchorSync("t");
  }

  AuroraCluster cluster_;
  PageId table_ = kInvalidPage;
};

TEST_F(RecoveryTest, CommittedDataSurvivesWriterCrash) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(cluster_.PutSync(table_, Key(i), "v" + std::to_string(i)).ok());
  }
  cluster_.CrashWriter();
  ASSERT_TRUE(cluster_.RecoverSync().ok());
  for (int i = 0; i < 100; ++i) {
    auto got = cluster_.GetSync(table_, Key(i));
    ASSERT_TRUE(got.ok()) << i << ": " << got.status().ToString();
    EXPECT_EQ(*got, "v" + std::to_string(i));
  }
}

TEST_F(RecoveryTest, RecoveryIsFastRegardlessOfHistoryLength) {
  // §4.3: no checkpoint replay — recovery cost does not scale with the
  // amount of redo written since "the last checkpoint" (there is none).
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(cluster_.PutSync(table_, Key(i % 50), Key(i)).ok());
  }
  cluster_.CrashWriter();
  SimTime before = cluster_.loop()->now();
  ASSERT_TRUE(cluster_.RecoverSync().ok());
  SimTime recovery_time = cluster_.loop()->now() - before;
  // Well under the paper's 10-second bound.
  EXPECT_LT(recovery_time, Seconds(10));
}

TEST_F(RecoveryTest, UncommittedTransactionRolledBackAfterCrash) {
  ASSERT_TRUE(cluster_.PutSync(table_, "row", "committed-value").ok());

  // Start a transaction, modify the row, ensure the redo reaches storage,
  // but never commit.
  TxnId txn = cluster_.writer()->Begin();
  bool put_done = false;
  cluster_.writer()->Put(txn, table_, "row", "dirty-value", [&](Status s) {
    EXPECT_TRUE(s.ok());
    put_done = true;
  });
  cluster_.RunUntil([&] { return put_done; }, Seconds(10));
  cluster_.RunFor(Millis(200));  // let the batch reach quorum

  cluster_.CrashWriter();
  bool undo_done = false;
  cluster_.writer()->set_undo_complete_callback([&] { undo_done = true; });
  ASSERT_TRUE(cluster_.RecoverSync().ok());
  ASSERT_TRUE(cluster_.RunUntil([&] { return undo_done; }, Seconds(60)));

  auto got = cluster_.GetSync(table_, "row");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "committed-value");
}

TEST_F(RecoveryTest, InsertByInFlightTxnDisappearsAfterCrash) {
  TxnId txn = cluster_.writer()->Begin();
  bool put_done = false;
  cluster_.writer()->Put(txn, table_, "ghost", "should-vanish", [&](Status s) {
    EXPECT_TRUE(s.ok());
    put_done = true;
  });
  cluster_.RunUntil([&] { return put_done; }, Seconds(10));
  cluster_.RunFor(Millis(200));

  cluster_.CrashWriter();
  bool undo_done = false;
  cluster_.writer()->set_undo_complete_callback([&] { undo_done = true; });
  ASSERT_TRUE(cluster_.RecoverSync().ok());
  ASSERT_TRUE(cluster_.RunUntil([&] { return undo_done; }, Seconds(60)));

  EXPECT_TRUE(cluster_.GetSync(table_, "ghost").status().IsNotFound());
}

TEST_F(RecoveryTest, VolumeEpochAdvancesOnRecovery) {
  Epoch before = cluster_.control_plane()->volume_epoch();
  cluster_.CrashWriter();
  ASSERT_TRUE(cluster_.RecoverSync().ok());
  EXPECT_GT(cluster_.control_plane()->volume_epoch(), before);
  EXPECT_EQ(cluster_.writer()->volume_epoch(),
            cluster_.control_plane()->volume_epoch());
}

TEST_F(RecoveryTest, RepeatedCrashRecoveryCycles) {
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(
          cluster_.PutSync(table_, Key(round * 100 + i), Key(round)).ok())
          << "round " << round << " i " << i;
    }
    cluster_.CrashWriter();
    ASSERT_TRUE(cluster_.RecoverSync().ok()) << "round " << round;
  }
  // All four rounds' writes visible.
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 30; ++i) {
      auto got = cluster_.GetSync(table_, Key(round * 100 + i));
      ASSERT_TRUE(got.ok()) << round << "/" << i;
      EXPECT_EQ(*got, Key(round));
    }
  }
}

TEST_F(RecoveryTest, WritesContinueAfterRecovery) {
  ASSERT_TRUE(cluster_.PutSync(table_, "pre", "1").ok());
  cluster_.CrashWriter();
  ASSERT_TRUE(cluster_.RecoverSync().ok());
  ASSERT_TRUE(cluster_.PutSync(table_, "post", "2").ok());
  EXPECT_EQ(*cluster_.GetSync(table_, "pre"), "1");
  EXPECT_EQ(*cluster_.GetSync(table_, "post"), "2");
  // New LSNs must be allocated above the annulled range.
  EXPECT_GT(cluster_.writer()->next_lsn(),
            cluster_.writer()->vdl());
}

// Once a PG's records are coalesced and collected everywhere, recovery
// still finds the PG's newest record (each segment keeps its chain head):
// the next record links to it, the SCL moves past it, and a cache miss at
// the new VDL is served.
TEST_F(RecoveryTest, WritesAfterRecoveryExtendAFullyCollectedChain) {
  ASSERT_TRUE(cluster_.PutSync(table_, "k", "v1").ok());
  cluster_.RunFor(Seconds(10));
  const PgId pg =
      static_cast<PgId>(table_ / RecoveryCluster().engine.pages_per_pg);
  cluster_.CrashWriter();
  ASSERT_TRUE(cluster_.RecoverSync().ok());
  ASSERT_TRUE(cluster_.PutSync(table_, "k", "v2").ok());
  cluster_.RunFor(Seconds(1));
  for (size_t i = 0; i < cluster_.num_storage_nodes(); ++i) {
    const Segment* seg = cluster_.storage_node(i)->segment(pg);
    if (seg != nullptr) {
      EXPECT_GE(seg->scl(), cluster_.writer()->vdl());
    }
  }
  cluster_.writer()->buffer_pool()->Discard(table_);
  cluster_.writer()->buffer_pool()->Discard(table_ + 1);  // the tree's root
  auto got = cluster_.GetSync(table_, "k");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "v2");
  EXPECT_EQ(cluster_.writer()->stats().read_retries, 0u);
}

TEST_F(RecoveryTest, RecoveryToleratesTwoStorageNodesDown) {
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(cluster_.PutSync(table_, Key(i), "v").ok());
  }
  // Take down two storage hosts (any two nodes: within read-quorum
  // tolerance), then crash and recover.
  cluster_.failure_injector()->CrashNode(cluster_.storage_node(0)->id(), 0);
  cluster_.failure_injector()->CrashNode(cluster_.storage_node(4)->id(), 0);
  cluster_.CrashWriter();
  ASSERT_TRUE(cluster_.RecoverSync().ok());
  for (int i = 0; i < 50; ++i) {
    auto got = cluster_.GetSync(table_, Key(i));
    ASSERT_TRUE(got.ok()) << i << ": " << got.status().ToString();
  }
}

}  // namespace
}  // namespace aurora
