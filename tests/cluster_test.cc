#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <tuple>

#include "harness/cluster.h"
#include "storage/wire.h"
#include "tests/test_util.h"

namespace aurora {
namespace {

using testing::Key;

ClusterOptions SmallCluster() {
  ClusterOptions o;
  o.engine.page_size = 4096;
  o.engine.pages_per_pg = 64;
  o.engine.buffer_pool_pages = 1024;
  o.storage_nodes_per_az = 3;
  return o;
}

class AuroraClusterTest : public ::testing::Test {
 protected:
  AuroraClusterTest() : cluster_(SmallCluster()) {
    EXPECT_TRUE(cluster_.BootstrapSync().ok());
    EXPECT_TRUE(cluster_.CreateTableSync("t").ok());
    auto anchor = cluster_.TableAnchorSync("t");
    EXPECT_TRUE(anchor.ok());
    table_ = *anchor;
  }

  AuroraCluster cluster_;
  PageId table_ = kInvalidPage;
};

TEST_F(AuroraClusterTest, BootstrapCreatesDurableVolume) {
  EXPECT_GT(cluster_.writer()->vdl(), 0u);
  EXPECT_GE(cluster_.control_plane()->num_pgs(), 1u);
}

TEST_F(AuroraClusterTest, PutThenGetRoundTrip) {
  ASSERT_TRUE(cluster_.PutSync(table_, "hello", "world").ok());
  auto got = cluster_.GetSync(table_, "hello");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "world");
  EXPECT_TRUE(cluster_.GetSync(table_, "missing").status().IsNotFound());
}

TEST_F(AuroraClusterTest, CommitWaitsForWriteQuorum) {
  ASSERT_TRUE(cluster_.PutSync(table_, "k", "v").ok());
  // After a committed write, at least a write quorum of segment replicas
  // must hold every record up to the VDL.
  Lsn vdl = cluster_.writer()->vdl();
  const PgMembership& members = cluster_.control_plane()->membership(0);
  int complete = 0;
  for (sim::NodeId node : members.nodes) {
    StorageNode* sn = cluster_.storage_node_by_id(node);
    ASSERT_NE(sn, nullptr);
    const Segment* seg = sn->segment(0);
    ASSERT_NE(seg, nullptr);
    if (seg->scl() >= vdl) ++complete;
  }
  EXPECT_GE(complete, 4);
}

TEST_F(AuroraClusterTest, ManyWritesAndReadBack) {
  const int n = 300;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(cluster_.PutSync(table_, Key(i), "v" + std::to_string(i)).ok())
        << i;
  }
  for (int i = 0; i < n; ++i) {
    auto got = cluster_.GetSync(table_, Key(i));
    ASSERT_TRUE(got.ok()) << i << " " << got.status().ToString();
    EXPECT_EQ(*got, "v" + std::to_string(i));
  }
  EXPECT_EQ(cluster_.writer()->stats().txns_committed, 2u * n);
}

TEST_F(AuroraClusterTest, DeleteRemovesRow) {
  ASSERT_TRUE(cluster_.PutSync(table_, "k", "v").ok());
  ASSERT_TRUE(cluster_.DeleteSync(table_, "k").ok());
  EXPECT_TRUE(cluster_.GetSync(table_, "k").status().IsNotFound());
  EXPECT_TRUE(cluster_.DeleteSync(table_, "k").IsNotFound());
}

TEST_F(AuroraClusterTest, OnlyLogRecordsCrossTheNetworkToStorage) {
  cluster_.network()->ResetStats();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(cluster_.PutSync(table_, Key(i), std::string(100, 'x')).ok());
  }
  // The writer never ships pages on the write path: its outbound bytes are
  // log batches (6-way fan-out), far below 6 * pages-touched * page-size.
  const sim::NetStats& writer_net =
      cluster_.network()->stats_of(cluster_.writer_node());
  uint64_t bytes_if_pages =
      6ull * 50 * 2 * cluster_.writer()->options().page_size;
  EXPECT_LT(writer_net.bytes_sent, bytes_if_pages / 4);
}

TEST_F(AuroraClusterTest, WriteBatchBodyEncodedOncePerAttempt) {
  const EngineStats& s = cluster_.writer()->stats();
  const uint64_t saved_after_bootstrap = s.batch_encode_bytes_saved;
  ASSERT_TRUE(cluster_.PutSync(table_, "k1", "v1").ok());
  ASSERT_TRUE(cluster_.PutSync(table_, "k2", "v2").ok());
  // Every batch attempt serializes the body once and shares it across the
  // un-acked replicas, so with all six replicas healthy each attempt saves
  // exactly (kReplicasPerPg - 1) re-encodes of the body.
  const uint64_t saved = s.batch_encode_bytes_saved - saved_after_bootstrap;
  EXPECT_GT(saved, 0u);
  EXPECT_EQ(saved % (kReplicasPerPg - 1), 0u);
  // The metric is exported under the engine namespace.
  MetricsSnapshot snap = cluster_.metrics()->Snapshot();
  auto it = snap.counters.find("engine.writer.batch_encode_bytes_saved");
  ASSERT_NE(it, snap.counters.end());
  EXPECT_EQ(it->second, s.batch_encode_bytes_saved);
}

TEST_F(AuroraClusterTest, SteadyStateReadsHitThePageCache) {
  // A tiny buffer pool forces evictions, so re-reads fetch the same pages
  // from storage over and over — the reconstruction cache should serve the
  // repeats without replaying the log.
  ClusterOptions o = SmallCluster();
  o.engine.buffer_pool_pages = 16;
  AuroraCluster small(o);
  ASSERT_TRUE(small.BootstrapSync().ok());
  ASSERT_TRUE(small.CreateTableSync("t").ok());
  PageId table = *small.TableAnchorSync("t");
  const int n = 400;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(small.PutSync(table, Key(i), std::string(200, 'x')).ok());
  }
  small.RunFor(Seconds(1));
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < n; ++i) {
      auto got = small.GetSync(table, Key(i));
      ASSERT_TRUE(got.ok()) << got.status().ToString();
    }
  }
  PageCacheStats fleet;
  for (size_t i = 0; i < small.num_storage_nodes(); ++i) {
    PageCacheStats s = small.storage_node(i)->PageCacheTotals();
    fleet.hits += s.hits;
    fleet.partial_hits += s.partial_hits;
    fleet.misses += s.misses;
  }
  EXPECT_GT(fleet.hits + fleet.partial_hits, 0u);
  // And the fleet-wide metric is exported.
  MetricsSnapshot snap = small.metrics()->Snapshot();
  auto it = snap.counters.find("storage.page_cache.hits");
  ASSERT_NE(it, snap.counters.end());
  EXPECT_EQ(it->second, fleet.hits);
}

TEST_F(AuroraClusterTest, TransactionRollbackRestoresOldValues) {
  ASSERT_TRUE(cluster_.PutSync(table_, "a", "original").ok());
  TxnId txn = cluster_.writer()->Begin();
  bool put_done = false;
  cluster_.writer()->Put(txn, table_, "a", "modified",
                         [&](Status s) {
                           EXPECT_TRUE(s.ok());
                           put_done = true;
                         });
  cluster_.RunUntil([&] { return put_done; }, Seconds(10));
  bool rolled_back = false;
  cluster_.writer()->Rollback(txn, [&](Status s) {
    EXPECT_TRUE(s.ok()) << s.ToString();
    rolled_back = true;
  });
  cluster_.RunUntil([&] { return rolled_back; }, Seconds(10));
  auto got = cluster_.GetSync(table_, "a");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "original");
}

TEST_F(AuroraClusterTest, RollbackOfInsertDeletesRow) {
  TxnId txn = cluster_.writer()->Begin();
  bool done = false;
  cluster_.writer()->Put(txn, table_, "fresh", "value", [&](Status s) {
    EXPECT_TRUE(s.ok());
    cluster_.writer()->Rollback(txn, [&](Status rs) {
      EXPECT_TRUE(rs.ok());
      done = true;
    });
  });
  cluster_.RunUntil([&] { return done; }, Seconds(10));
  EXPECT_TRUE(cluster_.GetSync(table_, "fresh").status().IsNotFound());
}

TEST_F(AuroraClusterTest, MultiStatementTransactionIsAtomic) {
  TxnId txn = cluster_.writer()->Begin();
  int pending = 3;
  bool committed = false;
  for (int i = 0; i < 3; ++i) {
    cluster_.writer()->Put(txn, table_, "multi" + std::to_string(i), "v",
                           [&](Status s) {
                             EXPECT_TRUE(s.ok());
                             if (--pending == 0) {
                               cluster_.writer()->Commit(txn, [&](Status cs) {
                                 EXPECT_TRUE(cs.ok());
                                 committed = true;
                               });
                             }
                           });
  }
  cluster_.RunUntil([&] { return committed; }, Seconds(10));
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(cluster_.GetSync(table_, "multi" + std::to_string(i)).ok());
  }
}

TEST_F(AuroraClusterTest, EvictionRespectsVdlRule) {
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(cluster_.PutSync(table_, Key(i), std::string(200, 'x')).ok());
  }
  cluster_.RunFor(Millis(100));
  // Every cached page above the VDL is unevictable; after quiescing, all
  // writes are durable so no page should be above the VDL.
  EXPECT_EQ(cluster_.writer()->buffer_pool()->CountAboveVdl(), 0u);
}

TEST_F(AuroraClusterTest, CacheMissFetchesPageFromStorage) {
  // Write enough rows to overflow a tiny buffer pool, forcing evictions and
  // storage fetches on re-read.
  ClusterOptions o = SmallCluster();
  o.engine.buffer_pool_pages = 16;
  AuroraCluster small(o);
  ASSERT_TRUE(small.BootstrapSync().ok());
  ASSERT_TRUE(small.CreateTableSync("t").ok());
  PageId table = *small.TableAnchorSync("t");
  const int n = 800;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(
        small.PutSync(table, Key(i), std::string(200, 'a' + i % 26)).ok())
        << i;
  }
  small.RunFor(Seconds(1));
  uint64_t fetches_before = small.writer()->stats().storage_page_reads;
  for (int i = 0; i < n; ++i) {
    auto got = small.GetSync(table, Key(i));
    ASSERT_TRUE(got.ok()) << i << ": " << got.status().ToString();
    EXPECT_EQ(*got, std::string(200, 'a' + i % 26));
  }
  EXPECT_GT(small.writer()->stats().storage_page_reads, fetches_before);
  EXPECT_GT(small.writer()->buffer_pool()->stats().evictions, 0u);
}

TEST_F(AuroraClusterTest, StorageNodesMaterializePagesInBackground) {
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(cluster_.PutSync(table_, Key(i), "v").ok());
  }
  // Let PGMRPL propagate and coalescing run.
  cluster_.RunFor(Seconds(2));
  uint64_t coalesced = 0;
  for (size_t i = 0; i < cluster_.num_storage_nodes(); ++i) {
    coalesced += cluster_.storage_node(i)->stats().records_coalesced;
  }
  EXPECT_GT(coalesced, 0u);
}

TEST_F(AuroraClusterTest, GarbageCollectionShrinksHotLog) {
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(cluster_.PutSync(table_, Key(i), "v").ok());
  }
  cluster_.RunFor(Seconds(3));
  uint64_t gced = 0;
  for (size_t i = 0; i < cluster_.num_storage_nodes(); ++i) {
    gced += cluster_.storage_node(i)->stats().records_gced;
  }
  EXPECT_GT(gced, 0u);
}

TEST_F(AuroraClusterTest, BackupsReachS3) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(cluster_.PutSync(table_, Key(i), "v").ok());
  }
  cluster_.RunFor(Seconds(2));
  EXPECT_GT(cluster_.s3()->num_objects(), 0u);
}

uint64_t TotalPageReadErrors(AuroraCluster* cluster) {
  uint64_t total = 0;
  for (size_t i = 0; i < cluster->num_storage_nodes(); ++i) {
    total += cluster->storage_node(i)->stats().page_read_errors;
  }
  return total;
}

StorageNode* StorageNodeById(AuroraCluster* cluster, sim::NodeId id) {
  for (size_t i = 0; i < cluster->num_storage_nodes(); ++i) {
    if (cluster->storage_node(i)->id() == id) return cluster->storage_node(i);
  }
  return nullptr;
}

// A read request carries its PG's tail at the VDL, so the first segment
// asked serves every cache miss: on a PG with records in flight, and on a
// PG idle since long before the VDL.
TEST(ReadTailTest, CacheMissesAreServedOnTheFirstTry) {
  ClusterOptions o = SmallCluster();
  o.engine.pages_per_pg = 8;
  AuroraCluster cluster(o);
  ASSERT_TRUE(cluster.BootstrapSync().ok());
  // Each tree is an anchor page followed by its root. The meta page and
  // the transaction and undo trees, which every update writes, take pages
  // 0-4, so "cold" (5-6) is in PG 0 with them, rows of "hot" (7-8) land in
  // PG 1 and, past four pads, "idle" (17-18) is alone in PG 2.
  for (const char* name : {"cold", "hot", "pad0", "pad1", "pad2", "pad3",
                           "idle"}) {
    ASSERT_TRUE(cluster.CreateTableSync(name).ok());
  }
  const PageId cold = *cluster.TableAnchorSync("cold");
  const PageId hot = *cluster.TableAnchorSync("hot");
  const PageId idle = *cluster.TableAnchorSync("idle");
  const auto pg_of = [&](PageId page) { return page / o.engine.pages_per_pg; };
  ASSERT_EQ(pg_of(cold), 0u);
  ASSERT_EQ(pg_of(cold + 1), 0u);
  ASSERT_EQ(pg_of(hot + 1), 1u);
  ASSERT_EQ(pg_of(idle), 2u);
  ASSERT_EQ(pg_of(idle + 1), 2u);
  ASSERT_TRUE(cluster.PutSync(cold, "c", "cold-value").ok());
  ASSERT_TRUE(cluster.PutSync(idle, "i", "idle-value").ok());
  cluster.RunFor(Seconds(1));

  // Four connections of single-row updates to "hot" keep records of PG 0
  // and PG 1 in flight for the whole read phase.
  Database* db = cluster.writer();
  bool stop = false;
  int committed = 0;
  std::function<void(int)> update = [&](int conn) {
    if (stop) return;
    const TxnId txn = db->Begin();
    db->Put(txn, hot, Key(conn), "v" + std::to_string(committed),
            [&, txn, conn](Status s) {
              ASSERT_TRUE(s.ok()) << s.ToString();
              db->Commit(txn, [&, conn](Status c) {
                ASSERT_TRUE(c.ok()) << c.ToString();
                ++committed;
                update(conn);
              });
            });
  };
  for (int conn = 0; conn < 4; ++conn) update(conn);
  cluster.RunFor(Millis(20));

  const uint64_t fetches = db->stats().storage_page_reads;
  const uint64_t retries = db->stats().read_retries;
  const uint64_t errors = TotalPageReadErrors(&cluster);
  const int committed_before = committed;
  int reads_with_records_in_flight = 0;
  constexpr int kRounds = 20;
  for (int round = 0; round < kRounds; ++round) {
    for (auto [table, key, value] :
         {std::tuple{cold, "c", "cold-value"},
          std::tuple{idle, "i", "idle-value"}}) {
      db->buffer_pool()->Discard(table);
      db->buffer_pool()->Discard(table + 1);
      if (db->max_allocated_lsn() > db->vdl()) ++reads_with_records_in_flight;
      auto got = cluster.GetSync(table, key);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, value);
    }
    cluster.RunFor(Millis(3));
  }
  stop = true;
  cluster.RunFor(Seconds(1));

  EXPECT_GT(committed - committed_before, kRounds);
  EXPECT_GT(reads_with_records_in_flight, kRounds);
  EXPECT_EQ(db->stats().storage_page_reads - fetches, 4u * kRounds);
  EXPECT_EQ(db->stats().read_retries, retries);
  EXPECT_EQ(TotalPageReadErrors(&cluster), errors);
}

// A same-AZ segment that missed the newest batch of a PG is asked first
// once the writer has forgotten every segment's SCL (after recovery). The
// request's tail is above its SCL, so it refuses, and the read returns the
// latest value from a complete segment.
TEST(ReadTailTest, LaggingSameAzSegmentServesNoPage) {
  ClusterOptions o = SmallCluster();
  AuroraCluster cluster(o);
  ASSERT_TRUE(cluster.BootstrapSync().ok());
  ASSERT_TRUE(cluster.CreateTableSync("t").ok());
  const PageId table = *cluster.TableAnchorSync("t");
  ASSERT_TRUE(cluster.PutSync(table, "k", "v1").ok());
  cluster.RunFor(Seconds(1));

  // The first same-AZ member in slot order: the first segment a fetch asks
  // when no slot is known complete.
  const PgId pg = static_cast<PgId>(table / o.engine.pages_per_pg);
  const sim::NodeId writer = cluster.writer_node();
  sim::NodeId lagging = sim::kInvalidNode;
  const PgMembership& members = cluster.control_plane()->membership(pg);
  for (sim::NodeId node : members.nodes) {
    if (cluster.topology()->SameAz(writer, node)) {
      lagging = node;
      break;
    }
  }
  ASSERT_NE(lagging, sim::kInvalidNode);
  StorageNode* lagging_node = StorageNodeById(&cluster, lagging);
  ASSERT_NE(lagging_node, nullptr);

  // Drop the next batch to it, and cut it off from its peers so gossip
  // cannot fill the hole.
  cluster.network()->SetPartitionedOneWay(writer, lagging, true);
  for (sim::NodeId peer : members.nodes) {
    if (peer != lagging) cluster.network()->SetPartitioned(lagging, peer, true);
  }
  ASSERT_TRUE(cluster.PutSync(table, "k", "v2").ok());
  cluster.network()->SetPartitionedOneWay(writer, lagging, false);
  ASSERT_LT(lagging_node->segment(pg)->scl(), cluster.writer()->vdl());

  const uint64_t served = lagging_node->stats().page_reads_served;
  const uint64_t refused = lagging_node->stats().read_errors_incomplete;
  cluster.CrashWriter();
  ASSERT_TRUE(cluster.RecoverSync().ok());
  auto got = cluster.GetSync(table, "k");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "v2");
  EXPECT_EQ(lagging_node->stats().page_reads_served, served);
  EXPECT_GT(lagging_node->stats().read_errors_incomplete, refused);
}

// Storage refuses a read it cannot serve when the request arrives, without
// charging the device.
TEST(ReadTailTest, RefusedReadCostsNoDeviceRead) {
  AuroraCluster cluster(SmallCluster());
  ASSERT_TRUE(cluster.BootstrapSync().ok());
  ASSERT_TRUE(cluster.CreateTableSync("t").ok());
  const PageId table = *cluster.TableAnchorSync("t");
  cluster.RunFor(Seconds(1));
  const PgId pg = static_cast<PgId>(table / SmallCluster().engine.pages_per_pg);
  StorageNode* node = StorageNodeById(
      &cluster, cluster.control_plane()->membership(pg).nodes[0]);
  ASSERT_NE(node, nullptr);
  const Lsn scl = node->segment(pg)->scl();

  ReadPageReqMsg req;
  req.req_id = 1u << 30;  // matches no fetch of the writer
  req.pg = pg;
  req.page = table;
  req.read_point = scl + 1000;  // beyond the SCL, no snapshot covers it
  req.tail = scl + 500;         // and a tail the chain has not reached
  const uint64_t disk_reads = node->disk()->reads();
  const uint64_t errors = node->stats().page_read_errors;
  const uint64_t incomplete = node->stats().read_errors_incomplete;
  cluster.network()->Send(cluster.writer_node(), node->id(), kMsgReadPageReq,
                          wire::Encode(req));
  cluster.RunFor(Millis(10));
  EXPECT_EQ(node->disk()->reads(), disk_reads);
  EXPECT_EQ(node->stats().page_read_errors, errors + 1);
  EXPECT_EQ(node->stats().read_errors_incomplete, incomplete + 1);
}

}  // namespace
}  // namespace aurora
