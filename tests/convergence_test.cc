#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/random.h"
#include "harness/cluster.h"
#include "storage/segment.h"
#include "tests/test_util.h"

namespace aurora {
namespace {

using testing::Key;

// Unit-level gossip property: six segment replicas each receive a random
// subset of a record chain; repeated pairwise exchange of RecordsAbove
// (exactly what GossipPull/Push ships) must converge every replica to the
// full chain, regardless of delivery order. Parameterized over seeds.
class GossipConvergenceTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, GossipConvergenceTest,
                         ::testing::Values(2, 19, 4242, 987654));

TEST_P(GossipConvergenceTest, PairwiseExchangeConvergesAllReplicas) {
  Random rng(GetParam());
  // Build a 300-record chain for one PG.
  std::vector<LogRecord> chain;
  Lsn prev = kInvalidLsn;
  for (int i = 0; i < 300; ++i) {
    LogRecord r;
    r.lsn = 100 + static_cast<Lsn>(i) * 7;
    r.prev_pg_lsn = prev;
    r.prev_vol_lsn = prev;
    r.page_id = static_cast<PageId>(i % 16);
    r.op = i < 16 ? RedoOp::kFormatPage : RedoOp::kInsert;
    r.payload = i < 16
                    ? LogRecord::MakeFormatPayload(
                          static_cast<uint8_t>(PageType::kBTreeLeaf), 0)
                    : LogRecord::MakeKeyValuePayload("k" + std::to_string(i),
                                                     "v");
    prev = r.lsn;
    chain.push_back(std::move(r));
  }

  std::vector<std::unique_ptr<Segment>> replicas;
  for (int i = 0; i < 6; ++i) {
    replicas.push_back(std::make_unique<Segment>(0, 4096));
  }
  // Each record lands on a random 4-subset (a write quorum), so every
  // record exists somewhere but no replica is complete.
  for (const LogRecord& r : chain) {
    int first = static_cast<int>(rng.Uniform(6));
    for (int j = 0; j < 4; ++j) {
      replicas[(first + j) % 6]->AddRecord(r);
    }
  }

  // Gossip: random pairs exchange until every replica is complete (or a
  // generous round bound proves divergence).
  for (int rounds = 0; rounds < 20000; ++rounds) {
    int a = static_cast<int>(rng.Uniform(6));
    int b = static_cast<int>(rng.Uniform(5));
    if (b >= a) ++b;
    // Each side advertises its SCL; the other pushes what it has above it.
    for (auto [src, dst] : {std::pair{a, b}, std::pair{b, a}}) {
      std::string push;
      EncodeRecordBatch(replicas[src]->RecordsAbove(replicas[dst]->scl(), 64),
                        &push);
      const SharedRecords records = DecodeSharedRecords(push);
      for (uint32_t i = 0; i < records->size(); ++i) {
        replicas[dst]->AddRecord(records, i);
      }
    }
    bool all = true;
    for (auto& rep : replicas) {
      if (rep->scl() != chain.back().lsn) all = false;
    }
    if (all) break;
  }
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(replicas[i]->scl(), chain.back().lsn) << "replica " << i;
    EXPECT_EQ(replicas[i]->hot_log_size(), chain.size());
  }
}

// Cluster-level property: after a workload quiesces, every live segment
// replica of every PG serves byte-identical page images at the VDL — the
// "storage service presents a unified view" clause of §5, checked at the
// byte level across all six copies.
class ReplicaImageEqualityTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, ReplicaImageEqualityTest,
                         ::testing::Values(11, 23));

TEST_P(ReplicaImageEqualityTest, AllSixCopiesServeIdenticalPages) {
  ClusterOptions o;
  o.seed = GetParam();
  o.engine.page_size = 4096;
  o.engine.pages_per_pg = 64;
  o.storage_nodes_per_az = 3;
  AuroraCluster cluster(o);
  ASSERT_TRUE(cluster.BootstrapSync().ok());
  ASSERT_TRUE(cluster.CreateTableSync("t").ok());
  PageId table = *cluster.TableAnchorSync("t");
  Random rng(GetParam() + 5);
  for (int i = 0; i < 250; ++i) {
    ASSERT_TRUE(cluster
                    .PutSync(table, Key(rng.Uniform(120)),
                             std::string(rng.Uniform(150) + 1, 'x'))
                    .ok());
  }
  cluster.RunFor(Seconds(3));  // quiesce: gossip + coalesce settle

  Lsn vdl = cluster.writer()->vdl();
  size_t num_pgs = cluster.control_plane()->num_pgs();
  int pages_compared = 0;
  for (PgId pg = 0; pg < num_pgs; ++pg) {
    const PgMembership& members = cluster.control_plane()->membership(pg);
    for (PageId page = pg * 64; page < (pg + 1) * 64; ++page) {
      std::string reference;
      for (sim::NodeId node : members.nodes) {
        StorageNode* sn = cluster.storage_node_by_id(node);
        ASSERT_NE(sn, nullptr);
        const Segment* seg = sn->segment(pg);
        ASSERT_NE(seg, nullptr);
        auto image = seg->GetPageAsOf(page, vdl);
        if (!image.ok()) {
          // NotFound (never written) must then hold on every replica.
          EXPECT_TRUE(image.status().IsNotFound())
              << image.status().ToString();
          continue;
        }
        if (reference.empty()) {
          reference = (*image)->raw();
          ++pages_compared;
        } else {
          EXPECT_EQ((*image)->raw(), reference)
              << "pg " << pg << " page " << page << " node " << node;
        }
      }
    }
  }
  EXPECT_GT(pages_compared, 5);
}

}  // namespace
}  // namespace aurora
