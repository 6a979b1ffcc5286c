#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness/cluster.h"
#include "sim/chaos.h"
#include "tests/test_util.h"

namespace aurora {
namespace {

using testing::Key;

// The adversary profile the chaos suite runs under (the acceptance bar for
// the fabric-hardening work): duplicated, reordered, corrupted and dropped
// frames all at once.
AdversaryConfig ChaosAdversary() {
  AdversaryConfig cfg;
  cfg.drop_probability = 0.02;
  cfg.duplicate_probability = 0.05;
  cfg.reorder_window = Millis(2);
  cfg.corrupt_probability = 0.001;
  return cfg;
}

// Property: under randomized chaos — background node crashes, an AZ outage,
// a slow node, a writer crash — composed with the full fabric adversary
// (duplication, bounded reorder, bit-flip corruption, loss), every
// acknowledged commit remains readable afterwards and no continuously
// checked invariant is ever violated. This is the paper's durability
// contract ("data, once written, can be read", §2) executed end-to-end,
// parameterized over seeds.
class ChaosTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest,
                         ::testing::Values(1, 7, 42, 1337, 20260707));

TEST_P(ChaosTest, AckedCommitsSurviveEverything) {
  ClusterOptions o;
  o.seed = GetParam();
  o.engine.page_size = 4096;
  o.engine.pages_per_pg = 64;
  o.engine.buffer_pool_pages = 2048;
  o.storage_nodes_per_az = 4;
  o.repair.detection_threshold = Seconds(2);
  AuroraCluster cluster(o);
  ASSERT_TRUE(cluster.BootstrapSync().ok());
  ASSERT_TRUE(cluster.CreateTableSync("t").ok());
  PageId table = *cluster.TableAnchorSync("t");

  Random rng(GetParam() * 31 + 1);
  ChaosEngine chaos(&cluster);
  chaos.SetAdversary(ChaosAdversary());
  chaos.StartChecker();
  cluster.failure_injector()->EnableBackgroundNoise(Minutes(2), Seconds(1));

  // Enough rounds that the 0.001 corruption rate is expected to fire well
  // over 10 times per run — the corrupted_injected > 0 assertion below
  // would otherwise be flaky at the unluckier seeds (~2.5k frames/6 rounds).
  std::map<std::string, std::string> acked;
  int attempts = 0;
  for (int round = 0; round < 24; ++round) {
    // One targeted disruption per round, scripted on the chaos timeline so
    // it lands while the round's writes are in flight.
    switch (round % 3) {
      case 0:
        chaos.FailAzAt(Millis(5), static_cast<sim::AzId>(rng.Uniform(3)),
                       Seconds(2));
        break;
      case 1:
        chaos.SlowNodeAt(
            Millis(5),
            cluster.storage_node(rng.Uniform(cluster.num_storage_nodes()))
                ->id(),
            50.0, Seconds(2));
        break;
      case 2:
        chaos.CrashStorageAt(Millis(5),
                             rng.Uniform(cluster.num_storage_nodes()),
                             Seconds(3));
        break;
    }
    for (int i = 0; i < 25; ++i) {
      std::string key = Key(rng.Uniform(200));
      std::string value = "r" + std::to_string(round) + "-" +
                          std::to_string(i);
      ++attempts;
      if (cluster.PutSync(table, key, value).ok()) {
        acked[key] = value;
      }
    }
    chaos.Run(Millis(500));
  }
  cluster.failure_injector()->DisableBackgroundNoise();

  // The adversary must actually have attacked the fabric, and corrupted
  // frames that reached a receiver must have been caught by the frame
  // checksum.
  const sim::AdversaryStats& adv = cluster.network()->adversary();
  EXPECT_GT(adv.duplicates_injected, 0u) << "seed " << GetParam();
  EXPECT_GT(adv.reordered, 0u) << "seed " << GetParam();
  EXPECT_GT(adv.corrupted_injected, 0u) << "seed " << GetParam();
  // Note: dropped can exceed injected — a corrupted frame that is then
  // duplicated is verified (and rejected) once per delivery.
  EXPECT_GT(adv.corrupted_dropped, 0u) << "seed " << GetParam();
  chaos.ClearAdversary();

  // The vast majority of writes must have committed despite the chaos
  // (quorum absorbs everything we threw).
  EXPECT_GT(static_cast<int>(acked.size()), attempts / 4);

  // Writer crash + recovery on top of it all.
  cluster.CrashWriter();
  ASSERT_TRUE(cluster.RecoverSync().ok());
  chaos.Run(Seconds(5));  // gossip/repair convergence

  for (const auto& [key, value] : acked) {
    auto got = cluster.GetSync(table, key);
    ASSERT_TRUE(got.ok()) << "seed " << GetParam() << " lost " << key << ": "
                          << got.status().ToString();
    EXPECT_EQ(*got, value) << "seed " << GetParam() << " key " << key;
  }

  chaos.StopChecker();
  EXPECT_GT(chaos.checker()->checks(), 0u);
  EXPECT_TRUE(chaos.checker()->violations().empty())
      << "seed " << GetParam() << " first violation: "
      << chaos.checker()->violations().front();
}

// Property: repeated crash/recover cycles interleaved with writes (under
// the same fabric adversary) never lose an acked commit and never resurrect
// a rolled-back one.
class CrashLoopTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, CrashLoopTest, ::testing::Values(3, 99, 777));

TEST_P(CrashLoopTest, AckedSurvivesUnackedRollsBack) {
  ClusterOptions o;
  o.seed = GetParam();
  o.engine.page_size = 4096;
  o.engine.pages_per_pg = 64;
  o.storage_nodes_per_az = 3;
  AuroraCluster cluster(o);
  ASSERT_TRUE(cluster.BootstrapSync().ok());
  ASSERT_TRUE(cluster.CreateTableSync("t").ok());
  PageId table = *cluster.TableAnchorSync("t");

  ChaosEngine chaos(&cluster);
  chaos.SetAdversary(ChaosAdversary());
  chaos.StartChecker();

  Random rng(GetParam());
  std::map<std::string, std::string> acked;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 20; ++i) {
      std::string key = Key(rng.Uniform(60));
      std::string value = std::to_string(round * 100 + i);
      if (cluster.PutSync(table, key, value).ok()) acked[key] = value;
    }
    // Leave one transaction in flight (statement done, commit never
    // requested), then crash: it must be rolled back by recovery.
    TxnId orphan = cluster.writer()->Begin();
    std::string orphan_key = "orphan-" + std::to_string(round);
    bool put_done = false;
    cluster.writer()->Put(orphan, table, orphan_key, "ghost",
                          [&](Status s) {
                            EXPECT_TRUE(s.ok());
                            put_done = true;
                          });
    cluster.RunUntil([&] { return put_done; }, Seconds(10));
    chaos.Run(Millis(100));

    cluster.CrashWriter();
    bool undo_done = false;
    cluster.writer()->set_undo_complete_callback([&] { undo_done = true; });
    ASSERT_TRUE(cluster.RecoverSync().ok()) << "round " << round;
    ASSERT_TRUE(cluster.RunUntil([&] { return undo_done; }, Minutes(1)));
    EXPECT_TRUE(
        cluster.GetSync(table, orphan_key).status().IsNotFound())
        << "round " << round;
  }
  chaos.ClearAdversary();
  for (const auto& [key, value] : acked) {
    auto got = cluster.GetSync(table, key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, value) << key;
  }
  chaos.StopChecker();
  EXPECT_TRUE(chaos.checker()->violations().empty())
      << "first violation: " << chaos.checker()->violations().front();
}

// A torn multi-PG MTR: one write's MTR spans two PGs, the batch of the PG
// without its CPL reaches quorum, and every copy of the batch holding the
// CPL is lost. Recovery must annul the whole MTR: truncation removes the
// surviving half, each SCL falls back to its PG's newest surviving record,
// and the next incarnation's backlinks meet it there, so both PGs take
// writes and serve cache-miss reads again.
TEST(TornMtrChaosTest, LostCplBatchIsAnnulledAndBothPgsMoveOn) {
  ClusterOptions o;
  o.engine.page_size = 4096;
  o.engine.pages_per_pg = 8;
  o.engine.buffer_pool_pages = 2048;
  o.storage_nodes_per_az = 4;
  AuroraCluster cluster(o);
  ASSERT_TRUE(cluster.BootstrapSync().ok());
  const auto pg_of = [&](PageId page) {
    return static_cast<PgId>(page / o.engine.pages_per_pg);
  };
  const auto live_segments = [&](PgId pg) {
    std::vector<const Segment*> out;
    for (sim::NodeId node : cluster.control_plane()->membership(pg).nodes) {
      StorageNode* sn = cluster.storage_node_by_id(node);
      if (sn != nullptr && !sn->crashed() && sn->segment(pg) != nullptr) {
        out.push_back(sn->segment(pg));
      }
    }
    return out;
  };

  // A write's MTR logs its transaction-table and undo rows to the system
  // trees on pages 0-4 (PG A = 0) and ends, at the CPL, with the row's leaf:
  // the root page that follows a table's anchor. Tables created one after
  // another put their roots in PG 0, then PG 1, PG 2 and so on. PG B is the
  // first PG past PG A that shares at most two hosts with it, so PG A keeps
  // a 4/6 write quorum while the writer is cut off from PG B's six hosts.
  const PgId pg_a = 0;
  const PgMembership& members_a = cluster.control_plane()->membership(pg_a);
  PageId table_a = kInvalidPage;
  PageId table_b = kInvalidPage;
  PgId pg_b = pg_a;
  for (int i = 0; i < 32 && table_b == kInvalidPage; ++i) {
    const std::string name = "t" + std::to_string(i);
    ASSERT_TRUE(cluster.CreateTableSync(name).ok());
    const PageId anchor = *cluster.TableAnchorSync(name);
    const PgId pg = pg_of(anchor + 1);
    if (pg == pg_a) {
      if (table_a == kInvalidPage) table_a = anchor;
      continue;
    }
    int shared = 0;
    for (sim::NodeId node : cluster.control_plane()->membership(pg).nodes) {
      shared += members_a.IndexOf(node) >= 0 ? 1 : 0;
    }
    if (shared <= 2) {
      table_b = anchor;
      pg_b = pg;
    }
  }
  ASSERT_NE(table_a, kInvalidPage);
  ASSERT_NE(table_b, kInvalidPage);

  std::map<std::pair<PageId, std::string>, std::string> acked;
  for (int i = 0; i < 10; ++i) {
    for (PageId table : {table_a, table_b}) {
      const std::string value = "v" + std::to_string(i);
      ASSERT_TRUE(cluster.PutSync(table, Key(i), value).ok());
      acked[{table, Key(i)}] = value;
    }
  }
  cluster.RunFor(Seconds(1));

  // An open transaction's write makes PG B's leaf the newest CPL, so the
  // VDL the torn MTR leaves behind cuts PG A between two of its records.
  Database* db = cluster.writer();
  const TxnId open_txn = db->Begin();
  bool open_put_done = false;
  db->Put(open_txn, table_b, "open", "uncommitted", [&](Status s) {
    ASSERT_TRUE(s.ok()) << s.ToString();
    open_put_done = true;
  });
  ASSERT_TRUE(cluster.RunUntil(
      [&] { return open_put_done && db->vdl() == db->max_allocated_lsn(); },
      Seconds(5)));
  const Lsn vdl_before = db->vdl();
  const auto newest_at_or_below = [&](PgId pg, Lsn lsn) {
    Lsn newest = kInvalidLsn;
    for (const Segment* seg : live_segments(pg)) {
      for (const InventoryEntry& e : seg->Inventory()) {
        if (e.lsn <= lsn) newest = std::max(newest, e.lsn);
      }
    }
    return newest;
  };
  ASSERT_LT(newest_at_or_below(pg_a, vdl_before), vdl_before);

  ChaosEngine chaos(&cluster);
  chaos.StartChecker();
  const sim::NodeId writer = cluster.writer_node();
  const PgMembership members_b = cluster.control_plane()->membership(pg_b);
  for (sim::NodeId node : members_b.nodes) {
    cluster.network()->SetPartitionedOneWay(writer, node, true);
  }
  const TxnId txn = db->Begin();
  bool put_done = false;
  bool commit_done = false;
  db->Put(txn, table_b, Key(0), "torn", [&](Status s) {
    ASSERT_TRUE(s.ok()) << s.ToString();
    put_done = true;
    db->Commit(txn, [&](Status) { commit_done = true; });
  });
  chaos.Run(Millis(500));
  ASSERT_TRUE(put_done);
  ASSERT_FALSE(commit_done);
  ASSERT_EQ(db->vdl(), vdl_before);

  // The MTR is torn: PG A's half is on a write quorum, and no segment of
  // PG B holds anything above the VDL.
  std::vector<Lsn> torn;
  int a_holding = 0;
  for (const Segment* seg : live_segments(pg_a)) {
    const auto above = seg->RecordsAbove(vdl_before, SIZE_MAX);
    if (above.empty()) continue;
    ++a_holding;
    if (torn.empty()) {
      for (const LogRecord* r : above) torn.push_back(r->lsn);
    }
  }
  EXPECT_GE(a_holding, 4);
  ASSERT_FALSE(torn.empty());
  for (const Segment* seg : live_segments(pg_b)) {
    EXPECT_LE(seg->max_lsn(), vdl_before);
  }

  cluster.CrashWriter();
  for (sim::NodeId node : members_b.nodes) {
    cluster.network()->SetPartitionedOneWay(writer, node, false);
  }
  bool undo_done = false;
  cluster.writer()->set_undo_complete_callback([&] { undo_done = true; });
  ASSERT_TRUE(cluster.RecoverSync().ok());
  ASSERT_TRUE(cluster.RunUntil([&] { return undo_done; }, Seconds(60)));
  db = cluster.writer();
  // Recovery annulled the surviving half everywhere, and the torn write
  // never became visible.
  for (const Segment* seg : live_segments(pg_a)) {
    for (Lsn lsn : torn) EXPECT_FALSE(seg->HasRecord(lsn)) << lsn;
  }
  auto before_torn = cluster.GetSync(table_b, Key(0));
  ASSERT_TRUE(before_torn.ok()) << before_torn.status().ToString();
  const std::string& acked_value = acked[{table_b, Key(0)}];
  EXPECT_EQ(*before_torn, acked_value);

  // The next incarnation writes to both PGs.
  const Lsn incarnation_floor = db->max_allocated_lsn();
  for (int i = 0; i < 10; i += 3) {
    for (PageId table : {table_a, table_b}) {
      const std::string value = "w" + std::to_string(i);
      ASSERT_TRUE(cluster.PutSync(table, Key(i), value).ok());
      acked[{table, Key(i)}] = value;
    }
  }
  chaos.Run(Seconds(1));

  // Every live segment's chain runs through its PG's first record of the
  // new incarnation.
  for (PgId pg : {pg_a, pg_b}) {
    Lsn first_new = kInvalidLsn;
    for (const Segment* seg : live_segments(pg)) {
      const auto above = seg->RecordsAbove(incarnation_floor, 1);
      if (!above.empty() && (first_new == kInvalidLsn ||
                             above.front()->lsn < first_new)) {
        first_new = above.front()->lsn;
      }
    }
    ASSERT_NE(first_new, kInvalidLsn) << "pg " << pg;
    for (const Segment* seg : live_segments(pg)) {
      EXPECT_GE(seg->scl(), first_new) << "pg " << pg;
      EXPECT_FALSE(seg->has_gap()) << "pg " << pg;
    }
  }

  // Every acked row reads back through a cache miss.
  const uint64_t fetches = db->stats().storage_page_reads;
  for (PageId table : {table_a, table_b}) {
    db->buffer_pool()->Discard(table);
    db->buffer_pool()->Discard(table + 1);
  }
  for (const auto& [where, value] : acked) {
    auto got = cluster.GetSync(where.first, where.second);
    ASSERT_TRUE(got.ok()) << where.second << ": " << got.status().ToString();
    EXPECT_EQ(*got, value) << where.second;
  }
  EXPECT_GE(db->stats().storage_page_reads, fetches + 4);
  // The open transaction was rolled back.
  EXPECT_TRUE(cluster.GetSync(table_b, "open").status().IsNotFound());

  chaos.StopChecker();
  const auto& violations = chaos.checker()->violations();
  EXPECT_TRUE(violations.empty())
      << violations.size() << " violation(s), first: " << violations.front();
  EXPECT_GT(chaos.checker()->checks(), 0u);
}

// Regression: Crash() must Cancel() every timer whose closure captures the
// engine — outstanding-batch retries, pending-read timeouts, armed batch
// lingers. The generation guard made late firings harmless, but the loop
// retained the closures (use-after-free risk if the Database is destroyed
// before the loop drains, and unbounded event bookkeeping in long chaos
// runs).
TEST(ChaosCrashCleanupTest, CrashMidFlightCancelsEngineEvents) {
  ClusterOptions o;
  o.engine.page_size = 4096;
  o.engine.pages_per_pg = 64;
  AuroraCluster cluster(o);
  ASSERT_TRUE(cluster.BootstrapSync().ok());
  ASSERT_TRUE(cluster.CreateTableSync("t").ok());
  PageId table = *cluster.TableAnchorSync("t");
  ASSERT_TRUE(cluster.PutSync(table, Key(0), "durable").ok());

  // Kick off a burst of writes and stop mid-flight: batches are pending
  // (linger timers armed) or outstanding (retry timers armed), and page
  // fetches may be waiting on their timeout timers.
  for (int i = 1; i <= 30; ++i) {
    TxnId txn = cluster.writer()->Begin();
    cluster.writer()->Put(txn, table, Key(i), "in-flight", [](Status) {});
  }
  for (int i = 0; i < 40; ++i) cluster.loop()->RunOne();

  const size_t pending_before = cluster.loop()->pending();
  cluster.CrashWriter();
  const size_t pending_after = cluster.loop()->pending();
  // Cancelled events leave the queue immediately instead of lingering
  // until their (generation-guarded) no-op firing.
  EXPECT_LT(pending_after, pending_before);

  // Drain the loop past every would-have-fired timer, then recover: the
  // cluster is fully functional and acked data survived.
  cluster.RunFor(Seconds(5));
  ASSERT_TRUE(cluster.RecoverSync().ok());
  auto got = cluster.GetSync(table, Key(0));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "durable");
  ASSERT_TRUE(cluster.PutSync(table, Key(100), "post-recovery").ok());
}

// Regression for the storage/replica analogue of the engine timer leak:
// Crash() must cancel the background timers that Restart() re-arms, or
// every crash/restart cycle strands another generation of (generation-
// guarded but still queued) no-op events in the loop.
TEST(ChaosCrashCleanupTest, StorageAndReplicaCrashCyclesDoNotGrowPending) {
  ClusterOptions o;
  o.engine.page_size = 4096;
  o.engine.pages_per_pg = 64;
  o.num_replicas = 1;
  AuroraCluster cluster(o);
  ASSERT_TRUE(cluster.BootstrapSync().ok());
  ASSERT_TRUE(cluster.CreateTableSync("t").ok());
  PageId table = *cluster.TableAnchorSync("t");
  ASSERT_TRUE(cluster.PutSync(table, Key(0), "durable").ok());
  cluster.RunFor(Seconds(1));

  StorageNode* sn = cluster.storage_node(0);
  ReadReplica* rep = cluster.replica(0);
  const size_t pending_start = cluster.loop()->pending();
  for (int cycle = 0; cycle < 50; ++cycle) {
    sn->Crash();
    rep->Crash();
    sn->Restart();
    rep->Restart();
  }
  const size_t pending_after = cluster.loop()->pending();
  // Each crash cancels exactly what the restart re-arms (5 storage timers
  // plus the replica's read-point tick). What remains is one queued
  // network delivery per cycle — the read-point report each replica
  // restart emits immediately, drained as soon as the loop runs — so
  // growth stays at ~1 event/cycle. Leaked dead timers would add ~6 more
  // per cycle on top.
  EXPECT_LE(pending_after, pending_start + 50 + 10);

  // The churned node and replica still function.
  cluster.RunFor(Seconds(2));
  auto got = cluster.GetSync(table, Key(0));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "durable");
}

}  // namespace
}  // namespace aurora
