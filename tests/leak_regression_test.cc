// LSan-backed regression tests for the historical self-referential
// shared_ptr closure cycles (the aurora-L2 rule's subjects). Each test
// tears the world down *mid-flight* — while the weak-step/weak-self
// closures are still scheduled — and relies on the sanitize CI job
// (ASAN_OPTIONS=detect_leaks=1) to fail the run if any closure chain pins
// itself: a strong self-capture in any of these paths turns into a leaked
// shared_ptr<std::function> the moment the loop is destroyed under it.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "harness/client_api.h"
#include "harness/cluster.h"
#include "harness/mysql_cluster.h"
#include "tests/test_util.h"
#include "workload/tpcc.h"

namespace aurora {
namespace {

ClusterOptions TinyCluster() {
  ClusterOptions o;
  o.engine.page_size = 4096;
  o.engine.pages_per_pg = 64;
  o.engine.buffer_pool_pages = 1024;
  o.storage_nodes_per_az = 2;
  return o;
}

TpccTables MakeTables(AuroraCluster* cluster) {
  TpccTables t;
  auto make = [cluster](const char* name, PageId* out) {
    EXPECT_TRUE(cluster->CreateTableSync(name).ok());
    *out = *cluster->TableAnchorSync(name);
  };
  make("wh", &t.warehouse);
  make("di", &t.district);
  make("cu", &t.customer);
  make("st", &t.stock);
  make("or", &t.orders);
  return t;
}

// tpcc.cc Load(): `step` is a make_shared<std::function> whose closure must
// hold itself only weakly (the in-flight Put/Commit continuation carries
// the strong reference). Destroying the driver and cluster mid-load frees
// everything iff that idiom holds.
TEST(LeakRegressionTest, TpccLoadTeardownMidFlight) {
  auto cluster = std::make_unique<AuroraCluster>(TinyCluster());
  ASSERT_TRUE(cluster->BootstrapSync().ok());
  TpccTables tables = MakeTables(cluster.get());

  AuroraClient client(cluster->writer());
  TpccOptions opts;
  opts.warehouses = 4;
  opts.connections = 4;
  auto driver = std::make_unique<TpccDriver>(cluster->writer_loop(), &client,
                                             tables, opts);
  bool load_done = false;
  driver->Load([&](Status) { load_done = true; });
  cluster->RunFor(Millis(5));  // part-way through the row loads
  ASSERT_FALSE(load_done);
  driver.reset();
  cluster.reset();  // LSan: nothing may survive this
}

// tpcc.cc NewOrder(): the per-order `line` chain uses the same weak idiom.
// Run full transactions briefly, then tear down with orders in flight.
TEST(LeakRegressionTest, TpccRunTeardownMidTransactions) {
  auto cluster = std::make_unique<AuroraCluster>(TinyCluster());
  ASSERT_TRUE(cluster->BootstrapSync().ok());
  TpccTables tables = MakeTables(cluster.get());

  AuroraClient client(cluster->writer());
  TpccOptions opts;
  opts.warehouses = 2;
  opts.connections = 8;
  opts.warmup = Millis(1);
  opts.duration = Seconds(30);  // far beyond the window we run
  auto driver = std::make_unique<TpccDriver>(cluster->writer_loop(), &client,
                                             tables, opts);
  Status load_status = Status::Busy("pending");
  driver->Load([&](Status s) { load_status = s; });
  ASSERT_TRUE(cluster->RunUntil([&] { return !load_status.IsBusy(); },
                                Seconds(60)));
  ASSERT_TRUE(load_status.ok());
  driver->Run([] {});
  cluster->RunFor(Millis(50));  // NewOrder line chains in flight
  driver.reset();
  cluster.reset();
}

// database.cc ZeroDowntimePatch(): `wait_quiet` must hold itself weakly
// while the 1ms quiesce retry is pending. Hold a transaction open so the
// engine never quiesces, then destroy the cluster mid-wait.
TEST(LeakRegressionTest, ZdpQuiesceTeardownMidWait) {
  auto cluster = std::make_unique<AuroraCluster>(TinyCluster());
  ASSERT_TRUE(cluster->BootstrapSync().ok());
  ASSERT_TRUE(cluster->CreateTableSync("t").ok());
  PageId table = *cluster->TableAnchorSync("t");

  Database* db = cluster->writer();
  TxnId txn = db->Begin();
  Status put_status = Status::Busy("pending");
  db->Put(txn, table, "k", "v", [&](Status s) { put_status = s; });
  ASSERT_TRUE(cluster->RunUntil([&] { return !put_status.IsBusy(); },
                                Seconds(10)));
  ASSERT_TRUE(put_status.ok());

  bool patched = false;
  db->ZeroDowntimePatch(Millis(10), [&](Status) { patched = true; });
  cluster->RunFor(Millis(50));  // retrying every 1ms behind the open txn
  ASSERT_FALSE(patched);
  cluster.reset();
}

// mirrored_mysql.cc Recover(): the WAL-replay `read_next` closure walks
// the log via the weak idiom; tear down while replay is in progress.
TEST(LeakRegressionTest, MysqlRecoveryTeardownMidReplay) {
  auto cluster = std::make_unique<MysqlCluster>(MysqlClusterOptions{});
  ASSERT_TRUE(cluster->BootstrapSync().ok());
  ASSERT_TRUE(cluster->CreateTableSync("t").ok());
  PageId table = *cluster->TableAnchorSync("t");
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        cluster->PutSync(table, testing::Key(i), std::string(200, 'x')).ok());
  }
  cluster->db()->Crash();
  bool recovered = false;
  cluster->db()->Recover([&](Status) { recovered = true; });
  cluster->RunFor(Micros(500));  // mid-replay
  ASSERT_FALSE(recovered);
  cluster.reset();
}

// The MySQL baseline's rollback (Transactions::Rollback, which replaced its
// weak-self `undo_next` chain) un-applies writes one at a time, each step
// waiting in the baseline's EBS retry loop; tear down while it runs.
TEST(LeakRegressionTest, MysqlRollbackTeardownMidUndo) {
  // A tiny buffer pool forces the undo chain to fetch evicted pages from
  // EBS, keeping the rollback asynchronous long enough to tear down under
  // it (with everything resident the whole chain completes inline — a
  // 4-page pool against a ~30-leaf btree guarantees misses).
  MysqlClusterOptions opts;
  opts.mysql.engine.buffer_pool_pages = 4;
  auto cluster = std::make_unique<MysqlCluster>(opts);
  ASSERT_TRUE(cluster->BootstrapSync().ok());
  ASSERT_TRUE(cluster->CreateTableSync("t").ok());
  PageId table = *cluster->TableAnchorSync("t");

  baseline::MirroredMySql* db = cluster->db();
  TxnId txn = db->Begin();
  int writes_done = 0;
  constexpr int kWrites = 200;
  for (int i = 0; i < kWrites; ++i) {
    db->Put(txn, table, testing::Key(i), std::string(500, 'u'),
            [&](Status) { ++writes_done; });
  }
  ASSERT_TRUE(cluster->RunUntil([&] { return writes_done == kWrites; },
                                Seconds(30)));
  // Let checkpoints flush the txn's pages clean: dirty pages are
  // evict-vetoed, so until they flush the whole btree stays resident and
  // the undo chain would complete inline despite the tiny pool.
  cluster->RunFor(Seconds(5));
  bool rolled_back = false;
  db->Rollback(txn, [&](Status) { rolled_back = true; });
  cluster->RunFor(Micros(200));  // part-way down the undo chain
  ASSERT_FALSE(rolled_back);
  cluster.reset();
}

// database.cc Recover(): quorum recovery schedules truncate resends and
// epoch bumps that capture engine state; destroy mid-recovery.
TEST(LeakRegressionTest, AuroraRecoverTeardownMidRecovery) {
  auto cluster = std::make_unique<AuroraCluster>(TinyCluster());
  ASSERT_TRUE(cluster->BootstrapSync().ok());
  ASSERT_TRUE(cluster->CreateTableSync("t").ok());
  PageId table = *cluster->TableAnchorSync("t");
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster->PutSync(table, testing::Key(i), "v").ok());
  }
  cluster->writer()->Crash();
  bool recovered = false;
  cluster->writer()->Recover([&](Status) { recovered = true; });
  cluster->RunFor(Micros(100));  // recovery messages in flight
  ASSERT_FALSE(recovered);
  cluster.reset();
}

}  // namespace
}  // namespace aurora
