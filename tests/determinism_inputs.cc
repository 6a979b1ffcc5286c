#include "tests/determinism_inputs.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>

#include "harness/bulk_load.h"
#include "harness/client_api.h"
#include "harness/cluster.h"
#include "harness/mysql_cluster.h"
#include "harness/synthetic_table.h"
#include "sim/chaos.h"
#include "sim/event_loop.h"
#include "tests/test_util.h"
#include "workload/sysbench.h"

namespace aurora::testing {
namespace {

/// Writes 40 rows of 300 bytes one by one, then rewrites them all in one
/// transaction and lets purge run. Called right after a writer recovery,
/// when the undo tree is not resident: the first write's MTR misses on it
/// halfway and aborts, restoring the pages it touched. The big
/// transaction's undo records span several leaves, so purging it walks
/// across leaf boundaries. Both paths are then part of the pinned history.
void WriteUndoHeavyTransaction(AuroraCluster* cluster, PageId table) {
  for (int i = 0; i < 40; ++i) {
    EXPECT_TRUE(
        cluster->PutSync(table, Key(100 + i), std::string(300, 'a')).ok());
  }
  Database* db = cluster->writer();
  const TxnId txn = db->Begin();
  for (int i = 0; i < 40; ++i) {
    bool done = false;
    db->Put(txn, table, Key(100 + i), std::string(300, 'b'), [&](Status s) {
      EXPECT_TRUE(s.ok());
      done = true;
    });
    EXPECT_TRUE(cluster->RunUntil([&] { return done; }, Seconds(30)));
  }
  bool committed = false;
  db->Commit(txn, [&](Status s) {
    EXPECT_TRUE(s.ok());
    committed = true;
  });
  EXPECT_TRUE(cluster->RunUntil([&] { return committed; }, Seconds(30)));
  cluster->RunFor(Seconds(1));
}

// The "free:" entries on the baseline's allocator page (page 0, pinned).
int MysqlFreePages(MysqlCluster* cluster) {
  Result<Page*> meta = cluster->db()->GetPage(0);
  EXPECT_TRUE(meta.ok());
  if (!meta.ok()) return -1;
  int n = 0;
  for (int slot = (*meta)->LowerBound("free:"); slot < (*meta)->slot_count();
       ++slot) {
    if (!(*meta)->KeyAt(slot).starts_with("free:")) break;
    ++n;
  }
  return n;
}

Status MysqlDeleteSync(MysqlCluster* cluster, PageId table,
                       const std::string& key) {
  baseline::MirroredMySql* db = cluster->db();
  Status result = Status::TimedOut("delete did not finish");
  bool done = false;
  const TxnId txn = db->Begin();
  db->Delete(txn, table, key, [&](Status s) {
    if (!s.ok()) {
      result = s;
      done = true;
      return;
    }
    db->Commit(txn, [&](Status cs) {
      result = cs;
      done = true;
    });
  });
  EXPECT_TRUE(cluster->RunUntil([&] { return done; }, Seconds(60)));
  return result;
}

// Fills a B+-tree table with about 60 leaves of 200-byte rows, more than
// the pool holds, deletes a key range whose emptied leaves are unlinked and
// listed free, then inserts keys past the end of the table that take them
// back. Records every acked row in `acked`; returns the table.
PageId FillDeleteAndRefill(MysqlCluster* cluster,
                           std::map<std::string, std::string>* acked) {
  EXPECT_TRUE(cluster->CreateTableSync("t").ok());
  const PageId table = *cluster->TableAnchorSync("t");
  const std::string row(200, 'r');
  for (int i = 0; i < 1000; ++i) {
    if (cluster->PutSync(table, Key(i), row).ok()) (*acked)[Key(i)] = row;
  }
  for (int i = 200; i < 600; ++i) {
    if (MysqlDeleteSync(cluster, table, Key(i)).ok()) acked->erase(Key(i));
  }
  const int freed = MysqlFreePages(cluster);
  EXPECT_GT(freed, 0);
  for (int i = 0; i < 200; ++i) {
    const std::string value = "n" + std::to_string(i);
    if (cluster->PutSync(table, Key(5000 + i), value).ok()) {
      (*acked)[Key(5000 + i)] = value;
    }
  }
  EXPECT_LT(MysqlFreePages(cluster), freed);
  return table;
}

// The cluster both MySQL inputs run on: seeded, with one binlog replica and
// a 48-page buffer pool, so checkpoints run and misses stall on dirty
// evictions.
MysqlClusterOptions MysqlInputOptions(uint64_t seed) {
  MysqlClusterOptions o;
  o.seed = seed;
  o.num_binlog_replicas = 1;
  o.mysql.engine.page_size = 4096;
  o.mysql.engine.buffer_pool_pages = 48;
  o.mysql.checkpoint_interval = Millis(100);
  return o;
}

// Preloads a table of `sopts.table_rows` rows into `catalog`, which must
// outlive the cluster's reads of it, and runs SysBench on it in 100 ms
// metric windows. Checks that transactions committed and that the pool
// checkpointed and stalled on dirty evictions. Returns the serialized
// windows.
std::string RunMysqlSysbench(MysqlCluster* cluster, SyntheticCatalog* catalog,
                             const SysbenchOptions& sopts) {
  auto layout = AttachSyntheticTableMysql(cluster, catalog, "sbtest",
                                          sopts.table_rows, 100);
  EXPECT_TRUE(layout.ok());
  std::string out;
  if (layout.ok()) {
    MysqlClient client(cluster->db());
    SysbenchDriver driver(cluster->writer_loop(), &client,
                          (*layout)->anchor(), sopts);
    driver.EnableIntervalMetrics(cluster->metrics(), Millis(100),
                                 cluster->loop()->control());
    bool done = false;
    driver.Run([&] { done = true; });
    EXPECT_TRUE(cluster->RunUntil([&] { return done; }, Minutes(5)));
    EXPECT_GT(driver.results().txns, 0u);
    for (const MetricsSnapshot& w : driver.metric_windows()) {
      out += w.ToJson();
      out += '\n';
    }
  }
  EXPECT_GT(cluster->db()->stats().checkpoints, 0u);
  EXPECT_GT(cluster->db()->stats().dirty_evict_stalls, 0u);
  return out;
}

// Idles 1 s, then returns the final metrics dump and the executed-event
// count.
std::string MysqlFinalDump(MysqlCluster* cluster) {
  cluster->RunFor(Seconds(1));
  return cluster->DumpMetricsJson() + "\nevents_executed=" +
         std::to_string(cluster->loop()->events_executed()) + "\n";
}

}  // namespace

std::pair<std::string, uint64_t> RunSeededWorkload(uint64_t seed,
                                                   bool adversary,
                                                   int sim_shards) {
  ClusterOptions o;
  o.seed = seed;
  o.sim_shards = sim_shards;
  o.engine.page_size = 4096;
  o.engine.pages_per_pg = 64;
  o.engine.buffer_pool_pages = 512;
  o.storage_nodes_per_az = 3;
  o.num_replicas = 1;
  o.repair.detection_threshold = Seconds(2);
  AuroraCluster cluster(o);
  EXPECT_TRUE(cluster.BootstrapSync().ok());
  EXPECT_TRUE(cluster.CreateTableSync("t").ok());
  PageId table = *cluster.TableAnchorSync("t");

  Random rng(seed * 131 + 7);
  ChaosEngine chaos(&cluster);
  if (adversary) {
    AdversaryConfig cfg;
    cfg.drop_probability = 0.02;
    cfg.duplicate_probability = 0.05;
    cfg.reorder_window = Millis(2);
    cfg.corrupt_probability = 0.001;
    chaos.SetAdversary(cfg);
  } else {
    cluster.network()->set_drop_probability(0.01);
  }
  std::map<std::string, std::string> acked;
  for (int round = 0; round < 3; ++round) {
    if (round == 1) {
      cluster.failure_injector()->FailAz(static_cast<sim::AzId>(1),
                                         Seconds(1));
    }
    if (round == 2) {
      cluster.failure_injector()->CrashNode(cluster.storage_node(0)->id(),
                                            Seconds(1));
    }
    for (int i = 0; i < 20; ++i) {
      std::string key = Key(rng.Uniform(64));
      std::string value = "v" + std::to_string(round * 100 + i);
      if (cluster.PutSync(table, key, value).ok()) acked[key] = value;
    }
    cluster.RunFor(Millis(300));
  }
  chaos.ClearAdversary();
  cluster.CrashWriter();
  EXPECT_TRUE(cluster.RecoverSync().ok());
  cluster.RunFor(Seconds(2));
  for (const auto& [key, value] : acked) {
    auto got = cluster.GetSync(table, key);
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(*got, value);
    }
  }
  // The same keys through the replica: its cache-miss fetches (routing,
  // retries, install, waiter wake-up) are part of the pinned history too.
  for (const auto& [key, value] : acked) {
    auto got = cluster.ReplicaGetSync(0, table, key);
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(*got, value);
    }
  }
  WriteUndoHeavyTransaction(&cluster, table);
  return {cluster.DumpMetricsJson(), cluster.loop()->events_executed()};
}

std::pair<std::string, uint64_t> RunRepairScrubWorkload(uint64_t seed,
                                                        int sim_shards) {
  ClusterOptions o;
  o.seed = seed;
  o.sim_shards = sim_shards;
  o.engine.page_size = 4096;
  o.engine.pages_per_pg = 64;
  o.engine.buffer_pool_pages = 512;
  o.storage_nodes_per_az = 4;
  o.repair.detection_threshold = Seconds(1);
  o.repair.chunk_bytes = 2048;
  o.storage.scrub_interval = Seconds(1);
  o.storage.disk.torn_write_probability = 0.02;
  o.storage.disk.latent_corruption_probability = 0.05;
  AuroraCluster cluster(o);
  EXPECT_TRUE(cluster.BootstrapSync().ok());
  EXPECT_TRUE(cluster.CreateTableSync("t").ok());
  PageId table = *cluster.TableAnchorSync("t");

  Random rng(seed * 131 + 7);
  ChaosEngine chaos(&cluster);
  AdversaryConfig cfg;
  cfg.drop_probability = 0.02;
  cfg.duplicate_probability = 0.05;
  cfg.reorder_window = Millis(2);
  cfg.corrupt_probability = 0.001;
  chaos.SetAdversary(cfg);
  std::map<std::string, std::string> acked;
  for (int round = 0; round < 3; ++round) {
    if (round == 1) {
      // Permanent loss: the repair state machine (chunked transfer, chunk
      // timeouts, possibly donor failover) runs under the adversary.
      cluster.failure_injector()->CrashNode(cluster.storage_node(0)->id(), 0);
    }
    for (int i = 0; i < 20; ++i) {
      std::string key = Key(rng.Uniform(64));
      std::string value = "v" + std::to_string(round * 100 + i);
      if (cluster.PutSync(table, key, value).ok()) acked[key] = value;
    }
    cluster.RunFor(Seconds(1));  // scrub rounds + repair progress
  }
  cluster.RunFor(Seconds(3));
  chaos.ClearAdversary();
  for (const auto& [key, value] : acked) {
    auto got = cluster.GetSync(table, key);
    EXPECT_TRUE(got.ok());
    if (got.ok()) {
      EXPECT_EQ(*got, value);
    }
  }
  cluster.CrashWriter();
  EXPECT_TRUE(cluster.RecoverSync().ok());
  WriteUndoHeavyTransaction(&cluster, table);
  return {cluster.DumpMetricsJson(), cluster.loop()->events_executed()};
}

std::string RunWindowedSysbench(int sim_shards, bool contended,
                                LockManager::Stats* lock_stats) {
  ClusterOptions o;
  o.seed = 7;
  o.sim_shards = sim_shards;
  o.engine.page_size = 4096;
  o.engine.pages_per_pg = 64;
  o.engine.buffer_pool_pages = 512;
  o.storage_nodes_per_az = 3;
  AuroraCluster cluster(o);
  EXPECT_TRUE(cluster.BootstrapSync().ok());
  const uint64_t rows = contended ? 3000 : 4000;
  SyntheticCatalog catalog;
  auto layout = AttachSyntheticTable(&cluster, &catalog, "sbtest", rows, 100);
  EXPECT_TRUE(layout.ok());
  AuroraClient client(cluster.writer());
  SysbenchOptions sopts;
  sopts.mode = SysbenchOptions::Mode::kOltp;
  sopts.connections = 8;
  sopts.table_rows = rows;
  sopts.duration = Millis(600);
  sopts.warmup = Millis(200);
  if (contended) {
    sopts.connections = 96;
    sopts.zipf_theta = 0.9;
    sopts.point_selects = 4;
    sopts.index_updates = 4;
  }
  SysbenchDriver driver(cluster.writer_loop(), &client, (*layout)->anchor(),
                        sopts);
  driver.EnableIntervalMetrics(cluster.metrics(), Millis(100),
                               cluster.loop()->control());
  bool done = false;
  driver.Run([&] { done = true; });
  EXPECT_TRUE(cluster.RunUntil([&] { return done; }, Minutes(5)));
  EXPECT_GE(driver.metric_windows().size(), 6u);
  std::string out;
  for (const MetricsSnapshot& w : driver.metric_windows()) {
    out += w.ToJson();
    out += '\n';
  }
  cluster.CrashWriter();
  EXPECT_TRUE(cluster.RecoverSync().ok());
  WriteUndoHeavyTransaction(&cluster, (*layout)->anchor());
  out += cluster.DumpMetricsJson();
  out += "\nevents_executed=" +
         std::to_string(cluster.loop()->events_executed()) + "\n";
  if (lock_stats != nullptr) {
    *lock_stats = cluster.writer()->lock_manager()->stats();
  }
  return out;
}

std::string RunReadMissSysbench(int sim_shards, uint64_t* fetches,
                                PageCacheStats* cache) {
  constexpr uint64_t kRows = 4000;
  constexpr size_t kPageSize = 4096;
  ClusterOptions o;
  o.seed = 11;
  o.sim_shards = sim_shards;
  o.engine.page_size = kPageSize;
  o.engine.pages_per_pg = 64;
  o.engine.buffer_pool_pages =
      SyntheticTableLayout(0, kRows, kPageSize, 100).page_count() / 3;
  o.storage_nodes_per_az = 3;
  o.storage.page_cache_budget_bytes = 16 * kPageSize;
  AuroraCluster cluster(o);
  EXPECT_TRUE(cluster.BootstrapSync().ok());
  SyntheticCatalog catalog;
  auto layout = AttachSyntheticTable(&cluster, &catalog, "sbtest", kRows, 100);
  EXPECT_TRUE(layout.ok());
  AuroraClient client(cluster.writer());
  SysbenchOptions sopts;
  sopts.mode = SysbenchOptions::Mode::kOltp;
  sopts.connections = 8;
  sopts.table_rows = kRows;
  sopts.duration = Millis(500);
  sopts.warmup = Millis(100);
  SysbenchDriver driver(cluster.writer_loop(), &client, (*layout)->anchor(),
                        sopts);
  driver.EnableIntervalMetrics(cluster.metrics(), Millis(100),
                               cluster.loop()->control());
  bool done = false;
  driver.Run([&] { done = true; });
  EXPECT_TRUE(cluster.RunUntil([&] { return done; }, Minutes(5)));
  std::string out;
  for (const MetricsSnapshot& w : driver.metric_windows()) {
    out += w.ToJson();
    out += '\n';
  }
  out += cluster.DumpMetricsJson();
  out += "\nevents_executed=" +
         std::to_string(cluster.loop()->events_executed()) + "\n";
  if (fetches != nullptr) {
    *fetches = cluster.writer()->stats().storage_page_reads;
  }
  if (cache != nullptr) {
    *cache = PageCacheStats();
    for (size_t i = 0; i < cluster.num_storage_nodes(); ++i) {
      const PageCacheStats s = cluster.storage_node(i)->PageCacheTotals();
      cache->hits += s.hits;
      cache->partial_hits += s.partial_hits;
      cache->misses += s.misses;
      cache->evictions += s.evictions;
    }
  }
  return out;
}

std::string RunMysqlWorkload(uint64_t seed) {
  MysqlCluster cluster(MysqlInputOptions(seed));
  EXPECT_TRUE(cluster.BootstrapSync().ok());
  std::map<std::string, std::string> acked;
  const PageId table = FillDeleteAndRefill(&cluster, &acked);

  SysbenchOptions sopts;
  sopts.mode = SysbenchOptions::Mode::kOltp;
  sopts.connections = 8;
  sopts.table_rows = 2000;
  sopts.duration = Millis(400);
  sopts.warmup = Millis(100);
  sopts.seed = seed;
  SyntheticCatalog catalog;
  std::string out = RunMysqlSysbench(&cluster, &catalog, sopts);

  cluster.db()->Crash();
  EXPECT_TRUE(cluster.RecoverSync().ok());
  for (const auto& [key, value] : acked) {
    auto got = cluster.GetSync(table, key);
    EXPECT_TRUE(got.ok()) << key;
    if (got.ok()) {
      EXPECT_EQ(*got, value) << key;
    }
  }
  EXPECT_TRUE(cluster.GetSync(table, Key(300)).status().IsNotFound());
  return out + MysqlFinalDump(&cluster);
}

std::string RunMysqlContended(uint64_t seed) {
  MysqlCluster cluster(MysqlInputOptions(seed));
  EXPECT_TRUE(cluster.BootstrapSync().ok());

  SysbenchOptions sopts;
  sopts.mode = SysbenchOptions::Mode::kOltp;
  sopts.connections = 96;
  sopts.table_rows = 3000;
  sopts.duration = Millis(600);
  sopts.warmup = Millis(200);
  sopts.seed = seed;
  sopts.zipf_theta = 0.9;
  sopts.point_selects = 4;
  sopts.index_updates = 4;
  SyntheticCatalog catalog;
  std::string out = RunMysqlSysbench(&cluster, &catalog, sopts);
  // Deadlock victims roll back at once, so no waiter sits out the lock
  // timeout behind one.
  const LockManager::Stats& locks = cluster.db()->lock_manager()->stats();
  EXPECT_GT(locks.deadlocks, 0u);
  EXPECT_EQ(locks.timeouts, 0u);

  cluster.db()->Crash();
  EXPECT_TRUE(cluster.RecoverSync().ok());
  return out + MysqlFinalDump(&cluster);
}

}  // namespace aurora::testing
