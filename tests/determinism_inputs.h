#ifndef AURORA_TESTS_DETERMINISM_INPUTS_H_
#define AURORA_TESTS_DETERMINISM_INPUTS_H_

#include <cstdint>
#include <string>
#include <utility>

#include "engine/lock_manager.h"
#include "storage/segment.h"

// The seeded whole-cluster inputs that determinism_test runs twice or at
// several worker counts, and golden_test runs once against checked-in
// outputs. Each checks its own client-visible results with gtest
// assertions as it runs.

namespace aurora::testing {

/// Runs one fixed seeded workload — bootstrap, chaos (drops + AZ failure +
/// node crash, which exercise Cancel() heavily), writer crash + recovery,
/// then WriteUndoHeavyTransaction — and returns the full metrics dump plus
/// the executed-event count. With `adversary` set, the fabric additionally
/// duplicates, reorders and corrupts frames (all drawn from the seeded
/// network RNG).
std::pair<std::string, uint64_t> RunSeededWorkload(uint64_t seed,
                                                   bool adversary = false,
                                                   int sim_shards = 1);

/// The robustness surface in one pot: chunked repair (permanent node
/// loss), the scrubber racing latent disk corruption and torn writes, and
/// the fabric adversary — all of whose retry/failover/read-repair decisions
/// draw from seeded RNG streams — then a writer crash + recovery and
/// WriteUndoHeavyTransaction. Returns the metrics dump + event count.
std::pair<std::string, uint64_t> RunRepairScrubWorkload(uint64_t seed,
                                                        int sim_shards);

/// A short sysbench run with 100 ms interval-windowed metrics, returning
/// every window serialized, then the final metrics dump and the
/// executed-event count. Windows are snapshotted from the control shard
/// (a barrier-consistent global cut), so the whole time series — not just
/// the final dump — must be byte-identical at any worker count. A
/// shard-local snapshot would read other shards' counters at an
/// execution-order-dependent point and fail this under workers > 1.
///
/// `contended` switches to a skewed mix that drives the lock queues (waits,
/// grants on release, deadlock victims, timeouts); `lock_stats` receives
/// the writer's lock counters. After the run, a writer crash + recovery and
/// WriteUndoHeavyTransaction land in the final dump.
std::string RunWindowedSysbench(int sim_shards, bool contended = false,
                                LockManager::Stats* lock_stats = nullptr);

/// Fig. 9's read path in small: the writer's pool holds about a third of
/// the table's pages, so most selects fetch a page from storage, and each
/// segment's reconstruction cache holds 16 pages, so storage serves full
/// hits, partial hits (the updates run beside the reads) and misses, and
/// evicts. Returns the serialized interval windows, the final metrics dump
/// and the executed-event count; `fetches` and `cache` (both nullable)
/// receive the writer's storage fetches and the fleet's cache counters.
std::string RunReadMissSysbench(int sim_shards, uint64_t* fetches = nullptr,
                                PageCacheStats* cache = nullptr);

/// The mirrored-MySQL baseline behind every MySQL row of the paper's
/// tables and figures: a seeded MysqlCluster with one binlog replica and a
/// 48-page buffer pool, so checkpoints run and misses stall on dirty
/// evictions. It fills a B+-tree table, deletes a key range whose emptied
/// leaves go to the free list and inserts rows that take them back, runs a
/// SysBench OLTP mix on a preloaded table in 100 ms metric windows, crashes
/// and runs ARIES recovery, and reads every acked key back. Returns the
/// serialized windows, the final metrics dump and the executed-event count.
std::string RunMysqlWorkload(uint64_t seed);

/// The same cluster, without the B+-tree table, under RunWindowedSysbench's
/// contended mix (96 connections, Zipf 0.9, 4 selects and 4 updates on
/// 3,000 rows), whose deadlock victims drive the engine's lock-failure
/// rollback; checks that no lock wait times out. Crashes and recovers over
/// the rolled-back transactions' log, then returns what RunMysqlWorkload
/// returns.
std::string RunMysqlContended(uint64_t seed);

}  // namespace aurora::testing

#endif  // AURORA_TESTS_DETERMINISM_INPUTS_H_
