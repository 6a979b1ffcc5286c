#ifndef AURORA_HARNESS_CLUSTER_H_
#define AURORA_HARNESS_CLUSTER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "engine/database.h"
#include "engine/replica.h"
#include "quorum/quorum.h"
#include "sim/event_loop.h"
#include "sim/failure_injector.h"
#include "sim/sharded_loop.h"
#include "sim/instance.h"
#include "sim/network.h"
#include "sim/topology.h"
#include "storage/control_plane.h"
#include "storage/repair.h"
#include "storage/sim_s3.h"
#include "storage/storage_node.h"

namespace aurora {

/// Everything needed to stand up an Aurora cluster (Figure 5) inside one
/// deterministic simulation: a region with three AZs, a storage fleet, the
/// single writer, optional read replicas, S3, the control plane, the repair
/// manager and a failure injector.
/// Counters written by chaos tooling (sim/chaos.h). Owned by the cluster so
/// that chaos.* metrics are registered for the cluster's whole lifetime and
/// appear (as zeros) even in runs that never construct a ChaosEngine —
/// keeping DumpMetricsJson()'s key set identical across configurations.
struct ChaosCounters {
  uint64_t invariant_checks = 0;
  uint64_t invariant_violations = 0;
  uint64_t actions_executed = 0;

  /// Every member once, under its exported metric name.
  template <typename F>
  static constexpr void Fields(F f) {
    using S = ChaosCounters;
    f("invariant_checks", &S::invariant_checks);
    f("invariant_violations", &S::invariant_violations);
    f("actions_executed", &S::actions_executed);
  }
};

struct ClusterOptions {
  int storage_nodes_per_az = 4;
  int num_replicas = 0;
  sim::InstanceOptions writer_instance = sim::R38XLarge();
  EngineOptions engine;
  StorageNodeOptions storage;
  sim::FabricOptions fabric;
  RepairOptions repair;
  bool start_repair_manager = true;
  uint64_t seed = 42;
  /// Worker threads driving the per-AZ simulation shards (PDES, DESIGN.md
  /// §11). Purely an execution knob: results are byte-identical for any
  /// value. 1 = serial; clamped to [1, 3], one per AZ shard.
  int sim_shards = 1;
};

class AuroraCluster {
 public:
  explicit AuroraCluster(ClusterOptions options);
  ~AuroraCluster();

  AuroraCluster(const AuroraCluster&) = delete;
  AuroraCluster& operator=(const AuroraCluster&) = delete;

  sim::ShardedEventLoop* loop() { return &loop_; }
  /// The event loop of the shard the current writer is homed on — drivers
  /// and client closures that call the writer engine directly must schedule
  /// here. Re-resolve after a failover: promotion moves the writer to the
  /// promoted replica's AZ shard.
  sim::EventLoop* writer_loop() {
    return loop_.shard(topology_.az_of(writer_node_));
  }
  sim::Network* network() { return network_.get(); }
  sim::Topology* topology() { return &topology_; }
  ControlPlane* control_plane() { return control_plane_.get(); }
  RepairManager* repair_manager() { return repair_.get(); }
  sim::FailureInjector* failure_injector() { return injector_.get(); }
  SimS3* s3() { return s3_.get(); }

  Database* writer() { return writer_.get(); }
  sim::Instance* writer_instance() { return writer_instance_.get(); }
  sim::NodeId writer_node() const { return writer_node_; }

  /// The live read replicas in creation order. A failover or promotion
  /// removes the promoted one and closes the gap, so `replica(i)` may then
  /// be another replica; metric names do not shift: `replica.r<N>.*` names
  /// the replica created N-th (from 0), which was `replica(N)` until then.
  size_t num_replicas() const { return replicas_.size(); }
  ReadReplica* replica(size_t i) { return replicas_[i].get(); }

  size_t num_storage_nodes() const { return storage_nodes_.size(); }
  StorageNode* storage_node(size_t i) { return storage_nodes_[i].get(); }
  StorageNode* storage_node_by_id(sim::NodeId id);

  /// Crashes/restarts the writer instance (volatile state lost).
  void CrashWriter();

  /// Fails over to live read replica `i` (as `replica(i)` indexes them;
  /// this removes it from that list) ("failovers to replicas without loss
  /// of data", abstract): the replica's host becomes the new writer, runs
  /// quorum recovery against the shared volume (no redo replay — the
  /// storage service already has everything durable), and the remaining
  /// replicas re-attach to it. Returns the recovery status; every
  /// previously acknowledged commit is preserved.
  Status FailoverToReplicaSync(size_t i);

  /// Split-brain variant of FailoverToReplicaSync: promotes replica `i`
  /// WITHOUT crashing or unhooking the old writer, which keeps running as a
  /// zombie that does not know it has been superseded. Recovery on the
  /// promoted engine bumps the volume epoch, so the zombie is fenced by
  /// storage (kFenced NAK) the moment one of its write batches next lands.
  /// The retired engine stays reachable via retired_writer() for
  /// assertions.
  Status PromoteReplicaSync(size_t i);

  size_t num_retired_writers() const { return retired_writers_.size(); }
  /// Engines retired by failover/promotion, oldest first.
  Database* retired_writer(size_t i) { return retired_writers_.at(i).get(); }

  // --- Synchronous helpers (run the event loop until completion) ----------
  /// Bootstraps a fresh volume.
  Status BootstrapSync();
  /// Recovers an existing volume after CrashWriter().
  Status RecoverSync();
  Status CreateTableSync(const std::string& name);
  Result<PageId> TableAnchorSync(const std::string& name);
  /// One autocommit write.
  Status PutSync(PageId table, const std::string& key,
                 const std::string& value);
  Result<std::string> GetSync(PageId table, const std::string& key);
  Status DeleteSync(PageId table, const std::string& key);
  /// A read on live replica `replica`, indexed as `replica(i)` is: after
  /// a failover, not the replica `replica.r<replica>.*` names.
  Result<std::string> ReplicaGetSync(size_t replica, PageId table,
                                     const std::string& key);

  /// Runs the loop until `pred` holds or `max` sim-time elapses; returns
  /// whether the predicate held.
  bool RunUntil(std::function<bool()> pred, SimDuration max);
  /// Runs the loop for a fixed duration.
  void RunFor(SimDuration d) { loop_.RunFor(d); }

  // --- Observability -------------------------------------------------------
  /// The unified metrics registry: every component's counters, gauges and
  /// histograms under one hierarchical namespace (engine.*, replica.*,
  /// storage.*, net.*, repair.*, s3.*, sim.*). Registered readers indirect
  /// through the cluster, so they stay valid across writer failover.
  MetricsRegistry* metrics() { return &metrics_; }
  /// One machine-readable JSON document with every metric in the cluster.
  std::string DumpMetricsJson() {
    EnsurePgMetricsRegistered();
    return metrics_.ToJson();
  }

  /// Counters the chaos tooling (ChaosEngine / InvariantChecker) writes
  /// into; surfaced as chaos.* in the metrics registry.
  ChaosCounters* chaos_counters() { return &chaos_counters_; }

 private:
  void RegisterAllMetrics();
  /// Registers storage.pgN.{scl_spread,hole_depth,backup_lag} gauges for
  /// protection groups created since the last call (PGs appear lazily as
  /// the writer grows the volume, so this runs before every dump).
  void EnsurePgMetricsRegistered();
  ClusterOptions options_;
  sim::ShardedEventLoop loop_;
  sim::Topology topology_;
  std::unique_ptr<sim::Network> network_;
  std::unique_ptr<ControlPlane> control_plane_;
  std::unique_ptr<SimS3> s3_;
  std::unique_ptr<sim::FailureInjector> injector_;
  std::unique_ptr<RepairManager> repair_;

  sim::NodeId writer_node_ = sim::kInvalidNode;
  std::unique_ptr<sim::Instance> writer_instance_;
  std::unique_ptr<Database> writer_;

  std::vector<std::unique_ptr<sim::Instance>> replica_instances_;
  std::vector<std::unique_ptr<ReadReplica>> replicas_;
  std::vector<std::unique_ptr<StorageNode>> storage_nodes_;
  /// Engines retired by failover. They stay allocated because scheduled
  /// simulation timers capture raw `this` pointers; their generation
  /// guards make every late firing a no-op.
  std::vector<std::unique_ptr<Database>> retired_writers_;
  std::vector<std::unique_ptr<ReadReplica>> retired_replicas_;

  ChaosCounters chaos_counters_;
  MetricsRegistry metrics_;
  /// First PgId not yet covered by EnsurePgMetricsRegistered().
  PgId next_pg_metric_ = 0;
};

}  // namespace aurora

#endif  // AURORA_HARNESS_CLUSTER_H_
