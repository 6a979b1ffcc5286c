#ifndef AURORA_STORAGE_REPAIR_H_
#define AURORA_STORAGE_REPAIR_H_

#include <deque>
#include <map>
#include <set>
#include <vector>

#include "common/histogram.h"
#include "common/random.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "storage/control_plane.h"
#include "storage/storage_node.h"

namespace aurora {

/// The re-replication orchestrator of §2.2: watches the fleet, and when a
/// segment replica's host has been unreachable longer than the detection
/// threshold, migrates the segment to a healthy host by copying state from a
/// live peer. MTTR — the window of double-fault vulnerability — is detection
/// time plus transfer time (segment bytes over the fabric, e.g. "a 10GB
/// segment can be repaired in 10 seconds on a 10Gbps network link").
///
/// Each repair is a small state machine driving a chunked, resumable segment
/// transfer over the adversarial fabric (see DESIGN.md §12): per-chunk
/// CRC32C, timeout/retry with exponential backoff, donor failover mid-copy,
/// abort/re-dispatch when the replacement itself crashes, and a fleet-wide
/// concurrency cap so an AZ loss triggers a bounded repair wave, not a storm.
///
/// The same machinery performs heat management (§2.3): MigrateReplica() can
/// move a segment off a hot host proactively, and ZDP-style one-AZ-at-a-time
/// patching just crashes/restarts nodes briefly — short enough that no
/// repair triggers.
struct RepairOptions {
  /// How long a host must be down before repair starts (distinguishes a
  /// reboot blip from a real loss).
  SimDuration detection_threshold = Seconds(3);
  /// Size of one transfer chunk (the unit of retry and resume).
  uint32_t chunk_bytes = 64 * 1024;
};

struct RepairStats {
  uint64_t started = 0;
  uint64_t completed = 0;
  /// Transfers aborted because the replacement host crashed mid-copy; the
  /// repair is re-dispatched to a fresh target on a later poll.
  uint64_t failed = 0;
  uint64_t chunk_retries = 0;
  uint64_t donor_failovers = 0;
  uint64_t bytes_copied = 0;
  uint64_t concurrent_peak = 0;
  /// Dispatches deferred because kMaxConcurrent transfers were running.
  uint64_t queued = 0;
  /// Dead ends, each retried on a later poll: no healthy replacement host
  /// anywhere / no live member holding the segment.
  uint64_t no_replacement = 0;
  uint64_t no_donor = 0;
  /// Transfers restarted from chunk 0 because the donor-side snapshot
  /// changed mid-copy (failover to a peer with different state).
  uint64_t transfer_restarts = 0;
  uint64_t migrations = 0;
  /// MTTR distribution (detection to installed copy, microseconds).
  Histogram mttr_us;

  /// Every member once, under its exported metric name.
  template <typename F>
  static constexpr void Fields(F f) {
    using S = RepairStats;
    f("started", &S::started);
    f("completed", &S::completed);
    f("failed", &S::failed);
    f("chunk_retries", &S::chunk_retries);
    f("donor_failovers", &S::donor_failovers);
    f("bytes_copied", &S::bytes_copied);
    f("concurrent_peak", &S::concurrent_peak);
    f("queued", &S::queued);
    f("no_replacement", &S::no_replacement);
    f("no_donor", &S::no_donor);
    f("transfer_restarts", &S::transfer_restarts);
    f("migrations", &S::migrations);
    f("mttr_us", &S::mttr_us);
  }
};

class RepairManager {
 public:
  RepairManager(sim::EventLoop* loop, sim::Network* network,
                const sim::Topology* topology, ControlPlane* control_plane,
                RepairOptions options, Random rng);

  /// Starts the watchdog.
  void Start();
  /// Stops the watchdog: cancels the poll timer and every in-flight
  /// transfer's chunk timeout, so no repair events remain pending.
  void Stop();

  /// Proactively moves (pg, idx) to a new host (heat management). No-op if
  /// a repair of the same replica is already in flight.
  void MigrateReplica(PgId pg, ReplicaIdx idx);
  /// Test-facing variant pinning the replacement host (concurrent-repair
  /// regression coverage).
  void MigrateReplicaTo(PgId pg, ReplicaIdx idx, sim::NodeId target);

  const RepairStats& stats() const { return stats_; }
  /// Completion times of finished repairs (simulated duration from
  /// detection to installed copy), for the §2.2 bench.
  const std::vector<SimDuration>& repair_durations() const {
    return repair_durations_;
  }

  /// Introspection for tests: the transfers currently running.
  struct ActiveRepairView {
    PgId pg;
    ReplicaIdx idx;
    sim::NodeId target;
    sim::NodeId donor;
    uint64_t req_id;
    uint32_t next_chunk;
    uint32_t total_chunks;
  };
  std::vector<ActiveRepairView> active_repairs() const;
  size_t queue_depth() const { return queue_.size(); }

 private:
  /// A repair waiting for a dispatch slot.
  struct PendingRepair {
    PgId pg;
    ReplicaIdx idx;
    sim::NodeId failed;  // host being replaced
    SimTime detected_at;
    bool is_migration;
    sim::NodeId pinned_target;  // kInvalidNode unless MigrateReplicaTo
  };
  /// One running chunked transfer.
  struct Repair {
    PgId pg = 0;
    ReplicaIdx idx = 0;
    sim::NodeId failed = sim::kInvalidNode;
    sim::NodeId target = sim::kInvalidNode;
    sim::NodeId donor = sim::kInvalidNode;
    uint64_t req_id = 0;
    uint32_t next_chunk = 0;
    uint32_t total_chunks = 0;  // 0 until the first chunk reports geometry
    uint64_t total_bytes = 0;
    uint32_t attempts = 0;  // consecutive timeouts of the current chunk
    sim::EventId timeout_event = 0;
    SimTime detected_at = 0;
    bool is_migration = false;
  };

  void Poll();
  void DispatchFromQueue();
  void TryDispatch(const PendingRepair& q);
  void RequestChunk(Repair* r);
  void ArmChunkTimeout(Repair* r);
  void OnChunkTimeout(std::pair<PgId, ReplicaIdx> key, uint64_t req_id);
  /// Progress events posted by replacement targets; routed by (pg, req_id).
  void OnRepairProgress(PgId pg, const StorageNode::RepairProgress& p);
  /// Re-points a transfer at a different live donor, resuming from the last
  /// acked chunk. False when no alternative donor exists.
  bool DonorFailover(Repair* r);
  /// Picks a healthy host in `az` (excluding `exclude`); kInvalidNode if
  /// none.
  sim::NodeId PickReplacement(sim::AzId az,
                              const std::set<sim::NodeId>& exclude);
  /// Live member of `pg` holding the segment with the highest SCL,
  /// excluding `exclude_a`/`exclude_b`; kInvalidNode if none.
  sim::NodeId PickDonor(PgId pg, sim::NodeId exclude_a,
                        sim::NodeId exclude_b = sim::kInvalidNode);
  /// Unreachable for repair purposes: crashed individually OR inside a
  /// failed AZ (Network tracks those separately; an AZ loss must trigger
  /// re-replication just like single-host loss, §2.2).
  bool HostDown(sim::NodeId id) const;
  uint64_t ChunkSize(const Repair& r, uint32_t chunk_index) const;

  sim::EventLoop* loop_;
  sim::Network* network_;
  const sim::Topology* topology_;
  ControlPlane* control_plane_;
  RepairOptions options_;
  Random rng_;

  bool running_ = false;
  sim::EventId poll_timer_ = 0;
  /// Host -> first time it was observed down.
  std::map<sim::NodeId, SimTime> down_since_;
  /// (pg, idx) pairs with a repair queued or running (poll-time dedup).
  std::set<std::pair<PgId, ReplicaIdx>> in_flight_;
  std::deque<PendingRepair> queue_;
  std::map<std::pair<PgId, ReplicaIdx>, Repair> active_;
  RepairStats stats_;
  std::vector<SimDuration> repair_durations_;
  uint64_t next_req_ = 1;
};

}  // namespace aurora

#endif  // AURORA_STORAGE_REPAIR_H_
