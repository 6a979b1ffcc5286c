#ifndef AURORA_SIM_CHAOS_H_
#define AURORA_SIM_CHAOS_H_

#include <array>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/units.h"
#include "log/types.h"
#include "sim/event_loop.h"
#include "sim/topology.h"

namespace aurora {

class AuroraCluster;
class Segment;

/// Knobs for the fabric adversary (sim::Network). Everything is
/// seeded-deterministic: with all fields zero the network draws no extra
/// randomness, so an adversary-off run is byte-identical to the baseline.
struct AdversaryConfig {
  double drop_probability = 0.0;       // silent message loss
  double duplicate_probability = 0.0;  // second delivery at a scrambled time
  SimDuration reorder_window = 0;      // extra uniform [0, window] delay
  double corrupt_probability = 0.0;    // one bit flipped per affected frame
};

/// Continuously asserts cross-component safety properties on a simulation
/// timer while chaos runs. The catalog (see DESIGN.md §9):
///
///  1. Volume durability watermark: while the writer is open, its VDL never
///     falls below any VDL previously observed — acked commits (which sit at
///     or below the VDL) can never silently vanish, across crash recovery
///     and failover alike.
///  2. Per-segment SCL is non-decreasing except when annulled by an
///     epoch-versioned truncation (segment epoch advanced, or a truncation
///     is on record for the segment's current epoch).
///  3. Per-segment VDL hint and PGMRPL are monotone.
///  4. A segment never materializes past its completeness point
///     (applied_lsn <= scl).
///  5. No segment is "complete" past anything any writer incarnation ever
///     allocated (scl <= max over incarnations of max_allocated_lsn).
///  6. No segment's durability hint outruns the open writer's VDL
///     (vdl_hint <= writer vdl).
///  7. Membership-change audit over the control plane's config history:
///     per PG, config epochs are strictly increasing, every configuration
///     names six distinct hosts, and consecutive configurations differ in at
///     most one slot. Together with the repair protocol's install-before-
///     flip rule (the incoming member's installed state is a superset of the
///     donor's acked state), this is what keeps read/write quorums
///     intersecting across every config epoch.
///  8. No committed LSN is lost while a PG is within the AZ+1 envelope
///     (<= 3 of its 6 current members down): the highest committed prefix
///     ever observed on a member (min(scl, max VDL seen)) must stay
///     reachable from the live members — either directly covered by a live
///     SCL or bridgeable through the union of live hot logs.
///
/// Violations are counted in the cluster's ChaosCounters (chaos.* metrics)
/// and retained as human-readable strings for test assertions.
class InvariantChecker {
 public:
  InvariantChecker(AuroraCluster* cluster, SimDuration interval);
  ~InvariantChecker();

  InvariantChecker(const InvariantChecker&) = delete;
  InvariantChecker& operator=(const InvariantChecker&) = delete;

  void Start();
  void Stop();
  /// Runs one full pass immediately (also called by the timer).
  void CheckNow();

  uint64_t checks() const { return checks_; }
  const std::vector<std::string>& violations() const { return violations_; }

 private:
  void Tick();
  void Violation(std::string what);

  struct SegmentBaseline {
    const Segment* seg = nullptr;  // identity: repair reinstalls reset it
    Lsn scl = kInvalidLsn;
    Lsn vdl_hint = kInvalidLsn;
    Lsn pgmrpl = kInvalidLsn;
    Epoch epoch = 0;
  };

  struct ConfigBaseline {
    uint64_t epoch = 0;
    std::array<sim::NodeId, kReplicasPerPg> nodes{};
  };

  AuroraCluster* cluster_;
  SimDuration interval_;
  uint64_t checks_ = 0;
  Lsn max_vdl_seen_ = kInvalidLsn;
  std::map<std::pair<sim::NodeId, PgId>, SegmentBaseline> baselines_;
  /// Invariant 7: how much of ConfigHistory() has been audited, and the
  /// last configuration seen per PG.
  size_t config_audit_pos_ = 0;
  std::map<PgId, ConfigBaseline> last_config_;
  /// Invariant 8: per-PG ratchet of the highest committed prefix ever
  /// observed on any member.
  std::map<PgId, Lsn> committed_tail_;
  std::vector<std::string> violations_;
  sim::EventId timer_ = 0;
  bool running_ = false;
};

/// Scripted chaos timelines on top of the FailureInjector and the network
/// adversary: a scenario is a set of labelled actions at fixed sim-time
/// offsets (AZ loss, node crashes, grey partitions, adversary toggles),
/// executed deterministically while an InvariantChecker watches the
/// cluster's safety properties. Chaos and failover tests compose their
/// scenarios from this instead of hand-rolling timer plumbing.
class ChaosEngine {
 public:
  /// `checker_interval` paces the InvariantChecker once Start()ed.
  explicit ChaosEngine(AuroraCluster* cluster,
                       SimDuration checker_interval = Millis(50));
  ~ChaosEngine();

  ChaosEngine(const ChaosEngine&) = delete;
  ChaosEngine& operator=(const ChaosEngine&) = delete;

  AuroraCluster* cluster() { return cluster_; }
  InvariantChecker* checker() { return &checker_; }

  // --- Fabric adversary ----------------------------------------------------
  void SetAdversary(const AdversaryConfig& cfg);
  void ClearAdversary() { SetAdversary(AdversaryConfig{}); }

  // --- Scripted timeline (delays are relative to "now") --------------------
  /// Schedules `action` to run `delay` from now; `label` identifies it in
  /// logs. Actions count into chaos.actions_executed.
  void At(SimDuration delay, std::string label, sim::EventFn action);
  void CrashStorageAt(SimDuration delay, size_t index, SimDuration downtime);
  void FailAzAt(SimDuration delay, sim::AzId az, SimDuration downtime);
  /// The §2.2 design fault: a whole AZ plus one extra host (storage node
  /// `extra_index`, which callers should pick outside `az`) go down
  /// together. AZ+1 leaves every PG a 3/6 read quorum, so no committed data
  /// may be lost (invariant 8) even though write availability is gone until
  /// repair restores quorum.
  void FailAzPlusOneAt(SimDuration delay, sim::AzId az, size_t extra_index,
                       SimDuration downtime);
  void SlowNodeAt(SimDuration delay, sim::NodeId node, double factor,
                  SimDuration duration);
  /// Cuts `node` off from every other host in both directions.
  void IsolateAt(SimDuration delay, sim::NodeId node);
  void HealAt(SimDuration delay, sim::NodeId node);

  // --- Execution -----------------------------------------------------------
  void StartChecker() { checker_.Start(); }
  void StopChecker() { checker_.Stop(); }
  /// Runs the simulation for `d`; scheduled actions and invariant checks
  /// fire as their times arrive.
  void Run(SimDuration d);

 private:
  AuroraCluster* cluster_;
  InvariantChecker checker_;
};

}  // namespace aurora

#endif  // AURORA_SIM_CHAOS_H_
