#ifndef AURORA_SIM_FAILURE_INJECTOR_H_
#define AURORA_SIM_FAILURE_INJECTOR_H_

#include <map>
#include <vector>

#include "common/random.h"
#include "common/units.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "sim/topology.h"

namespace aurora::sim {

/// Orchestrates the "continuous low level background noise of node, disk and
/// network path failures" (§2.1) against a running cluster, plus targeted
/// large-blast-radius events (AZ loss). Components register crash/restart
/// hooks so a crash really discards their volatile state.
class FailureInjector {
 public:
  struct Hooks {
    /// Called when the node crashes (volatile state must be discarded).
    EventFn on_crash;
    /// Called when the node restarts (component re-initializes from
    /// durable state and rejoins).
    EventFn on_restart;
  };

  FailureInjector(EventLoop* loop, Network* network, const Topology* topology,
                  Random rng)
      : loop_(loop), network_(network), topology_(topology), rng_(rng) {}

  FailureInjector(const FailureInjector&) = delete;
  FailureInjector& operator=(const FailureInjector&) = delete;

  void RegisterNode(NodeId node, Hooks hooks) { hooks_[node] = std::move(hooks); }

  /// Crash-stops `node` for `downtime`, then restarts it. A zero downtime
  /// means permanent (no restart is scheduled).
  void CrashNode(NodeId node, SimDuration downtime);

  /// Restarts a crashed node immediately.
  void RestartNode(NodeId node);

  /// Takes an entire AZ down for `downtime` (fire/flood/roof, §2.1); all
  /// nodes in it crash, and restart together when it recovers. Permanent if
  /// downtime == 0.
  void FailAz(AzId az, SimDuration downtime);

  /// Degrades network latency to/from a node by `factor` for `duration`
  /// (congestion / hot node, §2.3).
  void SlowNode(NodeId node, double factor, SimDuration duration);

  /// Enables Poisson background noise: each registered node independently
  /// fails with mean time between failures `mttf`, staying down for an
  /// exponentially distributed time with mean `mean_downtime`.
  void EnableBackgroundNoise(SimDuration mttf, SimDuration mean_downtime);
  void DisableBackgroundNoise() { noise_enabled_ = false; }

  bool IsDown(NodeId node) const { return network_->IsNodeDown(node); }

  uint64_t crashes_injected() const { return crashes_; }

 private:
  void ScheduleNextNoiseEvent();

  EventLoop* loop_;
  Network* network_;
  const Topology* topology_;
  Random rng_;
  std::map<NodeId, Hooks> hooks_;

  bool noise_enabled_ = false;
  SimDuration noise_mttf_ = 0;
  SimDuration noise_mean_downtime_ = 0;

  uint64_t crashes_ = 0;
};

}  // namespace aurora::sim

#endif  // AURORA_SIM_FAILURE_INJECTOR_H_
