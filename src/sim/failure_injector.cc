#include "sim/failure_injector.h"

namespace aurora::sim {

void FailureInjector::CrashNode(NodeId node, SimDuration downtime) {
  if (network_->IsNodeDown(node)) return;
  ++crashes_;
  network_->SetNodeDown(node, true);
  auto it = hooks_.find(node);
  if (it != hooks_.end() && it->second.on_crash) it->second.on_crash();
  if (downtime > 0) {
    loop_->Schedule(downtime, [this, node]() { RestartNode(node); });
  }
}

void FailureInjector::RestartNode(NodeId node) {
  if (!network_->IsNodeDown(node)) return;
  network_->SetNodeDown(node, false);
  auto it = hooks_.find(node);
  if (it != hooks_.end() && it->second.on_restart) it->second.on_restart();
}

void FailureInjector::FailAz(AzId az, SimDuration downtime) {
  network_->SetAzDown(az, true);
  for (NodeId node : topology_->NodesInAz(az)) {
    auto it = hooks_.find(node);
    if (it != hooks_.end() && it->second.on_crash) it->second.on_crash();
  }
  if (downtime > 0) {
    loop_->Schedule(downtime, [this, az]() {
      network_->SetAzDown(az, false);
      for (NodeId node : topology_->NodesInAz(az)) {
        if (network_->IsNodeDown(node)) continue;  // separately crashed
        auto it = hooks_.find(node);
        if (it != hooks_.end() && it->second.on_restart) it->second.on_restart();
      }
    });
  }
}

void FailureInjector::SlowNode(NodeId node, double factor,
                               SimDuration duration) {
  network_->SetNodeLatencyFactor(node, factor);
  if (duration > 0) {
    loop_->Schedule(duration, [this, node]() {
      network_->SetNodeLatencyFactor(node, 1.0);
    });
  }
}

void FailureInjector::EnableBackgroundNoise(SimDuration mttf,
                                            SimDuration mean_downtime) {
  noise_enabled_ = true;
  noise_mttf_ = mttf;
  noise_mean_downtime_ = mean_downtime;
  ScheduleNextNoiseEvent();
}

void FailureInjector::ScheduleNextNoiseEvent() {
  if (!noise_enabled_ || hooks_.empty()) return;
  // The fleet-wide failure rate is (#nodes / mttf); the gap to the next
  // failure anywhere is exponential with mean mttf / #nodes.
  double fleet_mean =
      static_cast<double>(noise_mttf_) / static_cast<double>(hooks_.size());
  auto gap = static_cast<SimDuration>(rng_.Exponential(fleet_mean));
  loop_->Schedule(gap, [this]() {
    if (!noise_enabled_) return;
    // Pick a uniformly random registered node.
    auto idx = rng_.Uniform(hooks_.size());
    auto it = hooks_.begin();
    std::advance(it, static_cast<long>(idx));
    auto downtime = static_cast<SimDuration>(
        rng_.Exponential(static_cast<double>(noise_mean_downtime_)));
    if (downtime == 0) downtime = 1;
    CrashNode(it->first, downtime);
    ScheduleNextNoiseEvent();
  });
}

}  // namespace aurora::sim
