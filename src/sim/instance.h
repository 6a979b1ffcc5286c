#ifndef AURORA_SIM_INSTANCE_H_
#define AURORA_SIM_INSTANCE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/units.h"
#include "sim/event_loop.h"

namespace aurora::sim {

/// Compute capacity of a simulated EC2 instance, modelled as `vcpus` FCFS
/// servers. Database work items (parse/plan/execute CPU costs, lock
/// manager work, log formatting) are submitted as Execute() calls; when all
/// vCPUs are busy, work queues. This yields the linear instance-size scaling
/// of Figures 6 and 7 (each r3 size doubles vCPUs and memory) without
/// modelling an actual CPU.
struct InstanceOptions {
  int vcpus = 32;  // r3.8xlarge
  std::string name = "r3.8xlarge";
};

/// The r3 family used throughout §6.1.
inline InstanceOptions R3Large() { return {2, "r3.large"}; }
inline InstanceOptions R3XLarge() { return {4, "r3.xlarge"}; }
inline InstanceOptions R32XLarge() { return {8, "r3.2xlarge"}; }
inline InstanceOptions R34XLarge() { return {16, "r3.4xlarge"}; }
inline InstanceOptions R38XLarge() { return {32, "r3.8xlarge"}; }

class Instance {
 public:
  Instance(EventLoop* loop, InstanceOptions options)
      : loop_(loop),
        options_(options),
        core_free_(static_cast<size_t>(options.vcpus), 0) {}

  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  /// Runs a CPU work item costing `cpu_cost` of one core's time; `done`
  /// fires when it completes (after any queueing delay).
  void Execute(SimDuration cpu_cost, EventFn done) {
    // Pick the earliest-free core (FCFS across a c-server queue).
    auto it = std::min_element(core_free_.begin(), core_free_.end());
    SimTime start = std::max(loop_->now(), *it);
    SimTime end = start + cpu_cost;
    *it = end;
    loop_->ScheduleAt(end, std::move(done));
  }

  const InstanceOptions& options() const { return options_; }
  int vcpus() const { return options_.vcpus; }

 private:
  EventLoop* loop_;
  InstanceOptions options_;
  std::vector<SimTime> core_free_;
};

}  // namespace aurora::sim

#endif  // AURORA_SIM_INSTANCE_H_
