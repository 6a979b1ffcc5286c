#ifndef AURORA_SIM_DISK_H_
#define AURORA_SIM_DISK_H_

#include <cstdint>
#include <string>

#include "common/inline_function.h"
#include "common/random.h"
#include "common/status.h"
#include "common/units.h"
#include "sim/event_loop.h"

namespace aurora::sim {

/// Parameters of a simulated storage device. Defaults approximate a local
/// NVMe SSD on a storage host; benchmarks configure provisioned-IOPS EBS-like
/// devices through the same knobs.
struct DiskOptions {
  /// Median per-operation latency (before queueing).
  SimDuration write_latency = Micros(80);
  SimDuration read_latency = Micros(70);
  /// Sustained operation rate; ops beyond it queue. 0 = unlimited.
  double max_iops = 100000.0;
  /// Sequential throughput, bytes per second.
  double bandwidth_bps = 500e6;
  /// Sigma of the log-normal latency jitter (tail behaviour).
  double jitter_sigma = 0.3;
  /// Probability that a write completes torn: the op finishes with
  /// Status::Corruption instead of OK, modelling a partial sector write the
  /// device firmware detects. 0 disables (no RNG draw, so enabling the
  /// fault never perturbs the seeded stream of fault-free runs).
  double torn_write_probability = 0.0;
  /// Probability that a write silently plants a latent sector fault: the op
  /// reports OK but the device remembers one pending corruption, surfaced
  /// to the owner via ConsumeLatentFault(). Models bit rot / latent sector
  /// errors that only scrubbing or a read can catch (§2.2).
  double latent_corruption_probability = 0.0;
};

/// Simulated SSD: a single-server FIFO queue whose service time is
/// max(1/IOPS, bytes/bandwidth), plus jittered device latency. Counts
/// operations and bytes so benchmarks can report I/Os at each tier
/// (Table 1's "46x fewer I/Os" claim at the storage tier).
class Disk {
 public:
  /// Completion callback. 104 inline bytes hold the storage hot path's
  /// captures (this + generation + a write batch header, its shared
  /// records and the sender), and the resulting 112-byte object still
  /// nests inside the completion event's EventFn buffer — an IO costs zero
  /// heap allocations.
  using Callback = InlineFunction<void(Status), 104>;

  Disk(EventLoop* loop, DiskOptions options, Random rng)
      : loop_(loop), options_(options), rng_(rng) {}

  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  /// Queues a write of `bytes`; `done` fires when it is durable.
  void Write(uint64_t bytes, Callback done) {
    Submit(bytes, options_.write_latency, /*is_write=*/true, std::move(done));
  }

  /// Queues a read of `bytes`.
  void Read(uint64_t bytes, Callback done) {
    Submit(bytes, options_.read_latency, /*is_write=*/false, std::move(done));
  }

  /// Marks the device failed: all queued and future ops complete with
  /// IOError. Unrecoverable (models a dead SSD; repair replaces the node).
  void Fail() { failed_ = true; }
  bool failed() const { return failed_; }

  /// Degrades (or restores) service rate; >1 slows the device down. Models
  /// the hot-disk scenario of §2.3.
  void set_slowdown(double factor) { slowdown_ = factor < 1.0 ? 1.0 : factor; }

  /// True once per latent fault planted by a write; the caller corrupts one
  /// of its pages in response. Pulling the fault out of the device keeps
  /// the disk byte-agnostic (it never sees page boundaries) while the owner
  /// decides *which* page rots.
  bool ConsumeLatentFault() {
    if (pending_latent_faults_ == 0) return false;
    --pending_latent_faults_;
    return true;
  }

  uint64_t writes() const { return writes_; }
  uint64_t reads() const { return reads_; }
  uint64_t bytes_written() const { return bytes_written_; }
  uint64_t bytes_read() const { return bytes_read_; }
  /// Current queue depth estimate in simulated time.
  SimDuration backlog() const {
    return busy_until_ > loop_->now() ? busy_until_ - loop_->now() : 0;
  }

 private:
  void Submit(uint64_t bytes, SimDuration base_latency, bool is_write,
              Callback done);

  EventLoop* loop_;
  DiskOptions options_;
  Random rng_;
  SimTime busy_until_ = 0;
  bool failed_ = false;
  double slowdown_ = 1.0;

  uint64_t writes_ = 0;
  uint64_t reads_ = 0;
  uint64_t bytes_written_ = 0;
  uint64_t bytes_read_ = 0;
  uint64_t pending_latent_faults_ = 0;
};

}  // namespace aurora::sim

#endif  // AURORA_SIM_DISK_H_
