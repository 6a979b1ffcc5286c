#include "sim/disk.h"

#include <algorithm>

namespace aurora::sim {

void Disk::Submit(uint64_t bytes, SimDuration base_latency, bool is_write,
                  Callback done) {
  if (failed_) {
    loop_->Schedule(Micros(1), [done = std::move(done)]() {
      done(Status::IOError("disk failed"));
    });
    return;
  }
  if (is_write) {
    ++writes_;
    bytes_written_ += bytes;
  } else {
    ++reads_;
    bytes_read_ += bytes;
  }

  // Service time: limited by both IOPS and sequential bandwidth.
  double service_us = 0;
  if (options_.max_iops > 0) service_us = 1e6 / options_.max_iops;
  if (options_.bandwidth_bps > 0) {
    service_us = std::max(service_us,
                          static_cast<double>(bytes) / options_.bandwidth_bps * 1e6);
  }
  service_us *= slowdown_;

  SimTime start = std::max(loop_->now(), busy_until_);
  busy_until_ = start + static_cast<SimDuration>(service_us);

  double jitter = rng_.LogNormal(1.0, options_.jitter_sigma);
  auto latency = static_cast<SimDuration>(
      static_cast<double>(base_latency) * jitter * slowdown_);
  SimTime complete_at = busy_until_ + latency;

  // Fault draws are gated on the knobs being enabled so that fault-free
  // configurations consume an identical RNG stream (determinism contract).
  bool torn = false;
  if (is_write && options_.torn_write_probability > 0 &&
      rng_.Bernoulli(options_.torn_write_probability)) {
    torn = true;
  }
  if (is_write && !torn && options_.latent_corruption_probability > 0 &&
      rng_.Bernoulli(options_.latent_corruption_probability)) {
    ++pending_latent_faults_;
  }

  loop_->ScheduleAt(complete_at, [this, torn, done = std::move(done)]() {
    if (failed_) {
      done(Status::IOError("disk failed"));
    } else if (torn) {
      done(Status::Corruption("torn write"));
    } else {
      done(Status::OK());
    }
  });
}

}  // namespace aurora::sim
