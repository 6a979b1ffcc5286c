#ifndef AURORA_SIM_SHARDED_LOOP_H_
#define AURORA_SIM_SHARDED_LOOP_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "common/units.h"
#include "sim/event_loop.h"

namespace aurora {
class MetricsRegistry;
}  // namespace aurora

namespace aurora::sim {

/// Conservative parallel discrete-event coordinator (DESIGN.md §11).
///
/// The simulated world is partitioned into a fixed set of *logical shards*
/// (one per AZ in the clusters), each owning a private EventLoop and every
/// component homed there, plus one *control shard* for global actors
/// (failure injector, chaos timeline, invariant checker, test closures).
/// Execution proceeds in windows: all shards run their events below a safe
/// horizon
///
///     H = min( L + lookahead, L_ctrl, target + 1 )
///
/// where L is the earliest unexecuted shard event (heaps plus staged
/// cross-shard mail), L_ctrl the earliest control event, and lookahead the
/// minimum cross-shard network latency. Cross-shard deliveries travel
/// through per-(src,dst) mailboxes and are admitted into the destination
/// heap in (deliver_time, src_shard, link_seq) order at the next window.
/// At each barrier every clock — shards and control alike — is advanced to
/// exactly min(H, target) and pending control events run with the whole
/// world quiesced, so control always observes (and mutates) a globally
/// consistent snapshot and control events at time T run before shard
/// events at T.
///
/// The logical partition, the horizon sequence and every per-shard event
/// order are functions of the simulation alone, never of the worker-thread
/// count: set_workers(N) only chooses how many OS threads execute a
/// window's shards, which is why `--sim_shards=N` runs are byte-identical
/// to N=1 (enforced by determinism_test).
class ShardedEventLoop {
 public:
  /// Creates `num_shards` logical shards. The partition is part of the
  /// model: changing it changes event interleavings (like changing the
  /// topology), while changing set_workers() never does.
  explicit ShardedEventLoop(uint32_t num_shards = 1);
  ~ShardedEventLoop();

  ShardedEventLoop(const ShardedEventLoop&) = delete;
  ShardedEventLoop& operator=(const ShardedEventLoop&) = delete;

  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }
  EventLoop* shard(uint32_t i) { return &shards_[i]->loop; }
  /// The control shard: events here run only at barriers, with every shard
  /// quiesced at the same virtual time.
  EventLoop* control() { return &control_; }

  /// Minimum cross-shard delivery latency. Must be a lower bound on every
  /// mailbox message's (deliver_time - send_time); the fabric guarantees it
  /// via its propagation-delay floor. >= 1.
  void set_lookahead(SimDuration d) { lookahead_ = d < 1 ? 1 : d; }
  SimDuration lookahead() const { return lookahead_; }

  /// Number of OS threads used to execute a window (clamped to
  /// [1, num_shards]). 1 runs shards inline on the caller's thread; this is
  /// purely an execution knob and never changes simulation results.
  void set_workers(uint32_t n);
  uint32_t workers() const { return workers_; }

  /// Enqueues a cross-shard delivery: `fn` runs on shard `dst` at time
  /// `at`. Thread-safe; called by the Network for routed deliveries and by
  /// the coordinator when draining PostControl outboxes.
  void Mail(uint32_t src, uint32_t dst, SimTime at, EventFn fn);

  // --- EventLoop-compatible facade ----------------------------------------
  // Schedule/Cancel address the control shard, so timers created by tests,
  // the chaos engine and the failure injector keep exact-time global
  // semantics. Run* advance the whole sharded world.

  SimTime now() const { return control_.now(); }
  EventId Schedule(SimDuration delay, EventFn fn) {
    return control_.Schedule(delay, std::move(fn));
  }
  EventId ScheduleAt(SimTime t, EventFn fn) {
    return control_.ScheduleAt(t, std::move(fn));
  }
  bool Cancel(EventId id) { return control_.Cancel(id); }

  /// Runs one synchronization window (the sharded analogue of "one event");
  /// returns false when nothing is pending anywhere.
  bool RunOne() { return Window(EventLoop::kNoEvent); }
  /// Runs until no events remain anywhere.
  void Run() {
    while (Window(EventLoop::kNoEvent)) {
    }
  }
  /// Runs all events with time <= t, then advances every clock to exactly t.
  void RunUntil(SimTime t) {
    while (Window(t)) {
    }
  }
  void RunFor(SimDuration d) { RunUntil(control_.now() + d); }

  /// Live events across all shards, the control shard, staged mail and
  /// in-flight mailboxes.
  size_t pending() const;
  uint64_t events_executed() const;
  uint64_t tombstones() const;
  /// Largest single-heap high-water mark across shards (the quantity that
  /// bounds per-shard memory).
  size_t heap_peak() const;

  // --- PDES introspection (sim.pdes.*) ------------------------------------
  /// Synchronization windows executed. Deterministic.
  uint64_t horizon_syncs() const { return windows_; }
  /// Cross-shard messages routed through mailboxes. Deterministic.
  uint64_t mailbox_msgs() const { return mailed_.load(std::memory_order_relaxed); }
  /// Wall-clock microseconds the coordinator spent waiting for straggler
  /// workers at barriers. NOT deterministic — exported to bench JSON only,
  /// never into a cluster's metrics registry.
  uint64_t stall_wall_us() const { return stall_wall_us_; }

  /// Registers sim.*: the clock, executed events and queue internals, in
  /// total and per logical shard, and the PDES coordinator's totals. All
  /// deterministic: functions of the partition and the event set, never of
  /// the worker count (stall_wall_us stays out).
  void RegisterMetrics(MetricsRegistry* m);

 private:
  /// One cross-shard event staged for admission.
  struct Staged {
    SimTime at = 0;
    uint32_t src = 0;
    uint64_t seq = 0;
    EventFn fn;
    bool operator<(const Staged& o) const {
      if (at != o.at) return at < o.at;
      if (src != o.src) return src < o.src;
      return seq < o.seq;
    }
  };

  /// Single-producer (the source shard during a window; anyone at a
  /// barrier) mailbox for one (src,dst) shard pair.
  struct Mailbox {
    Mutex mu;
    std::vector<Staged> items GUARDED_BY(mu);
    uint64_t next_seq GUARDED_BY(mu) = 0;
  };

  struct Shard final : EventLoop::CrossShardPoster {
    EventLoop loop;
    /// Pending cross-shard mail, sorted by (at, src, seq). Touched only by
    /// the coordinator between windows.
    std::vector<Staged> staged;
    /// PostControl events staged during this shard's window; drained to the
    /// control shard at the barrier in shard order.
    std::vector<std::pair<SimTime, EventFn>> outbox;

    void PostControl(SimTime at, EventFn fn) override {
      outbox.emplace_back(at, std::move(fn));
    }
  };

  /// Executes one window bounded by `limit` (inclusive); returns false —
  /// without advancing any clock past the last event when limit is
  /// kNoEvent, or after advancing everything to `limit` otherwise — once no
  /// event at or below `limit` exists.
  bool Window(SimTime limit);
  void DrainMailboxes();
  void RunShardsBelow(SimTime horizon);
  void StartWorkersLocked(uint32_t n);
  void StopWorkers();
  void WorkerMain(uint32_t worker_index, uint32_t stride);

  Mailbox& box(uint32_t src, uint32_t dst) {
    return *mailboxes_[src * shards_.size() + dst];
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;  // S*S, row = src
  EventLoop control_;
  SimDuration lookahead_ = 1;
  uint32_t workers_ = 1;

  uint64_t windows_ = 0;
  std::atomic<uint64_t> mailed_{0};
  uint64_t stall_wall_us_ = 0;

  // Worker pool (spawned lazily on the first multi-threaded window). The
  // coordinator participates as worker 0; `threads_` holds workers 1..W-1.
  std::mutex pool_mu_;
  std::condition_variable pool_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> threads_;
  uint64_t pool_epoch_ = 0;       // bumped to publish a window
  SimTime pool_horizon_ = 0;      // horizon of the published window
  uint32_t pool_remaining_ = 0;   // workers still running the window
  bool pool_shutdown_ = false;
};

}  // namespace aurora::sim

#endif  // AURORA_SIM_SHARDED_LOOP_H_
