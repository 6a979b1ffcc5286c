#include "sim/sharded_loop.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "common/metrics.h"

namespace aurora::sim {

namespace {

constexpr SimTime SatAdd(SimTime t, SimDuration d) {
  return t > EventLoop::kNoEvent - d ? EventLoop::kNoEvent : t + d;
}

}  // namespace

ShardedEventLoop::ShardedEventLoop(uint32_t num_shards) {
  if (num_shards == 0) num_shards = 1;
  shards_.reserve(num_shards);
  for (uint32_t i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->loop.set_cross_shard_poster(shard.get());
    shards_.push_back(std::move(shard));
  }
  mailboxes_.resize(static_cast<size_t>(num_shards) * num_shards);
  for (auto& b : mailboxes_) b = std::make_unique<Mailbox>();
}

ShardedEventLoop::~ShardedEventLoop() { StopWorkers(); }

void ShardedEventLoop::set_workers(uint32_t n) {
  n = std::clamp<uint32_t>(n, 1, num_shards());
  if (n == workers_) return;
  StopWorkers();  // pool restarts lazily with the new width
  workers_ = n;
}

void ShardedEventLoop::Mail(uint32_t src, uint32_t dst, SimTime at,
                            EventFn fn) {
  Mailbox& b = box(src, dst);
  MutexLock lock(&b.mu);
  b.items.push_back(Staged{at, src, b.next_seq++, std::move(fn)});
  mailed_.fetch_add(1, std::memory_order_relaxed);
}

void ShardedEventLoop::DrainMailboxes() {
  const uint32_t n = num_shards();
  for (uint32_t dst = 0; dst < n; ++dst) {
    Shard& d = *shards_[dst];
    bool grew = false;
    for (uint32_t src = 0; src < n; ++src) {
      Mailbox& b = box(src, dst);
      MutexLock lock(&b.mu);
      if (b.items.empty()) continue;
      grew = true;
      for (Staged& item : b.items) d.staged.push_back(std::move(item));
      b.items.clear();
    }
    // Merge order is the (at, src, seq) total order: deliver time first,
    // then source shard, then per-link sequence — independent of drain
    // timing, so admission order is a pure function of the simulation.
    if (grew) std::sort(d.staged.begin(), d.staged.end());
  }
}

bool ShardedEventLoop::Window(SimTime limit) {
  DrainMailboxes();

  // L: earliest unexecuted shard work (heaps + staged mail); Lc: earliest
  // control event.
  SimTime l = EventLoop::kNoEvent;
  for (auto& s : shards_) {
    SimTime t = s->loop.next_event_time();
    if (t < l) l = t;
    if (!s->staged.empty() && s->staged.front().at < l) l = s->staged.front().at;
  }
  SimTime lc = control_.next_event_time();

  SimTime first = std::min(l, lc);
  if (first == EventLoop::kNoEvent || first > limit) {
    if (limit != EventLoop::kNoEvent) {
      // Nothing at or below the target remains: close out the run by
      // advancing every clock (control included) to exactly `limit`.
      for (auto& s : shards_) s->loop.AdvanceTo(limit);
      control_.RunUntil(limit);
    }
    return false;
  }

  // Exclusive horizon. Capped by the next control event so a crash, chaos
  // action or invariant check takes effect at its exact virtual time —
  // control events at T happen before any shard event at T.
  SimTime h = SatAdd(l, lookahead_);
  if (lc < h) h = lc;
  if (limit != EventLoop::kNoEvent && limit + 1 < h) h = limit + 1;

  // Admit staged cross-shard mail below the horizon, in merge order.
  for (auto& s : shards_) {
    size_t admit = 0;
    while (admit < s->staged.size() && s->staged[admit].at < h) {
      s->loop.ScheduleAt(s->staged[admit].at, std::move(s->staged[admit].fn));
      ++admit;
    }
    if (admit > 0) {
      s->staged.erase(s->staged.begin(),
                      s->staged.begin() + static_cast<ptrdiff_t>(admit));
    }
  }

  RunShardsBelow(h);

  // Barrier time: every clock lands exactly here.
  SimTime barrier = h;
  if (limit < barrier) barrier = limit;
  if (barrier == EventLoop::kNoEvent) barrier = l;  // unbounded idle guard

  // Drain PostControl outboxes in shard order; items wanted "now" run at
  // this barrier.
  for (auto& s : shards_) {
    for (auto& [at, fn] : s->outbox) {
      control_.ScheduleAt(std::max(at, barrier), std::move(fn));
    }
    s->outbox.clear();
  }

  for (auto& s : shards_) s->loop.AdvanceTo(barrier);
  // Runs control events that landed exactly on the horizon (h == lc) with
  // all shards quiesced at `barrier`, and advances the control clock.
  control_.RunUntil(barrier);
  ++windows_;
  return true;
}

void ShardedEventLoop::RunShardsBelow(SimTime horizon) {
  // Skip all cross-thread traffic for windows where fewer than two shards
  // have runnable events (idle phases, serial setup, drained tails).
  uint32_t active = 0;
  Shard* only = nullptr;
  for (auto& s : shards_) {
    if (s->loop.next_event_time() < horizon) {
      ++active;
      only = s.get();
    }
  }
  if (active == 0) return;
  if (active == 1) {
    only->loop.RunEventsBelow(horizon);
    return;
  }
  const uint32_t w = std::min<uint32_t>(workers_, num_shards());
  if (w <= 1) {
    for (auto& s : shards_) s->loop.RunEventsBelow(horizon);
    return;
  }

  {
    std::unique_lock<std::mutex> lock(pool_mu_);
    if (threads_.empty()) StartWorkersLocked(w);
    pool_horizon_ = horizon;
    pool_remaining_ = static_cast<uint32_t>(threads_.size());
    ++pool_epoch_;
  }
  pool_cv_.notify_all();

  // The coordinator doubles as worker 0.
  for (uint32_t i = 0; i < num_shards(); i += w) {
    shards_[i]->loop.RunEventsBelow(horizon);
  }

  // Wall-clock barrier-wait accounting (straggler imbalance). Diagnostic
  // only: surfaces in bench JSON, never in a cluster metrics dump.
  // NOLINT(aurora-D1): measures real elapsed time of the harness itself,
  // not simulated time; the value is kept out of DumpMetricsJson.
  auto wait_start = std::chrono::steady_clock::now();  // NOLINT(aurora-D1): harness wall-clock diagnostic, excluded from deterministic output
  {
    std::unique_lock<std::mutex> lock(pool_mu_);
    done_cv_.wait(lock, [this] { return pool_remaining_ == 0; });
  }
  auto wait_end = std::chrono::steady_clock::now();  // NOLINT(aurora-D1): harness wall-clock diagnostic, excluded from deterministic output
  stall_wall_us_ += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(wait_end -
                                                            wait_start)
          .count());
}

void ShardedEventLoop::StartWorkersLocked(uint32_t n) {
  for (uint32_t idx = 1; idx < n; ++idx) {
    threads_.emplace_back([this, idx, stride = n] { WorkerMain(idx, stride); });
  }
}

void ShardedEventLoop::StopWorkers() {
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    if (threads_.empty()) return;
    pool_shutdown_ = true;
  }
  pool_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  pool_shutdown_ = false;
}

void ShardedEventLoop::WorkerMain(uint32_t worker_index, uint32_t stride) {
  uint64_t seen_epoch = 0;
  for (;;) {
    SimTime horizon;
    {
      std::unique_lock<std::mutex> lock(pool_mu_);
      pool_cv_.wait(lock, [this, seen_epoch] {
        return pool_shutdown_ || pool_epoch_ != seen_epoch;
      });
      if (pool_shutdown_) return;
      seen_epoch = pool_epoch_;
      horizon = pool_horizon_;
    }
    for (uint32_t i = worker_index; i < num_shards(); i += stride) {
      shards_[i]->loop.RunEventsBelow(horizon);
    }
    {
      std::lock_guard<std::mutex> lock(pool_mu_);
      if (--pool_remaining_ == 0) done_cv_.notify_one();
    }
  }
}

size_t ShardedEventLoop::pending() const {
  size_t n = control_.pending();
  for (const auto& s : shards_) n += s->loop.pending() + s->staged.size();
  for (const auto& b : mailboxes_) {
    MutexLock lock(&b->mu);
    n += b->items.size();
  }
  return n;
}

uint64_t ShardedEventLoop::events_executed() const {
  uint64_t n = control_.events_executed();
  for (const auto& s : shards_) n += s->loop.events_executed();
  return n;
}

uint64_t ShardedEventLoop::tombstones() const {
  uint64_t n = control_.tombstones();
  for (const auto& s : shards_) n += s->loop.tombstones();
  return n;
}

size_t ShardedEventLoop::heap_peak() const {
  size_t peak = control_.heap_peak();
  for (const auto& s : shards_) peak = std::max(peak, s->loop.heap_peak());
  return peak;
}

void ShardedEventLoop::RegisterMetrics(MetricsRegistry* m) {
  m->RegisterCounter("sim.events_executed",
                     [this] { return events_executed(); });
  m->RegisterGauge("sim.now_us", [this] { return static_cast<double>(now()); });
  // Event-queue internals: executed events, lazily-cancelled tombstones and
  // the heap high-water mark (live + not-yet-purged entries).
  m->RegisterCounter("sim.loop.events_executed",
                     [this] { return events_executed(); });
  m->RegisterCounter("sim.loop.tombstones", [this] { return tombstones(); });
  m->RegisterCounter("sim.loop.heap_peak",
                     [this] { return static_cast<uint64_t>(heap_peak()); });
  for (uint32_t s = 0; s < num_shards(); ++s) {
    const std::string base = "sim.loop.shard" + std::to_string(s) + ".";
    EventLoop* shard = this->shard(s);
    m->RegisterCounter(base + "events_executed",
                       [shard] { return shard->events_executed(); });
    m->RegisterCounter(base + "tombstones",
                       [shard] { return shard->tombstones(); });
    m->RegisterCounter(base + "heap_peak", [shard] {
      return static_cast<uint64_t>(shard->heap_peak());
    });
  }
  m->RegisterCounter("sim.pdes.horizon_syncs",
                     [this] { return horizon_syncs(); });
  m->RegisterCounter("sim.pdes.mailbox_msgs",
                     [this] { return mailbox_msgs(); });
}

}  // namespace aurora::sim
