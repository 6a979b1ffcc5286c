// aurora_bench: the repository benchmark. One process runs one named
// workload -- closed-loop SysBench or TPC-C with zero think time (paper
// §6.1) against a full simulated Aurora cluster -- checks the results the
// clients saw, and prints one JSON object of metrics as its last line on
// stdout (human-readable lines go to stderr).
//
//   aurora_bench --workload=<name> [--seed=N] [--seconds=S] [--trace]
//                [--warmup_ms=N] [--measure_ms=N] [--setups=K]
//                [--sim_shards=N] [--trace_dir=DIR]
//
// Two kinds of numbers come out. Modeled numbers (units sim_ms / sim_us /
// txn/s) are virtual-time results of the simulation; they are a pure
// function of the workload, the seed and the measured window. Host numbers
// (units s / us / ns / MB) are time and memory costs of running the
// simulator on this machine; the end-to-end times are CPU times scaled to a
// reference host's speed (HostGauge), most per-layer ones wall-clock.
//
// The end-to-end metrics come from an untraced run. --trace reruns the
// workload traced at 1 and at 3 PDES workers and adds the per-layer
// metrics: registry counters over the measured window, client spans,
// simulator host cost, PDES speedup and kernel timings, and writes
// TRACE_<workload>.json. perfbench/README.md is the metric catalog.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "common/metrics.h"
#include "harness/bulk_load.h"
#include "harness/client_api.h"
#include "harness/cluster.h"
#include "harness/scale.h"
#include "harness/synthetic_table.h"
#include "log/applicator.h"
#include "log/log_record.h"
#include "page/btree.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "sim/topology.h"
#include "storage/segment.h"
#include "tests/test_util.h"
#include "workload/sysbench.h"
#include "workload/tpcc.h"

namespace aurora::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double CpuSeconds(clockid_t clock) {
  timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// CPU time of the whole process. At one PDES worker the simulator runs on
/// the calling thread only, so this is its wall time minus the time the
/// kernel ran something else on its CPU (and, on a KVM guest with
/// paravirtual steal accounting, the time the hypervisor ran another
/// guest).
double ProcessCpuSeconds() { return CpuSeconds(CLOCK_PROCESS_CPUTIME_ID); }

/// Defeats dead-code elimination of a kernel's result.
template <typename T>
void Keep(const T& v) {
  asm volatile("" : : "r,m"(v) : "memory");
}

/// How fast this host runs right now, against the reference host.
///
/// On a shared host the CPU time of a fixed piece of work drifts by 10% or
/// more over minutes, as other tenants come and go on the same cores and
/// caches.
/// No statistic over one run removes a drift longer than the run, so the
/// benchmark measures the drift instead: it times a fixed reference pass --
/// pointer chasing, ordered-map lookups, table-driven CRC and small heap
/// allocations, the kinds of work the simulator does -- between slices of
/// the run, and scales CPU times by reference-pass time / measured time.
/// The pass is the benchmark's own code, so a change to the simulator
/// cannot move it. Its working set (under 256 KiB) stays in the core's L2
/// cache after one untimed pass, so the simulator's memory use between two
/// measurements does not change its time either.
class HostGauge {
 public:
  /// CPU time of one pass on the reference host (4-vCPU 2.1 GHz Xeon VM).
  static constexpr double kReferencePassS = 178e-6;

  HostGauge() : chain_(kChain), table_() {
    // One cycle through every slot, in a scattered order.
    std::vector<uint32_t> order(kChain);
    for (uint32_t i = 0; i < kChain; ++i) order[i] = i;
    uint64_t x = 88172645463325252ull;  // xorshift64: no simulator code
    for (uint32_t i = kChain - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(order[i], order[x % (i + 1)]);
    }
    for (uint32_t i = 0; i < kChain; ++i) {
      chain_[order[i]] = order[(i + 1) % kChain];
    }
    for (uint32_t i = 0; i < kMapKeys; ++i) map_[i * 2654435761u] = i;
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0x82f63b78u ^ (c >> 1) : c >> 1;
      table_[i] = c;
    }
  }

  HostGauge(const HostGauge&) = delete;
  HostGauge& operator=(const HostGauge&) = delete;

  /// Reference-pass time / this host's pass time now: below 1 on a host
  /// running slower than the reference. One untimed pass warms the caches,
  /// then the median of three timed passes counts.
  double Speed() {
    Pass();
    double t[3];
    for (double& s : t) {
      const double t0 = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
      Pass();
      s = CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - t0;
    }
    std::sort(t, t + 3);
    return kReferencePassS / t[1];
  }

 private:
  static constexpr uint32_t kChain = 1 << 15;  // 128 KiB
  static constexpr uint32_t kMapKeys = 2048;   // about 100 KiB of nodes

  void Pass() {
    uint64_t sum = 0;
    for (int i = 0; i < 4096; ++i) pos_ = chain_[pos_];
    for (uint32_t i = 0; i < kMapKeys; ++i) {
      auto it = map_.find((i * 7919 + pos_) % kMapKeys * 2654435761u);
      if (it != map_.end()) sum += it->second;
    }
    uint32_t crc = ~0u;
    for (uint32_t i = 0; i < 8192; ++i) {
      crc = table_[(crc ^ (i * 31 + pos_)) & 0xff] ^ (crc >> 8);
    }
    for (int i = 0; i < 128; ++i) {
      auto s = std::make_unique<std::string>(40 + i % 64, 'g');
      sum += s->size();
      Keep(s->data());
    }
    Keep(sum + crc);
  }

  std::vector<uint32_t> chain_;
  std::map<uint32_t, uint32_t> map_;
  uint32_t table_[256];
  uint32_t pos_ = 0;
};

HostGauge& Gauge() {
  static HostGauge gauge;
  return gauge;
}

/// The element of rank floor(q * (size - 1)) in sorted order.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const size_t k = static_cast<size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + k, v.end());
  return v[k];
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One named workload: a closed loop with zero think time on an r3.8xlarge
/// writer, 3 AZs x 4 storage hosts and the default flush policy (500 us
/// batch linger; storage persists before it acks).
///
/// SysBench workloads mix two kinds of connection over one table:
/// `readers` run read-only transactions of `point_selects` selects and
/// `writers` run single-update transactions. Neither kind waits for a lock
/// while holding one another transaction needs, so no lock cycle -- and no
/// deadlock victim -- can form: every failed transaction is a real failure.
/// `warehouses` > 0 selects TPC-C instead.
struct WorkloadSpec {
  const char* name;
  int readers;
  int point_selects;
  int writers;
  /// SysBench table size in paper-GB (scale::kRowsPerGb rows each).
  double scale_gb;
  size_t buffer_pool_pages;
  int warehouses;
  int tpcc_connections;
  SimDuration warmup;
  /// Simulated measured window per second of --seconds, sized so the
  /// measured phase takes roughly --seconds of wall time on a 4-core x86
  /// host. The window is fixed per (workload, --seconds), never derived
  /// from the wall clock, so modeled metrics stay deterministic.
  SimDuration measure_per_second;

  bool tpcc() const { return warehouses > 0; }
};

// Why these four (README.md has the full rationale):
//  write_only       -- Fig. 7 / Table 1 commit path: redo fan-out to six
//                      segments, quorum acks, CRC'd frames, storage apply.
//  oltp_read_miss   -- Fig. 9 read path: a 400-page pool over 102,400 rows
//                      turns nearly every select into a storage page fetch;
//                      four update connections keep redo flowing.
//  read_only_cached -- the bypass: every read hits the writer's buffer pool;
//                      no redo, no storage or network traffic.
//  tpcc_hot_rows    -- Table 5: multi-table transactions, B+-tree inserts and
//                      splits, hot warehouse/district rows under locking.
constexpr WorkloadSpec kWorkloads[] = {
    {"write_only", 0, 0, 64, 10.0, scale::kCachePagesFor170Gb, 0, 0,
     Millis(100), Millis(125)},
    {"oltp_read_miss", 16, 10, 4, 40.0, 400, 0, 0, Millis(200), Millis(270)},
    {"read_only_cached", 128, 10, 0, 10.0, scale::kCachePagesFor170Gb, 0, 0,
     Millis(100), Millis(150)},
    {"tpcc_hot_rows", 0, 0, 0, 0, scale::kCachePagesFor170Gb, 20, 30,
     Millis(200), Millis(300)},
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// TimedClient: the benchmark's view of every ClientApi call
// ---------------------------------------------------------------------------

const char* StatusName(const Status& s) {
  if (s.ok()) return "ok";
  if (s.IsNotFound()) return "not_found";
  if (s.IsAborted()) return "aborted";
  if (s.IsTimedOut()) return "timed_out";
  if (s.IsBusy()) return "busy";
  if (s.IsUnavailable()) return "unavailable";
  if (s.IsFenced()) return "fenced";
  if (s.IsCorruption()) return "corruption";
  return "error";
}

/// Exact nearest-rank percentile of integer sim-us samples.
uint64_t Percentile(std::vector<uint32_t>* v, double p) {
  if (v->empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v->size()));
  rank = std::clamp<size_t>(rank, 1, v->size()) - 1;
  std::nth_element(v->begin(), v->begin() + rank, v->end());
  return (*v)[rank];
}

/// ClientApi decorator around AuroraClient. It times every call in
/// simulated time, remembers each transaction's writes so the final state
/// can be checked against the last acknowledged commit, and, when spans are
/// on, records one span per call for the trace file. Workload drivers keep
/// no connection id in the API, so it is inferred: a Begin() issued from
/// inside the completion callback of a transaction's last call belongs to
/// that transaction's connection (closed loop); any other Begin() opens a
/// new connection.
///
/// All calls arrive on the writer's shard, so no locking is needed.
class TimedClient final : public ClientApi {
 public:
  enum class Op { kGet, kPut, kDelete, kCommit, kRollback, kTxn };
  static const char* OpName(Op op) {
    static const char* const kNames[] = {"get",    "put",      "delete",
                                         "commit", "rollback", "txn"};
    return kNames[static_cast<int>(op)];
  }
  struct Span {
    TxnId txn;
    int conn;
    Op op;
    const char* status;
    SimTime start;
    SimTime end;
  };

  TimedClient(ClientApi* inner, sim::EventLoop* loop)
      : inner_(inner), loop_(loop) {}

  TimedClient(const TimedClient&) = delete;
  TimedClient& operator=(const TimedClient&) = delete;

  /// Measured window [start, end): calls completing inside it are counted.
  void SetWindow(SimTime start, SimTime end) {
    window_start_ = start;
    window_end_ = end;
  }
  /// Records spans for the first `max_txns` transactions that begin in the
  /// window (the trace file), plus per-op span sums for every transaction.
  void EnableSpans(size_t max_txns) { max_traced_txns_ = max_txns; }

  TxnId Begin() override {
    TxnId id = inner_->Begin();
    const SimTime now = loop_->now();
    Txn& t = txns_[id];
    t.begin = now;
    t.conn = callback_conn_ >= 0 ? callback_conn_ : next_conn_++;
    if (max_traced_txns_ > 0 && InWindow(now) &&
        traced_txns_ < max_traced_txns_) {
      t.traced = true;
      ++traced_txns_;
    }
    return id;
  }

  void Put(TxnId txn, PageId table, const std::string& key,
           const std::string& value,
           std::function<void(Status)> done) override {
    const SimTime start = loop_->now();
    inner_->Put(txn, table, key, value,
                [this, txn, table, key, value, start,
                 done = std::move(done)](Status s) {
                  Txn* t = Find(txn);
                  if (t != nullptr && s.ok()) {
                    t->writes.push_back({table, key, value});
                    t->user_bytes += key.size() + value.size();
                  }
                  Complete(txn, t, Op::kPut, s, start, !s.ok(),
                           [&] { done(s); });
                });
  }

  void Get(TxnId txn, PageId table, const std::string& key,
           std::function<void(Result<std::string>)> done) override {
    const SimTime start = loop_->now();
    inner_->Get(txn, table, key,
                [this, txn, start, done = std::move(done)](
                    Result<std::string> r) {
                  Txn* t = Find(txn);
                  const Status s = r.status();
                  Complete(txn, t, Op::kGet, s, start,
                           !s.ok() && !s.IsNotFound(),
                           [&] { done(std::move(r)); });
                });
  }

  void Delete(TxnId txn, PageId table, const std::string& key,
              std::function<void(Status)> done) override {
    const SimTime start = loop_->now();
    inner_->Delete(txn, table, key,
                   [this, txn, table, key, start,
                    done = std::move(done)](Status s) {
                     Txn* t = Find(txn);
                     if (t != nullptr && s.ok()) {
                       t->writes.push_back({table, key, std::nullopt});
                       t->user_bytes += key.size();
                     }
                     Complete(txn, t, Op::kDelete, s, start, !s.ok(),
                              [&] { done(s); });
                   });
  }

  void Commit(TxnId txn, std::function<void(Status)> done) override {
    const SimTime start = loop_->now();
    inner_->Commit(txn, [this, txn, start, done = std::move(done)](Status s) {
      Txn* t = Find(txn);
      if (t != nullptr && s.ok()) {
        const SimTime now = loop_->now();
        // Acks arrive in commit-LSN order, which for conflicting writers
        // is their lock order, so the last ack per key is the final value.
        for (Write& w : t->writes) {
          expected_[{w.table, w.key}] = std::move(w.value);
        }
        if (InWindow(now)) {
          ++committed_;
          txn_us_.push_back(static_cast<uint32_t>(now - t->begin));
          if (!t->writes.empty()) {
            commit_us_.push_back(static_cast<uint32_t>(now - start));
          }
          txn_span_sum_ += now - t->begin;
          read_span_sum_ += t->read_us;
          write_span_sum_ += t->write_us;
          commit_span_sum_ += now - start;
          user_bytes_ += t->user_bytes;
        }
      }
      Complete(txn, t, Op::kCommit, s, start, !s.ok(), [&] { done(s); },
               /*ends_txn=*/true);
    });
  }

  void Rollback(TxnId txn, std::function<void(Status)> done) override {
    const SimTime start = loop_->now();
    inner_->Rollback(txn,
                     [this, txn, start, done = std::move(done)](Status s) {
                       Complete(txn, Find(txn), Op::kRollback, s, start,
                                /*failed=*/true, [&] { done(s); },
                                /*ends_txn=*/true);
                     });
  }

  void SetActiveConnections(int n) override {
    inner_->SetActiveConnections(n);
  }

  // --- Results -------------------------------------------------------------
  uint64_t committed() const { return committed_; }
  uint64_t failed() const { return failed_; }
  std::vector<uint32_t>* txn_us() { return &txn_us_; }
  std::vector<uint32_t>* read_us() { return &read_us_; }
  std::vector<uint32_t>* commit_us() { return &commit_us_; }
  uint64_t txn_span_sum() const { return txn_span_sum_; }
  uint64_t read_span_sum() const { return read_span_sum_; }
  uint64_t write_span_sum() const { return write_span_sum_; }
  uint64_t commit_span_sum() const { return commit_span_sum_; }
  uint64_t user_bytes() const { return user_bytes_; }
  /// Transactions begun but never ended (committed, failed or rolled back).
  size_t open_txns() const { return txns_.size(); }
  /// Final value of every key written by an acknowledged commit (nullopt =
  /// deleted).
  const std::map<std::pair<PageId, std::string>,
                 std::optional<std::string>>& expected() const {
    return expected_;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  struct Write {
    PageId table;
    std::string key;
    std::optional<std::string> value;
  };
  struct Txn {
    SimTime begin = 0;
    int conn = 0;
    bool traced = false;
    uint64_t read_us = 0;
    uint64_t write_us = 0;
    uint64_t user_bytes = 0;
    std::vector<Write> writes;
  };

  bool InWindow(SimTime t) const {
    return t >= window_start_ && t < window_end_;
  }
  Txn* Find(TxnId txn) {
    auto it = txns_.find(txn);
    return it == txns_.end() ? nullptr : &it->second;
  }

  /// Book-keeping shared by every completion: per-op timing, the span, and
  /// -- when the call failed or ended the transaction -- retiring it. The
  /// caller's callback runs last, with the transaction's connection current
  /// so that a Begin() it issues inherits the connection.
  template <typename Fn>
  void Complete(TxnId txn, Txn* t, Op op, const Status& s, SimTime start,
                bool failed, Fn&& invoke, bool ends_txn = false) {
    const SimTime now = loop_->now();
    int conn = -1;
    if (t != nullptr) {
      conn = t->conn;
      if (op == Op::kGet) {
        t->read_us += now - start;
        if (s.ok() && InWindow(now)) {
          read_us_.push_back(static_cast<uint32_t>(now - start));
        }
      } else if (op == Op::kPut || op == Op::kDelete) {
        t->write_us += now - start;
      }
      if (t->traced) {
        spans_.push_back({txn, t->conn, op, StatusName(s), start, now});
      }
      if (failed || ends_txn) {
        if (failed && InWindow(now)) ++failed_;
        if (t->traced) {
          spans_.push_back({txn, t->conn, Op::kTxn,
                            failed ? "failed" : "ok", t->begin, now});
        }
        txns_.erase(txn);
      }
    }
    const int saved = callback_conn_;
    callback_conn_ = conn;
    invoke();
    callback_conn_ = saved;
  }

  ClientApi* inner_;
  sim::EventLoop* loop_;
  SimTime window_start_ = 0;
  SimTime window_end_ = 0;
  std::unordered_map<TxnId, Txn> txns_;
  int callback_conn_ = -1;
  int next_conn_ = 0;

  uint64_t committed_ = 0;
  uint64_t failed_ = 0;
  std::vector<uint32_t> txn_us_;
  std::vector<uint32_t> read_us_;
  std::vector<uint32_t> commit_us_;
  uint64_t txn_span_sum_ = 0;
  uint64_t read_span_sum_ = 0;
  uint64_t write_span_sum_ = 0;
  uint64_t commit_span_sum_ = 0;
  uint64_t user_bytes_ = 0;

  size_t max_traced_txns_ = 0;
  size_t traced_txns_ = 0;
  std::vector<Span> spans_;

  std::map<std::pair<PageId, std::string>, std::optional<std::string>>
      expected_;
};

/// Chrome trace-event JSON of the recorded spans, in simulated us.
std::string TraceJson(const std::vector<TimedClient::Span>& spans) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buf[256];
  for (size_t i = 0; i < spans.size(); ++i) {
    const TimedClient::Span& s = spans[i];
    snprintf(buf, sizeof(buf),
             "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,"
             "\"ts\":%llu,\"dur\":%llu,\"args\":{\"txn\":%llu,"
             "\"status\":\"%s\"}}%s\n",
             TimedClient::OpName(s.op), s.conn,
             static_cast<unsigned long long>(s.start),
             static_cast<unsigned long long>(s.end - s.start),
             static_cast<unsigned long long>(s.txn), s.status,
             i + 1 < spans.size() ? "," : "");
    out += buf;
  }
  out += "]}\n";
  return out;
}

// ---------------------------------------------------------------------------
// Cluster set-up
// ---------------------------------------------------------------------------

/// A cluster with its tables attached or loaded, ready to run a workload.
/// Members are destroyed in reverse order: the clients first, the catalog
/// (the fleet-wide page synthesizer) last.
struct World {
  std::unique_ptr<SyntheticCatalog> catalog;
  std::unique_ptr<AuroraCluster> cluster;
  std::unique_ptr<AuroraClient> engine_client;
  std::unique_ptr<TimedClient> client;
  const SyntheticTableLayout* layout = nullptr;  // SysBench table
  TpccTables tpcc_tables;
};

ClusterOptions MakeClusterOptions(uint64_t seed, int workers,
                                  size_t buffer_pool_pages) {
  ClusterOptions o;
  o.engine.page_size = scale::kPageSize;
  o.engine.pages_per_pg = 2048;
  o.engine.buffer_pool_pages = buffer_pool_pages;
  o.storage_nodes_per_az = 4;
  o.writer_instance = sim::R38XLarge();
  o.seed = seed;
  o.sim_shards = workers;
  return o;
}

TpccOptions MakeTpccOptions(const WorkloadSpec& spec, uint64_t seed) {
  TpccOptions t;
  t.warehouses = spec.warehouses;
  t.connections = spec.tpcc_connections;
  t.customers_per_district = 10;
  t.stock_items = 200;
  // One stock row per NewOrder, updated as its last statement: every lock
  // wait then ends at a transaction that waits for nothing, so the hot rows
  // queue but never deadlock and no transaction fails.
  t.items_per_order = 1;
  t.seed = seed;
  return t;
}

/// Builds the cluster through bootstrap and table attach (SysBench) or
/// table creation and load through the write path (TPC-C). Returns "" on
/// success, else what failed.
std::string SetUp(const WorkloadSpec& spec, uint64_t seed, int workers,
                  World* w) {
  w->catalog = std::make_unique<SyntheticCatalog>();
  w->cluster = std::make_unique<AuroraCluster>(
      MakeClusterOptions(seed, workers, spec.buffer_pool_pages));
  AuroraCluster* c = w->cluster.get();
  Status s = c->BootstrapSync();
  if (!s.ok()) return "bootstrap: " + s.ToString();
  w->engine_client = std::make_unique<AuroraClient>(c->writer());
  w->client =
      std::make_unique<TimedClient>(w->engine_client.get(), c->writer_loop());
  if (!spec.tpcc()) {
    auto layout =
        AttachSyntheticTable(c, w->catalog.get(), "sbtest",
                             scale::RowsForGb(spec.scale_gb), scale::kRowBytes);
    if (!layout.ok()) return "attach: " + layout.status().ToString();
    w->layout = *layout;
    return "";
  }
  const char* names[] = {"warehouse", "district", "customer", "stock",
                         "orders"};
  PageId* anchors[] = {&w->tpcc_tables.warehouse, &w->tpcc_tables.district,
                       &w->tpcc_tables.customer, &w->tpcc_tables.stock,
                       &w->tpcc_tables.orders};
  for (int i = 0; i < 5; ++i) {
    s = c->CreateTableSync(names[i]);
    if (!s.ok()) return std::string("create ") + names[i] + ": " + s.ToString();
    auto a = c->TableAnchorSync(names[i]);
    if (!a.ok()) return std::string("anchor ") + names[i];
    *anchors[i] = *a;
  }
  TpccDriver loader(c->writer_loop(), w->client.get(), w->tpcc_tables,
                    MakeTpccOptions(spec, seed));
  bool loaded = false;
  Status ls = Status::TimedOut("load did not finish");
  loader.Load([&](Status st) {
    ls = st;
    loaded = true;
  });
  c->RunUntil([&] { return loaded; }, Minutes(10));
  if (!ls.ok()) return "tpcc load: " + ls.ToString();
  return "";
}

// ---------------------------------------------------------------------------
// One measured pass
// ---------------------------------------------------------------------------

/// What one pass measured. Everything is copied out of the world so the
/// cluster can be torn down before the next pass.
struct PassResult {
  std::string error;
  SimDuration measured = 0;
  // Client view of the window.
  uint64_t committed = 0;
  uint64_t failed = 0;
  std::vector<uint32_t> txn_us;
  std::vector<uint32_t> read_us;
  std::vector<uint32_t> commit_us;
  double read_share = 0;
  double write_share = 0;
  double commit_share = 0;
  uint64_t user_bytes = 0;
  // Host cost. open_cpu_s is the process CPU time when the window opens;
  // window_wall_s sums the slices of the measured window; speeds are the
  // HostGauge readings at the slice marks; slice_host_s are the slices' CPU
  // times scaled to the reference host's speed; loop_* cover every
  // RunOne() of a traced pass.
  double open_cpu_s = 0;
  double window_wall_s = 0;
  std::vector<double> slice_wall_s;
  std::vector<double> slice_host_s;
  std::vector<double> speeds;
  double stall_wall_s = 0;
  double loop_wall_s = 0;
  uint64_t loop_events = 0;
  // Registry at the window's edges.
  MetricsSnapshot before;
  MetricsSnapshot after;
  double storage_segment_mb = 0;
  // Output check.
  size_t open_txns = 0;
  size_t verified = 0;
  size_t mismatches = 0;
  std::string trace_json;

  bool correct() const { return open_txns == 0 && mismatches == 0; }

  /// Host time of the window, from its lower-quartile slice scaled up to
  /// the window. What interference the gauge misses only adds time, so a
  /// burst of it shorter than three quarters of the window does not move
  /// the lower quartile. It is the quartile rather than the fastest slices
  /// because the modeled work per slice varies somewhat on read-miss
  /// workloads.
  double HostWindowS() const {
    return Quantile(slice_host_s, 0.25) *
           static_cast<double>(slice_host_s.size());
  }
};

constexpr size_t kTraceTxns = 256;
constexpr size_t kVerifyKeys = 2000;
constexpr size_t kVerifyUnwritten = 500;
constexpr int kSetups = 3;
constexpr int kSlices = 100;

/// Reads back up to kVerifyKeys of the keys written by acknowledged commits
/// (evenly spaced in key order) and counts those whose value differs from
/// the last acknowledged write. SysBench tables also get up to
/// kVerifyUnwritten rows nobody wrote checked against their loaded value,
/// which is all a read-only workload can be checked against.
void VerifyFinalState(World* w, PassResult* r) {
  auto check = [w, r](PageId table, const std::string& key,
                      const std::optional<std::string>& want) {
    ++r->verified;
    Result<std::string> got = w->cluster->GetSync(table, key);
    const bool ok = want.has_value() ? (got.ok() && *got == *want)
                                     : (!got.ok() && got.status().IsNotFound());
    if (!ok) {
      if (r->mismatches < 5) {
        fprintf(stderr, "verify: mismatch on key %s (status %s)\n",
                key.c_str(), got.status().ToString().c_str());
      }
      ++r->mismatches;
    }
  };
  const auto& expected = w->client->expected();
  const size_t stride = std::max<size_t>(1, expected.size() / kVerifyKeys);
  size_t i = 0;
  for (const auto& [where, value] : expected) {
    if (i++ % stride == 0 && r->verified < kVerifyKeys) {
      check(where.first, where.second, value);
    }
  }
  if (w->layout == nullptr) return;
  const uint64_t rows = w->layout->rows();
  for (uint64_t n = 0, checked = 0; n < kVerifyUnwritten && checked < rows;
       ++checked) {
    // Scattered rows: a stride coprime with the row count.
    const uint64_t row = (checked * 7919 + 13) % rows;
    const std::string key = SyntheticTableLayout::KeyOf(row);
    if (expected.count({w->layout->anchor(), key}) != 0) continue;
    check(w->layout->anchor(), key, w->layout->UserValueOf(row));
    ++n;
  }
}

/// Runs the workload on a set-up world: warmup, measured window, drain,
/// then the output check (untraced) or the trace (traced). With
/// `warmup_only` it returns as the window opens (a set-up timing repetition
/// whose world is then discarded).
void RunPass(const WorkloadSpec& spec, uint64_t seed, SimDuration warmup,
             SimDuration measure, bool traced, bool warmup_only, World* w,
             PassResult* r) {
  AuroraCluster* c = w->cluster.get();
  sim::ShardedEventLoop* loop = c->loop();
  TimedClient* client = w->client.get();
  const SimTime start = loop->now() + warmup;
  const SimTime end = start + measure;
  client->SetWindow(start, end);
  if (traced) client->EnableSpans(kTraceTxns);
  r->measured = measure;

  // Snapshots run on the control shard: a consistent cut with every shard
  // quiesced at exactly `start` / `end`. Between them, kSlices + 1 marks
  // cut the window into equal sim-time slices. Each mark measures the
  // host's speed; a slice's time runs from the end of one measurement to
  // the start of the next, so the gauge's own time is in no slice.
  struct Mark {
    Clock::time_point wall_in, wall_out;
    double cpu_in, cpu_out;
  };
  uint64_t stall_start = 0;
  std::vector<Mark> marks;
  loop->control()->ScheduleAt(start, [&] {
    r->before = c->metrics()->Snapshot();
    stall_start = loop->stall_wall_us();
    r->open_cpu_s = ProcessCpuSeconds();
  });
  for (int i = 0; i <= kSlices; ++i) {
    loop->control()->ScheduleAt(start + measure * i / kSlices, [&marks, r] {
      Mark m;
      m.wall_in = Clock::now();
      m.cpu_in = ProcessCpuSeconds();
      r->speeds.push_back(Gauge().Speed());
      m.cpu_out = ProcessCpuSeconds();
      m.wall_out = Clock::now();
      marks.push_back(m);
    });
  }
  loop->control()->ScheduleAt(end, [&] {
    r->stall_wall_s =
        static_cast<double>(loop->stall_wall_us() - stall_start) / 1e6;
    r->after = c->metrics()->Snapshot();
  });

  int running = 0;
  auto finished = [&running] { --running; };
  std::unique_ptr<TpccDriver> tpcc;
  std::vector<std::unique_ptr<SysbenchDriver>> sysbench;
  if (spec.tpcc()) {
    TpccOptions t = MakeTpccOptions(spec, seed);
    t.warmup = warmup;
    t.duration = measure;
    tpcc = std::make_unique<TpccDriver>(c->writer_loop(), client,
                                        w->tpcc_tables, t);
    running = 1;
    tpcc->Run(finished);
  } else {
    SysbenchOptions o;
    o.table_rows = w->layout->rows();
    o.value_size = scale::kRowBytes;
    o.warmup = warmup;
    o.duration = measure;
    if (spec.readers > 0) {
      o.mode = SysbenchOptions::Mode::kReadOnly;
      o.connections = spec.readers;
      o.point_selects = spec.point_selects;
      o.seed = seed;
      sysbench.push_back(std::make_unique<SysbenchDriver>(
          c->writer_loop(), client, w->layout->anchor(), o));
    }
    if (spec.writers > 0) {
      o.mode = SysbenchOptions::Mode::kWriteOnly;
      o.connections = spec.writers;
      o.index_updates = 1;
      o.seed = seed ^ 0x9e3779b97f4a7c15ull;  // independent of the readers
      sysbench.push_back(std::make_unique<SysbenchDriver>(
          c->writer_loop(), client, w->layout->anchor(), o));
    }
    running = static_cast<int>(sysbench.size());
    for (auto& d : sysbench) d->Run(finished);
  }
  auto done = [&running] { return running == 0; };

  // One PDES window per RunOne(). A closed loop drains within a lock
  // timeout of the window's end; the deadline only bounds a hung run.
  const SimTime deadline = end + Seconds(30);
  const uint64_t events0 = loop->events_executed();
  double loop_wall = 0;
  while (!done() && loop->now() < deadline &&
         !(warmup_only && !marks.empty())) {
    bool more;
    if (traced) {
      const Clock::time_point t0 = Clock::now();
      more = loop->RunOne();
      loop_wall += SecondsSince(t0);
    } else {
      more = loop->RunOne();
    }
    if (!more) break;
  }
  double gauge_wall = 0;
  for (const Mark& m : marks) {
    gauge_wall += std::chrono::duration<double>(m.wall_out - m.wall_in).count();
  }
  r->loop_wall_s = traced ? loop_wall - gauge_wall : 0;
  r->loop_events = loop->events_executed() - events0;
  if (warmup_only) return;
  for (size_t i = 1; i < marks.size(); ++i) {
    const double wall =
        std::chrono::duration<double>(marks[i].wall_in - marks[i - 1].wall_out)
            .count();
    r->slice_wall_s.push_back(wall);
    r->window_wall_s += wall;
    r->slice_host_s.push_back((marks[i].cpu_in - marks[i - 1].cpu_out) *
                              (r->speeds[i] + r->speeds[i - 1]) / 2);
  }
  if (!done()) {
    r->error = "workload did not drain by the deadline";
    return;
  }

  r->committed = client->committed();
  r->failed = client->failed();
  r->txn_us = std::move(*client->txn_us());
  r->read_us = std::move(*client->read_us());
  r->commit_us = std::move(*client->commit_us());
  const double span = static_cast<double>(client->txn_span_sum());
  if (span > 0) {
    r->read_share = static_cast<double>(client->read_span_sum()) / span;
    r->write_share = static_cast<double>(client->write_span_sum()) / span;
    r->commit_share = static_cast<double>(client->commit_span_sum()) / span;
  }
  r->user_bytes = client->user_bytes();
  r->open_txns = client->open_txns();
  if (!traced) {
    VerifyFinalState(w, r);
    return;
  }
  // A traced pass replays the untraced one exactly (same seed), so its
  // final state needs no second check; its trace is compared instead.
  r->trace_json = TraceJson(client->spans());
  uint64_t bytes = 0;
  for (size_t i = 0; i < c->num_storage_nodes(); ++i) {
    for (PgId pg = 0; pg < c->control_plane()->num_pgs(); ++pg) {
      bytes += c->storage_node(i)->SegmentBytes(pg);
    }
  }
  r->storage_segment_mb = static_cast<double>(bytes) / (1 << 20);
}

// ---------------------------------------------------------------------------
// Kernels: direct calls into module functions, timed on the host
// ---------------------------------------------------------------------------

/// Host ns per call of `body`: the median of 5 repetitions, each calling it
/// until 10 ms have passed.
template <typename Fn>
double TimeNs(Fn&& body) {
  std::vector<double> reps;
  int i = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    int calls = 0;
    do {
      for (int k = 0; k < 16; ++k) body(i++);
      calls += 16;
    } while (SecondsSince(t0) < 0.01);
    reps.push_back(SecondsSince(t0) * 1e9 / calls);
  }
  std::sort(reps.begin(), reps.end());
  return reps[reps.size() / 2];
}

struct Metric {
  double value;
  const char* unit;
};
using MetricMap = std::map<std::string, Metric>;

/// Host time per call of the module functions the simulator spends its
/// time in (CRC, redo codec and apply, B+-tree, event loop, page
/// reconstruction, network delivery), on the inputs of bench/micro_core.cc
/// and bench/micro_sim.cc.
void RunKernels(MetricMap* m) {
  auto put = [m](const char* name, double ns) { (*m)[name] = {ns, "ns"}; };

  std::string block(4096, 'x');
  put("common.crc32c_ns_per_kib", TimeNs([&](int i) {
        block[0] = static_cast<char>(i);
        Keep(crc32c::Value(block.data(), block.size()));
      }) / 4.0);

  LogRecord rec;
  rec.lsn = 123456789;
  rec.prev_pg_lsn = 123456000;
  rec.prev_vol_lsn = 123456700;
  rec.page_id = 42;
  rec.txn_id = 7;
  rec.op = RedoOp::kUpdate;
  rec.payload = LogRecord::MakeKeyValuePayload("key0000000000001",
                                               std::string(100, 'v'));
  put("log.codec_ns", TimeNs([&](int) {
        std::string buf;
        rec.EncodeTo(&buf);
        Slice in(buf);
        LogRecord out;
        Keep(LogRecord::DecodeFrom(&in, &out).ok());
      }));

  Page page(16384);
  page.Format(1, PageType::kBTreeLeaf, 0);
  int slot = 0;
  put("log.apply_ns", TimeNs([&](int i) {
        LogRecord r;
        r.lsn = static_cast<Lsn>(i) + 2;
        r.page_id = 1;
        r.op = page.slot_count() <= slot ? RedoOp::kInsert : RedoOp::kUpdate;
        char key[32];
        snprintf(key, sizeof(key), "key%06d", slot);
        r.payload = LogRecord::MakeKeyValuePayload(
            key, std::string(40, static_cast<char>('a' + i % 26)));
        Keep(LogApplicator::Apply(r, &page).ok());
        slot = (slot + 1) % 100;
        if (page.FreeSpace() < 256) {
          page.Format(1, PageType::kBTreeLeaf, 0);
          slot = 0;
        }
      }));

  // A B+-tree of 100,000 keys; inserts append past them, lookups scatter
  // over them.
  constexpr uint64_t kTreeKeys = 100000;
  testing::MemoryPageProvider provider(16384);
  testing::LocalWalSink sink;
  MiniTransaction boot(0);
  auto anchor = BTree::Create(&provider, &boot);
  (void)sink.CommitMtr(&boot);
  BTree tree(&provider, *anchor);
  const std::string value(100, 'v');
  uint64_t next = 0;
  auto insert = [&] {
    MiniTransaction mtr(1);
    Keep(tree.Insert(testing::Key(next++), value, &mtr).ok());
    (void)sink.CommitMtr(&mtr);
  };
  while (next < kTreeKeys) insert();
  put("page.btree_insert_ns", TimeNs([&](int) { insert(); }));
  std::string out;
  put("page.btree_get_ns", TimeNs([&](int i) {
        Keep(tree.Get(testing::Key(static_cast<uint64_t>(i) * 7919 % kTreeKeys),
                      &out)
                 .ok());
      }));

  sim::EventLoop loop;
  Random rng(42);
  uint64_t fired = 0;
  put("sim.schedule_run_ns", TimeNs([&](int) {
        for (int i = 0; i < 4096; ++i) {
          loop.Schedule(rng.Uniform(1000), [&fired] { ++fired; });
        }
        loop.Run();
      }) / 4096.0);

  constexpr size_t kSegPage = 16384;
  constexpr int kSegPages = 4;
  Segment seg(0, kSegPage);
  seg.set_page_cache_budget(64 * kSegPage);
  Lsn prev = kInvalidLsn;
  for (int i = 0; i < 256; ++i) {
    LogRecord r;
    r.lsn = 100 + static_cast<Lsn>(i) * 10;
    r.prev_pg_lsn = prev;
    r.prev_vol_lsn = prev;
    r.page_id = static_cast<PageId>(i % kSegPages);
    r.txn_id = 1;
    if (i < kSegPages) {
      r.op = RedoOp::kFormatPage;
      r.payload = LogRecord::MakeFormatPayload(
          static_cast<uint8_t>(PageType::kBTreeLeaf), 0);
    } else {
      char key[16];
      snprintf(key, sizeof(key), "k%d", i);
      r.op = RedoOp::kInsert;
      r.payload = LogRecord::MakeKeyValuePayload(key, std::string(64, 'v'));
    }
    prev = r.lsn;
    seg.AddRecord(r);
  }
  const Lsn read_point = seg.scl();
  put("storage.get_page_as_of_ns", TimeNs([&](int i) {
        Keep(seg.GetPageAsOf(static_cast<PageId>(i % kSegPages), read_point)
                 .ok());
      }));

  sim::Topology topo(3);
  sim::Network net(&loop, &topo, sim::FabricOptions{}, Random(7));
  const sim::NodeId src = topo.AddNode(0, "src");
  std::vector<sim::NodeId> dst;
  for (int az = 0; az < 3; ++az) {
    for (const char* name : {"d", "e"}) {
      dst.push_back(topo.AddNode(static_cast<sim::AzId>(az),
                                 name + std::to_string(az)));
    }
  }
  uint64_t received = 0;
  for (sim::NodeId n : dst) {
    net.Register(n, [&received](const sim::Message&) { ++received; });
  }
  const std::string body(1024, 'b');
  put("sim.net_send_deliver_ns", TimeNs([&](int) {
        auto shared = std::make_shared<const std::string>(body);
        for (sim::NodeId n : dst) net.Send(src, n, 1, "hdr", shared);
        loop.Run();
      }) / static_cast<double>(dst.size()));
}

// ---------------------------------------------------------------------------
// Metric assembly
// ---------------------------------------------------------------------------

/// Reads registry values by name and remembers every name it could not
/// find, so a renamed metric fails the run instead of reading as 0.
class RegistryReader {
 public:
  RegistryReader(const MetricsSnapshot& before, const MetricsSnapshot& after)
      : before_(before), after_(after) {}

  /// Window delta of a counter.
  double Delta(const std::string& name) {
    auto a = after_.counters.find(name);
    auto b = before_.counters.find(name);
    if (a == after_.counters.end() || b == before_.counters.end()) {
      missing_.insert(name);
      return 0;
    }
    return static_cast<double>(a->second - b->second);
  }
  /// Window delta summed over every "storage.node<N>.<suffix>" counter.
  double NodeDelta(const std::string& suffix) {
    static const std::string kPrefix = "storage.node";
    double total = 0;
    bool found = false;
    for (const auto& [name, value] : after_.counters) {
      if (name.compare(0, kPrefix.size(), kPrefix) != 0) continue;
      const size_t dot = name.find('.', kPrefix.size());
      if (dot == std::string::npos || name.compare(dot + 1, std::string::npos,
                                                   suffix) != 0) {
        continue;
      }
      auto b = before_.counters.find(name);
      if (b == before_.counters.end()) continue;
      total += static_cast<double>(value - b->second);
      found = true;
    }
    if (!found) missing_.insert(kPrefix + "<N>." + suffix);
    return total;
  }
  double Gauge(const std::string& name) {
    auto it = after_.gauges.find(name);
    if (it == after_.gauges.end()) {
      missing_.insert(name);
      return 0;
    }
    return it->second;
  }
  /// Histogram summary, cumulative from cluster start.
  HistogramSummary Hist(const std::string& name) {
    auto it = after_.histograms.find(name);
    if (it == after_.histograms.end()) {
      missing_.insert(name);
      return {};
    }
    return it->second;
  }
  const std::set<std::string>& missing() const { return missing_; }

 private:
  const MetricsSnapshot& before_;
  const MetricsSnapshot& after_;
  std::set<std::string> missing_;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

MetricMap EndToEndMetrics(PassResult* r, const std::vector<double>& setup_s,
                          double peak_rss_mb) {
  const double txns = static_cast<double>(r->committed);
  MetricMap m;
  m["txn_per_s"] = {Ratio(txns, ToSeconds(r->measured)), "txn/s"};
  m["txn_p50_ms"] = {ToMillis(Percentile(&r->txn_us, 50)), "sim_ms"};
  m["txn_p99_ms"] = {ToMillis(Percentile(&r->txn_us, 99)), "sim_ms"};
  m["host_us_per_txn"] = {Ratio(r->HostWindowS() * 1e6, txns), "us"};
  m["setup_s"] = {setup_s[setup_s.size() / 2], "s"};
  m["peak_rss_mb"] = {peak_rss_mb, "MB"};
  return m;
}

/// The per-layer set, from the traced pass; `untraced` and `w3` (the traced
/// rerun at 3 PDES workers) give the host-cost comparisons.
MetricMap LayerMetrics(const PassResult& untraced, PassResult* traced,
                       const PassResult& w3, std::set<std::string>* missing) {
  RegistryReader reg(traced->before, traced->after);
  MetricMap m;
  const double txns = static_cast<double>(traced->committed);

  // client.*: TimedClient spans over the window.
  m["client.read_p50_us"] = {double(Percentile(&traced->read_us, 50)),
                             "sim_us"};
  m["client.read_p99_us"] = {double(Percentile(&traced->read_us, 99)),
                             "sim_us"};
  m["client.commit_p50_us"] = {double(Percentile(&traced->commit_us, 50)),
                               "sim_us"};
  m["client.commit_p99_us"] = {double(Percentile(&traced->commit_us, 99)),
                               "sim_us"};
  m["client.read_share"] = {traced->read_share, "ratio"};
  m["client.write_share"] = {traced->write_share, "ratio"};
  m["client.commit_share"] = {traced->commit_share, "ratio"};
  m["client.failed_txn_ratio"] = {
      Ratio(static_cast<double>(traced->failed), txns + traced->failed),
      "ratio"};

  // engine.*: the writer.
  const double hits = reg.Delta("engine.writer.cache.hits");
  const double misses = reg.Delta("engine.writer.cache.misses");
  const double fetches = reg.Delta("engine.writer.storage_page_reads");
  m["engine.cache_hit_ratio"] = {Ratio(hits, hits + misses), "ratio"};
  m["engine.page_fetches_per_txn"] = {Ratio(fetches, txns), "count"};
  const HistogramSummary fetch =
      reg.Hist("engine.writer.trace.page_fetch_latency_us");
  m["engine.page_fetch_p50_us"] = {double(fetch.p50), "sim_us"};
  m["engine.page_fetch_p99_us"] = {double(fetch.p99), "sim_us"};
  m["engine.read_retry_ratio"] = {
      Ratio(reg.Delta("engine.writer.read_retries"), fetches), "ratio"};
  m["engine.commit_linger_p50_us"] = {
      double(reg.Hist("engine.writer.trace.append_to_flush_us").p50),
      "sim_us"};
  m["engine.commit_first_ack_p50_us"] = {
      double(reg.Hist("engine.writer.trace.flush_to_first_ack_us").p50),
      "sim_us"};
  m["engine.commit_quorum_p50_us"] = {
      double(reg.Hist("engine.writer.trace.first_ack_to_quorum_us").p50),
      "sim_us"};
  m["engine.commit_append_to_quorum_p99_us"] = {
      double(reg.Hist("engine.writer.trace.append_to_quorum_us").p99),
      "sim_us"};
  const double batches = reg.Delta("engine.writer.log_batches_sent");
  m["engine.log_batches_per_txn"] = {Ratio(batches, txns), "count"};
  m["engine.log_records_per_batch"] = {
      Ratio(reg.Delta("engine.writer.log_records_sent"), batches), "count"};
  m["engine.log_bytes_per_txn"] = {
      Ratio(reg.Delta("engine.writer.log_bytes_generated"), txns), "bytes"};
  m["engine.batch_retry_ratio"] = {
      Ratio(reg.Delta("engine.writer.batch_retries"), batches), "ratio"};
  m["engine.backpressure_stalls"] = {
      reg.Delta("engine.writer.backpressure_stalls"), "count"};
  m["engine.lock_waits_per_txn"] = {
      Ratio(reg.Delta("engine.writer.locks.waits"), txns), "count"};
  m["engine.deadlocks_per_ktxn"] = {
      Ratio(1000 * reg.Delta("engine.writer.locks.deadlocks"), txns), "count"};
  m["engine.lock_timeouts"] = {reg.Delta("engine.writer.locks.timeouts"),
                               "count"};

  // storage.*: the fleet.
  m["storage.records_per_txn"] = {
      Ratio(reg.NodeDelta("records_received"), txns), "count"};
  m["storage.disk_write_bytes_per_user_byte"] = {
      Ratio(reg.NodeDelta("disk.bytes_written"),
            static_cast<double>(traced->user_bytes)),
      "ratio"};
  m["storage.background_deferrals"] = {reg.NodeDelta("background_deferrals"),
                                       "count"};
  const double pc_hits = reg.Delta("storage.page_cache.hits") +
                         reg.Delta("storage.page_cache.partial_hits");
  const double pc_misses = reg.Delta("storage.page_cache.misses");
  m["storage.page_cache_hit_ratio"] = {Ratio(pc_hits, pc_hits + pc_misses),
                                       "ratio"};
  m["storage.page_read_errors_per_fetch"] = {
      Ratio(reg.NodeDelta("page_read_errors"), fetches), "ratio"};
  m["storage.page_cache_mb"] = {
      reg.Gauge("storage.page_cache.bytes") / (1 << 20), "MB"};
  m["storage.segment_mb"] = {traced->storage_segment_mb, "MB"};

  // sim.*: the simulator.
  const double windows = reg.Delta("sim.pdes.horizon_syncs");
  m["sim.events_per_txn"] = {Ratio(reg.Delta("sim.events_executed"), txns),
                             "count"};
  m["sim.net_msgs_per_txn"] = {
      Ratio(reg.Delta("net.total.messages_sent"), txns), "count"};
  m["sim.net_bytes_per_txn"] = {Ratio(reg.Delta("net.total.bytes_sent"), txns),
                                "bytes"};
  m["sim.pdes_windows_per_sim_ms"] = {
      Ratio(windows, ToMillis(traced->measured)), "count"};
  m["sim.pdes_mail_per_window"] = {
      Ratio(reg.Delta("sim.pdes.mailbox_msgs"), windows), "count"};
  m["sim.window_us_per_txn"] = {
      Ratio(untraced.window_wall_s * 1e6, txns), "us"};
  m["sim.host_ns_per_event"] = {
      Ratio(traced->loop_wall_s * 1e9, static_cast<double>(traced->loop_events)),
      "ns"};
  // Wall time, not CPU time: three workers spend more CPU to take less wall.
  m["sim.pdes_speedup_w3"] = {
      Ratio(Median(traced->slice_wall_s), Median(w3.slice_wall_s)), "ratio"};
  m["sim.pdes_stall_share_w3"] = {Ratio(w3.stall_wall_s, w3.window_wall_s),
                                  "ratio"};
  m["trace.overhead_ratio"] = {
      Ratio(traced->HostWindowS(), untraced.HostWindowS()) - 1, "ratio"};

  *missing = reg.missing();
  return m;
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  long warmup_ms = -1;
  long measure_ms = -1;
  int setups = 0;  // 0: kSetups
  int sim_shards = 1;
  std::string trace_dir = ".";
};

bool ParseFlags(int argc, char** argv, Flags* f) {
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto value = [a](const char* flag) -> const char* {
      const size_t n = strlen(flag);
      return strncmp(a, flag, n) == 0 && a[n] == '=' ? a + n + 1 : nullptr;
    };
    const char* v = nullptr;
    if ((v = value("--workload"))) {
      f->workload = v;
    } else if ((v = value("--seed"))) {
      f->seed = strtoull(v, nullptr, 10);
    } else if ((v = value("--seconds"))) {
      f->seconds = atof(v);
    } else if ((v = value("--warmup_ms"))) {
      f->warmup_ms = atol(v);
    } else if ((v = value("--measure_ms"))) {
      f->measure_ms = atol(v);
    } else if ((v = value("--setups"))) {
      f->setups = atoi(v);
    } else if ((v = value("--sim_shards"))) {
      f->sim_shards = atoi(v);
    } else if ((v = value("--trace_dir"))) {
      f->trace_dir = v;
    } else if (strcmp(a, "--trace") == 0) {
      f->trace = true;
    } else {
      fprintf(stderr, "unknown flag: %s\n", a);
      return false;
    }
  }
  if (f->setups < 0 || f->sim_shards < 1 || !(f->seconds > 0)) {
    fprintf(stderr, "--sim_shards and --seconds must be positive\n");
    return false;
  }
  return true;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Sets up a fresh world, runs one pass on it and tears it down.
PassResult SetUpAndRun(const WorkloadSpec& spec, uint64_t seed, int workers,
                       SimDuration warmup, SimDuration measure, bool traced) {
  PassResult r;
  auto w = std::make_unique<World>();
  r.error = SetUp(spec, seed, workers, w.get());
  if (r.error.empty()) {
    RunPass(spec, seed, warmup, measure, traced, false, w.get(), &r);
  }
  return r;
}

void Report(const char* label, const PassResult& r) {
  fprintf(stderr,
          "  %-10s %llu committed, %llu failed, window wall %.3f s, host "
          "speed %.3f; verified %zu keys, %zu mismatches, %zu open txns\n",
          label, static_cast<unsigned long long>(r.committed),
          static_cast<unsigned long long>(r.failed), r.window_wall_s,
          Median(r.speeds), r.verified, r.mismatches, r.open_txns);
  if (r.mismatches > 0) fprintf(stderr, "verify_mismatches=%zu\n", r.mismatches);
}

bool WriteFile(const std::string& path, const std::string& data) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = fwrite(data.data(), 1, data.size(), f) == data.size();
  return fclose(f) == 0 && ok;
}

std::string ResultJson(const Flags& f, const PassResult& r, bool correct,
                       const MetricMap& metrics) {
  char buf[128];
  std::string out = "{\"workload\":\"" + f.workload + "\",\"seed\":" +
                    std::to_string(f.seed) + ",\"trace\":" +
                    (f.trace ? "true" : "false") + ",\"correct\":" +
                    (correct ? "true" : "false") + ",\"attempted\":" +
                    std::to_string(r.committed + r.failed) + ",\"failed\":" +
                    std::to_string(r.failed);
  snprintf(buf, sizeof(buf),
           ",\"samples\":{\"txn\":%zu,\"read\":%zu,\"commit\":%zu,"
           "\"verified_keys\":%zu,\"verify_mismatches\":%zu}",
           r.txn_us.size(), r.read_us.size(), r.commit_us.size(), r.verified,
           r.mismatches);
  out += buf;
  snprintf(buf, sizeof(buf), ",\"host_speed\":%.6g", Median(r.speeds));
  out += buf;
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    snprintf(buf, sizeof(buf), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    out += (first ? "\"" : ",\"") + name + "\":{\"value\":" + buf +
           ",\"unit\":\"" + m.unit + "\"}";
    first = false;
  }
  return out + "}}";
}

int Main(int argc, char** argv) {
  Flags f;
  if (!ParseFlags(argc, argv, &f)) return 2;
  const WorkloadSpec* spec = FindWorkload(f.workload);
  if (spec == nullptr) {
    fprintf(stderr, "unknown --workload '%s'; one of:", f.workload.c_str());
    for (const WorkloadSpec& w : kWorkloads) fprintf(stderr, " %s", w.name);
    fprintf(stderr, "\n");
    return 2;
  }
  const SimDuration warmup =
      f.warmup_ms >= 0 ? Millis(static_cast<uint64_t>(f.warmup_ms))
                       : spec->warmup;
  const SimDuration measure =
      f.measure_ms > 0
          ? Millis(static_cast<uint64_t>(f.measure_ms))
          : static_cast<SimDuration>(f.seconds *
                                     static_cast<double>(spec->measure_per_second));
  fprintf(stderr, "%s seed=%llu: warmup %.0f + window %.0f sim-ms\n",
          spec->name, static_cast<unsigned long long>(f.seed),
          ToMillis(warmup), ToMillis(measure));

  // Set-up -- cluster construction, bootstrap, table attach or load, and
  // the warmup that fills the caches -- is timed kSetups times and the
  // median reported; the last world goes on to the measured window. Each
  // is CPU time at the host speed read just before it and at the window's
  // first mark, just after it.
  const int setups = f.setups > 0 ? f.setups : kSetups;
  std::vector<double> setup_s;
  PassResult run;
  for (int i = 0; i < setups; ++i) {
    auto world = std::make_unique<World>();
    const double speed = Gauge().Speed();
    const double cpu0 = ProcessCpuSeconds();
    const std::string err = SetUp(*spec, f.seed, f.sim_shards, world.get());
    if (!err.empty()) {
      fprintf(stderr, "set-up failed: %s\n", err.c_str());
      return 1;
    }
    run = PassResult{};
    RunPass(*spec, f.seed, warmup, measure, /*traced=*/false,
            /*warmup_only=*/i + 1 < setups, world.get(), &run);
    if (run.speeds.empty()) {
      fprintf(stderr, "run: the measured window never opened\n");
      return 1;
    }
    setup_s.push_back((run.open_cpu_s - cpu0) * (speed + run.speeds[0]) / 2);
  }
  std::sort(setup_s.begin(), setup_s.end());
  if (!run.error.empty()) {
    fprintf(stderr, "run: %s\n", run.error.c_str());
    return 1;
  }
  Report("untraced", run);
  bool correct = run.correct();

  // The end-to-end set always comes from the untraced pass; --trace adds
  // the per-layer set.
  MetricMap metrics = EndToEndMetrics(&run, setup_s, PeakRssMb());
  if (f.trace) {
    PassResult traced =
        SetUpAndRun(*spec, f.seed, 1, warmup, measure, /*traced=*/true);
    PassResult w3 =
        SetUpAndRun(*spec, f.seed, 3, warmup, measure, /*traced=*/true);
    for (const PassResult* p : {&traced, &w3}) {
      if (!p->error.empty()) {
        fprintf(stderr, "traced run: %s\n", p->error.c_str());
        return 1;
      }
    }
    Report("traced", traced);
    Report("traced w3", w3);
    correct = correct && traced.correct() && w3.correct();
    // Worker count is an execution knob only: the trace must not move.
    if (traced.trace_json != w3.trace_json) {
      fprintf(stderr, "trace differs between 1 and 3 PDES workers\n");
      correct = false;
    }
    const std::string path =
        f.trace_dir + "/TRACE_" + std::string(spec->name) + ".json";
    if (!WriteFile(path, traced.trace_json)) {
      fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::set<std::string> missing;
    metrics.merge(LayerMetrics(run, &traced, w3, &missing));
    if (!missing.empty()) {
      for (const std::string& name : missing) {
        fprintf(stderr, "missing registry metric: %s\n", name.c_str());
      }
      return 1;
    }
    RunKernels(&metrics);
  }

  for (const auto& [name, m] : metrics) {
    fprintf(stderr, "  %-40s %16.6g %s\n", name.c_str(), m.value, m.unit);
  }
  printf("%s\n", ResultJson(f, run, correct, metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace aurora::perfbench

int main(int argc, char** argv) { return aurora::perfbench::Main(argc, argv); }
