#ifndef AURORA_COMMON_METRICS_H_
#define AURORA_COMMON_METRICS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <type_traits>
#include <utility>

#include "common/histogram.h"
#include "common/thread_annotations.h"

namespace aurora {

/// Point-in-time digest of one Histogram (percentiles are computed at
/// snapshot time so a snapshot stays meaningful after the source resets).
struct HistogramSummary {
  uint64_t count = 0;
  double mean = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  uint64_t p50 = 0;
  uint64_t p95 = 0;
  uint64_t p99 = 0;

  static HistogramSummary Of(const Histogram& h);
};

/// Materialized state of a MetricsRegistry: flat dotted-name -> value maps.
/// Snapshots are plain values — they can be stored, diffed against a later
/// snapshot, merged under a prefix and serialized long after the components
/// that produced them are gone.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSummary> histograms;

  /// Interval view `this - base`: counters become deltas (clamped at zero
  /// if the source was reset), gauges keep this snapshot's value (they are
  /// levels, not totals), histograms keep this snapshot's percentiles with
  /// the count diffed (percentile state is cumulative; see DESIGN.md).
  MetricsSnapshot Diff(const MetricsSnapshot& base) const;

  /// Copies every entry of `other` into this snapshot with `prefix.`
  /// prepended (used by the bench harness to nest a cluster's metrics
  /// under e.g. "aurora.").
  void MergeWithPrefix(const std::string& prefix, const MetricsSnapshot& other);

  /// Serializes to a single JSON document. Dotted names become nested
  /// objects ("a.b.c": 1 -> {"a":{"b":{"c":1}}}); histograms become objects
  /// with count/mean/min/max/p50/p95/p99 fields. If a name is both a leaf
  /// and a prefix of other names, the leaf is emitted under the key "_".
  std::string ToJson() const;
};

/// Sum of the sizes of the members `S::Fields` lists. It equals sizeof(S)
/// only when the list names every member, which RegisterFields asserts.
template <typename S>
constexpr size_t FieldBytes() {
  size_t bytes = 0;
  S::Fields([&bytes](const char*, auto field) {
    bytes += sizeof(std::declval<S&>().*field);
  });
  return bytes;
}

/// Adds each member `S::Fields` lists of `from` into `to` (fleet totals).
template <typename S>
void AddFields(S* to, const S& from) {
  S::Fields([&](const char*, auto field) { to->*field += from.*field; });
}

/// A process-wide (well, cluster-wide — the simulation is one process)
/// registry of named metrics. Pull-based: components keep their existing
/// Stats structs and cheap increment sites; registration installs a closure
/// that reads the current value at snapshot time. This keeps the hot paths
/// free of registry lookups and lets one registry outlive component
/// replacement (closures can indirect through owner pointers, e.g. the
/// cluster's current writer after a failover).
///
/// Naming convention (see DESIGN.md §Metrics): lower_snake components
/// joined by dots, hierarchy first — "engine.writer.txns_committed",
/// "storage.node3.gossip_rounds", "net.total.bytes_sent".
class MetricsRegistry {
 public:
  using CounterFn = std::function<uint64_t()>;
  using GaugeFn = std::function<double()>;
  using HistogramFn = std::function<const Histogram*()>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Monotonically increasing totals. Re-registering a name replaces the
  /// previous reader (components re-register after being rebuilt).
  void RegisterCounter(const std::string& name, CounterFn fn);

  /// Instantaneous levels (queue depths, watermarks, ratios).
  void RegisterGauge(const std::string& name, GaugeFn fn);

  void RegisterHistogram(const std::string& name, HistogramFn fn);
  void RegisterHistogram(const std::string& name, const Histogram* h);

  /// Registers every member of a Stats struct that its `Fields(f)` list
  /// names, as `prefix` + the listed name: integer and atomic members as
  /// counters, Histogram members as histograms. `get` runs at snapshot time
  /// and returns the struct by pointer, or by value for a computed total
  /// (histograms need the pointer). A pointee must outlive the registry.
  template <typename Get>
  void RegisterFields(const std::string& prefix, Get get) {
    using R = decltype(get());
    using S = std::remove_cvref_t<std::remove_pointer_t<R>>;
    static_assert(FieldBytes<S>() == sizeof(S),
                  "a member is missing from its struct's Fields list");
    S::Fields([&](const char* name, auto field) {
      using T = std::remove_cvref_t<decltype(std::declval<S&>().*field)>;
      if constexpr (std::is_same_v<T, Histogram>) {
        RegisterHistogram(prefix + name,
                          [get, field] { return &(get()->*field); });
      } else if constexpr (std::is_pointer_v<R>) {
        RegisterCounter(prefix + name,
                        [get, field]() -> uint64_t { return get()->*field; });
      } else {
        RegisterCounter(prefix + name,
                        [get, field]() -> uint64_t { return get().*field; });
      }
    });
  }

  size_t size() const {
    MutexLock lock(&mu_);
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// Reads every registered metric now.
  MetricsSnapshot Snapshot() const;

  /// Snapshot().ToJson() — the one-call machine-readable dump.
  std::string ToJson() const { return Snapshot().ToJson(); }

 private:
  // PDES prep (DESIGN.md §10.4): the registry is the first structure that
  // stays shared once the event loop shards — every partition registers and
  // snapshots through one instance. Registration/snapshot are cold paths
  // (component setup, bench teardown), so a plain mutex is fine; the
  // annotations let Clang's -Wthread-safety prove no unguarded access ever
  // lands as partitions are introduced.
  mutable Mutex mu_;
  std::map<std::string, CounterFn> counters_ GUARDED_BY(mu_);
  std::map<std::string, GaugeFn> gauges_ GUARDED_BY(mu_);
  std::map<std::string, HistogramFn> histograms_ GUARDED_BY(mu_);
};

namespace json {
/// Escapes `s` for inclusion in a JSON string literal (no quotes added).
std::string Escape(const std::string& s);
/// Formats a double as a JSON number (finite; NaN/inf become 0).
std::string Number(double v);
}  // namespace json

}  // namespace aurora

#endif  // AURORA_COMMON_METRICS_H_
