#ifndef AURORA_BASELINE_BINLOG_REPLICA_H_
#define AURORA_BASELINE_BINLOG_REPLICA_H_

#include <deque>
#include <map>
#include <string>

#include "common/histogram.h"
#include "common/units.h"
#include "log/types.h"
#include "sim/event_loop.h"
#include "sim/instance.h"
#include "sim/network.h"

namespace aurora::baseline {

/// A classic MySQL binlog replica: receives statement events after the
/// primary commits and re-executes them with a single SQL applier thread.
/// Because apply is serial while the primary commits in parallel, lag grows
/// without bound once the write rate exceeds one thread's capacity — the
/// mechanism behind Table 4's 300-second lags and Figure 11's multi-minute
/// spikes ("can cause strange bugs", Weiner/Pinterest).
struct BinlogReplicaStats {
  uint64_t txns_applied = 0;
  uint64_t statements_applied = 0;
  uint64_t max_queue_depth = 0;
  Histogram lag_us;
};

class BinlogReplica {
 public:
  /// `apply_cpu` is the cost of re-executing one statement on the single
  /// applier thread.
  BinlogReplica(sim::EventLoop* loop, sim::Network* network,
                sim::NodeId node_id, SimDuration apply_cpu);

  BinlogReplica(const BinlogReplica&) = delete;
  BinlogReplica& operator=(const BinlogReplica&) = delete;

  sim::NodeId node_id() const { return node_id_; }

  /// Lag a commit arriving now would experience (queue backlog estimate).
  SimDuration CurrentBacklog() const {
    return queue_.size() * apply_cpu_;  // statements pending * unit cost
  }

  /// Replica-side row lookup (eventually consistent).
  bool Lookup(PageId table, const std::string& key, std::string* value) const;

  const BinlogReplicaStats& stats() const { return stats_; }

 private:
  struct Statement {
    bool is_delete;
    PageId table;
    std::string key;
    std::string value;
    bool txn_end;
    SimTime commit_time;
  };

  void HandleMessage(const sim::Message& msg);
  void PumpApply();

  sim::EventLoop* loop_;
  sim::Network* network_;
  sim::NodeId node_id_;
  SimDuration apply_cpu_;
  sim::Instance applier_;  // one vCPU: the single SQL thread

  std::deque<Statement> queue_;
  bool applying_ = false;
  std::map<std::pair<PageId, std::string>, std::string> rows_;
  BinlogReplicaStats stats_;
};

}  // namespace aurora::baseline

#endif  // AURORA_BASELINE_BINLOG_REPLICA_H_
