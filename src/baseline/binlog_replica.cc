#include "baseline/binlog_replica.h"

#include "common/coding.h"
#include "common/slice.h"
#include "storage/wire.h"

namespace aurora::baseline {

BinlogReplica::BinlogReplica(sim::EventLoop* loop, sim::Network* network,
                             sim::NodeId node_id, SimDuration apply_cpu)
    : loop_(loop),
      network_(network),
      node_id_(node_id),
      apply_cpu_(apply_cpu),
      applier_(loop, sim::InstanceOptions{1, "sql-thread"}) {
  network_->Register(node_id_,
                     [this](const sim::Message& m) { HandleMessage(m); });
}

void BinlogReplica::HandleMessage(const sim::Message& msg) {
  if (msg.type != kMsgBinlogShip) return;
  // Wire: varint commit_time | statements ('P'|'D', varint table, lp key,
  // lp value) until exhausted.
  Slice in(msg.payload());
  uint64_t commit_time;
  if (!GetVarint64(&in, &commit_time)) return;
  std::vector<Statement> stmts;
  while (!in.empty()) {
    Statement s;
    s.is_delete = in[0] == 'D';
    in.remove_prefix(1);
    uint64_t table;
    Slice key, value;
    if (!GetVarint64(&in, &table) || !GetLengthPrefixedSlice(&in, &key) ||
        !GetLengthPrefixedSlice(&in, &value)) {
      return;
    }
    s.table = table;
    s.key = key.ToString();
    s.value = value.ToString();
    s.txn_end = false;
    s.commit_time = commit_time;
    stmts.push_back(std::move(s));
  }
  if (stmts.empty()) return;
  stmts.back().txn_end = true;
  for (Statement& s : stmts) queue_.push_back(std::move(s));
  stats_.max_queue_depth = std::max<uint64_t>(stats_.max_queue_depth,
                                              queue_.size());
  PumpApply();
}

void BinlogReplica::PumpApply() {
  if (applying_ || queue_.empty()) return;
  applying_ = true;
  Statement s = std::move(queue_.front());
  queue_.pop_front();
  applier_.Execute(apply_cpu_, [this, s = std::move(s)]() {
    if (s.is_delete) {
      rows_.erase({s.table, s.key});
    } else {
      rows_[{s.table, s.key}] = s.value;
    }
    ++stats_.statements_applied;
    if (s.txn_end) {
      ++stats_.txns_applied;
      stats_.lag_us.Record(loop_->now() >= s.commit_time
                               ? loop_->now() - s.commit_time
                               : 0);
    }
    applying_ = false;
    PumpApply();
  });
}

bool BinlogReplica::Lookup(PageId table, const std::string& key,
                           std::string* value) const {
  auto it = rows_.find({table, key});
  if (it == rows_.end()) return false;
  *value = it->second;
  return true;
}

}  // namespace aurora::baseline
