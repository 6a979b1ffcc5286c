#include "sim/network.h"

#include <algorithm>

#include "common/crc32c.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "sim/sharded_loop.h"

namespace aurora::sim {

namespace {
std::pair<NodeId, NodeId> Ordered(NodeId a, NodeId b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}
}  // namespace

void Network::Register(NodeId node, Handler handler) {
  if (handlers_.size() <= node) {
    handlers_.resize(node + 1);
    stats_.resize(node + 1);
    nic_busy_until_.resize(node + 1, 0);
    latency_factor_.resize(node + 1, 1.0);
  }
  handlers_[node] = std::move(handler);
}

void Network::InstallShardRouting(ShardedEventLoop* pdes,
                                  std::vector<uint32_t> shard_of) {
  pdes_ = pdes;
  shard_of_node_ = std::move(shard_of);
  const NodeId n = static_cast<NodeId>(shard_of_node_.size());
  AURORA_CHECK(n > 0, "shard routing needs a placement map");
  // Pre-size every per-node vector so windows never resize them: shard
  // threads index these concurrently and only barriers may reallocate.
  if (handlers_.size() < n) {
    handlers_.resize(n);
    stats_.resize(n);
    nic_busy_until_.resize(n, 0);
    latency_factor_.resize(n, 1.0);
  }
  node_rng_.clear();
  node_rng_.reserve(n);
  for (NodeId i = 0; i < n; ++i) node_rng_.push_back(rng_.Fork());

  // Lookahead: every routed delivery is scheduled at least PropagationDelay's
  // floor (base/4) after the send, so the minimum floor over cross-shard
  // pairs bounds how far one shard can run ahead without missing mail.
  SimDuration lookahead = 0;
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (shard_of_node_[a] == shard_of_node_[b]) continue;
      SimDuration base = topology_->SameAz(a, b) ? options_.intra_az_latency
                                                 : options_.cross_az_latency;
      SimDuration floor = std::max<SimDuration>(1, base / 4);
      if (lookahead == 0 || floor < lookahead) lookahead = floor;
    }
  }
  pdes_->set_lookahead(lookahead == 0 ? 1 : lookahead);
}

EventLoop* Network::ContextLoop(NodeId from) {
  if (pdes_ == nullptr) return loop_;
  AURORA_CHECK(from < shard_of_node_.size(), "send from unplaced node");
  return pdes_->shard(shard_of_node_[from]);
}

Random& Network::RngFor(NodeId from) {
  if (pdes_ == nullptr) return rng_;
  AURORA_CHECK(from < node_rng_.size(), "send from unplaced node");
  return node_rng_[from];
}

bool Network::Reachable(NodeId from, NodeId to) const {
  if (down_nodes_.count(from) || down_nodes_.count(to)) return false;
  if (down_azs_.count(topology_->az_of(from)) ||
      down_azs_.count(topology_->az_of(to))) {
    return false;
  }
  if (partitions_.count(Ordered(from, to))) return false;
  if (oneway_partitions_.count({from, to})) return false;
  return true;
}

double Network::LatencyFactor(NodeId n) const {
  return n < latency_factor_.size() ? latency_factor_[n] : 1.0;
}

SimDuration Network::PropagationDelay(NodeId from, NodeId to) {
  SimDuration base;
  if (from == to) {
    base = options_.same_node_latency;
  } else if (topology_->SameAz(from, to)) {
    base = options_.intra_az_latency;
  } else {
    base = options_.cross_az_latency;
  }
  // Heavy-tailed jitter: multiply by a log-normal factor with median 1.
  double jitter = RngFor(from).LogNormal(1.0, options_.jitter_sigma);
  double factor = LatencyFactor(from) * LatencyFactor(to);
  auto d = static_cast<SimDuration>(static_cast<double>(base) * jitter * factor);
  // Floor at a quarter of the undisturbed base latency. With sigma 0.25 the
  // jitter binds here with probability ~2e-8 (a -5.5 sigma draw), so the
  // latency distribution is unchanged in practice — but the floor is a hard
  // guarantee the PDES lookahead derivation (InstallShardRouting) relies on.
  return std::max<SimDuration>(d, std::max<SimDuration>(1, base / 4));
}

void Network::Send(NodeId from, NodeId to, uint16_t type,
                   std::string payload) {
  SendImpl(from, to, type, std::move(payload), nullptr, nullptr);
}

void Network::Send(NodeId from, NodeId to, uint16_t type, std::string header,
                   std::shared_ptr<const std::string> body,
                   std::shared_ptr<DecodeMemo> memo) {
  SendImpl(from, to, type, std::move(header), std::move(body),
           std::move(memo));
}

void Network::SendImpl(NodeId from, NodeId to, uint16_t type,
                       std::string header,
                       std::shared_ptr<const std::string> body,
                       std::shared_ptr<DecodeMemo> memo) {
  if (from >= handlers_.size()) Register(from, nullptr);
  if (to >= handlers_.size()) Register(to, nullptr);

  // Under PDES routing a send runs on the source node's home shard (or at a
  // barrier, where every clock agrees); all per-sender state below —
  // stats_[from], nic_busy_until_[from], the per-node RNG — is therefore
  // only ever touched from that shard's context.
  EventLoop* ctx = ContextLoop(from);
  Random& rng = RngFor(from);

  const size_t wire_bytes = header.size() + (body ? body->size() : 0);
  NetStats& s = stats_[from];
  s.messages_sent++;
  s.bytes_sent += wire_bytes;
  s.packets_sent += 1 + wire_bytes / options_.mtu_bytes;

  // NIC serialization: a sender transmits one message at a time at the NIC's
  // line rate; concurrent sends queue behind each other. This happens before
  // any loss decision — a message dropped in transit (or addressed to a dead
  // host) still occupied the sender's NIC, so lossy links don't grant the
  // sender free bandwidth.
  SimTime start = std::max(ctx->now(), nic_busy_until_[from]);
  auto transmit = static_cast<SimDuration>(
      static_cast<double>(wire_bytes) / options_.node_bandwidth_bps * 1e6);
  nic_busy_until_[from] = start + transmit;

  if (!Reachable(from, to) || rng.Bernoulli(drop_probability_)) {
    if (oneway_partitions_.count({from, to})) adversary_.oneway_blocked++;
    s.messages_dropped++;
    return;
  }

  SimTime deliver_at = start + transmit + PropagationDelay(from, to);

  Message msg;
  msg.from = from;
  msg.to = to;
  msg.type = type;
  msg.header = std::move(header);
  msg.body = std::move(body);
  msg.memo = std::move(memo);
  msg.sent_at = ctx->now();
  // Frame checksum, stamped before any adversarial corruption so receivers
  // can tell a mangled frame from a clean one.
  msg.frame_crc = crc32c::Value(msg.header.data(), msg.header.size());
  if (msg.body) {
    msg.frame_crc =
        crc32c::Extend(msg.frame_crc, msg.body->data(), msg.body->size());
  }

  // Adversary: bit-flip corruption. The body fragment may be shared with
  // other in-flight fan-out copies, so corruption first materializes a
  // private single-fragment payload — never mutate the shared body — and
  // drops the memo, which describes the clean bytes.
  if (rng.Bernoulli(corrupt_probability_) && wire_bytes > 0) {
    if (msg.body) {
      msg.header.append(*msg.body);
      msg.body.reset();
    }
    msg.memo.reset();
    uint64_t bit = rng.Uniform(msg.header.size() * 8);
    msg.header[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    adversary_.corrupted_injected++;
  }

  // Adversary: bounded reordering — an extra uniform delay lets messages
  // inside the window overtake each other.
  if (reorder_window_ > 0) {
    SimDuration extra = rng.UniformRange(0, reorder_window_);
    if (extra > 0) {
      deliver_at += extra;
      adversary_.reordered++;
    }
  }

  // Adversary: duplication. The copy shares the refcounted body and memo and
  // gets an independently drawn delivery time, so it can arrive before the
  // original.
  if (rng.Bernoulli(duplicate_probability_)) {
    SimTime dup_at = start + transmit + PropagationDelay(from, to);
    if (reorder_window_ > 0) dup_at += rng.UniformRange(0, reorder_window_);
    adversary_.duplicates_injected++;
    ScheduleDelivery(dup_at, msg);
  }

  ScheduleDelivery(deliver_at, std::move(msg));
}

void Network::ScheduleDelivery(SimTime at, Message msg) {
  const NodeId from = msg.from;
  const NodeId to = msg.to;
  // The delivery closure carries the message fragments as-is: the shared
  // body is never copied per receiver (the refcount crossing shards is the
  // only synchronized touch), and the whole capture fits EventFn's inline
  // buffer (no allocation per message in steady state).
  auto deliver = [this, msg = std::move(msg)]() {
    // Re-check reachability at delivery time: a crash while the message
    // was in flight loses it.
    if (!Reachable(msg.from, msg.to)) {
      if (oneway_partitions_.count({msg.from, msg.to})) {
        adversary_.oneway_blocked++;
      }
      return;
    }
    if (msg.to >= handlers_.size() || !handlers_[msg.to]) return;
    stats_[msg.to].messages_received++;
    handlers_[msg.to](msg);
  };
  static_assert(EventFn::kStoresInline<decltype(deliver)>,
                "a delivery must not allocate: keep Message small");
  if (pdes_ == nullptr) {
    loop_->ScheduleAt(at, std::move(deliver));
    return;
  }
  AURORA_CHECK(to < shard_of_node_.size(), "delivery to unplaced node");
  const uint32_t src_shard = shard_of_node_[from];
  const uint32_t dst_shard = shard_of_node_[to];
  if (src_shard == dst_shard) {
    // Same-shard traffic needs no synchronization: the destination heap is
    // the sender's own (or the world is quiesced at a barrier).
    pdes_->shard(dst_shard)->ScheduleAt(at, std::move(deliver));
  } else {
    pdes_->Mail(src_shard, dst_shard, at, std::move(deliver));
  }
}

bool Network::VerifyFrame(const Message& msg) {
  uint32_t crc = crc32c::Value(msg.header.data(), msg.header.size());
  if (msg.body) crc = crc32c::Extend(crc, msg.body->data(), msg.body->size());
  if (crc == msg.frame_crc) return true;
  adversary_.corrupted_dropped++;
  return false;
}

void Network::SetNodeDown(NodeId node, bool down) {
  if (down) {
    down_nodes_.insert(node);
  } else {
    down_nodes_.erase(node);
  }
}

void Network::SetAzDown(AzId az, bool down) {
  if (down) {
    down_azs_.insert(az);
  } else {
    down_azs_.erase(az);
  }
}

void Network::SetPartitioned(NodeId a, NodeId b, bool blocked) {
  if (blocked) {
    partitions_.insert(Ordered(a, b));
  } else {
    partitions_.erase(Ordered(a, b));
  }
}

void Network::SetPartitionedOneWay(NodeId from, NodeId to, bool blocked) {
  if (blocked) {
    oneway_partitions_.insert({from, to});
  } else {
    oneway_partitions_.erase({from, to});
  }
}

void Network::SetNodeLatencyFactor(NodeId node, double factor) {
  if (node >= latency_factor_.size()) Register(node, nullptr);
  latency_factor_[node] = factor;
}

const NetStats& Network::stats_of(NodeId node) const {
  static const NetStats kEmpty;
  return node < stats_.size() ? stats_[node] : kEmpty;
}

NetStats Network::total() const {
  NetStats t;
  for (const NetStats& s : stats_) AddFields(&t, s);
  return t;
}

void Network::ResetStats() {
  std::fill(stats_.begin(), stats_.end(), NetStats{});
}

}  // namespace aurora::sim
