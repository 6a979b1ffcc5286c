#ifndef AURORA_SIM_NETWORK_H_
#define AURORA_SIM_NETWORK_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/inline_function.h"
#include "common/random.h"
#include "common/slice.h"
#include "common/units.h"
#include "sim/event_loop.h"
#include "sim/topology.h"

namespace aurora::sim {

class ShardedEventLoop;

/// Decode-once memo for a shared message body (DESIGN.md §5). A fan-out
/// sender creates one per body it shares; every receiver of those bytes
/// decodes through it, so the first receiver decodes and the rest reuse its
/// immutable result. Under PDES the receivers run on different shard
/// threads; std::call_once lets exactly one of them decode.
class DecodeMemo {
 public:
  /// The memoized decode of the body: runs `decode` (a callable returning
  /// std::shared_ptr<const T>) unless a receiver already has. Every caller
  /// of one memo asks for the same T.
  template <typename T, typename Decode>
  std::shared_ptr<const T> Get(Decode&& decode) {
    std::call_once(once_, [&] {
      value_ = decode();
      ++decodes_;
    });
    return std::static_pointer_cast<const T>(value_);
  }

  /// How many times the body was decoded through this memo.
  uint32_t decodes_for_testing() const { return decodes_.load(); }

 private:
  std::once_flag once_;
  std::shared_ptr<const void> value_;
  std::atomic<uint32_t> decodes_{0};
};

/// A message in flight between simulated hosts. Payloads are real serialized
/// bytes so that byte/packet accounting (the paper's PPS and bandwidth
/// bottlenecks, §1 and §3) reflects genuine wire sizes.
///
/// The payload is stored as two fragments: a small per-destination `header`
/// owned by the message, plus an optional refcounted `body` shared by every
/// copy in a fan-out (the sender serializes it once; delivery never copies
/// it). Receivers read through `payload()`, which is zero-copy whenever the
/// bytes live in one fragment; two-fragment consumers (the write batch path)
/// decode each fragment in place instead.
struct Message {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  uint16_t type = 0;
  std::string header;
  std::shared_ptr<const std::string> body;
  /// Travels with `body`: the receivers' shared decode of it, if the sender
  /// attached one. Absent when the fabric corrupted this copy.
  std::shared_ptr<DecodeMemo> memo;
  SimTime sent_at = 0;
  /// CRC32C over header+body, stamped by the fabric at send time (before any
  /// adversarial corruption). Receivers verify via Network::VerifyFrame so a
  /// bit-flipped frame is dropped before it reaches a decoder.
  uint32_t frame_crc = 0;

  size_t payload_size() const {
    return header.size() + (body ? body->size() : 0);
  }

  /// View of the full header+body byte stream. Zero-copy when the payload is
  /// a single fragment (every message except fan-out sends with a non-empty
  /// header); otherwise the concatenation is materialized once per message
  /// and cached.
  Slice payload() const {
    if (!body) return Slice(header);
    if (header.empty()) return Slice(*body);
    if (!joined_) {
      auto j = std::make_shared<std::string>();
      j->reserve(header.size() + body->size());
      j->append(header);
      j->append(*body);
      joined_ = std::move(j);
    }
    return Slice(*joined_);
  }

  /// The two raw fragments, for consumers that can decode them in place
  /// (wire::Decode(head, body, &msg)) without ever joining.
  Slice head() const { return Slice(header); }
  Slice body_view() const { return body ? Slice(*body) : Slice(); }

 private:
  mutable std::shared_ptr<std::string> joined_;  // cow cache for payload()
};

/// Per-node network counters.
struct NetStats {
  uint64_t messages_sent = 0;
  uint64_t messages_received = 0;
  uint64_t packets_sent = 0;  // payloads fragmented at MTU granularity
  uint64_t bytes_sent = 0;
  uint64_t messages_dropped = 0;

  /// Every member once, under its exported metric name.
  template <typename F>
  static constexpr void Fields(F f) {
    f("messages_sent", &NetStats::messages_sent);
    f("messages_received", &NetStats::messages_received);
    f("packets_sent", &NetStats::packets_sent);
    f("bytes_sent", &NetStats::bytes_sent);
    f("messages_dropped", &NetStats::messages_dropped);
  }
};

/// Fabric-wide adversary counters (surfaced as net.adversary.*). All zero
/// unless the corresponding knob is enabled. Atomics: under PDES these are
/// bumped from several shard threads at once (send-side on the source shard,
/// VerifyFrame on the destination shard); the final sums are commutative, so
/// relaxed increments keep the dump deterministic.
struct AdversaryStats {
  std::atomic<uint64_t> duplicates_injected{0};  // extra deliveries scheduled
  std::atomic<uint64_t> reordered{0};      // deliveries given scramble delay
  std::atomic<uint64_t> corrupted_injected{0};  // frames bit-flipped in transit
  std::atomic<uint64_t> corrupted_dropped{0};   // rejected by VerifyFrame
  std::atomic<uint64_t> oneway_blocked{0};  // eaten by a one-way cut

  /// Every member once, under its exported metric name.
  template <typename F>
  static constexpr void Fields(F f) {
    using S = AdversaryStats;
    f("duplicates_injected", &S::duplicates_injected);
    f("reordered", &S::reordered);
    f("corrupted_injected", &S::corrupted_injected);
    f("corrupted_dropped", &S::corrupted_dropped);
    f("oneway_blocked", &S::oneway_blocked);
  }
};

/// The region's network fabric: delivers messages between registered hosts
/// with topology-dependent latency, log-normal jitter, per-NIC bandwidth
/// serialization, and fault injection (node down, AZ down, pairwise
/// partition, random drop).
class Network {
 public:
  /// Receive callback. Inline storage sized for the capture lists of the
  /// per-node dispatchers (typically just a `this` pointer or a couple of
  /// words); larger captures fall back to the heap at Register() time only.
  using Handler = InlineFunction<void(const Message&), 64>;

  Network(EventLoop* loop, const Topology* topology, FabricOptions options,
          Random rng)
      : loop_(loop), topology_(topology), options_(options), rng_(rng) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Installs the receive handler for `node`. A node without a handler drops
  /// everything addressed to it.
  void Register(NodeId node, Handler handler);

  /// Switches the fabric to conservative-PDES routing (DESIGN.md §11):
  /// `shard_of[node]` homes each node on one logical shard of `pdes`.
  /// Same-shard deliveries go straight onto the destination shard's heap;
  /// cross-shard deliveries travel through the coordinator's mailboxes.
  /// Each node also gets a private RNG stream (forked deterministically from
  /// the fabric seed) so jitter/adversary draws depend only on that node's
  /// own send sequence, never on how shards interleave. Also derives the
  /// PDES lookahead — the propagation-delay floor (base/4) minimized over
  /// node pairs homed on different shards — and installs it on `pdes`.
  /// Call once, after every node is registered and before the run starts.
  void InstallShardRouting(ShardedEventLoop* pdes,
                           std::vector<uint32_t> shard_of);

  /// Sends `payload` from `from` to `to`. Delivery is asynchronous; the
  /// message is silently dropped if either endpoint is down/partitioned at
  /// send or delivery time (crash-stop semantics — senders learn about loss
  /// only through their own timeouts, as in the real system).
  void Send(NodeId from, NodeId to, uint16_t type, std::string payload);

  /// Shared-payload variant for fan-out: the refcounted `body` is shared by
  /// every in-flight copy (the sender serializes it once), while the small
  /// per-destination `header` is owned per message. Receivers see a single
  /// contiguous payload of header + body, byte-identical to the plain Send —
  /// only the sender-side cost model changes (no per-replica re-encode).
  /// Byte/packet accounting covers header + body, as on a real wire. An
  /// optional `memo` travels with the body so its receivers decode it once;
  /// it is not on the wire and changes no accounting.
  void Send(NodeId from, NodeId to, uint16_t type, std::string header,
            std::shared_ptr<const std::string> body,
            std::shared_ptr<DecodeMemo> memo = nullptr);

  // --- Fault injection ---------------------------------------------------
  void SetNodeDown(NodeId node, bool down);
  bool IsNodeDown(NodeId node) const { return down_nodes_.count(node) > 0; }
  void SetAzDown(AzId az, bool down);
  bool IsAzDown(AzId az) const { return down_azs_.count(az) > 0; }
  /// Blocks (or unblocks) traffic between two specific nodes, both ways.
  void SetPartitioned(NodeId a, NodeId b, bool blocked);
  /// Blocks (or unblocks) traffic in one direction only: `from` can no longer
  /// reach `to`, but replies still flow. Models asymmetric network faults
  /// (grey failures / half-open links) — the nastiest partition shape for a
  /// lease-free writer, since it keeps receiving while its sends die.
  void SetPartitionedOneWay(NodeId from, NodeId to, bool blocked);
  /// Probability in [0,1] that any message is lost in transit.
  void set_drop_probability(double p) { drop_probability_ = p; }

  // --- Adversary knobs (all seeded-deterministic; zero RNG draws when off) -
  /// Probability in [0,1] that a delivered message is delivered twice, the
  /// copy at an independently drawn time (so the duplicate may arrive before
  /// or long after the original).
  void set_duplicate_probability(double p) { duplicate_probability_ = p; }
  /// Extra uniform [0, window] delay added per delivery: messages inside the
  /// window overtake each other, giving bounded reordering. 0 disables.
  void set_reorder_window(SimDuration window) { reorder_window_ = window; }
  /// Probability in [0,1] that a frame has one random payload bit flipped in
  /// transit. The frame checksum (stamped pre-corruption) lets receivers
  /// detect and drop such frames.
  void set_corrupt_probability(double p) { corrupt_probability_ = p; }

  /// Recomputes `msg`'s frame checksum; on mismatch counts the frame in
  /// adversary().corrupted_dropped and returns false. Every receiver calls
  /// this before decoding.
  bool VerifyFrame(const Message& msg);

  /// Multiplies delivery latency for all traffic to/from `node` (slow node /
  /// hot spot modelling); 1.0 restores normal speed.
  void SetNodeLatencyFactor(NodeId node, double factor);

  // --- Stats --------------------------------------------------------------
  const NetStats& stats_of(NodeId node) const;
  NetStats total() const;
  void ResetStats();
  const AdversaryStats& adversary() const { return adversary_; }

  const FabricOptions& options() const { return options_; }

 private:
  void SendImpl(NodeId from, NodeId to, uint16_t type, std::string header,
                std::shared_ptr<const std::string> body,
                std::shared_ptr<DecodeMemo> memo);
  void ScheduleDelivery(SimTime at, Message msg);
  /// Directional: `from` can currently get a packet to `to`.
  bool Reachable(NodeId from, NodeId to) const;
  SimDuration PropagationDelay(NodeId from, NodeId to);
  double LatencyFactor(NodeId n) const;
  /// The clock governing a send from `from`: its home shard's loop under
  /// PDES routing, the plain fabric loop otherwise.
  EventLoop* ContextLoop(NodeId from);
  /// RNG stream for sends from `from` (per-node under PDES routing).
  Random& RngFor(NodeId from);

  EventLoop* loop_;
  const Topology* topology_;
  FabricOptions options_;
  Random rng_;

  // PDES routing (null/empty when running on a single loop).
  ShardedEventLoop* pdes_ = nullptr;
  std::vector<uint32_t> shard_of_node_;
  std::vector<Random> node_rng_;

  std::vector<Handler> handlers_;
  std::vector<NetStats> stats_;
  std::vector<SimTime> nic_busy_until_;
  std::vector<double> latency_factor_;

  std::set<NodeId> down_nodes_;
  std::set<AzId> down_azs_;
  std::set<std::pair<NodeId, NodeId>> partitions_;
  std::set<std::pair<NodeId, NodeId>> oneway_partitions_;  // (from, to)
  double drop_probability_ = 0.0;

  double duplicate_probability_ = 0.0;
  SimDuration reorder_window_ = 0;
  double corrupt_probability_ = 0.0;
  AdversaryStats adversary_;
};

}  // namespace aurora::sim

#endif  // AURORA_SIM_NETWORK_H_
