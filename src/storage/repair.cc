#include "storage/repair.h"

#include <algorithm>
#include <utility>

#include "storage/segment.h"
#include "storage/storage_node.h"
#include "storage/wire.h"

namespace aurora {

namespace {

constexpr SimDuration kPollInterval = Millis(500);
// Base per-chunk timeout; doubles per consecutive retry (capped at 2^5).
constexpr SimDuration kChunkTimeout = Millis(50);
// Consecutive timeouts of one chunk before trying a different donor.
constexpr uint32_t kMaxChunkAttempts = 6;
// Fleet-wide cap on concurrently running transfers; excess repairs queue.
constexpr size_t kMaxConcurrent = 4;

}  // namespace

RepairManager::RepairManager(sim::EventLoop* loop, sim::Network* network,
                             const sim::Topology* topology,
                             ControlPlane* control_plane,
                             RepairOptions options, Random rng)
    : loop_(loop),
      network_(network),
      topology_(topology),
      control_plane_(control_plane),
      options_(options),
      rng_(rng) {}

void RepairManager::Start() {
  if (running_) return;
  running_ = true;
  poll_timer_ = loop_->Schedule(kPollInterval, [this] { Poll(); });
}

void RepairManager::Stop() {
  if (!running_) return;
  running_ = false;
  loop_->Cancel(poll_timer_);
  poll_timer_ = 0;
  for (auto& [key, r] : active_) {
    loop_->Cancel(r.timeout_event);
    StorageNode* target = control_plane_->node(r.target);
    if (target != nullptr) target->AbortRepairSession(r.pg, r.req_id);
  }
  active_.clear();
  queue_.clear();
  in_flight_.clear();
}

std::vector<RepairManager::ActiveRepairView> RepairManager::active_repairs()
    const {
  std::vector<ActiveRepairView> out;
  out.reserve(active_.size());
  for (const auto& [key, r] : active_) {
    out.push_back({r.pg, r.idx, r.target, r.donor, r.req_id, r.next_chunk,
                   r.total_chunks});
  }
  return out;
}

void RepairManager::Poll() {
  if (!running_) return;
  poll_timer_ = loop_->Schedule(kPollInterval, [this] { Poll(); });

  const SimTime now = loop_->now();
  for (const auto& [id, node] : control_plane_->storage_nodes()) {
    if (HostDown(id)) {
      down_since_.try_emplace(id, now);
    } else {
      down_since_.erase(id);
    }
  }

  // Supervise running transfers: a dead replacement aborts the repair (a
  // fresh target is picked on a later pass, the host is still down); a dead
  // donor fails over to another live peer, resuming at the next chunk.
  std::vector<std::pair<PgId, ReplicaIdx>> aborted;
  for (auto& [key, r] : active_) {
    if (HostDown(r.target)) {
      ++stats_.failed;
      loop_->Cancel(r.timeout_event);
      aborted.push_back(key);
      continue;
    }
    if (HostDown(r.donor) && !DonorFailover(&r)) {
      ++stats_.no_donor;
      loop_->Cancel(r.timeout_event);
      StorageNode* target = control_plane_->node(r.target);
      if (target != nullptr) target->AbortRepairSession(r.pg, r.req_id);
      aborted.push_back(key);
    }
  }
  for (const auto& key : aborted) {
    active_.erase(key);
    in_flight_.erase(key);
  }

  for (const auto& [id, since] : down_since_) {
    if (now - since < options_.detection_threshold) continue;
    for (const auto& [pg, idx] : control_plane_->ReplicasOnNode(id)) {
      if (in_flight_.count({pg, idx})) continue;
      in_flight_.insert({pg, idx});
      queue_.push_back({pg, idx, id, now, false, sim::kInvalidNode});
    }
  }
  DispatchFromQueue();
}

void RepairManager::DispatchFromQueue() {
  while (!queue_.empty()) {
    if (active_.size() >= kMaxConcurrent) {
      ++stats_.queued;
      return;
    }
    PendingRepair q = queue_.front();
    queue_.pop_front();
    TryDispatch(q);
  }
}

void RepairManager::TryDispatch(const PendingRepair& q) {
  const auto key = std::make_pair(q.pg, q.idx);
  // The host may have recovered while the repair sat queued.
  if (!q.is_migration && !HostDown(q.failed)) {
    in_flight_.erase(key);
    return;
  }
  const PgMembership& members = control_plane_->membership(q.pg);
  // Membership may have moved past this repair (e.g. a migration raced it).
  if (members.nodes[q.idx] != q.failed) {
    in_flight_.erase(key);
    return;
  }
  sim::NodeId target = q.pinned_target;
  if (target == sim::kInvalidNode) {
    std::set<sim::NodeId> exclude(members.nodes.begin(), members.nodes.end());
    // A concurrent repair of a sibling replica may already be copying into
    // its own replacement; that host will join this PG when it installs, so
    // picking it twice would give one host two slots (invariant 7).
    for (const auto& [akey, ar] : active_) {
      if (akey.first == q.pg) exclude.insert(ar.target);
    }
    target = PickReplacement(topology_->az_of(q.failed), exclude);
  }
  if (target == sim::kInvalidNode) {
    // Every healthy host already carries this PG (or the fleet is down).
    // Degrade gracefully: count it, release the slot, retry next poll.
    ++stats_.no_replacement;
    in_flight_.erase(key);
    return;
  }
  sim::NodeId donor =
      PickDonor(q.pg, q.is_migration ? sim::kInvalidNode : q.failed);
  if (donor == sim::kInvalidNode) {
    ++stats_.no_donor;  // quorum already lost; retry next poll
    in_flight_.erase(key);
    return;
  }

  Repair r;
  r.pg = q.pg;
  r.idx = q.idx;
  r.failed = q.failed;
  r.target = target;
  r.donor = donor;
  r.req_id = next_req_++;
  r.detected_at = q.detected_at;
  r.is_migration = q.is_migration;
  ++stats_.started;

  StorageNode* target_node = control_plane_->node(target);
  AURORA_CHECK(target_node != nullptr, "replacement host not registered");
  // One shared router per manager: events carry (pg, req_id), so concurrent
  // repairs landing on the same target never clobber each other.
  target_node->set_repair_progress_callback(
      [this](PgId pg, const StorageNode::RepairProgress& p) {
        OnRepairProgress(pg, p);
      });
  target_node->BeginRepairSession(q.pg, r.req_id);

  auto [it, inserted] = active_.emplace(key, r);
  AURORA_CHECK(inserted, "duplicate active repair");
  stats_.concurrent_peak =
      std::max<uint64_t>(stats_.concurrent_peak, active_.size());
  RequestChunk(&it->second);
}

void RepairManager::RequestChunk(Repair* r) {
  const SegmentChunkReqMsg req{.req_id = r->req_id,
                               .pg = r->pg,
                               .chunk_index = r->next_chunk,
                               .chunk_bytes = options_.chunk_bytes};
  // Spoofed source: the donor's chunk responses route straight to the
  // replacement target, which reassembles and reports progress to us.
  network_->Send(r->target, r->donor, kMsgSegmentChunkReq,
                 wire::Encode(req));
  ArmChunkTimeout(r);
}

void RepairManager::ArmChunkTimeout(Repair* r) {
  const SimDuration timeout =
      kChunkTimeout * (uint64_t{1} << std::min<uint32_t>(r->attempts, 5));
  const auto key = std::make_pair(r->pg, r->idx);
  const uint64_t req_id = r->req_id;
  r->timeout_event = loop_->Schedule(
      timeout, [this, key, req_id] { OnChunkTimeout(key, req_id); });
}

void RepairManager::OnChunkTimeout(std::pair<PgId, ReplicaIdx> key,
                                   uint64_t req_id) {
  // No running_ gate: Stop() cancels these timers and clears active_, and
  // migrations must work even on a never-started manager.
  auto it = active_.find(key);
  if (it == active_.end() || it->second.req_id != req_id) return;
  Repair* r = &it->second;
  ++stats_.chunk_retries;
  ++r->attempts;
  if (r->attempts >= kMaxChunkAttempts) {
    // The donor looks unreachable (partitioned, overloaded, or the fabric is
    // eating this chunk). Prefer a different donor; with none available keep
    // hammering the same one at the max backoff.
    sim::NodeId next =
        PickDonor(r->pg, r->is_migration ? sim::kInvalidNode : r->failed,
                  r->donor);
    if (next != sim::kInvalidNode) {
      ++stats_.donor_failovers;
      r->donor = next;
      r->attempts = 0;
    } else {
      r->attempts = kMaxChunkAttempts - 1;
    }
  }
  RequestChunk(r);
}

void RepairManager::OnRepairProgress(PgId pg,
                                     const StorageNode::RepairProgress& p) {
  // Route by (pg, req_id). Linear scan: active_ is at most kMaxConcurrent.
  auto it = active_.end();
  for (auto i = active_.begin(); i != active_.end(); ++i) {
    if (i->first.first == pg && i->second.req_id == p.req_id) {
      it = i;
      break;
    }
  }
  if (it == active_.end()) return;  // late event from an aborted transfer
  Repair* r = &it->second;

  switch (p.event) {
    case StorageNode::RepairEvent::kChunk: {
      loop_->Cancel(r->timeout_event);
      r->attempts = 0;
      r->total_chunks = p.total_chunks;
      r->total_bytes = p.total_bytes;
      stats_.bytes_copied += ChunkSize(*r, p.chunk_index);
      r->next_chunk = p.chunk_index + 1;
      RequestChunk(r);
      break;
    }
    case StorageNode::RepairEvent::kMismatch:
    case StorageNode::RepairEvent::kFailed: {
      // The donor-side snapshot changed under the transfer (donor failover
      // to a peer with different state), or the assembled blob failed
      // verification/installation. Restart from chunk 0.
      ++stats_.transfer_restarts;
      loop_->Cancel(r->timeout_event);
      r->next_chunk = 0;
      r->total_chunks = 0;
      r->total_bytes = 0;
      r->attempts = 0;
      if (p.event == StorageNode::RepairEvent::kFailed) {
        // The target closed the session; reopen under a fresh req_id so the
        // donor builds a new snapshot (the old one may be permanently
        // uninstallable, e.g. behind a stale local segment).
        r->req_id = next_req_++;
        StorageNode* target = control_plane_->node(r->target);
        if (target != nullptr) target->BeginRepairSession(r->pg, r->req_id);
      }
      RequestChunk(r);
      break;
    }
    case StorageNode::RepairEvent::kInstalled: {
      loop_->Cancel(r->timeout_event);
      r->total_chunks = p.total_chunks;
      r->total_bytes = p.total_bytes;
      stats_.bytes_copied += ChunkSize(*r, p.chunk_index);
      // Membership flips to the new host only once the copy is installed;
      // the writer picks it up on its next send (or on a kStaleConfig NAK)
      // and gossip backfills anything written during the transfer.
      control_plane_->ReplaceReplica(r->pg, r->idx, r->target);
      ++stats_.completed;
      const SimDuration mttr = loop_->now() - r->detected_at;
      stats_.mttr_us.Record(mttr);
      repair_durations_.push_back(mttr);
      const auto key = it->first;
      active_.erase(it);
      in_flight_.erase(key);
      DispatchFromQueue();
      break;
    }
  }
}

bool RepairManager::HostDown(sim::NodeId id) const {
  return network_->IsNodeDown(id) ||
         network_->IsAzDown(topology_->az_of(id));
}

bool RepairManager::DonorFailover(Repair* r) {
  sim::NodeId next =
      PickDonor(r->pg, r->is_migration ? sim::kInvalidNode : r->failed,
                r->donor);
  if (next == sim::kInvalidNode) return false;
  ++stats_.donor_failovers;
  r->donor = next;
  r->attempts = 0;
  loop_->Cancel(r->timeout_event);
  // Resume from the last acked chunk. If the new donor's snapshot differs,
  // the target reports a mismatch and the transfer restarts from chunk 0.
  RequestChunk(r);
  return true;
}

sim::NodeId RepairManager::PickReplacement(
    sim::AzId az, const std::set<sim::NodeId>& exclude) {
  std::vector<sim::NodeId> candidates;
  std::vector<sim::NodeId> fallback;
  for (const auto& [id, node] : control_plane_->storage_nodes()) {
    if (exclude.count(id) || HostDown(id)) continue;
    if (topology_->az_of(id) == az) {
      candidates.push_back(id);
    } else {
      fallback.push_back(id);
    }
  }
  // Prefer the same AZ to preserve the 2-per-AZ layout; degrade to any AZ.
  const auto& pool = candidates.empty() ? fallback : candidates;
  if (pool.empty()) return sim::kInvalidNode;
  return pool[rng_.Uniform(pool.size())];
}

sim::NodeId RepairManager::PickDonor(PgId pg, sim::NodeId exclude_a,
                                     sim::NodeId exclude_b) {
  const PgMembership& members = control_plane_->membership(pg);
  sim::NodeId best = sim::kInvalidNode;
  Lsn best_scl = 0;
  for (sim::NodeId peer : members.nodes) {
    if (peer == exclude_a || peer == exclude_b) continue;
    if (HostDown(peer)) continue;
    StorageNode* n = control_plane_->node(peer);
    if (n == nullptr || n->crashed()) continue;
    const Segment* seg = n->segment(pg);
    if (seg == nullptr) continue;
    // Deterministic pick: the most caught-up live replica (highest SCL).
    if (best == sim::kInvalidNode || seg->scl() > best_scl) {
      best = peer;
      best_scl = seg->scl();
    }
  }
  return best;
}

uint64_t RepairManager::ChunkSize(const Repair& r, uint32_t chunk_index)
    const {
  if (r.total_bytes == 0) return 0;
  const uint64_t offset =
      static_cast<uint64_t>(chunk_index) * options_.chunk_bytes;
  if (offset >= r.total_bytes) return 0;
  return std::min<uint64_t>(options_.chunk_bytes, r.total_bytes - offset);
}

void RepairManager::MigrateReplica(PgId pg, ReplicaIdx idx) {
  MigrateReplicaTo(pg, idx, sim::kInvalidNode);
}

void RepairManager::MigrateReplicaTo(PgId pg, ReplicaIdx idx,
                                     sim::NodeId target) {
  const auto key = std::make_pair(pg, idx);
  if (in_flight_.count(key)) return;
  const PgMembership& members = control_plane_->membership(pg);
  ++stats_.migrations;
  in_flight_.insert(key);
  queue_.push_back({pg, idx, members.nodes[idx], loop_->now(), true, target});
  DispatchFromQueue();
}

}  // namespace aurora
