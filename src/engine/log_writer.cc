#include "engine/log_writer.h"

#include <algorithm>
#include <set>
#include <string>

#include "common/logging.h"
#include "engine/database.h"

namespace aurora {

namespace {

// Group-commit batching: a per-PG batch is flushed when it reaches this
// many bytes or this much time has passed since its first record.
constexpr size_t kBatchMaxBytes = 32768;
constexpr SimDuration kBatchLinger = Micros(500);

// A recovery round completes once every PG has a read quorum of
// inventories (phase 1), then a write quorum of truncate acks (phase 2).
size_t RoundQuorum(const QuorumConfig& q, int phase) {
  return static_cast<size_t>(phase == 1 ? q.read_quorum : q.write_quorum);
}

}  // namespace

// The writer's recovery protocol state (§4.3).
struct LogWriter::RecoveryState {
  uint64_t req_id = 0;
  int phase = 1;  // 1 = inventory, 2 = truncate
  /// Replicas that answered this phase's request, per PG.
  std::map<PgId, std::set<ReplicaIdx>> replies;
  // Phase 1.
  std::map<PgId, std::map<Lsn, InventoryEntry>> union_entries;
  /// Durable completeness floor: the max VDL hint any segment holds.
  Lsn floor = kInvalidLsn;
  // Phase 2.
  Lsn new_vdl = kInvalidLsn;
  Epoch new_epoch = 0;
  /// Each PG's newest record at or below new_vdl.
  std::map<PgId, Lsn> pg_tails;
  sim::EventId retry_event = 0;
};

LogWriter::LogWriter(sim::EventLoop* loop, sim::Network* network,
                     sim::NodeId node_id, ControlPlane* control_plane,
                     const EngineOptions* options, BufferPool* pool,
                     EngineStats* stats, LogOwner* owner)
    : loop_(loop),
      network_(network),
      node_id_(node_id),
      control_plane_(control_plane),
      options_(options),
      pool_(pool),
      stats_(stats),
      owner_(owner) {}

void LogWriter::HandleMessage(const sim::Message& msg) {
  switch (msg.type) {
    case kMsgWriteAck:
      HandleWriteAck(msg);
      break;
    case kMsgInventoryResp:
      HandleInventoryResp(msg);
      break;
    case kMsgTruncateAck:
      HandleTruncateAck(msg);
      break;
    default:
      break;
  }
}

void LogWriter::StopPipeline() {
  for (auto& [pg, batch] : pending_batches_) {
    if (batch.linger_armed) loop_->Cancel(batch.linger_event);
  }
  pending_batches_.clear();
  for (auto& [seq, batch] : outstanding_) {
    if (batch->retry_event != 0) loop_->Cancel(batch->retry_event);
  }
  outstanding_.clear();
  last_lsn_per_pg_.clear();
  above_vdl_.clear();
  tail_at_vdl_.clear();
}

void LogWriter::Reset() {
  ++generation_;
  StopPipeline();
  if (recovery_ != nullptr && recovery_->retry_event != 0) {
    loop_->Cancel(recovery_->retry_event);
  }
  recovery_.reset();
  replica_scl_.clear();
  pg_config_.clear();
  unacked_front_seq_ += unacked_.size();
  unacked_.clear();
  pending_cpls_.clear();
}

// --------------------------------------------------------------------------
// LSN allocation and batching (§4.2.1)
// --------------------------------------------------------------------------

void LogWriter::Append(MiniTransaction* mtr) {
  auto& records = mtr->records();
  const auto& pages = mtr->pages();
  for (size_t i = 0; i < records.size(); ++i) {
    LogRecord& rec = records[i];
    if (i + 1 == records.size()) rec.flags |= kFlagCpl;
    EnsurePgFor(rec.page_id);
    const PgId pg = PgOf(rec.page_id);
    rec.lsn = next_lsn_;
    auto [it, inserted] = last_lsn_per_pg_.try_emplace(pg, kInvalidLsn);
    rec.prev_pg_lsn = it->second;
    it->second = rec.lsn;
    rec.prev_vol_lsn = last_vol_lsn_;
    last_vol_lsn_ = rec.lsn;
    next_lsn_ += rec.EncodedSize();
    max_allocated_ = rec.lsn;
    pages[i]->set_page_lsn(rec.lsn);
    const uint64_t unacked_seq = unacked_front_seq_ + unacked_.size();
    unacked_.emplace_back(rec.lsn, false);
    above_vdl_.emplace_back(rec.lsn, pg);
    if (rec.is_cpl()) pending_cpls_.push_back(rec.lsn);
    ++stats_->log_records_sent;
    stats_->log_bytes_generated += rec.EncodedSize();
    if (stream_ != nullptr) stream_->push_back(rec);
    // The MTR is discarded after commit: its records move into the batch.
    if (i + 1 == records.size()) mtr->set_commit_lsn(rec.lsn);
    AppendToBatch(std::move(rec), unacked_seq);
  }
}

void LogWriter::EnsurePgFor(PageId page) {
  while (control_plane_->num_pgs() <= PgOf(page)) {
    control_plane_->CreatePg(options_->page_size);
  }
}

Lsn LogWriter::LastLsn(PgId pg) const {
  auto it = last_lsn_per_pg_.find(pg);
  return it == last_lsn_per_pg_.end() ? kInvalidLsn : it->second;
}

const LogWriter::CachedConfig& LogWriter::PgConfig(PgId pg) {
  auto it = pg_config_.find(pg);
  if (it == pg_config_.end()) {
    const PgMembership& members = control_plane_->membership(pg);
    it = pg_config_
             .emplace(pg, CachedConfig{members.nodes, members.config_epoch})
             .first;
  }
  return it->second;
}

void LogWriter::RefreshPgConfig(PgId pg) {
  ++stats_->stale_config_refreshes;
  const PgMembership& members = control_plane_->membership(pg);
  // An uncached PG has no SCLs either: they come from acks, read through
  // the cache.
  CachedConfig& cached = pg_config_[pg];
  // Forget ack-derived SCL watermarks for slots whose host changed: the old
  // host's progress says nothing about its replacement.
  for (int i = 0; i < kReplicasPerPg; ++i) {
    if (cached.nodes[i] != members.nodes[i]) {
      replica_scl_.erase({pg, static_cast<ReplicaIdx>(i)});
    }
  }
  cached = CachedConfig{members.nodes, members.config_epoch};
}

void LogWriter::AppendToBatch(LogRecord&& record, uint64_t unacked_seq) {
  PgId pg = PgOf(record.page_id);
  PendingBatch& batch = pending_batches_[pg];
  batch.pg = pg;
  if (batch.records.empty()) batch.first_append_at = loop_->now();
  batch.bytes += record.EncodedSize();
  batch.records.push_back(std::move(record));
  batch.unacked_seqs.push_back(unacked_seq);
  if (batch.bytes >= kBatchMaxBytes) {
    FlushBatch(pg);
    return;
  }
  if (!batch.linger_armed) {
    batch.linger_armed = true;
    const uint64_t gen = generation_;
    batch.linger_event = loop_->Schedule(kBatchLinger, [this, gen, pg] {
      if (gen != generation_) return;
      FlushBatch(pg);
    });
  }
}

void LogWriter::FlushBatch(PgId pg) {
  auto it = pending_batches_.find(pg);
  if (it == pending_batches_.end() || it->second.records.empty()) return;
  PendingBatch batch = std::move(it->second);
  pending_batches_.erase(it);
  if (batch.linger_armed) loop_->Cancel(batch.linger_event);

  auto ob = std::make_unique<OutstandingBatch>(options_->quorum);
  ob->pg = pg;
  ob->seq = next_batch_seq_++;
  ob->appended_at = batch.first_append_at;
  ob->flushed_at = loop_->now();
  stats_->batch_append_to_flush_us.Record(ob->flushed_at - ob->appended_at);
  ob->records = std::move(batch.records);
  ob->unacked_seqs = std::move(batch.unacked_seqs);
  OutstandingBatch* raw = ob.get();
  outstanding_[ob->seq] = std::move(ob);
  ++stats_->log_batches_sent;
  SendBatch(raw);
}

void LogWriter::SendBatch(OutstandingBatch* batch) {
  if (fenced_) return;
  const CachedConfig& cfg = PgConfig(batch->pg);
  const Lsn pgmrpl = owner_->Pgmrpl();
  // Single-encode, single-decode fan-out: the body (epoch, seq, hints,
  // record blob) is identical for all replicas, so serialize it once and
  // share the buffer, with one decode memo, across the un-acked sends; only
  // the tiny pg+replica head is built per destination.
  std::shared_ptr<const std::string> body;
  std::shared_ptr<sim::DecodeMemo> memo;
  uint64_t sends = 0;
  for (int idx = 0; idx < kReplicasPerPg; ++idx) {
    if (batch->tracker.has_ack_from(idx)) continue;
    if (!body) {
      std::string records;
      EncodeRecordBatch(batch->records, &records);
      body = std::make_shared<const std::string>(
          wire::Encode(WriteBatchBody{.epoch = volume_epoch_,
                                      .cfg_epoch = cfg.config_epoch,
                                      .batch_seq = batch->seq,
                                      .vdl_hint = vdl_,
                                      .pgmrpl_hint = pgmrpl,
                                      .records = records}));
      memo = std::make_shared<sim::DecodeMemo>();
    }
    const WriteBatchHead head{.pg = batch->pg,
                              .replica = static_cast<ReplicaIdx>(idx)};
    network_->Send(node_id_, cfg.nodes[idx], kMsgWriteBatch,
                   wire::Encode(head), body, memo);
    ++sends;
  }
  if (sends > 1) {
    stats_->batch_encode_bytes_saved += (sends - 1) * body->size();
  }
  // Retry until the write quorum is reached: storage nodes deduplicate by
  // LSN and re-ack, so resends are idempotent.
  const uint64_t gen = generation_;
  const uint64_t seq = batch->seq;
  SimDuration backoff = Millis(10) << std::min(batch->attempts, 5);
  batch->retry_event = loop_->Schedule(backoff, [this, gen, seq] {
    if (gen != generation_) return;
    auto it = outstanding_.find(seq);
    if (it == outstanding_.end()) return;
    ++it->second->attempts;
    ++stats_->batch_retries;
    SendBatch(it->second.get());
  });
}

void LogWriter::HandleWriteAck(const sim::Message& msg) {
  WriteAckMsg ack;
  if (!wire::Decode(msg.payload(), &ack).ok()) return;
  // Guard against our *cached* view, not the control plane: a kStaleConfig
  // NAK arrives precisely from hosts our stale cache still believes in.
  const CachedConfig& cfg = PgConfig(ack.pg);
  if (ack.replica >= kReplicasPerPg || cfg.nodes[ack.replica] != msg.from) {
    return;  // ack from a replaced (stale) replica
  }
  if (ack.status_code == static_cast<uint8_t>(Status::Code::kFenced)) {
    // Storage has seen a newer volume epoch: a replica was promoted while
    // this writer was partitioned. Demote instead of retrying forever.
    Fence(ack.epoch);
    return;
  }
  if (ack.status_code == static_cast<uint8_t>(Status::Code::kStaleConfig)) {
    // The PG's membership moved (a repair or migration completed) and this
    // writer's cached member list is behind: refresh from the control plane
    // and resend the batch to the new member set immediately. Every live
    // member NAKs the same stale batch, so only the first NAK per epoch
    // bump (the one our cache is actually behind) triggers the resend.
    if (ack.cfg_epoch > cfg.config_epoch) {
      RefreshPgConfig(ack.pg);
      auto sit = outstanding_.find(ack.batch_seq);
      if (sit != outstanding_.end()) {
        loop_->Cancel(sit->second->retry_event);
        SendBatch(sit->second.get());
      }
    }
    return;
  }
  Lsn& known = replica_scl_[{ack.pg, ack.replica}];
  if (ack.scl > known) known = ack.scl;

  auto it = outstanding_.find(ack.batch_seq);
  if (it == outstanding_.end()) return;
  OutstandingBatch* batch = it->second.get();
  const bool quorum_reached = batch->tracker.Ack(ack.replica);
  if (batch->first_ack_at == 0 && batch->tracker.acks() > 0) {
    batch->first_ack_at = loop_->now();
  }
  if (quorum_reached) {
    loop_->Cancel(batch->retry_event);
    stats_->batch_flush_to_first_ack_us.Record(batch->first_ack_at -
                                               batch->flushed_at);
    stats_->batch_first_ack_to_quorum_us.Record(loop_->now() -
                                                batch->first_ack_at);
    stats_->batch_append_to_quorum_us.Record(loop_->now() -
                                             batch->appended_at);
    RetireAcked(*batch);
    outstanding_.erase(it);
    AdvanceDurability();
    // VDL advances unlock eviction of freshly durable pages.
    pool_->EvictExcess();
  }
}

void LogWriter::RetireAcked(const OutstandingBatch& batch) {
  for (uint64_t seq : batch.unacked_seqs) {
    unacked_[seq - unacked_front_seq_].second = true;
  }
  while (!unacked_.empty() && unacked_.front().second) {
    unacked_.pop_front();
    ++unacked_front_seq_;
  }
}

void LogWriter::AdvanceDurability() {
  const Lsn durable =
      unacked_.empty() ? max_allocated_ : unacked_.front().first - 1;
  if (durable > vcl_) vcl_ = durable;
  bool advanced = false;
  while (!pending_cpls_.empty() && pending_cpls_.front() <= durable) {
    vdl_ = pending_cpls_.front();
    pending_cpls_.pop_front();
    advanced = true;
  }
  if (!advanced) return;
  // Before anything runs at the new VDL: a fetch started from a callback
  // below must carry its PG's tail at this VDL.
  while (!above_vdl_.empty() && above_vdl_.front().first <= vdl_) {
    tail_at_vdl_[above_vdl_.front().second] = above_vdl_.front().first;
    above_vdl_.pop_front();
  }
  owner_->OnVdlAdvanced();
}

void LogWriter::Fence(Epoch fencing_epoch) {
  if (fenced_) return;
  fenced_ = true;
  ++stats_->fenced_rejections;
  AURORA_WARN("writer %u fenced by volume epoch %llu (local epoch %llu)",
              node_id_, static_cast<unsigned long long>(fencing_epoch),
              static_cast<unsigned long long>(volume_epoch_));
  StopPipeline();
  owner_->OnFenced();
}

// --------------------------------------------------------------------------
// FetchPolicy: the read path's view of the log (§4.2.3)
// --------------------------------------------------------------------------

const std::array<sim::NodeId, kReplicasPerPg>& LogWriter::FetchMembers(
    PgId pg) {
  return PgConfig(pg).nodes;
}

std::optional<Lsn> LogWriter::ReadTail(PgId pg) {
  // Reads are at the VDL, so the tail is the PG's newest record at or
  // below it.
  auto it = tail_at_vdl_.find(pg);
  return it == tail_at_vdl_.end() ? kInvalidLsn : it->second;
}

bool LogWriter::KnownComplete(PgId pg, int idx, Lsn lsn) {
  // From write acks: the writer knows each segment's SCL (§4.2.3).
  auto it = replica_scl_.find({pg, static_cast<ReplicaIdx>(idx)});
  return it != replica_scl_.end() && it->second >= lsn;
}

void LogWriter::StampEpochs(ReadPageReqMsg* req) {
  req->epoch = volume_epoch_;
  req->cfg_epoch = PgConfig(req->pg).config_epoch;
}

FetchRetry LogWriter::OnErrorReply(PgId pg, Status::Code code) {
  if (code == Status::Code::kFenced) {
    Fence(0);  // the segment outran our epoch; exact value unknown
    return FetchRetry::kStop;
  }
  if (code == Status::Code::kStaleConfig) {
    // Not a demotion — our membership cache is behind. Refresh and retry
    // against the current member set.
    RefreshPgConfig(pg);
    return FetchRetry::kNow;
  }
  // Wrong replica (its chain has not reached the tail, or it lost the
  // page) — try another after a short pause; gossip heals lagging segments.
  return FetchRetry::kLater;
}

void LogWriter::OnInstalled(PageId, Page*, SimDuration latency,
                            int attempts) {
  stats_->page_fetch_latency_us.Record(latency);
  stats_->read_retry_depth.Record(static_cast<uint64_t>(attempts));
}

// --------------------------------------------------------------------------
// Recovery (§4.3)
// --------------------------------------------------------------------------

void LogWriter::Recover(uint64_t req_id) {
  fenced_ = false;  // a recovering instance starts fresh at the new epoch
  recovery_ = std::make_shared<RecoveryState>();
  recovery_->req_id = req_id;
  SendRound(recovery_);
}

void LogWriter::SendRound(std::shared_ptr<RecoveryState> rs) {
  const bool inventory = rs->phase == 1;
  const size_t quorum = RoundQuorum(options_->quorum, rs->phase);
  const size_t num_pgs = control_plane_->num_pgs();
  for (PgId pg = 0; pg < num_pgs; ++pg) {
    if (rs->replies[pg].size() >= quorum) continue;
    // All six copies share one encoded request (zero-copy fan-out).
    auto body = std::make_shared<const std::string>(
        inventory
            ? wire::Encode(InventoryReqMsg{.req_id = rs->req_id, .pg = pg})
            : wire::Encode(TruncateReqMsg{.req_id = rs->req_id,
                                          .pg = pg,
                                          .epoch = rs->new_epoch,
                                          .truncate_above = rs->new_vdl}));
    const PgMembership& members = control_plane_->membership(pg);
    for (sim::NodeId node : members.nodes) {
      network_->Send(node_id_, node,
                     inventory ? kMsgInventoryReq : kMsgTruncateReq,
                     std::string(), body);
    }
  }
  // Periodic resend until every PG has its quorum of replies.
  const uint64_t gen = generation_;
  const int phase = rs->phase;
  rs->retry_event = loop_->Schedule(Millis(100), [this, gen, rs, phase] {
    if (gen != generation_ || recovery_ != rs || rs->phase != phase) return;
    SendRound(rs);
  });
}

bool LogWriter::CountReply(RecoveryState* rs, PgId pg, ReplicaIdx replica) {
  rs->replies[pg].insert(replica);
  const size_t quorum = RoundQuorum(options_->quorum, rs->phase);
  const size_t num_pgs = control_plane_->num_pgs();
  for (PgId p = 0; p < num_pgs; ++p) {
    if (rs->replies[p].size() < quorum) return false;  // still waiting
  }
  loop_->Cancel(rs->retry_event);
  ++rs->phase;
  rs->replies.clear();
  return true;
}

void LogWriter::HandleInventoryResp(const sim::Message& msg) {
  InventoryRespMsg resp;
  if (!wire::Decode(msg.payload(), &resp).ok()) return;
  auto rs = recovery_;
  if (!rs || rs->phase != 1 || resp.req_id != rs->req_id) return;
  auto& entries = rs->union_entries[resp.pg];
  for (const InventoryEntry& e : resp.entries) {
    entries.emplace(e.lsn, e);
  }
  rs->floor = std::max(rs->floor, resp.vdl_hint);
  if (CountReply(rs.get(), resp.pg, resp.replica)) ComputeAndTruncate(rs);
}

void LogWriter::ComputeAndTruncate(std::shared_ptr<RecoveryState> rs) {
  // Walk the volume-wide backlink chain from the durable floor (the
  // highest VDL hint any segment holds: everything at or below it once
  // reached a write quorum, so it is both complete and durable). Every
  // record above the floor that survives on any responder is in the union;
  // the walk ends at the first hole — which is visible because each
  // record's vprev names its exact predecessor. The VCL is the end of the
  // walk and the VDL the highest CPL on it (§4.1/§4.3). The floor itself
  // is a CPL by construction (it was a VDL).
  // Records inside a previously annulled range (above a recorded truncation
  // point, within the dead incarnation's LAL window) may survive on replicas
  // that missed the truncate quorum and later resurface via gossip. They
  // belong to a fenced epoch and must never rejoin the chain.
  auto annulled = [this](Lsn lsn) {
    for (const auto& tr : control_plane_->truncations()) {
      if (lsn > tr.above && lsn <= tr.above + options_->lal) return true;
    }
    return false;
  };
  std::map<Lsn, const InventoryEntry*> by_vprev;
  for (const auto& [pg, entries] : rs->union_entries) {
    for (const auto& [lsn, e] : entries) {
      if (lsn > rs->floor && !annulled(lsn)) by_vprev[e.vprev] = &e;
    }
  }
  Lsn vcl = rs->floor;
  Lsn vdl = rs->floor;
  auto it = by_vprev.find(vcl);
  while (it != by_vprev.end()) {
    vcl = it->second->lsn;
    if (it->second->flags & kFlagCpl) vdl = vcl;
    it = by_vprev.find(vcl);
  }
  rs->new_vdl = vdl;
  vcl_ = vcl;
  // Each PG's newest record at or below the VDL: the backlink of its next
  // record and the tail its reads carry. A responder that collected it
  // still names it, as the backlink of a record above the VDL or, with
  // nothing above, as its chain head (GC keeps that record).
  for (const auto& [pg, entries] : rs->union_entries) {
    Lsn tail = kInvalidLsn;
    for (const auto& [lsn, e] : entries) {
      if (annulled(lsn)) continue;
      const Lsn newest = lsn <= vdl ? lsn : e.prev;
      if (newest <= vdl) tail = std::max(tail, newest);
    }
    rs->pg_tails[pg] = tail;
  }

  // Epoch-versioned truncation (§4.3): bump the volume epoch durably, then
  // command every replica to drop records above the VDL. The annulled range
  // extends to VDL + LAL — the highest LSN the dead incarnation could ever
  // have allocated — and new LSNs start above it.
  rs->new_epoch = control_plane_->volume_epoch() + 1;
  control_plane_->set_volume_epoch(rs->new_epoch);
  control_plane_->RecordTruncation(rs->new_epoch, vdl);

  SendRound(rs);
}

void LogWriter::HandleTruncateAck(const sim::Message& msg) {
  TruncateAckMsg ack;
  if (!wire::Decode(msg.payload(), &ack).ok()) return;
  auto rs = recovery_;
  if (!rs || rs->phase != 2 || ack.req_id != rs->req_id) return;
  if (ack.status_code != static_cast<uint8_t>(Status::Code::kOk)) return;
  if (!CountReply(rs.get(), ack.pg, ack.replica)) return;
  // Rebuild the runtime state the paper describes (§4.2.1): watermarks,
  // per-PG backlink tails, and an LSN allocator starting above the annulled
  // range. Nothing is in flight yet, so every PG's tail at the VDL is its
  // last LSN; replica SCL knowledge restarts empty and reads discover it.
  volume_epoch_ = rs->new_epoch;
  vdl_ = rs->new_vdl;
  vcl_ = std::max(vcl_, vdl_);
  max_allocated_ = vdl_;
  last_vol_lsn_ = vdl_;
  next_lsn_ = vdl_ + options_->lal + 1;
  lal_gap_top_ = vdl_ + options_->lal;
  last_lsn_per_pg_ = rs->pg_tails;
  tail_at_vdl_ = std::move(rs->pg_tails);
  recovery_.reset();
  owner_->OnRecovered();
}

}  // namespace aurora
