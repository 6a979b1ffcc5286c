#include "engine/database.h"

#include <algorithm>

#include "common/coding.h"
#include "common/logging.h"
#include "engine/row_codec.h"
#include "storage/storage_node.h"

namespace aurora {

namespace {

constexpr char kNextPageKey[] = "next_page";
constexpr char kTxnTableName[] = "tbl:__txn";
constexpr char kUndoTreeName[] = "tbl:__undo";
// Free-list entries on the meta page: "free:" + fixed64 page id, empty
// value. Sorts below kNextPageKey and the "tbl:" catalog entries.
constexpr char kFreePagePrefix[] = "free:";
constexpr size_t kFreePagePrefixLen = 5;
// How often committed transactions' undo records are purged (faster while
// a backlog exists, see PurgeTick).
constexpr SimDuration kPurgeInterval = Millis(200);
// Undo keys are "u" + big-endian txn id + big-endian sequence number.
constexpr size_t kUndoTxnPrefixLen = 9;
// Undo records one purge MTR deletes; the walk reads one more to learn
// whether the transaction has more.
constexpr int kPurgeChunk = 32;
// Group-commit batching: a per-PG batch is flushed when it reaches this
// many bytes or this much time has passed since its first record.
constexpr size_t kBatchMaxBytes = 32768;
constexpr SimDuration kBatchLinger = Micros(500);
// Replica log-stream shipping interval (lag is dominated by this plus one
// network hop, §4.2.4).
constexpr SimDuration kReplicaShipInterval = Micros(500);

void PutBigEndian64(std::string* dst, uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    dst->push_back(static_cast<char>((v >> shift) & 0xFF));
  }
}

std::string EncodeCatalogValue(PageId anchor, uint32_t version) {
  std::string v;
  PutFixed64(&v, anchor);
  PutFixed32(&v, version);
  return v;
}

bool DecodeCatalogValue(const Slice& v, PageId* anchor, uint32_t* version) {
  if (v.size() != 12) return false;
  *anchor = DecodeFixed64(v.data());
  *version = DecodeFixed32(v.data() + 8);
  return true;
}

std::string EncodeTxnStateValue(TxnState state) {
  return std::string(1, static_cast<char>(state));
}

std::string EncodeUndoValue(PageId table, const std::string& key, bool had_old,
                            const std::string& old_value) {
  std::string v;
  PutFixed64(&v, table);
  v.push_back(had_old ? 1 : 0);
  PutLengthPrefixedSlice(&v, key);
  v += old_value;
  return v;
}

Status DecodeUndoValue(const Slice& raw, PageId* table, std::string* key,
                       bool* had_old, std::string* old_value) {
  Slice in(raw);
  uint64_t tbl;
  if (!GetFixed64(&in, &tbl) || in.empty()) {
    return Status::Corruption("bad undo value");
  }
  *table = tbl;
  *had_old = in[0] != 0;
  in.remove_prefix(1);
  Slice k;
  if (!GetLengthPrefixedSlice(&in, &k)) {
    return Status::Corruption("bad undo key");
  }
  key->assign(k.data(), k.size());
  old_value->assign(in.data(), in.size());
  return Status::OK();
}

}  // namespace

std::string Database::UndoKey(TxnId txn, uint64_t seq) {
  std::string k = "u";
  PutBigEndian64(&k, txn);
  PutBigEndian64(&k, seq);
  return k;
}

std::string Database::TxnKey(TxnId txn) {
  std::string k = "t";
  PutBigEndian64(&k, txn);
  return k;
}

// The writer's recovery protocol state (§4.3).
struct Database::RecoveryState {
  std::function<void(Status)> done;
  uint64_t req_id = 0;
  int phase = 1;  // 1 = inventory, 2 = truncate
  // Phase 1.
  std::map<PgId, std::map<Lsn, InventoryEntry>> union_entries;
  std::map<PgId, std::set<ReplicaIdx>> inventory_acks;
  /// Durable completeness floor: the max VDL hint any segment holds.
  Lsn floor = kInvalidLsn;
  // Phase 2.
  Lsn new_vdl = kInvalidLsn;
  Epoch new_epoch = 0;
  std::map<PgId, std::set<ReplicaIdx>> truncate_acks;
  /// Each PG's newest record at or below new_vdl.
  std::map<PgId, Lsn> pg_tails;
  sim::EventId retry_event = 0;
  SimTime started_at = 0;
};

Database::Database(sim::EventLoop* loop, sim::Network* network,
                   sim::NodeId node_id, sim::Instance* instance,
                   ControlPlane* control_plane, EngineOptions options,
                   Random rng)
    : loop_(loop),
      network_(network),
      node_id_(node_id),
      instance_(instance),
      control_plane_(control_plane),
      options_(options),
      rng_(rng),
      pool_(options.buffer_pool_pages, options.page_size, &vdl_),
      locks_(loop),
      fetcher_(loop, network, node_id, control_plane->topology(), &options_,
               &pool_, &vdl_, this, &stats_.storage_page_reads,
               &stats_.read_retries) {
  network_->Register(node_id_,
                     [this](const sim::Message& m) { HandleMessage(m); });
}

Database::~Database() = default;

void Database::HandleMessage(const sim::Message& msg) {
  if (!network_->VerifyFrame(msg)) {
    ++stats_.corrupt_frames_dropped;
    return;
  }
  switch (msg.type) {
    case kMsgWriteAck:
      HandleWriteAck(msg);
      break;
    case kMsgReadPageResp:
      fetcher_.HandleResponse(msg);
      break;
    case kMsgInventoryResp:
      HandleInventoryResp(msg);
      break;
    case kMsgTruncateAck:
      HandleTruncateAck(msg);
      break;
    case kMsgReplicaReadPoint:
      HandleReplicaReadPoint(msg);
      break;
    default:
      break;
  }
}

// --------------------------------------------------------------------------
// Bootstrap & lifecycle
// --------------------------------------------------------------------------

void Database::Bootstrap(std::function<void(Status)> done) {
  if (control_plane_->num_pgs() != 0) {
    done(Status::InvalidArgument("volume already exists; use Recover()"));
    return;
  }
  EnsurePgExists(0);
  MiniTransaction mtr(kInvalidTxn);

  // Page 0: the allocator + catalog meta page.
  Page* meta = pool_.InstallNew(meta_page_id_);
  {
    LogRecord rec;
    rec.page_id = meta_page_id_;
    rec.op = RedoOp::kFormatPage;
    rec.payload = LogRecord::MakeFormatPayload(
        static_cast<uint8_t>(PageType::kMeta), 0);
    AURORA_CHECK(mtr.Apply(meta, std::move(rec)).ok(), "meta format failed");
  }
  {
    std::string next;
    PutFixed64(&next, 1);
    LogRecord rec;
    rec.page_id = meta_page_id_;
    rec.op = RedoOp::kInsert;
    rec.payload = LogRecord::MakeKeyValuePayload(kNextPageKey, next);
    AURORA_CHECK(mtr.Apply(meta, std::move(rec)).ok(), "meta init failed");
  }
  pool_.Pin(meta_page_id_);

  // System trees: the transaction table and the undo log.
  auto create_tree = [&](const char* name) -> PageId {
    Result<PageId> anchor = BTree::Create(this, &mtr);
    AURORA_CHECK(anchor.ok(), "system tree creation failed");
    LogRecord rec;
    rec.page_id = meta_page_id_;
    rec.op = RedoOp::kInsert;
    rec.payload =
        LogRecord::MakeKeyValuePayload(name, EncodeCatalogValue(*anchor, 0));
    AURORA_CHECK(mtr.Apply(meta, std::move(rec)).ok(), "catalog insert failed");
    pool_.Pin(*anchor);
    return *anchor;
  };
  txn_table_ = std::make_unique<BTree>(this, create_tree(kTxnTableName));
  undo_tree_ = std::make_unique<BTree>(this, create_tree(kUndoTreeName));

  Status s = CommitMtr(&mtr);
  AURORA_CHECK(s.ok(), "bootstrap commit failed");
  durable_waiters_.emplace(mtr.commit_lsn(), [this, done]() {
    open_ = true;
    ScheduleTimers();
    done(Status::OK());
  });
  AdvanceDurability();
}

void Database::StopPipelines() {
  for (auto& [pg, batch] : pending_batches_) {
    if (batch.linger_armed) loop_->Cancel(batch.linger_event);
  }
  pending_batches_.clear();
  for (auto& [seq, batch] : outstanding_) {
    if (batch->retry_event != 0) loop_->Cancel(batch->retry_event);
  }
  outstanding_.clear();
  fetcher_.Reset();
  last_lsn_per_pg_.clear();
  above_vdl_.clear();
  tail_at_vdl_.clear();
  durable_waiters_.clear();
  backpressure_queue_.clear();
  commit_queue_.clear();
}

void Database::Crash() {
  ++generation_;
  open_ = false;
  // Cancel every timer whose closure captures this engine. The generation
  // guard already neutralizes late firings, but the loop would otherwise
  // retain the closures (and their captured `this`) until they fire —
  // a use-after-free hazard if the Database is destroyed before the loop
  // drains, and unbounded bookkeeping growth in long chaos runs.
  StopPipelines();
  if (recovery_ != nullptr && recovery_->retry_event != 0) {
    loop_->Cancel(recovery_->retry_event);
  }
  loop_->Cancel(pgmrpl_timer_);
  loop_->Cancel(purge_timer_);
  loop_->Cancel(ship_timer_);
  loop_->Cancel(zdp_timer_);
  pool_.Clear();
  locks_.Reset();
  txns_.clear();
  purge_queue_.clear();
  replica_scl_.clear();
  pg_config_.clear();
  replica_stream_buffer_.clear();
  replica_commit_buffer_.clear();
  unacked_front_seq_ += unacked_.size();
  unacked_.clear();
  pending_cpls_.clear();
  txn_table_.reset();
  undo_tree_.reset();
  table_versions_.clear();
  recovery_.reset();
}

void Database::ScheduleTimers() {
  const uint64_t gen = generation_;
  pgmrpl_timer_ = loop_->Schedule(kPgmrplInterval, [this, gen] {
    if (gen == generation_ && open_) PgmrplTick();
  });
  purge_timer_ = loop_->Schedule(kPurgeInterval, [this, gen] {
    if (gen == generation_ && open_) PurgeTick();
  });
  ship_timer_ = loop_->Schedule(kReplicaShipInterval, [this, gen] {
    if (gen == generation_ && open_) ReplicaShipTick();
  });
}

// --------------------------------------------------------------------------
// WalSink: LSN allocation and batching (§4.2.1)
// --------------------------------------------------------------------------

Status Database::CommitMtr(MiniTransaction* mtr) {
  auto& records = mtr->records();
  const auto& pages = mtr->pages();
  if (records.empty()) return Status::OK();
  for (size_t i = 0; i < records.size(); ++i) {
    LogRecord& rec = records[i];
    if (i + 1 == records.size()) rec.flags |= kFlagCpl;
    PgId pg = PgOf(rec.page_id);
    EnsurePgExists(pg);
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
    ++stats_.log_records_sent;
    stats_.log_bytes_generated += rec.EncodedSize();
    if (!replicas_.empty()) replica_stream_buffer_.push_back(rec);
    // The MTR is discarded after commit: its records move into the batch.
    if (i + 1 == records.size()) mtr->set_commit_lsn(rec.lsn);
    AppendToBatch(std::move(rec), unacked_seq);
  }
  return Status::OK();
}

void Database::EnsurePgExists(PgId pg) {
  while (control_plane_->num_pgs() <= pg) {
    control_plane_->CreatePg(options_.page_size);
  }
}

const Database::CachedConfig& Database::PgConfig(PgId pg) {
  auto it = pg_config_.find(pg);
  if (it == pg_config_.end()) {
    const PgMembership& members = control_plane_->membership(pg);
    it = pg_config_
             .emplace(pg, CachedConfig{members.nodes, members.config_epoch})
             .first;
  }
  return it->second;
}

void Database::RefreshPgConfig(PgId pg) {
  const PgMembership& members = control_plane_->membership(pg);
  auto it = pg_config_.find(pg);
  if (it == pg_config_.end()) {
    pg_config_.emplace(pg, CachedConfig{members.nodes, members.config_epoch});
    return;
  }
  // Forget ack-derived SCL watermarks for slots whose host changed: the old
  // host's progress says nothing about its replacement.
  for (int i = 0; i < kReplicasPerPg; ++i) {
    if (it->second.nodes[i] != members.nodes[i]) {
      replica_scl_.erase({pg, static_cast<ReplicaIdx>(i)});
    }
  }
  it->second.nodes = members.nodes;
  it->second.config_epoch = members.config_epoch;
}

void Database::AppendToBatch(LogRecord&& record, uint64_t unacked_seq) {
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

void Database::FlushBatch(PgId pg) {
  auto it = pending_batches_.find(pg);
  if (it == pending_batches_.end() || it->second.records.empty()) return;
  PendingBatch batch = std::move(it->second);
  pending_batches_.erase(it);
  if (batch.linger_armed) loop_->Cancel(batch.linger_event);

  auto ob = std::make_unique<OutstandingBatch>(options_.quorum);
  ob->pg = pg;
  ob->seq = next_batch_seq_++;
  ob->appended_at = batch.first_append_at;
  ob->flushed_at = loop_->now();
  stats_.batch_append_to_flush_us.Record(ob->flushed_at - ob->appended_at);
  ob->records = std::move(batch.records);
  ob->unacked_seqs = std::move(batch.unacked_seqs);
  OutstandingBatch* raw = ob.get();
  outstanding_[ob->seq] = std::move(ob);
  ++stats_.log_batches_sent;
  SendBatch(raw);
}

void Database::SendBatch(OutstandingBatch* batch) {
  if (fenced_) return;
  const CachedConfig& cfg = PgConfig(batch->pg);
  const Lsn pgmrpl = ComputePgmrpl();
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
    stats_.batch_encode_bytes_saved += (sends - 1) * body->size();
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
    ++stats_.batch_retries;
    SendBatch(it->second.get());
  });
}

void Database::HandleWriteAck(const sim::Message& msg) {
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
    BecomeFenced(ack.epoch);
    return;
  }
  if (ack.status_code == static_cast<uint8_t>(Status::Code::kStaleConfig)) {
    // The PG's membership moved (a repair or migration completed) and this
    // writer's cached member list is behind: refresh from the control plane
    // and resend the batch to the new member set immediately. Every live
    // member NAKs the same stale batch, so only the first NAK per epoch
    // bump (the one our cache is actually behind) triggers the resend.
    if (ack.cfg_epoch > cfg.config_epoch) {
      ++stats_.stale_config_refreshes;
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
    stats_.batch_flush_to_first_ack_us.Record(batch->first_ack_at -
                                              batch->flushed_at);
    stats_.batch_first_ack_to_quorum_us.Record(loop_->now() -
                                               batch->first_ack_at);
    stats_.batch_append_to_quorum_us.Record(loop_->now() - batch->appended_at);
    RetireAcked(*batch);
    outstanding_.erase(it);
    AdvanceDurability();
    // VDL advances unlock eviction of freshly durable pages.
    pool_.EvictExcess();
  }
}

void Database::RetireAcked(const OutstandingBatch& batch) {
  for (uint64_t seq : batch.unacked_seqs) {
    unacked_[seq - unacked_front_seq_].second = true;
  }
  while (!unacked_.empty() && unacked_.front().second) {
    unacked_.pop_front();
    ++unacked_front_seq_;
  }
}

void Database::AdvanceDurability() {
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
  ProcessCommitQueue();
  while (!durable_waiters_.empty() && durable_waiters_.begin()->first <= vdl_) {
    auto cb = std::move(durable_waiters_.begin()->second);
    durable_waiters_.erase(durable_waiters_.begin());
    cb();
  }
  DrainBackpressure();
}

void Database::ProcessCommitQueue() {
  // §4.2.2: a dedicated completion pass acks every commit whose commit LSN
  // the VDL has passed; worker "threads" never wait.
  while (!commit_queue_.empty() && commit_queue_.front().first <= vdl_) {
    TxnId id = commit_queue_.front().second;
    commit_queue_.pop_front();
    Txn* t = FindTxn(id);
    if (t == nullptr) continue;
    t->state = TxnState::kCommitted;
    auto cb = std::move(t->commit_cb);
    stats_.commit_latency_us.Record(loop_->now() - t->commit_requested_at);
    ++stats_.txns_committed;
    replica_commit_buffer_.emplace_back(t->commit_lsn, loop_->now());
    bool registered = t->durably_registered;
    locks_.ReleaseAll(id);
    txns_.erase(id);
    if (registered) purge_queue_.push_back(id);
    if (cb) cb(Status::OK());
  }
}

void Database::BecomeFenced(Epoch fencing_epoch) {
  if (fenced_) return;
  fenced_ = true;
  open_ = false;
  ++stats_.fenced_rejections;
  AURORA_WARN("writer %u fenced by volume epoch %llu (local epoch %llu)",
              node_id_, static_cast<unsigned long long>(fencing_epoch),
              static_cast<unsigned long long>(volume_epoch_));
  // Stop the write pipeline: no batch may ever be resent under the dead
  // epoch, and nothing queued behind durability can ever be acked.
  StopPipelines();
  // Surface the demotion to every caller still waiting on a commit: their
  // writes may or may not survive (the new writer's recovery decides), but
  // this instance can no longer promise either way.
  std::vector<std::function<void(Status)>> waiting;
  for (auto& [id, t] : txns_) {
    if (t->commit_cb) waiting.push_back(std::move(t->commit_cb));
  }
  txns_.clear();
  locks_.Reset();
  for (auto& cb : waiting) {
    cb(Status::Fenced("writer superseded by a newer volume epoch"));
  }
}

void Database::DeferForBackpressure(std::function<void()> retry) {
  ++stats_.backpressure_stalls;
  backpressure_queue_.push_back(std::move(retry));
}

void Database::DrainBackpressure() {
  if (paused_) return;
  while (!backpressure_queue_.empty() && !in_backpressure()) {
    auto retry = std::move(backpressure_queue_.front());
    backpressure_queue_.pop_front();
    retry();
  }
}

// --------------------------------------------------------------------------
// PageProvider: buffer pool + storage fetches (§4.2.3)
// --------------------------------------------------------------------------

Result<Page*> Database::AllocatePage(PageType type, uint8_t level,
                                     MiniTransaction* mtr) {
  Result<Page*> meta = GetPage(meta_page_id_);
  if (!meta.ok()) return meta.status();
  // Reuse a freed page when the free-list has one; the page space only
  // grows when the list is empty.
  int slot = (*meta)->LowerBound(kFreePagePrefix);
  if (slot < (*meta)->slot_count()) {
    Slice k = (*meta)->KeyAt(slot);
    if (k.size() == kFreePagePrefixLen + 8 && k.starts_with(kFreePagePrefix)) {
      const PageId id = DecodeFixed64(k.data() + kFreePagePrefixLen);
      LogRecord del;
      del.page_id = meta_page_id_;
      del.op = RedoOp::kDelete;
      del.payload = LogRecord::MakeKeyPayload(k);
      Status s = mtr->Apply(*meta, std::move(del));
      if (!s.ok()) return s;
      EnsurePgExists(PgOf(id));
      // The freed page may have been evicted; the buffer just needs to be
      // resident — the format record rebuilds it from nothing.
      Page* page = pool_.InstallNew(id);
      LogRecord fmt;
      fmt.page_id = id;
      fmt.op = RedoOp::kFormatPage;
      fmt.payload =
          LogRecord::MakeFormatPayload(static_cast<uint8_t>(type), level);
      s = mtr->Apply(page, std::move(fmt));
      if (!s.ok()) return s;
      ++stats_.pages_reused;
      return page;
    }
  }
  Slice v;
  if (!(*meta)->GetRecord(kNextPageKey, &v) || v.size() != 8) {
    return Status::Corruption("allocator record missing");
  }
  PageId id = DecodeFixed64(v.data());
  std::string next;
  PutFixed64(&next, id + 1);
  LogRecord upd;
  upd.page_id = meta_page_id_;
  upd.op = RedoOp::kUpdate;
  upd.payload = LogRecord::MakeKeyValuePayload(kNextPageKey, next);
  Status s = mtr->Apply(*meta, std::move(upd));
  if (!s.ok()) return s;

  EnsurePgExists(PgOf(id));
  Page* page = pool_.InstallNew(id);
  LogRecord fmt;
  fmt.page_id = id;
  fmt.op = RedoOp::kFormatPage;
  fmt.payload =
      LogRecord::MakeFormatPayload(static_cast<uint8_t>(type), level);
  s = mtr->Apply(page, std::move(fmt));
  if (!s.ok()) return s;
  return page;
}

Status Database::FreePage(Page* page, MiniTransaction* mtr) {
  Result<Page*> meta = GetPage(meta_page_id_);
  if (!meta.ok()) return meta.status();
  std::string key = kFreePagePrefix;
  PutFixed64(&key, page->page_id());
  // A meta page with no room only costs the reuse of this one id: leak it
  // rather than fail the caller's already-applied structural change.
  if ((*meta)->HasRoomFor(key.size(), 0)) {
    LogRecord rec;
    rec.page_id = meta_page_id_;
    rec.op = RedoOp::kInsert;
    rec.payload = LogRecord::MakeKeyValuePayload(key, Slice());
    Status s = mtr->Apply(*meta, std::move(rec));
    if (!s.ok()) return s;
  }
  LogRecord fmt;
  fmt.page_id = page->page_id();
  fmt.op = RedoOp::kFormatPage;
  fmt.payload =
      LogRecord::MakeFormatPayload(static_cast<uint8_t>(PageType::kFree), 0);
  Status s = mtr->Apply(page, std::move(fmt));
  if (!s.ok()) return s;
  ++stats_.pages_freed;
  return Status::OK();
}

const std::array<sim::NodeId, kReplicasPerPg>& Database::FetchMembers(
    PgId pg) {
  return PgConfig(pg).nodes;
}

std::optional<Lsn> Database::ReadTail(PgId pg) {
  // Reads are at the VDL, so the tail is the PG's newest record at or
  // below it.
  auto it = tail_at_vdl_.find(pg);
  return it == tail_at_vdl_.end() ? kInvalidLsn : it->second;
}

bool Database::KnownComplete(PgId pg, int idx, Lsn lsn) {
  // From write acks: the writer knows each segment's SCL (§4.2.3).
  auto it = replica_scl_.find({pg, static_cast<ReplicaIdx>(idx)});
  return it != replica_scl_.end() && it->second >= lsn;
}

void Database::StampEpochs(ReadPageReqMsg* req) {
  req->epoch = volume_epoch_;
  req->cfg_epoch = PgConfig(req->pg).config_epoch;
}

FetchRetry Database::OnErrorReply(PgId pg, Status::Code code) {
  if (code == Status::Code::kFenced) {
    BecomeFenced(0);  // the segment outran our epoch; exact value unknown
    return FetchRetry::kStop;
  }
  if (code == Status::Code::kStaleConfig) {
    // Not a demotion — our membership cache is behind. Refresh and retry
    // against the current member set.
    ++stats_.stale_config_refreshes;
    RefreshPgConfig(pg);
    return FetchRetry::kNow;
  }
  // Wrong replica (its chain has not reached the tail, or it lost the
  // page) — try another after a short pause; gossip heals lagging segments.
  return FetchRetry::kLater;
}

void Database::OnInstalled(PageId, Page*, SimDuration latency, int attempts) {
  stats_.page_fetch_latency_us.Record(latency);
  stats_.read_retry_depth.Record(static_cast<uint64_t>(attempts));
}

// --------------------------------------------------------------------------
// Op plumbing
// --------------------------------------------------------------------------

Status Database::ClosedStatus() const {
  return fenced_ ? Status::Fenced("writer fenced by a newer volume epoch")
                 : Status::Unavailable("database not open");
}

Status Database::AdmitStatement(TxnId txn) {
  if (!open_) return ClosedStatus();
  Txn* t = FindTxn(txn);
  if (t == nullptr || t->state != TxnState::kActive) {
    return Status::Aborted("transaction not active");
  }
  return Status::OK();
}

template <typename AttemptFn, typename FinishFn, typename DoneFn>
void Database::LockAndRun(TxnId txn, PageId table, std::string key,
                          LockMode mode, AttemptFn attempt, FinishFn finish,
                          DoneFn done) {
  Status s = locks_.Lock(txn, table, key, mode);
  // Runs exactly once, so it may move its captures out. It is handed to the
  // lock manager only when the request queues.
  auto with_lock = [this, txn, key = std::move(key),
                    attempt = std::move(attempt), finish = std::move(finish),
                    done = std::move(done)](Status ls) mutable {
    if (ls.ok()) {
      fetcher_.RunWithRetries(
          [key = std::move(key), attempt = std::move(attempt)]() {
            return attempt(key);
          },
          [finish = std::move(finish), done = std::move(done)](Status s) {
            finish(s, done);
          });
      return;
    }
    Txn* t = FindTxn(txn);
    if (t != nullptr) {
      RollbackInternal(t, [done = std::move(done), ls](Status) { done(ls); });
    } else {
      done(ls);
    }
  };
  if (s.IsBusy()) {
    locks_.OnGrant(txn, std::move(with_lock));
    return;
  }
  with_lock(s);
}

void Database::ChargeCpu(SimDuration cost, sim::EventFn then) {
  instance_->Execute(cost, std::move(then));
}

// --------------------------------------------------------------------------
// Schema
// --------------------------------------------------------------------------

void Database::CreateTable(const std::string& name,
                           std::function<void(Status)> done) {
  std::string cat_key = "tbl:" + name;
  auto attempt = [this, cat_key]() -> Status {
    Result<Page*> meta = GetPage(meta_page_id_);
    if (!meta.ok()) return meta.status();
    Slice v;
    if ((*meta)->GetRecord(cat_key, &v)) {
      return Status::InvalidArgument("table exists");
    }
    MiniTransaction mtr(kInvalidTxn);
    Result<PageId> anchor = BTree::Create(this, &mtr);
    if (!anchor.ok()) {
      mtr.Abort();
      return anchor.status();
    }
    LogRecord rec;
    rec.page_id = meta_page_id_;
    rec.op = RedoOp::kInsert;
    rec.payload =
        LogRecord::MakeKeyValuePayload(cat_key, EncodeCatalogValue(*anchor, 0));
    Status s = mtr.Apply(*meta, std::move(rec));
    if (!s.ok()) {
      mtr.Abort();
      return s;
    }
    s = CommitMtr(&mtr);
    if (!s.ok()) return s;
    table_versions_[*anchor] = 0;
    durable_lsn_for_ddl_ = mtr.commit_lsn();
    return Status::OK();
  };
  fetcher_.RunWithRetries(attempt, [this, done](Status s) {
    if (!s.ok()) {
      done(s);
      return;
    }
    durable_waiters_.emplace(durable_lsn_for_ddl_,
                             [done]() { done(Status::OK()); });
    AdvanceDurability();
  });
}

void Database::AttachPreloadedTable(const std::string& name,
                                    std::function<uint64_t(PageId)> plan,
                                    std::function<void(Result<PageId>)> done) {
  Result<Page*> meta = GetPage(meta_page_id_);
  if (!meta.ok()) {
    done(meta.status());  // meta is pinned post-bootstrap; shouldn't happen
    return;
  }
  std::string cat_key = "tbl:" + name;
  Slice v;
  if ((*meta)->GetRecord(cat_key, &v)) {
    done(Status::InvalidArgument("table exists"));
    return;
  }
  if (!(*meta)->GetRecord(kNextPageKey, &v) || v.size() != 8) {
    done(Status::Corruption("allocator record missing"));
    return;
  }
  PageId first = DecodeFixed64(v.data());
  uint64_t count = plan(first);
  EnsurePgExists(PgOf(first + count - 1));

  MiniTransaction mtr(kInvalidTxn);
  std::string next;
  PutFixed64(&next, first + count);
  LogRecord upd;
  upd.page_id = meta_page_id_;
  upd.op = RedoOp::kUpdate;
  upd.payload = LogRecord::MakeKeyValuePayload(kNextPageKey, next);
  Status s = mtr.Apply(*meta, std::move(upd));
  if (!s.ok()) {
    mtr.Abort();
    done(s);
    return;
  }
  LogRecord ins;
  ins.page_id = meta_page_id_;
  ins.op = RedoOp::kInsert;
  ins.payload =
      LogRecord::MakeKeyValuePayload(cat_key, EncodeCatalogValue(first, 0));
  s = mtr.Apply(*meta, std::move(ins));
  if (!s.ok()) {
    mtr.Abort();
    done(s);
    return;
  }
  s = CommitMtr(&mtr);
  AURORA_CHECK(s.ok(), "attach commit failed");
  table_versions_[first] = 0;
  durable_waiters_.emplace(mtr.commit_lsn(),
                           [done, first]() { done(first); });
  AdvanceDurability();
}

Result<PageId> Database::TableAnchor(const std::string& name) {
  Result<Page*> meta = GetPage(meta_page_id_);
  if (!meta.ok()) return meta.status();
  Slice v;
  if (!(*meta)->GetRecord("tbl:" + name, &v)) {
    return Status::NotFound("no such table");
  }
  PageId anchor;
  uint32_t version;
  if (!DecodeCatalogValue(v, &anchor, &version)) {
    return Status::Corruption("bad catalog record");
  }
  table_versions_[anchor] = version;
  return anchor;
}

void Database::AlterTableSchema(const std::string& name,
                                std::function<void(Result<uint32_t>)> done) {
  std::string cat_key = "tbl:" + name;
  auto attempt = [this, cat_key]() -> Status {
    Result<Page*> meta = GetPage(meta_page_id_);
    if (!meta.ok()) return meta.status();
    Slice v;
    if (!(*meta)->GetRecord(cat_key, &v)) return Status::NotFound("no table");
    PageId anchor;
    uint32_t version;
    if (!DecodeCatalogValue(v, &anchor, &version)) {
      return Status::Corruption("bad catalog record");
    }
    MiniTransaction mtr(kInvalidTxn);
    LogRecord rec;
    rec.page_id = meta_page_id_;
    rec.op = RedoOp::kUpdate;
    rec.payload = LogRecord::MakeKeyValuePayload(
        cat_key, EncodeCatalogValue(anchor, version + 1));
    Status s = mtr.Apply(*meta, std::move(rec));
    if (!s.ok()) {
      mtr.Abort();
      return s;
    }
    s = CommitMtr(&mtr);
    if (!s.ok()) return s;
    // Instant DDL (§7.3): only the catalog version changes; existing rows
    // keep their version stamp and are upgraded on modification, readers
    // decode any historical version.
    table_versions_[anchor] = version + 1;
    ddl_result_version_ = version + 1;
    durable_lsn_for_ddl_ = mtr.commit_lsn();
    return Status::OK();
  };
  fetcher_.RunWithRetries(attempt, [this, done](Status s) {
    if (!s.ok()) {
      done(s);
      return;
    }
    uint32_t version = ddl_result_version_;
    durable_waiters_.emplace(durable_lsn_for_ddl_,
                             [done, version]() { done(version); });
    AdvanceDurability();
  });
}

// --------------------------------------------------------------------------
// Transactions
// --------------------------------------------------------------------------

TxnId Database::Begin() {
  TxnId id = next_txn_++;
  auto txn = std::make_unique<Txn>();
  txn->id = id;
  txns_[id] = std::move(txn);
  ++stats_.txns_started;
  return id;
}

Database::Txn* Database::FindTxn(TxnId id) {
  auto it = txns_.find(id);
  return it == txns_.end() ? nullptr : it->second.get();
}

Status Database::WriteRowAttempt(Txn* txn, PageId table,
                                 const std::string& key,
                                 const std::string* value) {
  BTree tree(this, table);
  std::string old_raw;
  Status s = tree.Get(key, &old_raw);
  bool had_old;
  if (s.ok()) {
    had_old = true;
  } else if (s.IsNotFound()) {
    had_old = false;
  } else {
    return s;  // Busy (page miss) or corruption
  }
  if (value == nullptr && !had_old) return Status::NotFound("no such row");

  MiniTransaction mtr(txn->id);
  if (!txn->durably_registered) {
    s = txn_table_->Insert(TxnKey(txn->id),
                           EncodeTxnStateValue(TxnState::kActive), &mtr);
    if (!s.ok()) {
      mtr.Abort();
      return s;
    }
  }
  s = undo_tree_->Insert(UndoKey(txn->id, txn->next_undo_seq),
                         EncodeUndoValue(table, key, had_old, old_raw), &mtr);
  if (!s.ok()) {
    mtr.Abort();
    return s;
  }
  if (value != nullptr) {
    uint32_t version = 0;
    auto vit = table_versions_.find(table);
    if (vit != table_versions_.end()) version = vit->second;
    std::string row = EncodeRow(version, *value);
    s = had_old ? tree.Update(key, row, &mtr) : tree.Insert(key, row, &mtr);
  } else {
    s = tree.Delete(key, &mtr);
  }
  if (!s.ok()) {
    mtr.Abort();
    return s;
  }
  s = CommitMtr(&mtr);
  AURORA_CHECK(s.ok(), "CommitMtr failed");
  txn->undo.push_back(
      {txn->next_undo_seq, table, key, had_old, std::move(old_raw)});
  ++txn->next_undo_seq;
  txn->durably_registered = true;
  return Status::OK();
}

void Database::Put(TxnId txn, PageId table, const std::string& key,
                   const std::string& value,
                   std::function<void(Status)> done) {
  if (Status s = AdmitStatement(txn); !s.ok()) {
    done(s);
    return;
  }
  // ZDP holds post-watermark transactions at the door; the LAL holds all.
  if ((paused_ && txn >= pause_watermark_) || in_backpressure()) {
    DeferForBackpressure(
        [this, txn, table, key, value, done = std::move(done)]() mutable {
          Put(txn, table, key, value, std::move(done));
        });
    return;
  }
  ++stats_.writes;
  SimTime started = loop_->now();
  // Init-captures make owned, non-const copies that can be moved on.
  auto run = [this, txn, table, key = key, value = value,
              done = std::move(done), started]() mutable {
    LockAndRun(
        txn, table, std::move(key), LockMode::kExclusive,
        [this, txn, table,
         value = std::move(value)](const std::string& key) -> Status {
          Txn* t = FindTxn(txn);
          if (t == nullptr || t->state != TxnState::kActive) {
            return Status::Aborted("transaction gone");
          }
          return WriteRowAttempt(t, table, key, &value);
        },
        [this, started](Status s, const auto& done) {
          stats_.write_latency_us.Record(loop_->now() - started);
          done(s);
        },
        std::move(done));
  };
  static_assert(sim::EventFn::kStoresInline<decltype(run)>);
  ChargeCpu(kCpuPerStatement, std::move(run));
}

void Database::Delete(TxnId txn, PageId table, const std::string& key,
                      std::function<void(Status)> done) {
  if (Status s = AdmitStatement(txn); !s.ok()) {
    done(s);
    return;
  }
  if ((paused_ && txn >= pause_watermark_) || in_backpressure()) {
    DeferForBackpressure([this, txn, table, key,
                          done = std::move(done)]() mutable {
      Delete(txn, table, key, std::move(done));
    });
    return;
  }
  ++stats_.deletes;
  auto run = [this, txn, table, key = key, done = std::move(done)]() mutable {
    LockAndRun(
        txn, table, std::move(key), LockMode::kExclusive,
        [this, txn, table](const std::string& key) -> Status {
          Txn* t = FindTxn(txn);
          if (t == nullptr || t->state != TxnState::kActive) {
            return Status::Aborted("transaction gone");
          }
          return WriteRowAttempt(t, table, key, nullptr);
        },
        [](Status s, const auto& done) { done(s); }, std::move(done));
  };
  static_assert(sim::EventFn::kStoresInline<decltype(run)>);
  ChargeCpu(kCpuPerStatement, std::move(run));
}

void Database::Get(TxnId txn, PageId table, const std::string& key,
                   std::function<void(Result<std::string>)> done) {
  if (Status s = AdmitStatement(txn); !s.ok()) {
    done(s);
    return;
  }
  if (paused_ && txn >= pause_watermark_) {
    DeferForBackpressure(
        [this, txn, table, key, done = std::move(done)]() mutable {
          Get(txn, table, key, std::move(done));
        });
    return;
  }
  ++stats_.reads;
  SimTime started = loop_->now();
  auto run = [this, txn, table, key = key, done = std::move(done),
              started]() mutable {
    auto result = std::make_shared<std::string>();
    LockAndRun(
        txn, table, std::move(key), LockMode::kShared,
        [this, table, result](const std::string& key) -> Status {
          BTree tree(this, table);
          return tree.Get(key, result.get());
        },
        [this, result, started](Status s, const auto& done) {
          stats_.read_latency_us.Record(loop_->now() - started);
          done(s.ok() ? DecodeRow(*result) : Result<std::string>(s));
        },
        std::move(done));
  };
  static_assert(sim::EventFn::kStoresInline<decltype(run)>);
  ChargeCpu(kCpuPerStatement, std::move(run));
}

void Database::SnapshotGet(TxnId txn, PageId table, const std::string& key,
                           std::function<void(Result<std::string>)> done) {
  if (!open_) {
    done(ClosedStatus());
    return;
  }
  (void)txn;
  ++stats_.reads;
  SimTime started = loop_->now();
  ChargeCpu(kCpuPerStatement, [this, table, key, done, started]() {
    // Consistent (lock-free) read: if another active transaction holds the
    // row exclusively, reconstruct the pre-image from its undo chain —
    // undo-based snapshot isolation as in InnoDB consistent reads.
    for (const auto& [id, t] : txns_) {
      if (t->state != TxnState::kActive) continue;
      for (auto it = t->undo.rbegin(); it != t->undo.rend(); ++it) {
        if (it->table != table || it->key != key) continue;
        if (!it->had_old) {
          done(Status::NotFound("row created by in-flight txn"));
          return;
        }
        done(DecodeRow(it->old_value));
        return;
      }
    }
    auto result = std::make_shared<std::string>();
    auto attempt = [this, table, key, result]() -> Status {
      BTree tree(this, table);
      return tree.Get(key, result.get());
    };
    fetcher_.RunWithRetries(attempt, [this, done, result, started](Status s) {
      stats_.read_latency_us.Record(loop_->now() - started);
      done(s.ok() ? DecodeRow(*result) : Result<std::string>(s));
    });
  });
}

void Database::Scan(
    TxnId txn, PageId table, const std::string& start, int limit,
    std::function<void(
        Result<std::vector<std::pair<std::string, std::string>>>)>
        done) {
  if (!open_) {
    done(ClosedStatus());
    return;
  }
  (void)txn;  // read-committed scan: no row locks
  ++stats_.reads;
  ChargeCpu(kCpuPerStatement, [this, table, start, limit, done]() {
    auto rows = std::make_shared<
        std::vector<std::pair<std::string, std::string>>>();
    auto attempt = [this, table, start, limit, rows]() -> Status {
      rows->clear();
      BTree tree(this, table);
      return tree.Scan(start, limit, rows.get());
    };
    fetcher_.RunWithRetries(attempt, [done, rows](Status s) {
      if (!s.ok()) {
        done(s);
        return;
      }
      // Strip version stamps.
      for (auto& [k, raw] : *rows) {
        Result<std::string> value = DecodeRow(raw);
        if (value.ok()) raw = std::move(*value);
      }
      done(std::move(*rows));
    });
  });
}

void Database::Commit(TxnId txn, std::function<void(Status)> done) {
  if (fenced_) {
    done(Status::Fenced("writer fenced by a newer volume epoch"));
    return;
  }
  Txn* t = FindTxn(txn);
  if (t == nullptr) {
    done(Status::InvalidArgument("unknown transaction"));
    return;
  }
  if (t->state != TxnState::kActive) {
    done(Status::Aborted("transaction not active"));
    return;
  }
  t->commit_requested_at = loop_->now();
  if (!t->durably_registered) {
    // Read-only: nothing to harden.
    stats_.commit_latency_us.Record(0);
    ++stats_.txns_committed;
    locks_.ReleaseAll(txn);
    txns_.erase(txn);
    done(Status::OK());
    return;
  }
  if (in_backpressure()) {
    DeferForBackpressure([this, txn, done = std::move(done)]() mutable {
      Commit(txn, std::move(done));
    });
    return;
  }
  auto attempt = [this, txn]() -> Status {
    Txn* t = FindTxn(txn);
    if (t == nullptr) return Status::Aborted("transaction gone");
    MiniTransaction mtr(txn);
    Status s = txn_table_->Update(TxnKey(txn),
                                  EncodeTxnStateValue(TxnState::kCommitted),
                                  &mtr);
    if (!s.ok()) {
      mtr.Abort();
      return s;
    }
    s = CommitMtr(&mtr);
    if (!s.ok()) return s;
    t->commit_lsn = mtr.commit_lsn();
    return Status::OK();
  };
  fetcher_.RunWithRetries(attempt, [this, txn, done = std::move(done)](
                                        Status s) mutable {
    Txn* t = FindTxn(txn);
    if (!s.ok() || t == nullptr) {
      done(s.ok() ? Status::Aborted("transaction gone") : s);
      return;
    }
    // §4.2.2: set the transaction aside; the commit completes when
    // VDL >= commit LSN. RunWithRetries runs this right after the attempt
    // that allocated the commit LSN, so the queue stays in LSN order.
    AURORA_CHECK(commit_queue_.empty() ||
                     commit_queue_.back().first < t->commit_lsn,
                 "commit queued out of LSN order");
    t->state = TxnState::kCommitted;  // logically decided; ack pending
    t->commit_cb = std::move(done);
    commit_queue_.emplace_back(t->commit_lsn, txn);
    AdvanceDurability();
  });
}

void Database::Rollback(TxnId txn, std::function<void(Status)> done) {
  Txn* t = FindTxn(txn);
  if (t == nullptr) {
    done(Status::InvalidArgument("unknown transaction"));
    return;
  }
  RollbackInternal(t, std::move(done));
}

void Database::RollbackInternal(Txn* t, std::function<void(Status)> done) {
  t->state = TxnState::kAborted;
  UndoOneEntry(t, t->undo.size(), std::move(done));
}

void Database::UndoOneEntry(Txn* t, size_t remaining,
                            std::function<void(Status)> done) {
  if (remaining == 0) {
    TxnId id = t->id;
    bool registered = t->durably_registered;
    if (!registered) {
      locks_.ReleaseAll(id);
      ++stats_.txns_aborted;
      txns_.erase(id);
      done(Status::OK());
      return;
    }
    // Durably mark aborted, then release.
    auto attempt = [this, id]() -> Status {
      MiniTransaction mtr(id);
      Status s = txn_table_->Update(TxnKey(id),
                                    EncodeTxnStateValue(TxnState::kAborted),
                                    &mtr);
      if (s.IsNotFound()) return Status::OK();  // already purged
      if (!s.ok()) {
        mtr.Abort();
        return s;
      }
      return CommitMtr(&mtr);
    };
    fetcher_.RunWithRetries(attempt, [this, id, done](Status s) {
      locks_.ReleaseAll(id);
      ++stats_.txns_aborted;
      purge_queue_.push_back(id);
      txns_.erase(id);
      done(s);
    });
    return;
  }
  const Txn::UndoEntry& e = t->undo[remaining - 1];
  TxnId id = t->id;
  auto attempt = [this, e]() -> Status {
    // Idempotent logical undo: restore the old value (or remove the
    // inserted row). Idempotence matters because recovery may replay this.
    MiniTransaction mtr(kInvalidTxn);
    BTree tree(this, e.table);
    Status s;
    if (e.had_old) {
      s = tree.Upsert(e.key, e.old_value, &mtr);
    } else {
      s = tree.Delete(e.key, &mtr);
      if (s.IsNotFound()) s = Status::OK();
    }
    if (!s.ok()) {
      mtr.Abort();
      return s;
    }
    return CommitMtr(&mtr);
  };
  fetcher_.RunWithRetries(attempt, [this, id, remaining, done](Status s) {
    Txn* t = FindTxn(id);
    if (t == nullptr) {
      done(Status::Aborted("transaction gone during rollback"));
      return;
    }
    if (!s.ok()) {
      done(s);
      return;
    }
    UndoOneEntry(t, remaining - 1, done);
  });
}

void Database::PurgeTick() {
  const uint64_t gen = generation_;
  // Purge must keep pace with the commit rate or the undo/txn-table trees
  // grow without bound; reschedule aggressively while a backlog exists.
  SimDuration next = purge_queue_.size() > 64
                         ? std::max<SimDuration>(kPurgeInterval / 100,
                                                 Micros(50))
                         : kPurgeInterval;
  purge_timer_ = loop_->Schedule(next, [this, gen] {
    if (gen == generation_ && open_) PurgeTick();
  });
  if (purge_queue_.empty()) return;
  PurgeChain(gen, std::min<size_t>(purge_queue_.size(), 64));
}

void Database::PurgeChain(uint64_t gen, size_t budget) {
  if (gen != generation_ || budget == 0 || purge_queue_.empty()) return;
  PurgeOne(gen, budget);
}

void Database::PurgeOne(uint64_t gen, size_t budget) {
  TxnId id = purge_queue_.front();
  auto attempt = [this, id]() -> Status {
    // Delete up to a chunk of the transaction's undo records plus (when
    // done) its transaction-table row, in one MTR. The walk reads the whole
    // window of kPurgeChunk + 1 entries, whoever owns them, so it touches
    // the same pages (and misses on the same one) as a scan of that window;
    // it copies only the leading keys that belong to this transaction.
    const std::string first = UndoKey(id, 0);
    const Slice prefix(first.data(), kUndoTxnPrefixLen);
    std::vector<std::string> keys;
    bool leading = true;
    Status s = undo_tree_->Walk(first, kPurgeChunk + 1,
                                [&](Slice key, Slice /*value*/) {
                                  leading = leading && key.starts_with(prefix);
                                  if (leading) keys.push_back(key.ToString());
                                });
    if (!s.ok()) return s;
    MiniTransaction mtr(kInvalidTxn);
    const bool more = keys.size() > static_cast<size_t>(kPurgeChunk);
    if (more) keys.pop_back();
    for (const std::string& k : keys) {
      s = undo_tree_->Delete(k, &mtr);
      if (!s.ok()) {
        mtr.Abort();
        return s;
      }
    }
    if (!more) {
      s = txn_table_->Delete(TxnKey(id), &mtr);
      if (!s.ok() && !s.IsNotFound()) {
        mtr.Abort();
        return s;
      }
      purge_done_ = true;
    } else {
      purge_done_ = false;
    }
    if (mtr.empty()) return Status::OK();
    return CommitMtr(&mtr);
  };
  purge_done_ = false;
  fetcher_.RunWithRetries(attempt, [this, gen, id, budget](Status s) {
    if (gen != generation_) return;
    if (s.ok() && purge_done_ && !purge_queue_.empty() &&
        purge_queue_.front() == id) {
      purge_queue_.pop_front();
    }
    PurgeChain(gen, budget - 1);
  });
}

// --------------------------------------------------------------------------
// Watermarks & replication
// --------------------------------------------------------------------------

Lsn Database::ComputePgmrpl() const {
  // §4.2.3: the low-water mark below which no read request will ever come —
  // the min over outstanding storage reads and replica read points, or the
  // current VDL if none are outstanding.
  Lsn low = fetcher_.LowestReadPoint(vdl_);
  for (const auto& [node, rp] : replica_read_points_) {
    low = std::min(low, rp);
  }
  return low;
}

void Database::PgmrplTick() {
  const uint64_t gen = generation_;
  pgmrpl_timer_ = loop_->Schedule(kPgmrplInterval, [this, gen] {
    if (gen == generation_ && open_) PgmrplTick();
  });
  Lsn pgmrpl = ComputePgmrpl();
  last_broadcast_pgmrpl_ = pgmrpl;
  // Explicit updates go to a rotating cohort of PGs (idle PGs never see
  // batches, whose hints otherwise carry the value).
  const size_t num_pgs = control_plane_->num_pgs();
  if (num_pgs == 0) return;
  const size_t cohort = std::min<size_t>(num_pgs, 8);
  for (size_t i = 0; i < cohort; ++i) {
    PgId pg = static_cast<PgId>((pgmrpl_cursor_ + i) % num_pgs);
    PgmrplMsg m;
    m.pg = pg;
    m.pgmrpl = pgmrpl;
    // Quiescent PG (no in-flight records): publish a consistent
    // completeness snapshot so its segments can serve read replicas, whose
    // requests carry no tail, at the current VDL even though their SCL is
    // far behind it.
    auto tail_it = last_lsn_per_pg_.find(pg);
    Lsn tail = tail_it == last_lsn_per_pg_.end() ? kInvalidLsn
                                                 : tail_it->second;
    if (tail <= vdl_) {
      m.has_snapshot = true;
      m.vdl_snapshot = vdl_;
      m.pg_tail = tail;
    }
    const std::string payload = wire::Encode(m);
    const PgMembership& members = control_plane_->membership(pg);
    for (sim::NodeId node : members.nodes) {
      network_->Send(node_id_, node, kMsgPgmrplUpdate, payload);
    }
  }
  pgmrpl_cursor_ = static_cast<PgId>((pgmrpl_cursor_ + cohort) % num_pgs);
}

void Database::ZeroDowntimePatch(SimDuration patch_time,
                                 std::function<void(Status)> done) {
  if (!open_ || paused_) {
    done(Status::Busy("engine not ready for patching"));
    return;
  }
  paused_ = true;
  pause_watermark_ = next_txn_;
  const uint64_t gen = generation_;
  // Wait for the instant with no active transactions (Figure 12): statements
  // of new transactions are held at the door, pre-pause transactions drain
  // at their next boundary.
  // The stored callback holds itself only weakly; the scheduled retry event
  // carries the strong reference. No self-cycle, so the closure (and `done`)
  // is freed as soon as the wait ends.
  auto wait_quiet = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak_wait = wait_quiet;
  *wait_quiet = [this, gen, patch_time, done, weak_wait]() {
    if (gen != generation_) return;
    bool quiet = true;
    for (const auto& [id, t] : txns_) {
      if (id < pause_watermark_ && t->state == TxnState::kActive) {
        quiet = false;
        break;
      }
    }
    if (!quiet || !commit_queue_.empty()) {
      zdp_timer_ = loop_->Schedule(Millis(1), [next = weak_wait.lock()]() {
        if (next) (*next)();
      });
      return;
    }
    // Spool application state to local ephemeral storage, patch the
    // engine, reload: user sessions stay connected throughout.
    zdp_timer_ = loop_->Schedule(patch_time, [this, gen, done]() {
      if (gen != generation_) return;
      paused_ = false;
      DrainBackpressure();
      done(Status::OK());
    });
  };
  (*wait_quiet)();
}

void Database::AttachReplica(sim::NodeId replica_node) {
  replicas_.push_back(replica_node);
}

void Database::ReplicaShipTick() {
  const uint64_t gen = generation_;
  ship_timer_ = loop_->Schedule(kReplicaShipInterval, [this, gen] {
    if (gen == generation_ && open_) ReplicaShipTick();
  });
  if (replicas_.empty()) {
    replica_stream_buffer_.clear();
    replica_commit_buffer_.clear();
    return;
  }
  if (replica_stream_buffer_.empty() && replica_commit_buffer_.empty() &&
      vdl_ == last_shipped_vdl_) {
    return;
  }
  std::string records;
  EncodeRecordBatch(replica_stream_buffer_, &records);
  const ReplicaStreamMsg msg{.vdl = vdl_,
                             .records = records,
                             .commits = std::move(replica_commit_buffer_)};
  replica_stream_buffer_.clear();
  replica_commit_buffer_.clear();
  last_shipped_vdl_ = vdl_;
  // One encoded stream shared by every replica copy: the fan-out neither
  // re-encodes nor re-copies the record blob per receiver.
  auto body = std::make_shared<const std::string>(wire::Encode(msg));
  for (sim::NodeId node : replicas_) {
    network_->Send(node_id_, node, kMsgReplicaLogStream, std::string(), body);
  }
}

void Database::HandleReplicaReadPoint(const sim::Message& msg) {
  ReplicaReadPointMsg m;
  if (!wire::Decode(msg.payload(), &m).ok()) return;
  replica_read_points_[msg.from] = m.read_point;
}

// --------------------------------------------------------------------------
// Recovery (§4.3)
// --------------------------------------------------------------------------

void Database::Recover(std::function<void(Status)> done) {
  if (control_plane_->num_pgs() == 0) {
    done(Status::InvalidArgument("empty volume; use Bootstrap()"));
    return;
  }
  Crash();  // make sure all volatile state is reset
  fenced_ = false;  // a recovering instance starts fresh at the new epoch
  ++generation_;
  recovery_ = std::make_shared<RecoveryState>();
  recovery_->done = std::move(done);
  recovery_->req_id = fetcher_.NewRequestId();
  recovery_->started_at = loop_->now();
  RecoveryCollectInventories(recovery_);
}

void Database::RecoveryCollectInventories(std::shared_ptr<RecoveryState> rs) {
  if (recovery_ != rs || rs->phase != 1) return;
  // (Re)request inventories from every PG lacking a read quorum of
  // responses.
  const size_t num_pgs = control_plane_->num_pgs();
  for (PgId pg = 0; pg < num_pgs; ++pg) {
    if (rs->inventory_acks[pg].size() >=
        static_cast<size_t>(options_.quorum.read_quorum)) {
      continue;
    }
    const InventoryReqMsg req{.req_id = rs->req_id, .pg = pg};
    auto body = std::make_shared<const std::string>(wire::Encode(req));
    const PgMembership& members = control_plane_->membership(pg);
    for (sim::NodeId node : members.nodes) {
      network_->Send(node_id_, node, kMsgInventoryReq, std::string(), body);
    }
  }
  const uint64_t gen = generation_;
  rs->retry_event = loop_->Schedule(Millis(100), [this, gen, rs] {
    if (gen != generation_) return;
    RecoveryCollectInventories(rs);
  });
}

void Database::HandleInventoryResp(const sim::Message& msg) {
  InventoryRespMsg resp;
  if (!wire::Decode(msg.payload(), &resp).ok()) return;
  auto rs = recovery_;
  if (!rs || rs->phase != 1 || resp.req_id != rs->req_id) return;
  auto& entries = rs->union_entries[resp.pg];
  for (const InventoryEntry& e : resp.entries) {
    entries.emplace(e.lsn, e);
  }
  rs->floor = std::max(rs->floor, resp.vdl_hint);
  rs->inventory_acks[resp.pg].insert(resp.replica);

  const size_t num_pgs = control_plane_->num_pgs();
  for (PgId pg = 0; pg < num_pgs; ++pg) {
    if (rs->inventory_acks[pg].size() <
        static_cast<size_t>(options_.quorum.read_quorum)) {
      return;  // still waiting
    }
  }
  loop_->Cancel(rs->retry_event);
  rs->phase = 2;
  RecoveryComputeAndTruncate(rs);
}

void Database::RecoveryComputeAndTruncate(std::shared_ptr<RecoveryState> rs) {
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
      if (lsn > tr.above && lsn <= tr.above + options_.lal) return true;
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

  RecoveryResendTruncates(rs);
}

void Database::RecoveryResendTruncates(std::shared_ptr<RecoveryState> rs) {
  const size_t num_pgs = control_plane_->num_pgs();
  for (PgId pg = 0; pg < num_pgs; ++pg) {
    if (rs->truncate_acks[pg].size() >=
        static_cast<size_t>(options_.quorum.write_quorum)) {
      continue;
    }
    const TruncateReqMsg req{.req_id = rs->req_id,
                             .pg = pg,
                             .epoch = rs->new_epoch,
                             .truncate_above = rs->new_vdl};
    // All six copies share one encoded request (zero-copy fan-out).
    auto body = std::make_shared<const std::string>(wire::Encode(req));
    const PgMembership& members = control_plane_->membership(pg);
    for (sim::NodeId node : members.nodes) {
      network_->Send(node_id_, node, kMsgTruncateReq, std::string(), body);
    }
  }
  // Periodic resend until every PG has a write quorum of truncate acks.
  const uint64_t gen = generation_;
  rs->retry_event = loop_->Schedule(Millis(100), [this, gen, rs]() {
    if (gen != generation_ || recovery_ != rs || rs->phase != 2) return;
    RecoveryResendTruncates(rs);
  });
}

void Database::HandleTruncateAck(const sim::Message& msg) {
  TruncateAckMsg ack;
  if (!wire::Decode(msg.payload(), &ack).ok()) return;
  auto rs = recovery_;
  if (!rs || rs->phase != 2 || ack.req_id != rs->req_id) return;
  if (ack.status_code != static_cast<uint8_t>(Status::Code::kOk)) return;
  rs->truncate_acks[ack.pg].insert(ack.replica);
  const size_t num_pgs = control_plane_->num_pgs();
  for (PgId pg = 0; pg < num_pgs; ++pg) {
    if (rs->truncate_acks[pg].size() <
        static_cast<size_t>(options_.quorum.write_quorum)) {
      return;
    }
  }
  loop_->Cancel(rs->retry_event);
  rs->phase = 3;
  RecoveryFinish(rs);
}

void Database::RecoveryFinish(std::shared_ptr<RecoveryState> rs) {
  // Rebuild the runtime state the paper describes (§4.2.1): watermarks,
  // per-PG backlink tails, and an LSN allocator starting above the annulled
  // range.
  volume_epoch_ = rs->new_epoch;
  vdl_ = rs->new_vdl;
  vcl_ = std::max(vcl_, vdl_);
  max_allocated_ = vdl_;
  last_vol_lsn_ = vdl_;
  next_lsn_ = vdl_ + options_.lal + 1;
  lal_gap_top_ = vdl_ + options_.lal;
  // Transaction ids are namespaced by volume epoch so a new incarnation
  // can never collide with unpurged undo/txn-table rows of a previous one.
  next_txn_ = (volume_epoch_ << 40) + 1;
  // Nothing is in flight yet, so every PG's tail at the VDL is its last LSN.
  last_lsn_per_pg_ = rs->pg_tails;
  tail_at_vdl_ = rs->pg_tails;
  // Replica SCL knowledge restarts empty; reads will discover it. Open for
  // business, then fetch the system catalog and run undo in background.
  auto attempt = [this]() -> Status { return EnsureSystemTrees(); };
  fetcher_.RunWithRetries(attempt, [this, rs](Status s) {
    recovery_.reset();
    if (!s.ok()) {
      rs->done(s);
      return;
    }
    open_ = true;
    ScheduleTimers();
    rs->done(Status::OK());
    StartBackgroundUndo();
  });
}

Status Database::EnsureSystemTrees() {
  Result<Page*> meta = GetPage(meta_page_id_);
  if (!meta.ok()) return meta.status();
  pool_.Pin(meta_page_id_);
  Slice v;
  PageId anchor;
  uint32_t version;
  if (!(*meta)->GetRecord(kTxnTableName, &v) ||
      !DecodeCatalogValue(v, &anchor, &version)) {
    return Status::Corruption("transaction table missing from catalog");
  }
  txn_table_ = std::make_unique<BTree>(this, anchor);
  if (!(*meta)->GetRecord(kUndoTreeName, &v) ||
      !DecodeCatalogValue(v, &anchor, &version)) {
    return Status::Corruption("undo tree missing from catalog");
  }
  undo_tree_ = std::make_unique<BTree>(this, anchor);
  return Status::OK();
}

void Database::StartBackgroundUndo() {
  // §4.3: "undo recovery can happen when the database is online". Scan the
  // transaction table for in-flight (ACTIVE) transactions and roll each
  // back through its durable undo records.
  auto actives = std::make_shared<std::vector<TxnId>>();
  auto scan_attempt = [this, actives]() -> Status {
    actives->clear();
    std::vector<std::pair<std::string, std::string>> rows;
    Status s = txn_table_->Scan("t", 100000, &rows);
    if (!s.ok()) return s;
    for (const auto& [k, v] : rows) {
      if (k.size() != 9 || k[0] != 't') continue;
      TxnId id = 0;
      for (int i = 1; i <= 8; ++i) {
        id = (id << 8) | static_cast<unsigned char>(k[i]);
      }
      next_txn_ = std::max(next_txn_, id + 1);
      if (v.size() == 1 &&
          static_cast<TxnState>(v[0]) == TxnState::kActive) {
        actives->push_back(id);
      } else {
        // Committed/aborted rows that the previous incarnation had not yet
        // purged: clean them up in the background.
        purge_queue_.push_back(id);
      }
    }
    return Status::OK();
  };
  fetcher_.RunWithRetries(scan_attempt, [this, actives](Status s) {
    if (!s.ok()) {
      AURORA_WARN("background undo scan failed: %s", s.ToString().c_str());
      if (undo_complete_cb_) undo_complete_cb_();
      return;
    }
    UndoNextRecoveredTxn(actives, 0);
  });
}

void Database::UndoNextRecoveredTxn(
    std::shared_ptr<std::vector<TxnId>> actives, size_t idx) {
  if (idx >= actives->size()) {
    if (undo_complete_cb_) undo_complete_cb_();
    return;
  }
  TxnId id = (*actives)[idx];
  next_txn_ = std::max(next_txn_, id + 1);
  // Reconstruct the in-memory undo mirror from the durable undo tree.
  auto txn = std::make_unique<Txn>();
  txn->id = id;
  txn->durably_registered = true;
  Txn* raw = txn.get();
  txns_[id] = std::move(txn);
  auto load_attempt = [this, raw, id]() -> Status {
    raw->undo.clear();
    std::vector<std::pair<std::string, std::string>> rows;
    Status s = undo_tree_->Scan(UndoKey(id, 0), 100000, &rows);
    if (!s.ok()) return s;
    std::string prefix = UndoKey(id, 0).substr(0, 9);
    uint64_t seq = 0;
    for (const auto& [k, v] : rows) {
      if (k.compare(0, prefix.size(), prefix) != 0) break;
      PageId table = kInvalidPage;
      std::string key, old_value;
      bool had_old = false;
      s = DecodeUndoValue(v, &table, &key, &had_old, &old_value);
      if (!s.ok()) return s;
      raw->undo.push_back({seq++, table, key, had_old, std::move(old_value)});
    }
    raw->next_undo_seq = seq;
    return Status::OK();
  };
  fetcher_.RunWithRetries(load_attempt, [this, actives, idx, id](Status s) {
    Txn* t = FindTxn(id);
    if (!s.ok() || t == nullptr) {
      UndoNextRecoveredTxn(actives, idx + 1);
      return;
    }
    RollbackInternal(t, [this, actives, idx](Status) {
      UndoNextRecoveredTxn(actives, idx + 1);
    });
  });
}

}  // namespace aurora
