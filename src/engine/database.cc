#include "engine/database.h"

#include <algorithm>

#include "common/coding.h"
#include "common/logging.h"
#include "engine/row_codec.h"

namespace aurora {

namespace {

constexpr char kTxnTableName[] = "tbl:__txn";
constexpr char kUndoTreeName[] = "tbl:__undo";
// How often committed transactions' undo records are purged (faster while
// a backlog exists, see PurgeTick).
constexpr SimDuration kPurgeInterval = Millis(200);
// Undo keys are "u" + big-endian txn id + big-endian sequence number.
constexpr size_t kUndoTxnPrefixLen = 9;
// Undo records one purge MTR deletes; the walk reads one more to learn
// whether the transaction has more.
constexpr int kPurgeChunk = 32;
// Replica log-stream shipping interval (lag is dominated by this plus one
// network hop, §4.2.4).
constexpr SimDuration kReplicaShipInterval = Micros(500);

void PutBigEndian64(std::string* dst, uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    dst->push_back(static_cast<char>((v >> shift) & 0xFF));
  }
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
      log_(loop, network, node_id, control_plane, &options_, &pool_, &stats_,
           this),
      pool_(options.buffer_pool_pages, options.page_size, &log_.vdl()),
      txns_(loop, this, this),
      fetcher_(loop, network, node_id, control_plane->topology(), &options_,
               &pool_, &log_.vdl(), &log_, &stats_.storage_page_reads,
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
    case kMsgReadPageResp:
      fetcher_.HandleResponse(msg);
      break;
    case kMsgReplicaReadPoint:
      HandleReplicaReadPoint(msg);
      break;
    default:
      log_.HandleMessage(msg);
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
  log_.EnsurePgFor(meta_page_id_);
  MiniTransaction mtr(kInvalidTxn);

  // Page 0: the allocator + catalog meta page.
  Page* meta = pool_.InstallNew(meta_page_id_);
  AURORA_CHECK(FormatMetaPage(meta, &mtr).ok(), "meta format failed");
  pool_.Pin(meta_page_id_);

  // System trees: the transaction table and the undo log.
  auto create_tree = [&](const char* name) -> PageId {
    Result<PageId> anchor = BTree::Create(this, &mtr);
    AURORA_CHECK(anchor.ok(), "system tree creation failed");
    AURORA_CHECK(PutMetaRecord(meta, RedoOp::kInsert, name,
                               EncodeCatalogValue(*anchor, 0), &mtr)
                     .ok(),
                 "catalog insert failed");
    pool_.Pin(*anchor);
    return *anchor;
  };
  txn_table_ = std::make_unique<BTree>(this, create_tree(kTxnTableName));
  undo_tree_ = std::make_unique<BTree>(this, create_tree(kUndoTreeName));

  log_.Append(&mtr);
  durable_waiters_.emplace(mtr.commit_lsn(), [this, done]() {
    open_ = true;
    ScheduleTimers();
    done(Status::OK());
  });
}

void Database::StopPipelines() {
  fetcher_.Reset();
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
  log_.Reset();
  StopPipelines();
  recover_done_ = nullptr;
  loop_->Cancel(pgmrpl_timer_);
  loop_->Cancel(purge_timer_);
  loop_->Cancel(ship_timer_);
  loop_->Cancel(zdp_timer_);
  pool_.Clear();
  txns_.Reset();
  purge_queue_.clear();
  replica_stream_buffer_.clear();
  replica_commit_buffer_.clear();
  txn_table_.reset();
  undo_tree_.reset();
  table_versions_.clear();
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
// LogOwner: what the log's durability and fencing mean to transactions
// --------------------------------------------------------------------------

void Database::OnVdlAdvanced() {
  const Lsn vdl = log_.vdl();
  while (!commit_queue_.empty() && commit_queue_.front().lsn <= vdl) {
    QueuedCommit c = std::move(commit_queue_.front());
    commit_queue_.pop_front();
    if (txns_.Find(c.txn) == nullptr) continue;
    stats_.commit_latency_us.Record(loop_->now() - c.requested_at);
    ++stats_.txns_committed;
    replica_commit_buffer_.emplace_back(c.lsn, loop_->now());
    txns_.End(c.txn);
    purge_queue_.push_back(c.txn);
    if (c.done) c.done(Status::OK());
  }
  while (!durable_waiters_.empty() && durable_waiters_.begin()->first <= vdl) {
    auto cb = std::move(durable_waiters_.begin()->second);
    durable_waiters_.erase(durable_waiters_.begin());
    cb();
  }
  DrainBackpressure();
}

void Database::OnFenced() {
  open_ = false;
  // Surface the demotion to every caller still waiting on a commit, in
  // transaction order: their writes may or may not survive (the new
  // writer's recovery decides), but this instance can no longer promise
  // either way.
  std::map<TxnId, std::function<void(Status)>> waiting;
  for (QueuedCommit& c : commit_queue_) {
    if (c.done && txns_.Find(c.txn) != nullptr) {
      waiting.emplace(c.txn, std::move(c.done));
    }
  }
  StopPipelines();
  txns_.Reset();
  for (auto& [id, cb] : waiting) {
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
  bool reused = false;
  Result<PageId> id = TakePageId(*meta, mtr, &reused);
  if (!id.ok()) return id.status();
  log_.EnsurePgFor(*id);
  // A freed page may have been evicted; the buffer just needs to be
  // resident — the format record rebuilds it from nothing.
  Page* page = pool_.InstallNew(*id);
  Status s = FormatPage(page, *id, type, level, mtr);
  if (!s.ok()) return s;
  if (reused) ++stats_.pages_reused;
  return page;
}

Status Database::FreePage(Page* page, MiniTransaction* mtr) {
  Result<Page*> meta = GetPage(meta_page_id_);
  if (!meta.ok()) return meta.status();
  Status s = FreeToMetaPage(*meta, page, mtr);
  if (s.ok()) ++stats_.pages_freed;
  return s;
}

// --------------------------------------------------------------------------
// Op plumbing
// --------------------------------------------------------------------------

Status Database::ClosedStatus() const {
  return log_.fenced() ? Status::Fenced("writer fenced by a newer volume epoch")
                 : Status::Unavailable("database not open");
}

Status Database::AdmitStatement(TxnId txn) {
  return open_ ? txns_.Admit(txn) : ClosedStatus();
}

void Database::ChargeCpu(SimDuration cost, sim::EventFn then) {
  instance_->Execute(cost, std::move(then));
}

Status Database::AppendOrAbort(MiniTransaction* mtr, Status s) {
  if (s.ok()) {
    log_.Append(mtr);
  } else {
    mtr->Abort();
  }
  return s;
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
    Status s = AppendOrAbort(
        &mtr, PutMetaRecord(*meta, RedoOp::kInsert, cat_key,
                            EncodeCatalogValue(*anchor, 0), &mtr));
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
  Result<PageId> next = NextPageId(*meta);
  if (!next.ok()) {
    done(next.status());
    return;
  }
  const PageId first = *next;
  uint64_t count = plan(first);
  log_.EnsurePgFor(first + count - 1);

  MiniTransaction mtr(kInvalidTxn);
  Status s = SetNextPageId(*meta, first + count, &mtr);
  if (s.ok()) {
    s = PutMetaRecord(*meta, RedoOp::kInsert, cat_key,
                      EncodeCatalogValue(first, 0), &mtr);
  }
  if (!s.ok()) {
    mtr.Abort();
    done(s);
    return;
  }
  log_.Append(&mtr);
  table_versions_[first] = 0;
  durable_waiters_.emplace(mtr.commit_lsn(),
                           [done, first]() { done(first); });
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
    Status s = AppendOrAbort(
        &mtr, PutMetaRecord(*meta, RedoOp::kUpdate, cat_key,
                            EncodeCatalogValue(anchor, version + 1), &mtr));
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
  });
}

// --------------------------------------------------------------------------
// Transactions
// --------------------------------------------------------------------------

TxnId Database::Begin() {
  ++stats_.txns_started;
  return txns_.Begin();
}

Status Database::WriteRowAttempt(TxnId id, PageId table,
                                 const std::string& key,
                                 const std::string* value) {
  Txn* txn = txns_.FindActive(id);
  if (txn == nullptr) return Status::Aborted("transaction gone");
  BTree tree(this, table);
  std::string old_raw;
  Status s = tree.Get(key, &old_raw);
  if (!s.ok() && !s.IsNotFound()) return s;  // Busy (page miss) or corruption
  const bool had_old = s.ok();
  if (value == nullptr && !had_old) return Status::NotFound("no such row");

  MiniTransaction mtr(txn->id);
  if (txn->undo.empty()) {  // the first change registers the transaction
    s = txn_table_->Insert(TxnKey(txn->id),
                           EncodeTxnStateValue(TxnState::kActive), &mtr);
    if (!s.ok()) {
      mtr.Abort();
      return s;
    }
  }
  s = undo_tree_->Insert(UndoKey(txn->id, txn->undo.size()),
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
  s = AppendOrAbort(&mtr, s);
  if (!s.ok()) return s;
  txn->undo.push_back({table, key, had_old, std::move(old_raw)});
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
    txns_.LockAndRun(
        txn, table, std::move(key), LockMode::kExclusive,
        [this, txn, table,
         value = std::move(value)](const std::string& key) -> Status {
          return WriteRowAttempt(txn, table, key, &value);
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
    txns_.LockAndRun(
        txn, table, std::move(key), LockMode::kExclusive,
        [this, txn, table](const std::string& key) -> Status {
          return WriteRowAttempt(txn, table, key, nullptr);
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
    txns_.LockAndRun(
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
  ++stats_.reads;
  SimTime started = loop_->now();
  ChargeCpu(kCpuPerStatement, [this, txn, table, key, done, started]() {
    // Consistent (lock-free) read: a row that another undecided transaction
    // (active, or still rolling back) has changed reads as it was before
    // that transaction's first change of it, its oldest undo entry for the
    // row — undo-based snapshot isolation as in InnoDB consistent reads.
    // The reader's own changes are visible to it.
    for (const auto& [id, t] : txns_.all()) {
      if (id == txn || t->state == TxnState::kCommitted) continue;
      auto first = std::find_if(
          t->undo.begin(), t->undo.end(),
          [&](const Transactions::UndoEntry& e) {
            return e.table == table && e.key == key;
          });
      if (first == t->undo.end()) continue;
      if (!first->had_old) {
        done(Status::NotFound("row created by in-flight txn"));
        return;
      }
      done(DecodeRow(first->old_value));
      return;
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
  (void)txn;  // no row locks
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
  if (log_.fenced()) {
    done(Status::Fenced("writer fenced by a newer volume epoch"));
    return;
  }
  if (txns_.Find(txn) == nullptr) {
    done(Status::InvalidArgument("unknown transaction"));
    return;
  }
  if (Status s = txns_.Admit(txn); !s.ok()) {
    done(s);
    return;
  }
  if (txns_.CommitReadOnly(txn)) {  // nothing to harden
    stats_.commit_latency_us.Record(0);
    ++stats_.txns_committed;
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
    Txn* t = txns_.Find(txn);
    if (t == nullptr) return Status::Aborted("transaction gone");
    MiniTransaction mtr(txn);
    Status s = txn_table_->Update(TxnKey(txn),
                                  EncodeTxnStateValue(TxnState::kCommitted),
                                  &mtr);
    s = AppendOrAbort(&mtr, s);
    if (s.ok()) t->commit_lsn = mtr.commit_lsn();
    return s;
  };
  fetcher_.RunWithRetries(attempt, [this, txn, requested_at = loop_->now(),
                                    done = std::move(done)](Status s) mutable {
    Txn* t = txns_.Find(txn);
    if (!s.ok() || t == nullptr) {
      done(s.ok() ? Status::Aborted("transaction gone") : s);
      return;
    }
    // §4.2.2: set the transaction aside; the commit completes when
    // VDL >= commit LSN. RunWithRetries runs this right after the attempt
    // that allocated the commit LSN, so the queue stays in LSN order.
    AURORA_CHECK(commit_queue_.empty() ||
                     commit_queue_.back().lsn < t->commit_lsn,
                 "commit queued out of LSN order");
    t->state = TxnState::kCommitted;  // logically decided; ack pending
    commit_queue_.push_back({t->commit_lsn, txn, requested_at,
                             std::move(done)});
  });
}

void Database::EndAbort(TxnId txn, PageFetcher::Done then) {
  if (txns_.Find(txn)->undo.empty()) {
    ++stats_.txns_aborted;
    then(Status::OK());
    return;
  }
  auto attempt = [this, txn]() -> Status {
    MiniTransaction mtr(txn);
    Status s = txn_table_->Update(
        TxnKey(txn), EncodeTxnStateValue(TxnState::kAborted), &mtr);
    if (s.IsNotFound()) return Status::OK();  // already purged
    return AppendOrAbort(&mtr, s);
  };
  fetcher_.RunWithRetries(attempt, [this, txn, then = std::move(then)](
                                       Status s) mutable {
    ++stats_.txns_aborted;
    purge_queue_.push_back(txn);
    then(s);
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
    log_.Append(&mtr);
    return Status::OK();
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

Lsn Database::Pgmrpl() const {
  // §4.2.3: the low-water mark below which no read request will ever come —
  // the min over outstanding storage reads and replica read points, or the
  // current VDL if none are outstanding.
  Lsn low = fetcher_.LowestReadPoint(log_.vdl());
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
  Lsn pgmrpl = Pgmrpl();
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
    const Lsn tail = log_.LastLsn(pg);
    if (tail <= log_.vdl()) {
      m.has_snapshot = true;
      m.vdl_snapshot = log_.vdl();
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
  pause_watermark_ = txns_.next_id();
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
    for (const auto& [id, t] : txns_.all()) {
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
  log_.set_stream(&replica_stream_buffer_);
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
      log_.vdl() == last_shipped_vdl_) {
    return;
  }
  std::string records;
  EncodeRecordBatch(replica_stream_buffer_, &records);
  const ReplicaStreamMsg msg{.vdl = log_.vdl(),
                             .records = records,
                             .commits = std::move(replica_commit_buffer_)};
  replica_stream_buffer_.clear();
  replica_commit_buffer_.clear();
  last_shipped_vdl_ = log_.vdl();
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
  recover_done_ = std::move(done);
  log_.Recover(fetcher_.NewRequestId());
}

void Database::OnRecovered() {
  // Transaction ids are namespaced by volume epoch so a new incarnation
  // can never collide with unpurged undo/txn-table rows of a previous one.
  txns_.set_next_id((log_.volume_epoch() << 40) + 1);
  // Open for business, then fetch the system catalog and run undo in
  // background.
  auto attempt = [this]() -> Status { return EnsureSystemTrees(); };
  fetcher_.RunWithRetries(
      attempt, [this, done = std::move(recover_done_)](Status s) {
        if (!s.ok()) {
          done(s);
          return;
        }
        open_ = true;
        ScheduleTimers();
        done(Status::OK());
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
      txns_.set_next_id(std::max(txns_.next_id(), id + 1));
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
  // Reconstruct the in-memory undo mirror from the durable undo tree.
  Txn* raw = txns_.Adopt(id);
  auto load_attempt = [this, raw, id]() -> Status {
    raw->undo.clear();
    std::vector<std::pair<std::string, std::string>> rows;
    Status s = undo_tree_->Scan(UndoKey(id, 0), 100000, &rows);
    if (!s.ok()) return s;
    std::string prefix = UndoKey(id, 0).substr(0, 9);
    for (const auto& [k, v] : rows) {
      if (k.compare(0, prefix.size(), prefix) != 0) break;
      PageId table = kInvalidPage;
      std::string key, old_value;
      bool had_old = false;
      s = DecodeUndoValue(v, &table, &key, &had_old, &old_value);
      if (!s.ok()) return s;
      raw->undo.push_back({table, key, had_old, std::move(old_value)});
    }
    return Status::OK();
  };
  fetcher_.RunWithRetries(load_attempt, [this, actives, idx, id](Status s) {
    if (!s.ok() || txns_.Find(id) == nullptr) {
      UndoNextRecoveredTxn(actives, idx + 1);
      return;
    }
    txns_.Rollback(id, [this, actives, idx](Status) {
      UndoNextRecoveredTxn(actives, idx + 1);
    });
  });
}

}  // namespace aurora
