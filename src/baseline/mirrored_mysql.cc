#include "baseline/mirrored_mysql.h"

#include <algorithm>

#include "common/coding.h"
#include "common/logging.h"
#include "log/applicator.h"
#include "storage/wire.h"

namespace aurora::baseline {

namespace {

// Smallest checkpoint batch, in dirty pages.
constexpr size_t kCheckpointBatchPages = 64;
// Commits hardened per WAL flush. MySQL 5.6's binlog/redo group commit was
// narrow; this caps how much a single fsync chain can amortize.
constexpr size_t kGroupCommitMax = 4;
// CPU cost of one page touched while replaying the WAL at recovery.
constexpr SimDuration kCpuPerPageTouch = Micros(2);

std::string WalKey(uint64_t seq) {
  char buf[32];
  snprintf(buf, sizeof(buf), "wal/%018llu",
           static_cast<unsigned long long>(seq));
  return buf;
}

std::string PageKey(PageId id) {
  char buf[32];
  snprintf(buf, sizeof(buf), "page/%018llu",
           static_cast<unsigned long long>(id));
  return buf;
}

// Standby ship wire format: varint chain-op id | lp key | lp bytes.
std::string EncodeShip(uint64_t id, const Slice& key, const Slice& bytes) {
  std::string out;
  PutVarint64(&out, id);
  PutLengthPrefixedSlice(&out, key);
  PutLengthPrefixedSlice(&out, bytes);
  return out;
}

bool DecodeShip(Slice in, uint64_t* id, Slice* key, Slice* bytes) {
  return GetVarint64(&in, id) && GetLengthPrefixedSlice(&in, key) &&
         GetLengthPrefixedSlice(&in, bytes);
}

}  // namespace

MirroredMySql::MirroredMySql(sim::EventLoop* loop, sim::Network* network,
                             sim::NodeId node_id, sim::Instance* instance,
                             SimS3* s3, const NodeSet& nodes,
                             sim::DiskOptions ebs_disk,
                             MirroredMysqlOptions options, Random rng)
    : loop_(loop),
      network_(network),
      node_id_(node_id),
      instance_(instance),
      s3_(s3),
      nodes_(nodes),
      options_(options),
      rng_(rng),
      pool_(options.engine.buffer_pool_pages, options.engine.page_size,
            &infinite_vdl_),
      txns_(loop, this, this) {
  primary_ebs_ = std::make_unique<EbsVolume>(
      loop, network, nodes.primary_ebs, nodes.primary_ebs_mirror, ebs_disk,
      rng_.Fork());
  standby_ebs_ = std::make_unique<EbsVolume>(
      loop, network, nodes.standby_ebs, nodes.standby_ebs_mirror, ebs_disk,
      rng_.Fork());
  pool_.set_evict_filter([this](PageId id, const Page&) {
    return dirty_since_.count(id) == 0;  // dirty pages may not be dropped
  });
  network_->Register(node_id_,
                     [this](const sim::Message& m) { HandleMessage(m); });
  network_->Register(nodes_.standby, [this](const sim::Message& m) {
    // The standby instance relays writes onto its own mirrored EBS volume
    // (Figure 2 steps 3-5) and consumes that volume's acknowledgements.
    if (m.type == kMsgEbsWriteAck || m.type == kMsgEbsReadResp) {
      standby_ebs_->HandleClientSide(m);
      return;
    }
    if (m.type != kMsgStandbyShip) return;
    uint64_t id;
    Slice key, bytes;
    if (!DecodeShip(m.payload(), &id, &key, &bytes)) return;
    standby_ebs_->Write(nodes_.standby, key.ToString(), bytes.ToString(),
                        [this, id](Status) {
                          std::string ack;
                          PutVarint64(&ack, id);
                          network_->Send(nodes_.standby, node_id_,
                                         kMsgStandbyAck, std::move(ack));
                        });
  });
}

MirroredMySql::~MirroredMySql() = default;

void MirroredMySql::HandleMessage(const sim::Message& msg) {
  switch (msg.type) {
    case kMsgEbsWriteAck:
    case kMsgEbsReadResp:
      // Route to whichever volume issued the op (op ids are per-volume;
      // dispatch by sender).
      if (msg.from == nodes_.primary_ebs) {
        primary_ebs_->HandleClientSide(msg);
      } else if (msg.from == nodes_.standby_ebs) {
        standby_ebs_->HandleClientSide(msg);
      }
      break;
    case kMsgStandbyAck: {
      Slice in(msg.payload());
      uint64_t id;
      if (!GetVarint64(&in, &id)) return;
      auto it = chain_ops_.find(id);
      if (it == chain_ops_.end()) return;
      auto done = std::move(it->second.done);
      chain_ops_.erase(it);
      if (done) done(Status::OK());
      break;
    }
    default:
      break;
  }
}

void MirroredMySql::ChainWrite(const std::string& key, std::string bytes,
                               std::function<void(Status)> done) {
  uint64_t id = next_chain_++;
  ChainOp op;
  op.key = key;
  op.bytes = std::move(bytes);
  op.done = std::move(done);
  const ChainOp& stored = (chain_ops_[id] = std::move(op));
  // Steps 1-2: primary EBS + mirror (synchronous inside EbsVolume); then
  // step 3: ship to the standby, whose ack (after steps 4-5) completes the
  // chain. The payload lives in chain_ops_ until the chain finishes.
  primary_ebs_->Write(node_id_, stored.key, stored.bytes,
                      [this, id](Status s) {
                        auto it = chain_ops_.find(id);
                        if (it == chain_ops_.end()) return;
                        if (!s.ok()) {
                          auto done = std::move(it->second.done);
                          chain_ops_.erase(it);
                          if (done) done(s);
                          return;
                        }
                        network_->Send(node_id_, nodes_.standby,
                                       kMsgStandbyShip,
                                       EncodeShip(id, it->second.key,
                                                  it->second.bytes));
                      });
}

// ---------------------------------------------------------------------------
// WAL
// ---------------------------------------------------------------------------

void MirroredMySql::AppendLog(MiniTransaction* mtr) {
  auto& records = mtr->records();
  const auto& pages = mtr->pages();
  if (records.empty()) return;
  for (size_t i = 0; i < records.size(); ++i) {
    LogRecord& rec = records[i];
    if (i + 1 == records.size()) rec.flags |= kFlagCpl;
    rec.lsn = next_lsn_;
    rec.prev_vol_lsn = last_vol_lsn_;
    last_vol_lsn_ = rec.lsn;
    next_lsn_ += rec.EncodedSize();
    pages[i]->set_page_lsn(rec.lsn);
    dirty_since_.try_emplace(rec.page_id, rec.lsn);
    wal_buffer_.push_back(rec);
  }
  mtr->set_commit_lsn(records.back().lsn);
}

void MirroredMySql::StartWalFlush() {
  if (wal_flush_in_flight_) return;
  if (wal_buffer_.empty()) {
    // Everything already durable; complete any waiters.
    FinishWalFlush(flushed_lsn_);
    return;
  }
  wal_flush_in_flight_ = true;
  std::vector<LogRecord> flushing = std::move(wal_buffer_);
  wal_buffer_.clear();
  Lsn through = flushing.back().lsn;
  std::string blob;
  EncodeRecordBatch(flushing, &blob);
  ++stats_.wal_flushes;
  stats_.wal_bytes += blob.size();
  uint64_t seq = next_wal_seq_++;
  wal_last_lsn_[seq] = through;
  ChainWrite(WalKey(seq), std::move(blob), [this, through](Status s) {
    wal_flush_in_flight_ = false;
    if (s.ok()) FinishWalFlush(through);
  });
}

void MirroredMySql::FinishWalFlush(Lsn flushed_through) {
  if (flushed_through > flushed_lsn_) flushed_lsn_ = flushed_through;
  // Gather the binlog of every commit this flush hardened; it must also be
  // durable (second synchronous chain) before the commits are acked.
  std::vector<CommitWaiter> ready;
  std::string binlog_blob;
  auto it = commit_waiters_.begin();
  while (it != commit_waiters_.end()) {
    if (ready.size() >= kGroupCommitMax) break;
    if (it->lsn > flushed_lsn_) {
      ++it;
      continue;
    }
    if (txns_.Find(it->txn) != nullptr) binlog_blob += it->binlog;
    ready.push_back(std::move(*it));
    it = commit_waiters_.erase(it);
  }
  if (ready.empty()) {
    if (!wal_buffer_.empty() || !commit_waiters_.empty()) StartWalFlush();
    return;
  }
  auto complete = [this, ready = std::move(ready)](Status s) mutable {
    for (CommitWaiter& w : ready) {
      if (txns_.Find(w.txn) != nullptr) {
        // Ship the binlog to attached replicas (asynchronous, post-commit —
        // classic MySQL replication) and archive to S3 for PITR.
        if (!w.binlog.empty()) {
          std::string event;
          PutVarint64(&event, w.requested_at);
          event += w.binlog;
          for (sim::NodeId node : binlog_replicas_) {
            network_->Send(node_id_, node, kMsgBinlogShip, event);
          }
        }
        txns_.End(w.txn);
      }
      ++stats_.txns_committed;
      stats_.commit_latency_us.Record(loop_->now() - w.requested_at);
      if (w.done) w.done(s);
    }
    if (!wal_buffer_.empty() || !commit_waiters_.empty()) StartWalFlush();
  };
  if (!binlog_blob.empty()) {
    ++stats_.binlog_writes;
    char key[40];
    snprintf(key, sizeof(key), "binlog/%018llu",
             static_cast<unsigned long long>(next_binlog_seq_++));
    std::string for_s3 = binlog_blob;
    ChainWrite(key, std::move(binlog_blob),
               [this, key = std::string(key), for_s3 = std::move(for_s3),
                complete = std::move(complete)](Status s) mutable {
                 if (s3_ != nullptr) {
                   // Completion on this engine's own loop (S3 is shared).
                   s3_->Put("binlog-archive/" + key, std::move(for_s3),
                            [](Status) {}, loop_);
                 }
                 complete(s);
               });
  } else {
    complete(Status::OK());
  }
}

// ---------------------------------------------------------------------------
// Checkpointing (dirty-page write-back with double-write)
// ---------------------------------------------------------------------------

void MirroredMySql::CheckpointTick() {
  const uint64_t gen = generation_;
  checkpoint_timer_ = loop_->Schedule(options_.checkpoint_interval,
                                      [this, gen] {
    if (gen == generation_ && open_) CheckpointTick();
  });
  if (checkpointing_ || dirty_since_.empty()) return;
  checkpointing_ = true;
  ++stats_.checkpoints;
  // Adaptive flushing (InnoDB-style): under write pressure the flusher must
  // keep pace with the dirtying rate or the pool fills with unflushable
  // pages. Scale the batch with the backlog.
  size_t adaptive_batch =
      std::max(kCheckpointBatchPages, dirty_since_.size() / 2);

  // Flush-eligible pages: resident, with all changes WAL-hardened.
  struct Capture {
    PageId id;
    std::string bytes;
    Lsn captured_lsn;
  };
  auto batch = std::make_shared<std::vector<Capture>>();
  for (const auto& [id, first_dirty] : dirty_since_) {
    if (batch->size() >= adaptive_batch) break;
    Page* page = pool_.Lookup(id);
    if (page == nullptr) continue;
    if (page->page_lsn() > flushed_lsn_) continue;  // WAL-before-data
    page->UpdateCrc();
    batch->push_back({id, page->raw(), page->page_lsn()});
  }
  if (batch->empty()) {
    checkpointing_ = false;
    StartWalFlush();  // push the WAL so pages become eligible next tick
    return;
  }

  auto write_pages = [this, batch](Status dwb_status) {
    if (!dwb_status.ok()) {
      checkpointing_ = false;
      return;
    }
    auto remaining = std::make_shared<size_t>(batch->size());
    for (const Capture& cap : *batch) {
      PageId id = cap.id;
      Lsn captured = cap.captured_lsn;
      ++stats_.page_writes;
      ChainWrite(PageKey(id), cap.bytes,
                 [this, id, captured, batch, remaining](Status s) {
        if (s.ok()) {
          // Un-dirty only if the page is exactly the image we flushed; a
          // concurrent modification keeps it dirty so its delta is not
          // skipped by the next checkpoint LSN.
          Page* page = pool_.Lookup(id);
          if (page != nullptr && page->page_lsn() == captured) {
            dirty_since_.erase(id);
          }
        }
        if (--*remaining == 0) {
          // Advance and persist the checkpoint LSN.
          Lsn cp = flushed_lsn_;
          for (const auto& [pid, since] : dirty_since_) {
            cp = std::min(cp, since > 0 ? since - 1 : 0);
          }
          checkpoint_lsn_ = cp;
          // First WAL object a recovery scan must read: the earliest one
          // whose records extend past the checkpoint.
          uint64_t scan_start = next_wal_seq_;
          for (const auto& [seq, last] : wal_last_lsn_) {
            if (last > cp) {
              scan_start = seq;
              break;
            }
          }
          wal_last_lsn_.erase(wal_last_lsn_.begin(),
                              wal_last_lsn_.lower_bound(scan_start));
          std::string meta;
          PutVarint64(&meta, checkpoint_lsn_);
          PutVarint64(&meta, scan_start);
          ChainWrite("meta/checkpoint", std::move(meta), [this](Status) {
            checkpointing_ = false;
          });
        }
      });
    }
  };

  // One aggregated double-write-buffer write preceding the page writes
  // (torn-page protection — more bytes down the same synchronous chains).
  std::string dwb;
  for (const Capture& cap : *batch) dwb += cap.bytes;
  ++stats_.dwb_writes;
  ChainWrite("dwb", std::move(dwb), write_pages);
}

void MirroredMySql::FlushOnePage(PageId id, std::function<void(Status)> done) {
  Page* page = pool_.Lookup(id);
  if (page == nullptr || dirty_since_.count(id) == 0) {
    done(Status::OK());
    return;
  }
  if (page->page_lsn() > flushed_lsn_) {
    // WAL-before-data: harden the log first, then retry.
    StartWalFlush();
    const uint64_t gen = generation_;
    // NOLINTNEXTLINE(aurora-C2): one-shot 1ms generation-guarded retry; many page flushes defer concurrently, so no single member could hold the id, and the guard makes a post-crash firing a no-op
    loop_->Schedule(Millis(1), [this, gen, id, done = std::move(done)] {
      if (gen != generation_) return;
      FlushOnePage(id, done);
    });
    return;
  }
  page->UpdateCrc();
  std::string bytes = page->raw();
  Lsn captured = page->page_lsn();
  auto after_dwb = [this, id, bytes, captured,
                    done = std::move(done)](Status s) {
    if (!s.ok()) {
      done(s);
      return;
    }
    ++stats_.page_writes;
    ChainWrite(PageKey(id), bytes, [this, id, captured, done](Status ps) {
      if (ps.ok()) {
        Page* page = pool_.Lookup(id);
        if (page != nullptr && page->page_lsn() == captured) {
          dirty_since_.erase(id);
        }
      }
      done(ps);
    });
  };
  ++stats_.dwb_writes;
  ChainWrite("dwb", bytes, std::move(after_dwb));
}

// ---------------------------------------------------------------------------
// PageProvider
// ---------------------------------------------------------------------------

Result<Page*> MirroredMySql::GetPage(PageId id) {
  Page* page = pool_.Lookup(id);
  if (page != nullptr) return page;
  last_miss_ = id;
  if (fetch_in_flight_.insert(id).second) {
    ++stats_.page_reads;
    auto finish_fetch = [this, id]() {
      primary_ebs_->Read(
          node_id_, PageKey(id), [this, id](Result<std::string> r) {
            fetch_in_flight_.erase(id);
            auto [page, claimed] = pool_.Claim(id);
            if (claimed) {
              page->Clear();
              if (r.ok()) {
                (void)page->LoadRaw(*r);
              } else if (synthesizer_) {
                // Pre-loaded (synthetic) table page.
                synthesizer_(id, page);
              }
              // Otherwise the page exists only as WAL (recovery replay);
              // an unformatted frame is installed for redo to format.
            }
            pool_.EvictExcess();
            auto wit = page_waiters_.find(id);
            if (wit == page_waiters_.end()) return;
            auto waiters = std::move(wit->second);
            page_waiters_.erase(wit);
            for (auto& w : waiters) w();
          });
    };
    // The §1 cache-miss penalty: when the pool is saturated with dirty
    // pages, the miss must first flush a victim before it can be served.
    if (pool_.size() >= pool_.capacity() &&
        dirty_since_.size() >= pool_.capacity() / 2 &&
        !dirty_since_.empty()) {
      ++stats_.dirty_evict_stalls;
      PageId victim = dirty_since_.begin()->first;
      FlushOnePage(victim, [finish_fetch](Status) { finish_fetch(); });
    } else {
      finish_fetch();
    }
  }
  return Status::Busy("page miss");
}

// The allocator on meta page 0 is the Aurora engine's (page_provider.h).
Result<Page*> MirroredMySql::AllocatePage(PageType type, uint8_t level,
                                          MiniTransaction* mtr) {
  Result<Page*> meta = GetPage(0);
  if (!meta.ok()) return meta.status();
  bool reused = false;
  Result<PageId> id = TakePageId(*meta, mtr, &reused);
  if (!id.ok()) return id.status();
  Page* page = pool_.InstallNew(*id);
  Status s = FormatPage(page, *id, type, level, mtr);
  if (!s.ok()) return s;
  return page;
}

Status MirroredMySql::FreePage(Page* page, MiniTransaction* mtr) {
  Result<Page*> meta = GetPage(0);
  if (!meta.ok()) return meta.status();
  return FreeToMetaPage(*meta, page, mtr);
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

void MirroredMySql::Bootstrap(std::function<void(Status)> done) {
  MiniTransaction mtr(kInvalidTxn);
  Page* meta = pool_.InstallNew(0);
  AURORA_CHECK(FormatMetaPage(meta, &mtr).ok(), "meta format failed");
  pool_.Pin(0);
  AppendLog(&mtr);
  commit_waiters_.push_back(
      {kInvalidTxn, mtr.commit_lsn(),
       [this, done](Status fs) {
         open_ = true;
         CheckpointTick();
         done(fs);
       },
       loop_->now()});
  StartWalFlush();
}

void MirroredMySql::Crash() {
  ++generation_;
  open_ = false;
  loop_->Cancel(checkpoint_timer_);
  pool_.Clear();
  txns_.Reset();
  binlog_.clear();
  wal_buffer_.clear();
  wal_flush_in_flight_ = false;
  commit_waiters_.clear();
  chain_ops_.clear();
  dirty_since_.clear();
  page_waiters_.clear();
  fetch_in_flight_.clear();
}

void MirroredMySql::Recover(std::function<void(Status)> done) {
  Crash();
  ++generation_;
  // ARIES redo pass: start from the most recent checkpoint and replay the
  // log (§4.3 describes why this is slow: it is synchronous, offline, and
  // proportional to the log written since the checkpoint).
  primary_ebs_->Read(
      node_id_, "meta/checkpoint",
      [this, done = std::move(done)](Result<std::string> meta) {
        Lsn checkpoint = kInvalidLsn;
        uint64_t wal_floor = 1;
        if (meta.ok()) {
          Slice in(*meta);
          GetVarint64(&in, &checkpoint);
          GetVarint64(&in, &wal_floor);
        }
        checkpoint_lsn_ = checkpoint;
        // Scan the log forward from the checkpoint: each WAL object is a
        // real (latency-bearing) EBS read — log reads are part of the
        // recovery cost a traditional engine pays.
        std::vector<std::string> all_keys = primary_ebs_->ListKeys("wal/");
        // Skip WAL objects wholly covered by the checkpoint.
        std::string first_key = WalKey(wal_floor);
        auto keys = std::make_shared<std::vector<std::string>>();
        for (std::string& k : all_keys) {
          if (k >= first_key) keys->push_back(std::move(k));
        }
        auto records = std::make_shared<std::vector<LogRecord>>();
        // Weak self-reference: each in-flight EBS read holds the strong one,
        // so the chain frees itself when the scan completes instead of
        // cycling forever.
        auto read_next = std::make_shared<std::function<void(size_t)>>();
        std::weak_ptr<std::function<void(size_t)>> weak_next = read_next;
        *read_next = [this, keys, records, checkpoint, wal_floor, weak_next,
                      done](size_t i) {
          if (i < keys->size()) {
            primary_ebs_->Read(
                node_id_, (*keys)[i],
                [this, keys, records, checkpoint, wal_floor,
                 next = weak_next.lock(), done,
                 i](Result<std::string> blob) {
                  if (blob.ok()) {
                    std::vector<LogRecord> batch;
                    if (DecodeRecordBatch(*blob, &batch).ok()) {
                      for (LogRecord& r : batch) {
                        if (r.lsn > checkpoint) {
                          records->push_back(std::move(r));
                        }
                      }
                    }
                  }
                  if (next) (*next)(i + 1);
                });
            return;
          }
          std::sort(records->begin(), records->end(),
                    [](const LogRecord& a, const LogRecord& b) {
                      return a.lsn < b.lsn;
                    });
          if (!records->empty()) {
            next_lsn_ = records->back().lsn + records->back().EncodedSize();
            flushed_lsn_ = records->back().lsn;
            last_vol_lsn_ = records->back().lsn;
          } else {
            next_lsn_ = std::max<Lsn>(checkpoint + 1, 1);
            flushed_lsn_ = checkpoint;
            last_vol_lsn_ = checkpoint;
          }
          next_wal_seq_ =
              std::max<uint64_t>(next_wal_seq_, wal_floor + 1000000);
          ReplayWal(records, 0, done);
        };
        (*read_next)(0);
      });
}

void MirroredMySql::ReplayWal(std::shared_ptr<std::vector<LogRecord>> records,
                              size_t idx, std::function<void(Status)> done) {
  // Sequential, synchronous redo: fetch the page (a real EBS read on every
  // first touch), apply — charging CPU per record — and continue. This is
  // the foreground, offline recovery Aurora eliminates: its cost is
  // proportional to the log written since the last checkpoint.
  constexpr size_t kChunk = 16;
  size_t end = std::min(records->size(), idx + kChunk);
  while (idx < end) {
    const LogRecord& rec = (*records)[idx];
    Result<Page*> page = GetPage(rec.page_id);
    if (!page.ok()) {
      // Busy: wait for the fetch, then resume from this index.
      page_waiters_[rec.page_id].push_back(
          [this, records, idx, done]() { ReplayWal(records, idx, done); });
      return;
    }
    Status s = LogApplicator::Apply(rec, *page);
    if (!s.ok()) {
      done(s);
      return;
    }
    dirty_since_.try_emplace(rec.page_id, rec.lsn);
    ++idx;
  }
  if (idx < records->size()) {
    instance_->Execute(
        kCpuPerPageTouch * kChunk,
        [this, records, idx, done]() { ReplayWal(records, idx, done); });
    return;
  }
  pool_.Pin(0);
  open_ = true;
  CheckpointTick();
  done(Status::OK());
}

// ---------------------------------------------------------------------------
// Schema & transactions
// ---------------------------------------------------------------------------

void MirroredMySql::RunWithRetries(PageFetcher::Attempt attempt,
                                   PageFetcher::Done done) {
  last_miss_ = kInvalidPage;
  Status s = attempt();
  if (s.IsBusy() && last_miss_ != kInvalidPage) {
    page_waiters_[last_miss_].push_back(
        [this, attempt = std::move(attempt), done = std::move(done)]() mutable {
          RunWithRetries(std::move(attempt), std::move(done));
        });
    return;
  }
  pool_.EvictExcess();
  // Free-page pressure: when the pool is over capacity and clogged with
  // dirty pages, InnoDB's LRU flusher must write one back before anything
  // can be evicted — the §1 "evicting and flushing a dirty cache page"
  // penalty.
  if (open_ && pool_.size() > pool_.capacity() && !dirty_since_.empty() &&
      !lru_flush_in_flight_) {
    ++stats_.dirty_evict_stalls;
    lru_flush_in_flight_ = true;
    FlushOnePage(dirty_since_.begin()->first, [this](Status) {
      lru_flush_in_flight_ = false;
      pool_.EvictExcess();
    });
  }
  done(s);
}

void MirroredMySql::CreateTable(const std::string& name,
                                std::function<void(Status)> done) {
  std::string cat_key = "tbl:" + name;
  auto commit_lsn = std::make_shared<Lsn>(kInvalidLsn);
  auto attempt = [this, cat_key, commit_lsn]() -> Status {
    Result<Page*> meta = GetPage(0);
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
    std::string value;
    PutFixed64(&value, *anchor);
    Status s = PutMetaRecord(*meta, RedoOp::kInsert, cat_key, value, &mtr);
    if (!s.ok()) {
      mtr.Abort();
      return s;
    }
    AppendLog(&mtr);
    *commit_lsn = mtr.commit_lsn();
    return Status::OK();
  };
  RunWithRetries(attempt, [this, done, commit_lsn](Status s) {
    if (!s.ok()) {
      done(s);
      return;
    }
    commit_waiters_.push_back({kInvalidTxn, *commit_lsn, done, loop_->now()});
    StartWalFlush();
  });
}

void MirroredMySql::AttachPreloadedTable(
    const std::string& name, std::function<uint64_t(PageId)> plan,
    std::function<void(Result<PageId>)> done) {
  Result<Page*> meta = GetPage(0);
  if (!meta.ok()) {
    done(meta.status());
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

  MiniTransaction mtr(kInvalidTxn);
  Status s = SetNextPageId(*meta, first + count, &mtr);
  AURORA_CHECK(s.ok(), "attach alloc failed");
  std::string value;
  PutFixed64(&value, first);
  s = PutMetaRecord(*meta, RedoOp::kInsert, cat_key, value, &mtr);
  AURORA_CHECK(s.ok(), "attach catalog failed");
  AppendLog(&mtr);
  commit_waiters_.push_back({kInvalidTxn, mtr.commit_lsn(),
                             [done, first](Status fs) {
                               if (fs.ok()) {
                                 done(first);
                               } else {
                                 done(fs);
                               }
                             },
                             loop_->now()});
  StartWalFlush();
}

Result<PageId> MirroredMySql::TableAnchor(const std::string& name) {
  Result<Page*> meta = GetPage(0);
  if (!meta.ok()) return meta.status();
  Slice v;
  if (!(*meta)->GetRecord("tbl:" + name, &v) || v.size() != 8) {
    return Status::NotFound("no such table");
  }
  return static_cast<PageId>(DecodeFixed64(v.data()));
}

SimDuration MirroredMySql::StatementCpuCost() const {
  double extra = options_.cpu_contention_per_connection_us *
                 static_cast<double>(options_.active_connections);
  return kCpuPerStatement + static_cast<SimDuration>(extra);
}

Status MirroredMySql::WriteRowAttempt(TxnId id, PageId table,
                                      const std::string& key,
                                      const std::string* value) {
  Transactions::Txn* txn = txns_.FindActive(id);
  if (txn == nullptr) return Status::Aborted("transaction gone");
  BTree tree(this, table);
  std::string old;
  Status s = tree.Get(key, &old);
  if (!s.ok() && !s.IsNotFound()) return s;
  const bool had_old = s.ok();
  if (value == nullptr && !had_old) return Status::NotFound("no such row");

  MiniTransaction mtr(txn->id);
  if (value != nullptr) {
    s = had_old ? tree.Update(key, *value, &mtr)
                : tree.Insert(key, *value, &mtr);
  } else {
    s = tree.Delete(key, &mtr);
  }
  if (!s.ok()) {
    mtr.Abort();
    return s;
  }
  AppendLog(&mtr);
  txn->commit_lsn = mtr.commit_lsn();
  txn->undo.push_back({table, key, had_old, std::move(old)});
  // Binlog (statement) event.
  std::string& binlog = binlog_[txn->id];
  binlog.push_back(value != nullptr ? 'P' : 'D');
  PutVarint64(&binlog, table);
  PutLengthPrefixedSlice(&binlog, key);
  PutLengthPrefixedSlice(&binlog, value != nullptr ? *value : "");
  return Status::OK();
}

void MirroredMySql::Put(TxnId txn, PageId table, const std::string& key,
                        const std::string& value,
                        std::function<void(Status)> done) {
  if (Status s = AdmitStatement(txn); !s.ok()) {
    done(s);
    return;
  }
  ++stats_.writes;
  SimTime started = loop_->now();
  instance_->Execute(StatementCpuCost(), [this, txn, table, key = key,
                                          value = value, done = std::move(done),
                                          started]() mutable {
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
  });
}

void MirroredMySql::Get(TxnId txn, PageId table, const std::string& key,
                        std::function<void(Result<std::string>)> done) {
  if (Status s = AdmitStatement(txn); !s.ok()) {
    done(s);
    return;
  }
  ++stats_.reads;
  SimTime started = loop_->now();
  instance_->Execute(StatementCpuCost(), [this, txn, table, key = key,
                                          done = std::move(done),
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
          done(s.ok() ? Result<std::string>(std::move(*result))
                      : Result<std::string>(s));
        },
        std::move(done));
  });
}

void MirroredMySql::Delete(TxnId txn, PageId table, const std::string& key,
                           std::function<void(Status)> done) {
  if (Status s = AdmitStatement(txn); !s.ok()) {
    done(s);
    return;
  }
  instance_->Execute(StatementCpuCost(), [this, txn, table, key = key,
                                          done = std::move(done)]() mutable {
    txns_.LockAndRun(
        txn, table, std::move(key), LockMode::kExclusive,
        [this, txn, table](const std::string& key) -> Status {
          return WriteRowAttempt(txn, table, key, nullptr);
        },
        [](Status s, const auto& done) { done(s); }, std::move(done));
  });
}

void MirroredMySql::Commit(TxnId txn, std::function<void(Status)> done) {
  Transactions::Txn* t = txns_.Find(txn);
  if (t == nullptr) {
    done(Status::InvalidArgument("unknown transaction"));
    return;
  }
  if (txns_.CommitReadOnly(txn)) {  // no log to force
    ++stats_.txns_committed;
    stats_.commit_latency_us.Record(0);
    done(Status::OK());
    return;
  }
  // The WAL protocol: the commit completes only after the redo (and binlog)
  // are durably on the mirrored volumes — a synchronous wait, unlike
  // Aurora's asynchronous commit queue.
  std::string binlog = std::move(binlog_[txn]);
  binlog_.erase(txn);
  commit_waiters_.push_back({txn, t->commit_lsn, std::move(done),
                             loop_->now(), std::move(binlog)});
  StartWalFlush();
}

void MirroredMySql::EndAbort(TxnId txn, PageFetcher::Done then) {
  binlog_.erase(txn);
  ++stats_.txns_aborted;
  then(Status::OK());
}

void MirroredMySql::AttachBinlogReplica(sim::NodeId replica_node) {
  binlog_replicas_.push_back(replica_node);
}

}  // namespace aurora::baseline
