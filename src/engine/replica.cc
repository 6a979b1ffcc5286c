#include "engine/replica.h"

#include <algorithm>

#include "common/coding.h"
#include "common/logging.h"
#include "engine/row_codec.h"
#include "log/applicator.h"

namespace aurora {

ReadReplica::ReadReplica(sim::EventLoop* loop, sim::Network* network,
                         sim::NodeId node_id, sim::Instance* instance,
                         ControlPlane* control_plane, sim::NodeId writer_node,
                         EngineOptions options, Random rng)
    : loop_(loop),
      network_(network),
      node_id_(node_id),
      instance_(instance),
      control_plane_(control_plane),
      writer_node_(writer_node),
      options_(options),
      rng_(rng),
      pool_(options.buffer_pool_pages, options.page_size, &applied_vdl_),
      fetcher_(loop, network, node_id, control_plane->topology(), &options_,
               &pool_, &applied_vdl_, this, &stats_.storage_page_reads,
               /*retries=*/nullptr) {
  network_->Register(node_id_,
                     [this](const sim::Message& m) { HandleMessage(m); });
  ReportReadPointTick();
}

void ReadReplica::HandleMessage(const sim::Message& msg) {
  if (crashed_) return;
  if (!network_->VerifyFrame(msg)) {
    ++stats_.corrupt_frames_dropped;
    return;
  }
  switch (msg.type) {
    case kMsgReplicaLogStream:
      HandleLogStream(msg);
      break;
    case kMsgReadPageResp:
      fetcher_.HandleResponse(msg);
      break;
    default:
      break;
  }
}

void ReadReplica::Crash() {
  crashed_ = true;
  ++generation_;
  pool_.Clear();
  pending_stream_.clear();
  pending_commits_.clear();
  stashed_records_.clear();
  // Cancel outstanding fetch-retry timers and the read-point reporting tick
  // so repeated crash/restart cycles don't leak dead events in the loop.
  fetcher_.Reset();
  loop_->Cancel(read_point_timer_);
}

void ReadReplica::Restart() {
  crashed_ = false;
  ++generation_;
  ReportReadPointTick();
}

void ReadReplica::HandleLogStream(const sim::Message& msg) {
  ReplicaStreamMsg stream;
  std::vector<LogRecord> records;
  if (!wire::Decode(msg.payload(), &stream).ok() ||
      !DecodeRecordBatch(stream.records, &records).ok()) {
    return;
  }
  if (stream.vdl > vdl_) vdl_ = stream.vdl;
  for (LogRecord& r : records) {
    pending_stream_.push_back(std::move(r));
  }
  for (const auto& [lsn, time] : stream.commits) {
    pending_commits_.emplace(lsn, time);
  }
  ApplyReadyMtrs();
}

void ReadReplica::ApplyReadyMtrs() {
  // Rule (a): apply only records with LSN <= VDL. Rule (b): apply whole
  // MTRs (ending at a CPL) atomically. The stream arrives in LSN order and
  // MTRs are contiguous LSN runs, so we scan for the next CPL and apply the
  // prefix if it is below the VDL.
  while (true) {
    size_t cpl_idx = SIZE_MAX;
    for (size_t i = 0; i < pending_stream_.size(); ++i) {
      if (pending_stream_[i].is_cpl()) {
        cpl_idx = i;
        break;
      }
    }
    if (cpl_idx == SIZE_MAX) break;
    Lsn cpl = pending_stream_[cpl_idx].lsn;
    if (cpl > vdl_) break;
    // Within one event-loop turn the whole MTR applies — atomic from every
    // reader's perspective.
    for (size_t i = 0; i <= cpl_idx; ++i) {
      ApplyRecord(pending_stream_[i]);
    }
    pending_stream_.erase(pending_stream_.begin(),
                          pending_stream_.begin() + cpl_idx + 1);
    applied_vdl_ = std::max(applied_vdl_, cpl);
    ++stats_.mtrs_applied;
  }
  if (pending_stream_.empty() && vdl_ > applied_vdl_) {
    // Stream quiesced: everything durable is applied.
    applied_vdl_ = vdl_;
  }
  // Commit visibility (replica lag measurement).
  while (!pending_commits_.empty() &&
         pending_commits_.begin()->first <= applied_vdl_) {
    uint64_t writer_time = pending_commits_.begin()->second;
    pending_commits_.erase(pending_commits_.begin());
    stats_.lag_us.Record(loop_->now() >= writer_time
                             ? loop_->now() - writer_time
                             : 0);
  }
}

void ReadReplica::ApplyRecord(const LogRecord& rec) {
  if (fetcher_.InFlight(rec.page_id)) {
    stashed_records_[rec.page_id].push_back(rec);
    return;
  }
  Page* page = pool_.Lookup(rec.page_id);
  if (page == nullptr) {
    ++stats_.records_discarded;
    return;
  }
  Status s = LogApplicator::Apply(rec, page);
  if (!s.ok()) {
    // Should not happen (deterministic redo); drop the page and let a
    // future read re-fetch a consistent image.
    AURORA_WARN("replica apply failed: %s", s.ToString().c_str());
    pool_.Discard(rec.page_id);
    return;
  }
  ++stats_.records_applied;
}

void ReadReplica::OnInstalled(PageId id, Page* page, SimDuration, int) {
  // Replay records that streamed past while the fetch was in flight
  // (idempotent: anything already in the fetched image is skipped by LSN).
  auto sit = stashed_records_.find(id);
  if (sit == stashed_records_.end()) return;
  for (const LogRecord& r : sit->second) {
    if (!LogApplicator::Apply(r, page).ok()) {
      pool_.Discard(id);
      break;
    }
  }
  stashed_records_.erase(sit);
}

void ReadReplica::Get(PageId table, const std::string& key,
                      std::function<void(Result<std::string>)> done) {
  if (crashed_) {
    done(Status::Unavailable("replica down"));
    return;
  }
  ++stats_.reads;
  SimTime started = loop_->now();
  instance_->Execute(kCpuPerStatement, [this, table, key, done, started]() {
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

void ReadReplica::TableAnchor(const std::string& name,
                              std::function<void(Result<PageId>)> done) {
  auto anchor = std::make_shared<PageId>(kInvalidPage);
  std::string cat_key = "tbl:" + name;
  auto attempt = [this, cat_key, anchor]() -> Status {
    Result<Page*> meta = GetPage(0);
    if (!meta.ok()) return meta.status();
    pool_.Pin(0);
    Slice v;
    uint32_t version;
    if (!(*meta)->GetRecord(cat_key, &v) ||
        !DecodeCatalogValue(v, anchor.get(), &version)) {
      return Status::NotFound("no such table");
    }
    return Status::OK();
  };
  fetcher_.RunWithRetries(attempt, [done, anchor](Status s) {
    if (s.ok()) {
      done(*anchor);
    } else {
      done(s);
    }
  });
}

void ReadReplica::ReportReadPointTick() {
  const uint64_t gen = generation_;
  read_point_timer_ = loop_->Schedule(kPgmrplInterval, [this, gen] {
    if (gen != generation_ || crashed_) return;
    ReportReadPointTick();
  });
  if (applied_vdl_ == kInvalidLsn) return;
  const ReplicaReadPointMsg m{.read_point = applied_vdl_};
  network_->Send(node_id_, writer_node_, kMsgReplicaReadPoint,
                 wire::Encode(m));
}

}  // namespace aurora
