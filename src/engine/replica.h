#ifndef AURORA_ENGINE_REPLICA_H_
#define AURORA_ENGINE_REPLICA_H_

#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/random.h"
#include "engine/buffer_pool.h"
#include "engine/options.h"
#include "engine/page_fetcher.h"
#include "page/btree.h"
#include "page/page_provider.h"
#include "sim/event_loop.h"
#include "sim/instance.h"
#include "sim/network.h"
#include "storage/control_plane.h"
#include "storage/wire.h"

namespace aurora {

/// Counters for one read replica.
struct ReplicaStats {
  uint64_t records_applied = 0;
  uint64_t records_discarded = 0;  // page not in cache — just dropped
  uint64_t mtrs_applied = 0;
  uint64_t reads = 0;
  uint64_t storage_page_reads = 0;
  /// Frames that failed the fabric checksum at this replica and were dropped.
  uint64_t corrupt_frames_dropped = 0;
  Histogram lag_us;  // commit-visibility lag (Table 4 / Figure 11)
  Histogram read_latency_us;

  /// Every member once, under its exported metric name.
  template <typename F>
  static constexpr void Fields(F f) {
    using S = ReplicaStats;
    f("records_applied", &S::records_applied);
    f("records_discarded", &S::records_discarded);
    f("mtrs_applied", &S::mtrs_applied);
    f("reads", &S::reads);
    f("storage_page_reads", &S::storage_page_reads);
    f("corrupt_frames_dropped", &S::corrupt_frames_dropped);
    f("lag_us", &S::lag_us);
    f("read_latency_us", &S::read_latency_us);
  }
};

/// An Aurora read replica (§4.2.4): mounts the same storage volume as the
/// writer, consumes the writer's redo stream, and serves snapshot reads.
///
/// "The replica obeys the following two important rules while applying log
/// records: (a) the only log records that will be applied are those whose
/// LSN is less than or equal to the VDL, and (b) the log records that are
/// part of a single mini-transaction are applied atomically in the
/// replica's cache." Records for pages not in the cache are discarded —
/// replicas add no storage or write I/O cost.
class ReadReplica : public PageProvider, private FetchPolicy {
 public:
  ReadReplica(sim::EventLoop* loop, sim::Network* network, sim::NodeId node_id,
              sim::Instance* instance, ControlPlane* control_plane,
              sim::NodeId writer_node, EngineOptions options, Random rng);

  ReadReplica(const ReadReplica&) = delete;
  ReadReplica& operator=(const ReadReplica&) = delete;

  sim::NodeId node_id() const { return node_id_; }

  /// Snapshot point read at the replica's current read point.
  void Get(PageId table, const std::string& key,
           std::function<void(Result<std::string>)> done);

  /// Resolves a table name through the catalog (meta page fetch on miss).
  void TableAnchor(const std::string& name,
                   std::function<void(Result<PageId>)> done);

  /// The replica's visibility point: the highest VDL for which every MTR
  /// has been applied to the cache.
  Lsn read_point() const { return applied_vdl_; }

  void Crash();
  void Restart();

  const ReplicaStats& stats() const { return stats_; }
  BufferPool* buffer_pool() { return &pool_; }

  // --- PageProvider ---------------------------------------------------------
  Result<Page*> GetPage(PageId id) override { return fetcher_.GetPage(id); }
  Result<Page*> AllocatePage(PageType, uint8_t, MiniTransaction*) override {
    return Status::NotSupported("replicas are read-only");
  }
  Status FreePage(Page*, MiniTransaction*) override {
    return Status::NotSupported("replicas are read-only");
  }
  size_t page_size() const override { return options_.page_size; }

 private:
  void HandleMessage(const sim::Message& msg);
  void HandleLogStream(const sim::Message& msg);
  void ApplyReadyMtrs();
  void ApplyRecord(const LogRecord& rec);
  void ReportReadPointTick();

  // --- FetchPolicy: every member is a candidate, unstamped requests -------
  // No tail: a replica keeps no per-PG tail history (a restarted replica
  // has none), so storage serves it by SCL or completeness snapshot.
  const std::array<sim::NodeId, kReplicasPerPg>& FetchMembers(
      PgId pg) override {
    return control_plane_->membership(pg).nodes;
  }
  std::optional<Lsn> ReadTail(PgId) override { return std::nullopt; }
  bool KnownComplete(PgId, int, Lsn) override { return false; }
  void StampEpochs(ReadPageReqMsg*) override {}
  FetchRetry OnErrorReply(PgId, Status::Code) override {
    return FetchRetry::kLater;
  }
  void OnInstalled(PageId id, Page* page, SimDuration, int) override;

  sim::EventLoop* loop_;
  sim::Network* network_;
  sim::NodeId node_id_;
  sim::Instance* instance_;
  ControlPlane* control_plane_;
  sim::NodeId writer_node_;
  EngineOptions options_;
  Random rng_;

  Lsn vdl_ = kInvalidLsn;          // latest VDL heard from the writer
  Lsn applied_vdl_ = kInvalidLsn;  // cache consistent up to here
  BufferPool pool_;
  /// Cache misses: single-segment reads at applied_vdl_ (§4.2.4).
  PageFetcher fetcher_;

  /// Stream records not yet applied (waiting for their MTR's CPL <= VDL).
  std::deque<LogRecord> pending_stream_;
  /// Commit notifications not yet visible.
  std::map<Lsn, uint64_t> pending_commits_;

  /// Records addressed to pages whose fetch is in flight (replayed after
  /// install; application is idempotent).
  std::map<PageId, std::vector<LogRecord>> stashed_records_;

  bool crashed_ = false;
  uint64_t generation_ = 0;
  sim::EventId read_point_timer_ = 0;
  ReplicaStats stats_;
};

}  // namespace aurora

#endif  // AURORA_ENGINE_REPLICA_H_
