#ifndef AURORA_ENGINE_LOG_WRITER_H_
#define AURORA_ENGINE_LOG_WRITER_H_

#include <array>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "engine/buffer_pool.h"
#include "engine/options.h"
#include "engine/page_fetcher.h"
#include "log/mtr.h"
#include "quorum/quorum.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "storage/control_plane.h"
#include "storage/wire.h"

namespace aurora {

struct EngineStats;

/// What the log writer asks of, and reports to, the engine that owns it.
class LogOwner {
 public:
  virtual ~LogOwner() = default;
  /// The PGMRPL every write batch carries as a GC hint (§4.2.3).
  virtual Lsn Pgmrpl() const = 0;
  /// The VDL moved up: ack the commits and wake the waiters it passed.
  virtual void OnVdlAdvanced() = 0;
  /// Storage rejected this writer with a newer volume epoch; the log has
  /// stopped its pipeline and will never move the VDL again.
  virtual void OnFenced() = 0;
  /// Recovery set the new VDL, epoch and per-PG tails (§4.3).
  virtual void OnRecovered() = 0;
};

/// The writer's redo log: everything the engine owes storage (§4.2) and
/// rebuilds at restart (§4.3).
///
///  - LSN allocation under the LAL, with per-PG and volume backlinks and a
///    CPL on each MTR's last record (§4.2.1);
///  - per-PG batches, flushed at kBatchMaxBytes or after a linger, resent
///    until a write quorum acks them;
///  - the VCL and VDL, moved by those acks, and each PG's tail at the VDL;
///  - the writer's cached PG membership and each segment's acked SCL, which
///    answer the read path's FetchPolicy questions;
///  - recovery: inventories at a read quorum, the new VCL/VDL, a durable
///    epoch bump and truncation at a write quorum, then the allocator
///    restarts above the annulled range.
class LogWriter : public FetchPolicy {
 public:
  /// `pool` is evicted after every write quorum (durability gates
  /// eviction); `stats` receives the log's and the read path's counters.
  LogWriter(sim::EventLoop* loop, sim::Network* network, sim::NodeId node_id,
            ControlPlane* control_plane, const EngineOptions* options,
            BufferPool* pool, EngineStats* stats, LogOwner* owner);

  LogWriter(const LogWriter&) = delete;
  LogWriter& operator=(const LogWriter&) = delete;

  /// Finalizes a committed MTR: assigns its records LSNs and backlinks,
  /// stamps the dirtied pages' LSNs, marks the final record a CPL, and
  /// queues the records in their PGs' batches.
  void Append(MiniTransaction* mtr);
  /// From now on Append copies every stamped record into `stream` (the
  /// replica log stream).
  void set_stream(std::vector<LogRecord>* stream) { stream_ = stream; }
  /// Creates the protection groups up to the one holding `page`.
  void EnsurePgFor(PageId page);

  /// Write acks and the recovery protocol's replies.
  void HandleMessage(const sim::Message& msg);
  /// Runs the volume recovery protocol (§4.3) under request id `req_id`,
  /// then calls OnRecovered.
  void Recover(uint64_t req_id);
  /// Crash: drops every batch, tail, watermark queue, cached config and
  /// recovery round, and cancels their timers.
  void Reset();

  const Lsn& vdl() const { return vdl_; }
  Lsn vcl() const { return vcl_; }
  Lsn next_lsn() const { return next_lsn_; }
  Epoch volume_epoch() const { return volume_epoch_; }
  Lsn max_allocated() const { return max_allocated_; }
  bool fenced() const { return fenced_; }
  bool in_backpressure() const {
    // The annulled range left by recovery (VDL, VDL+LAL] is a hole in the
    // LSN space, not outstanding log volume — exclude it from the LAL
    // window until the VDL passes it.
    Lsn debt = lal_gap_top_ > vdl_ ? lal_gap_top_ - vdl_ : 0;
    return next_lsn_ - vdl_ - debt > options_->lal;
  }
  /// The newest LSN allocated in `pg`, or kInvalidLsn.
  Lsn LastLsn(PgId pg) const;

  // --- FetchPolicy (read path, §4.2.3) ---------------------------------------
  const std::array<sim::NodeId, kReplicasPerPg>& FetchMembers(
      PgId pg) override;
  std::optional<Lsn> ReadTail(PgId pg) override;
  bool KnownComplete(PgId pg, int idx, Lsn lsn) override;
  void StampEpochs(ReadPageReqMsg* req) override;
  FetchRetry OnErrorReply(PgId pg, Status::Code code) override;
  void OnInstalled(PageId id, Page* page, SimDuration latency,
                   int attempts) override;

 private:
  struct PendingBatch {
    PgId pg;
    std::vector<LogRecord> records;
    std::vector<uint64_t> unacked_seqs;  // each record's, in unacked_
    size_t bytes = 0;
    sim::EventId linger_event = 0;
    bool linger_armed = false;
    SimTime first_append_at = 0;
  };

  struct OutstandingBatch {
    PgId pg;
    uint64_t seq;
    std::vector<LogRecord> records;  // kept for per-replica (re)sends
    std::vector<uint64_t> unacked_seqs;
    WriteTracker tracker;
    sim::EventId retry_event = 0;
    int attempts = 0;
    // Stage timestamps for the write-path tracing histograms.
    SimTime appended_at = 0;
    SimTime flushed_at = 0;
    SimTime first_ack_at = 0;
    explicit OutstandingBatch(QuorumConfig q) : tracker(q) {}
  };

  /// The writer's *cached* view of a PG's membership. Data-path sends use
  /// this cache (stamped with its config_epoch) rather than reading the
  /// control plane each time: storage NAKs a stale epoch with kStaleConfig,
  /// which is what forces RefreshPgConfig — the end-to-end membership-epoch
  /// protocol of DESIGN.md §12.
  struct CachedConfig {
    std::array<sim::NodeId, kReplicasPerPg> nodes;
    uint64_t config_epoch = 0;
  };

  struct RecoveryState;

  PgId PgOf(PageId page) const {
    return static_cast<PgId>(page / options_->pages_per_pg);
  }
  const CachedConfig& PgConfig(PgId pg);
  /// Re-reads `pg`'s membership after storage NAKed a stale config epoch.
  void RefreshPgConfig(PgId pg);
  /// `unacked_seq` is the record's sequence number in unacked_.
  void AppendToBatch(LogRecord&& record, uint64_t unacked_seq);
  void FlushBatch(PgId pg);
  void SendBatch(OutstandingBatch* batch);
  void HandleWriteAck(const sim::Message& msg);
  /// Marks `batch`'s records acknowledged, by sequence number, and pops
  /// every acknowledged record off the front of unacked_.
  void RetireAcked(const OutstandingBatch& batch);
  void AdvanceDurability();
  /// Demotes this writer after a kFenced rejection from storage: stops the
  /// pipeline so no batch is ever resent under the dead epoch, then tells
  /// the owner.
  void Fence(Epoch fencing_epoch);
  /// Cancels the batch timers and drops every batch and per-PG tail.
  void StopPipeline();

  // --- Recovery (§4.3) -------------------------------------------------------
  /// (Re)sends the current phase's request to every PG lacking a quorum
  /// of replies — inventories at a read quorum, truncates at a write
  /// quorum — and re-arms the retry timer. A member function instead of a
  /// self-capturing closure, so no shared_ptr cycle can keep the recovery
  /// state alive forever.
  void SendRound(std::shared_ptr<RecoveryState> rs);
  /// Counts `replica`'s reply for `pg`. True once every PG has its quorum:
  /// the round's timer is cancelled and the next phase begins.
  bool CountReply(RecoveryState* rs, PgId pg, ReplicaIdx replica);
  void HandleInventoryResp(const sim::Message& msg);
  void ComputeAndTruncate(std::shared_ptr<RecoveryState> rs);
  /// At a write quorum of acks for every PG, rebuilds the log's state at
  /// the new VDL.
  void HandleTruncateAck(const sim::Message& msg);

  sim::EventLoop* loop_;
  sim::Network* network_;
  sim::NodeId node_id_;
  ControlPlane* control_plane_;
  const EngineOptions* options_;
  BufferPool* pool_;
  EngineStats* stats_;
  LogOwner* owner_;
  std::vector<LogRecord>* stream_ = nullptr;

  // Durability watermarks (§4.1/4.2).
  Lsn next_lsn_ = 1;
  Lsn vdl_ = kInvalidLsn;
  Lsn vcl_ = kInvalidLsn;
  Epoch volume_epoch_ = 1;
  Lsn last_vol_lsn_ = kInvalidLsn;  // volume-wide backlink tail
  Lsn lal_gap_top_ = kInvalidLsn;   // top of the annulled post-recovery range
  std::map<PgId, Lsn> last_lsn_per_pg_;
  /// Records allocated above the VDL, oldest first, as (lsn, pg). As the
  /// VDL passes them, AdvanceDurability retires each into tail_at_vdl_.
  std::deque<std::pair<Lsn, PgId>> above_vdl_;
  /// Each PG's newest record at or below the VDL: the tail a read at the
  /// VDL carries (ReadTail). A PG absent here has none (tail 0).
  std::map<PgId, Lsn> tail_at_vdl_;
  /// Every record from the oldest unacknowledged one on, in LSN order (the
  /// order Append allocates them), each with whether its batch reached
  /// a write quorum. The front is never acknowledged: everything below it
  /// is durable. Each record has a sequence number, its place in this
  /// order: the front's is unacked_front_seq_.
  std::deque<std::pair<Lsn, bool>> unacked_;
  uint64_t unacked_front_seq_ = 0;
  /// CPLs above the VDL, in LSN order.
  std::deque<Lsn> pending_cpls_;
  Lsn max_allocated_ = kInvalidLsn;

  // Write pipeline.
  std::map<PgId, PendingBatch> pending_batches_;
  uint64_t next_batch_seq_ = 1;
  std::map<uint64_t, std::unique_ptr<OutstandingBatch>> outstanding_;
  /// Known SCL per (pg, replica) from acks — read routing.
  std::map<std::pair<PgId, ReplicaIdx>, Lsn> replica_scl_;
  /// Cached membership per PG (see PgConfig).
  std::map<PgId, CachedConfig> pg_config_;

  std::shared_ptr<RecoveryState> recovery_;
  bool fenced_ = false;  // demoted by a newer volume epoch
  uint64_t generation_ = 0;
};

}  // namespace aurora

#endif  // AURORA_ENGINE_LOG_WRITER_H_
