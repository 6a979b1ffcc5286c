#ifndef AURORA_STORAGE_STORAGE_NODE_H_
#define AURORA_STORAGE_STORAGE_NODE_H_

#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/random.h"
#include "sim/disk.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "storage/control_plane.h"
#include "storage/segment.h"
#include "storage/sim_s3.h"
#include "storage/wire.h"

namespace aurora {

/// Behavioural knobs of a storage host. Intervals implement the "move the
/// majority of storage processing to the background" tenet of §3.3.
struct StorageNodeOptions {
  sim::DiskOptions disk;
  SimDuration gossip_interval = Millis(100);
  SimDuration coalesce_interval = Millis(20);
  size_t coalesce_batch = 512;
  SimDuration gc_interval = Millis(200);
  SimDuration scrub_interval = Seconds(30);
  SimDuration backup_interval = Millis(500);
  /// Background work is deferred while the disk backlog exceeds this —
  /// §3.3's negative correlation between background and foreground load.
  SimDuration background_backlog_limit = Millis(5);
  /// Per-segment byte budget for the reconstructed-page cache (§4.2.3:
  /// materialization is "simply a cache of the log application"). Applied to
  /// every segment this node creates or installs; 0 disables caching.
  uint64_t page_cache_budget_bytes = 4 * 1024 * 1024;
};

/// Counters for one storage host.
struct StorageNodeStats {
  uint64_t batches_received = 0;
  uint64_t records_received = 0;
  uint64_t acks_sent = 0;
  uint64_t page_reads_served = 0;
  /// Page reads refused, in total and by cause (the causes sum to it).
  uint64_t page_read_errors = 0;
  uint64_t read_errors_incomplete = 0;    // not complete at the read point
  uint64_t read_errors_below_floor = 0;   // below the materialized floor
  uint64_t read_errors_not_found = 0;     // no segment here, or no such page
  uint64_t read_errors_fenced = 0;        // requester's volume epoch is old
  uint64_t read_errors_stale_config = 0;  // requester's config epoch is old
  uint64_t read_errors_corrupt = 0;       // page failed its CRC or redo
  uint64_t gossip_rounds = 0;
  uint64_t gossip_records_sent = 0;
  uint64_t gossip_records_filled = 0;
  /// Full segment-state copies shipped because GC had already collected the
  /// records a straggling peer needed (gossip's state-transfer backstop).
  uint64_t gossip_state_transfers = 0;
  uint64_t records_coalesced = 0;
  uint64_t records_gced = 0;
  uint64_t scrub_rounds = 0;
  uint64_t pages_scrubbed = 0;
  uint64_t corrupt_pages_found = 0;
  uint64_t corrupt_pages_repaired = 0;
  /// Corrupt pages healed from a peer on the *read* path (a CRC mismatch
  /// surfaced by GetPageAsOf between scrub rounds).
  uint64_t read_repairs = 0;
  uint64_t backup_objects = 0;
  uint64_t background_deferrals = 0;
  uint64_t stale_epoch_rejects = 0;
  /// Frames NAKed because the sender's membership config epoch was behind
  /// this node's view (or the sender is no longer a member at all).
  uint64_t stale_config_rejects = 0;
  /// Writes the device completed torn (Status::Corruption): the batch is
  /// not applied and not acked, so the sender retries.
  uint64_t torn_write_drops = 0;
  /// Latent sector faults the device planted under this node's pages.
  uint64_t latent_corruptions = 0;
  /// Repair chunks dropped for a payload CRC mismatch (fabric corruption
  /// that slipped past the frame checksum).
  uint64_t repair_chunk_crc_drops = 0;
  /// Incoming chunked-repair transfers started on this node (as target).
  uint64_t repair_sessions_started = 0;
  /// Stray segments dropped after this node was evicted from a PG's
  /// membership (gossip-time cleanup).
  uint64_t evicted_segments_dropped = 0;
  /// Write batches already applied once and re-acked without re-applying
  /// (network duplicates / sender retries racing an in-flight ack).
  uint64_t duplicate_batches = 0;
  /// Frames that failed the fabric checksum at this node and were dropped.
  uint64_t corrupt_frames_dropped = 0;
  /// Records back-filled per gossip push integrated (hole-repair depth —
  /// how far behind this replica had fallen when gossip healed it).
  Histogram gossip_fill_batch;

  /// Every member once, under its exported metric name.
  template <typename F>
  static constexpr void Fields(F f) {
    using S = StorageNodeStats;
    f("batches_received", &S::batches_received);
    f("records_received", &S::records_received);
    f("acks_sent", &S::acks_sent);
    f("page_reads_served", &S::page_reads_served);
    f("page_read_errors", &S::page_read_errors);
    f("page_read_errors_by_cause.incomplete", &S::read_errors_incomplete);
    f("page_read_errors_by_cause.below_floor", &S::read_errors_below_floor);
    f("page_read_errors_by_cause.not_found", &S::read_errors_not_found);
    f("page_read_errors_by_cause.fenced", &S::read_errors_fenced);
    f("page_read_errors_by_cause.stale_config", &S::read_errors_stale_config);
    f("page_read_errors_by_cause.corrupt", &S::read_errors_corrupt);
    f("gossip_rounds", &S::gossip_rounds);
    f("gossip_records_sent", &S::gossip_records_sent);
    f("gossip_records_filled", &S::gossip_records_filled);
    f("gossip_state_transfers", &S::gossip_state_transfers);
    f("records_coalesced", &S::records_coalesced);
    f("records_gced", &S::records_gced);
    f("scrub_rounds", &S::scrub_rounds);
    f("pages_scrubbed", &S::pages_scrubbed);
    f("corrupt_pages_found", &S::corrupt_pages_found);
    f("corrupt_pages_repaired", &S::corrupt_pages_repaired);
    f("read_repairs", &S::read_repairs);
    f("backup_objects", &S::backup_objects);
    f("background_deferrals", &S::background_deferrals);
    f("stale_epoch_rejects", &S::stale_epoch_rejects);
    f("stale_config_rejects", &S::stale_config_rejects);
    f("torn_write_drops", &S::torn_write_drops);
    f("latent_corruptions", &S::latent_corruptions);
    f("repair_chunk_crc_drops", &S::repair_chunk_crc_drops);
    f("repair_sessions_started", &S::repair_sessions_started);
    f("evicted_segments_dropped", &S::evicted_segments_dropped);
    f("duplicate_batches", &S::duplicate_batches);
    f("corrupt_frames_dropped", &S::corrupt_frames_dropped);
    f("trace.gossip_fill_batch", &S::gossip_fill_batch);
  }
};

/// A storage host: local SSD plus the eight-step I/O pipeline of Figure 4:
/// (1) receive a log-record batch into the in-memory queue, (2) persist on
/// disk and ACK, (3) organize records and identify gaps (Segment's chain),
/// (4) gossip with peers to fill holes, (5) coalesce log records into data
/// pages, (6) periodically stage log and pages to S3, (7) garbage collect
/// old versions, (8) periodically validate page CRCs.
/// Steps 1–2 are the only foreground work; everything else runs on timers
/// and yields to foreground load.
class StorageNode {
 public:
  StorageNode(sim::EventLoop* loop, sim::Network* network, sim::NodeId id,
              ControlPlane* control_plane, SimS3* s3,
              StorageNodeOptions options, Random rng);

  StorageNode(const StorageNode&) = delete;
  StorageNode& operator=(const StorageNode&) = delete;

  sim::NodeId id() const { return id_; }

  /// Instantiates an (empty) segment replica for `pg`. Called lazily on
  /// first contact (EnsureSegment) and by tests that prefabricate state.
  void CreateSegment(PgId pg, size_t page_size);
  /// Lazy materialization: returns the hosted segment for `pg`, creating it
  /// (empty, at the volume's page size) iff this host is a member per the
  /// control plane. Null when not a member — stray traffic after a
  /// membership change must not resurrect a dropped replica.
  Segment* EnsureSegment(PgId pg);
  /// Installs the control plane's page synthesizer on all hosted segments.
  void InstallSynthesizerOnSegments(const Segment::PageSynthesizer& fn);
  Segment* segment(PgId pg);
  const Segment* segment(PgId pg) const;

  /// Crash-stop: in-flight (unpersisted) work is lost; segment state —
  /// which is persisted before every ACK — survives on disk.
  void Crash();
  void Restart();
  bool crashed() const { return crashed_; }

  const StorageNodeStats& stats() const { return stats_; }
  sim::Disk* disk() { return &disk_; }

  /// Reconstruction-cache counters summed across hosted segments.
  PageCacheStats PageCacheTotals() const;
  /// A Segment accessor such as &Segment::hot_log_size, summed across
  /// hosted segments.
  template <typename Stat>
  uint64_t SumSegments(Stat stat) const {
    uint64_t sum = 0;
    for (const auto& [pg, seg] : segments_) sum += ((*seg).*stat)();
    return sum;
  }

  /// For the repair manager: serialized segment state bytes.
  uint64_t SegmentBytes(PgId pg) const;

  // --- Chunked repair (this node as the replacement target) -----------------
  /// What happened to an in-progress chunked transfer, reported to the
  /// repair manager via the progress callback.
  enum class RepairEvent : uint8_t {
    kChunk,      // one more chunk verified and buffered
    kMismatch,   // donor snapshot changed mid-copy; buffer reset to chunk 0
    kInstalled,  // whole blob verified and installed as this PG's segment
    kFailed,     // blob complete but failed verification or installation
  };
  struct RepairProgress {
    uint64_t req_id = 0;
    uint32_t chunk_index = 0;
    uint32_t total_chunks = 0;
    uint64_t total_bytes = 0;
    uint32_t blob_crc = 0;
    RepairEvent event = RepairEvent::kChunk;
  };
  /// Single manager-owned callback; per-repair routing happens in the
  /// manager keyed by (pg, req_id), so concurrent repairs targeting this
  /// node never clobber each other. Delivered via PostControl (the manager
  /// is homed on the control shard).
  using RepairProgressCallback =
      std::function<void(PgId, const RepairProgress&)>;
  void set_repair_progress_callback(RepairProgressCallback cb) {
    repair_progress_cb_ = std::move(cb);
  }
  /// Opens/abandons the reassembly buffer for one chunked transfer. The
  /// manager opens a session before requesting chunk 0 and aborts it when
  /// it gives up on the transfer; a crash of this node drops all sessions
  /// (the buffer is volatile until the final persist + install).
  void BeginRepairSession(PgId pg, uint64_t req_id);
  void AbortRepairSession(PgId pg, uint64_t req_id);

 private:
  void HandleMessage(const sim::Message& msg);
  void HandleWriteBatch(const sim::Message& msg);
  void HandleReadPage(const sim::Message& msg);
  void HandleInventory(const sim::Message& msg);
  void HandleTruncate(const sim::Message& msg);
  void HandlePgmrpl(const sim::Message& msg);
  void HandleGossipPull(const sim::Message& msg);
  void HandleGossipPush(const sim::Message& msg);
  void HandleSegmentStateResp(const sim::Message& msg);
  void HandleSegmentChunkReq(const sim::Message& msg);
  void HandleSegmentChunkResp(const sim::Message& msg);

  /// Answers `batch` with `code` (kOk, kFenced or kStaleConfig), stamped
  /// with `seg`'s SCL and epoch and the PG's config epoch; only a kOk ack
  /// counts in `acks_sent`.
  void SendWriteAck(sim::NodeId to, const WriteBatchMsg& batch,
                    const Segment& seg, Status::Code code);

  /// Why a read of `req` from `seg` must be refused now, or OK: no segment,
  /// a fenced volume epoch, a stale config epoch, or the segment's own
  /// read-point gates.
  Status CheckRead(const Segment* seg, const ReadPageReqMsg& req) const;
  /// Answers a page read with `code` (the page, if any, in `page_bytes`,
  /// copied once into the reply), counting a refusal under its cause.
  void ReplyToRead(sim::NodeId to, uint64_t req_id, Status::Code code,
                   Lsn page_lsn = kInvalidLsn, Slice page_bytes = Slice());

  /// Installs a serialized segment copy if it is a superset of local state
  /// (shared by the one-shot state transfer and the chunked repair path).
  /// Returns false when the copy was rejected or malformed.
  bool InstallSegmentCopy(PgId pg, Slice state);
  /// Posts a repair progress event to the manager at the next barrier.
  void NotifyRepairProgress(PgId pg, RepairProgress progress);
  /// Heals one corrupt base page from a live peer at the next barrier
  /// (shared by the scrubber and the read path).
  void SchedulePeerPageRepair(PgId pg, PageId page);

  void ScheduleBackgroundTasks();
  void GossipTick();
  void CoalesceTick();
  void GcTick();
  void ScrubTick();
  void BackupTick();
  /// True when foreground load should defer background work (§3.3).
  bool Busy() const;

  sim::EventLoop* loop_;
  sim::Network* network_;
  sim::NodeId id_;
  ControlPlane* control_plane_;
  SimS3* s3_;
  StorageNodeOptions options_;
  Random rng_;
  sim::Disk disk_;

  std::map<PgId, std::unique_ptr<Segment>> segments_;
  RepairProgressCallback repair_progress_cb_;
  /// Reassembly state of one incoming chunked transfer, keyed (pg, req_id).
  struct RepairSession {
    std::string buffer;
    uint32_t chunks_received = 0;
    bool meta_known = false;
    uint32_t total_chunks = 0;
    uint64_t total_bytes = 0;
    uint32_t blob_crc = 0;
  };
  std::map<std::pair<PgId, uint64_t>, RepairSession> repair_sessions_;
  /// Donor-side snapshot cache: chunk requests for the same (pg, req_id)
  /// are served from one consistent SerializeTo blob, so a transfer never
  /// mixes bytes from two different segment states. Bounded; oldest entry
  /// evicted (the orphaned transfer restarts via the geometry mismatch).
  struct DonorSnapshot {
    std::string blob;
    uint32_t blob_crc = 0;
  };
  std::map<std::pair<PgId, uint64_t>, DonorSnapshot> donor_snapshots_;
  std::vector<std::pair<PgId, uint64_t>> donor_snapshot_order_;
  StorageNodeStats stats_;
  /// Write batches fully applied (persisted + integrated), keyed per PG as
  /// batch_seq -> epoch. Consulted on receipt so a duplicated or retried
  /// batch is re-acked without re-persisting; marked only after the disk
  /// write completes (marking at receipt could ack a retry whose records a
  /// crash just lost). Volatile — cleared on Crash(), which is safe because
  /// re-applying a batch after restart is idempotent (AddRecord dedups).
  std::map<PgId, std::map<uint64_t, Epoch>> applied_batches_;
  /// Outstanding background timers, cancelled on Crash() so repeated
  /// crash/restart cycles don't leak dead events in the loop (the
  /// generation guard already makes them no-ops).
  sim::EventId gossip_timer_ = 0;
  sim::EventId coalesce_timer_ = 0;
  sim::EventId gc_timer_ = 0;
  sim::EventId scrub_timer_ = 0;
  sim::EventId backup_timer_ = 0;
  bool crashed_ = false;
  /// Bumped on every crash; stale async callbacks (disk completions from
  /// before the crash) check it and become no-ops.
  uint64_t generation_ = 0;
};

}  // namespace aurora

#endif  // AURORA_STORAGE_STORAGE_NODE_H_
