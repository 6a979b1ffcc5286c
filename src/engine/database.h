#ifndef AURORA_ENGINE_DATABASE_H_
#define AURORA_ENGINE_DATABASE_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/random.h"
#include "common/result.h"
#include "engine/buffer_pool.h"
#include "engine/log_writer.h"
#include "engine/options.h"
#include "engine/page_fetcher.h"
#include "engine/transactions.h"
#include "log/mtr.h"
#include "page/btree.h"
#include "page/page_provider.h"
#include "sim/event_loop.h"
#include "sim/instance.h"
#include "sim/network.h"
#include "storage/control_plane.h"

namespace aurora {

/// Writer-side counters. Network I/O counts live in sim::Network; these are
/// engine-level events.
struct EngineStats {
  uint64_t txns_started = 0;
  uint64_t txns_committed = 0;
  uint64_t txns_aborted = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t deletes = 0;
  uint64_t storage_page_reads = 0;   // cache-miss fetches issued
  uint64_t log_batches_sent = 0;     // batch sends (x6 replicas on the wire)
  uint64_t log_records_sent = 0;
  uint64_t log_bytes_generated = 0;  // bytes of redo produced (pre-fanout)
  uint64_t backpressure_stalls = 0;  // ops deferred by the LAL (§4.2.1)
  uint64_t batch_retries = 0;
  uint64_t read_retries = 0;
  /// Allocator free-list traffic: pages returned by empty-leaf unlinking
  /// and pages handed back out instead of growing the page space (§5 undo
  /// churn must reach a steady-state footprint).
  uint64_t pages_freed = 0;
  uint64_t pages_reused = 0;
  /// Storage rejections carrying a newer volume epoch (this writer has been
  /// superseded); the first one demotes the writer (see fenced()).
  uint64_t fenced_rejections = 0;
  /// Membership-config refreshes forced by kStaleConfig NAKs from storage
  /// (a repair/migration moved a replica while this writer held the old
  /// member list). Each one re-reads the control plane and resends.
  uint64_t stale_config_refreshes = 0;
  /// Frames that failed the fabric checksum at this node and were dropped.
  uint64_t corrupt_frames_dropped = 0;
  /// Bytes NOT re-serialized thanks to single-encode fan-out: the shared
  /// WriteBatchMsg body is encoded once per (re)send and shared across the
  /// 6 segment replicas; this accumulates (sends - 1) * body_size.
  uint64_t batch_encode_bytes_saved = 0;
  Histogram commit_latency_us;
  Histogram read_latency_us;
  Histogram write_latency_us;
  // Write-path stage tracing (Figure 9-style breakdown): per-batch
  // timestamps at append -> flush -> first storage ack -> write quorum.
  Histogram batch_append_to_flush_us;
  Histogram batch_flush_to_first_ack_us;
  Histogram batch_first_ack_to_quorum_us;
  Histogram batch_append_to_quorum_us;
  // Read-path tracing: storage fetch round trip and how many segment
  // replicas were tried before one served the page.
  Histogram page_fetch_latency_us;
  Histogram read_retry_depth;

  /// Every member once, under its exported metric name.
  template <typename F>
  static constexpr void Fields(F f) {
    using S = EngineStats;
    f("txns_started", &S::txns_started);
    f("txns_committed", &S::txns_committed);
    f("txns_aborted", &S::txns_aborted);
    f("reads", &S::reads);
    f("writes", &S::writes);
    f("deletes", &S::deletes);
    f("storage_page_reads", &S::storage_page_reads);
    f("log_batches_sent", &S::log_batches_sent);
    f("log_records_sent", &S::log_records_sent);
    f("log_bytes_generated", &S::log_bytes_generated);
    f("backpressure_stalls", &S::backpressure_stalls);
    f("batch_retries", &S::batch_retries);
    f("read_retries", &S::read_retries);
    f("pages_freed", &S::pages_freed);
    f("pages_reused", &S::pages_reused);
    f("fenced_rejections", &S::fenced_rejections);
    f("stale_config_refreshes", &S::stale_config_refreshes);
    f("corrupt_frames_dropped", &S::corrupt_frames_dropped);
    f("batch_encode_bytes_saved", &S::batch_encode_bytes_saved);
    f("commit_latency_us", &S::commit_latency_us);
    f("read_latency_us", &S::read_latency_us);
    f("write_latency_us", &S::write_latency_us);
    f("trace.append_to_flush_us", &S::batch_append_to_flush_us);
    f("trace.flush_to_first_ack_us", &S::batch_flush_to_first_ack_us);
    f("trace.first_ack_to_quorum_us", &S::batch_first_ack_to_quorum_us);
    f("trace.append_to_quorum_us", &S::batch_append_to_quorum_us);
    f("trace.page_fetch_latency_us", &S::page_fetch_latency_us);
    f("trace.read_retry_depth", &S::read_retry_depth);
  }
};

/// The Aurora database engine — the single writer instance of Figure 3/5.
///
/// It keeps the top three-quarters of a traditional kernel (transactions,
/// locking, buffer cache, B+-tree access methods, undo management) and
/// offloads redo logging, durable storage, page materialization and crash
/// recovery to the storage service: the only thing it ever sends storage is
/// redo log records (§3.2).
///
/// All public operations are asynchronous (the simulation is event-driven):
/// they may complete synchronously or via the supplied callback, exactly
/// once either way.
///
/// The redo log itself — LSNs, batches, the VDL and the recovery protocol
/// that rebuilds them — is the LogWriter's, and locking, undo and rollback
/// are the Transactions layer it shares with the MySQL baseline. The engine
/// keeps its undo durable in the system trees, appends each MTR to the log
/// and, per §4:
///  - holds statements back while the log is past the LAL;
///  - runs asynchronous group commit (a commit completes when VDL >= its
///    commit LSN — worker threads never stall on commits), on the log's
///    VDL-moved callback;
///  - reads a single segment at the VDL (no read quorum in the normal
///    path), and broadcasts the PGMRPL for storage GC;
///  - after the log's recovery, undoes in-flight transactions online.
class Database : public PageProvider, private LogOwner, private TxnOwner {
 public:
  Database(sim::EventLoop* loop, sim::Network* network, sim::NodeId node_id,
           sim::Instance* instance, ControlPlane* control_plane,
           EngineOptions options, Random rng);
  ~Database() override;

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // --- Volume lifecycle ----------------------------------------------------
  /// Formats a brand-new volume (meta page + system trees) and waits for
  /// durability.
  void Bootstrap(std::function<void(Status)> done);

  /// Crash recovery (§4.3): runs the volume recovery protocol against the
  /// storage fleet, then rolls back in-flight transactions. `done` fires
  /// when the database is open for traffic (undo completes in background;
  /// see set_undo_complete_callback).
  void Recover(std::function<void(Status)> done);

  /// Simulates an instance crash: all volatile state (cache, locks, active
  /// txns, unflushed batches) is discarded. Call Recover() to come back.
  void Crash();

  /// Fires when background undo of in-flight transactions finishes after
  /// Recover().
  void set_undo_complete_callback(std::function<void()> cb) {
    undo_complete_cb_ = std::move(cb);
  }

  // --- Schema ---------------------------------------------------------------
  void CreateTable(const std::string& name, std::function<void(Status)> done);
  /// Anchor page id for a table; NotFound if absent.
  Result<PageId> TableAnchor(const std::string& name);

  /// Registers a pre-loaded (snapshot-restored) table without writing its
  /// pages through the log: reserves a page-id range in the allocator and
  /// adds the catalog entry. `plan` receives the first reserved page id and
  /// returns how many pages to reserve (the caller builds its synthetic
  /// layout there). Completes with the anchor page id once durable.
  void AttachPreloadedTable(const std::string& name,
                            std::function<uint64_t(PageId)> plan,
                            std::function<void(Result<PageId>)> done);

  /// Online DDL (§7.3): bumps the table's schema version. Existing pages
  /// upgrade lazily on modification (modify-on-write); readers decode rows
  /// using the per-page version. Returns the new version.
  void AlterTableSchema(const std::string& name,
                        std::function<void(Result<uint32_t>)> done);

  // --- Transactions ----------------------------------------------------------
  TxnId Begin();
  /// Upsert. The value replaces any existing value for the key.
  void Put(TxnId txn, PageId table, const std::string& key,
           const std::string& value, std::function<void(Status)> done);
  /// Point read (S-locked: repeatable read).
  void Get(TxnId txn, PageId table, const std::string& key,
           std::function<void(Result<std::string>)> done);
  /// Snapshot point read — no lock. A row another undecided transaction
  /// changed reads as it was before that transaction's first change; the
  /// reader `txn` sees its own changes.
  void SnapshotGet(TxnId txn, PageId table, const std::string& key,
                   std::function<void(Result<std::string>)> done);
  void Delete(TxnId txn, PageId table, const std::string& key,
              std::function<void(Status)> done);
  /// Range scan of up to `limit` rows starting at `start`. It takes no
  /// lock and reads the rows as they stand, another transaction's
  /// uncommitted changes included.
  void Scan(TxnId txn, PageId table, const std::string& start, int limit,
            std::function<void(
                Result<std::vector<std::pair<std::string, std::string>>>)>
                done);
  void Commit(TxnId txn, std::function<void(Status)> done);
  void Rollback(TxnId txn, std::function<void(Status)> done) {
    txns_.Rollback(txn, std::move(done));
  }

  /// Zero-Downtime Patching (§7.4, Figure 12): waits for an instant with no
  /// in-flight transactions (new transactions' statements are held at the
  /// engine door meanwhile), "spools" session state, swaps the engine for
  /// `patch_time`, reloads, and releases the held work. In-flight
  /// connections never see an error — unlike a restart, which drops every
  /// session and runs recovery.
  void ZeroDowntimePatch(SimDuration patch_time,
                         std::function<void(Status)> done);
  bool patching() const { return paused_; }

  // --- Replication -----------------------------------------------------------
  void AttachReplica(sim::NodeId replica_node);

  // --- Introspection ----------------------------------------------------------
  Lsn vdl() const { return log_.vdl(); }
  Lsn vcl() const { return log_.vcl(); }
  Lsn next_lsn() const { return log_.next_lsn(); }
  Epoch volume_epoch() const { return log_.volume_epoch(); }
  Lsn max_allocated_lsn() const { return log_.max_allocated(); }
  bool is_open() const { return open_; }
  /// True once storage has rejected this writer with a newer volume epoch
  /// (a replica was promoted while we were partitioned). A fenced writer
  /// stops retrying batches, fails queued and new work with Status::Fenced,
  /// and never acks another commit — graceful demotion, not an endless
  /// retry loop.
  bool fenced() const { return log_.fenced(); }
  bool in_backpressure() const { return log_.in_backpressure(); }
  size_t active_txns() const { return txns_.all().size(); }
  const EngineStats& stats() const { return stats_; }
  BufferPool* buffer_pool() { return &pool_; }
  LockManager* lock_manager() { return txns_.locks(); }
  const EngineOptions& options() const { return options_; }
  sim::NodeId node_id() const { return node_id_; }
  ControlPlane* control_plane() { return control_plane_; }

  // --- PageProvider ------------------------------------------------------------
  Result<Page*> GetPage(PageId id) override { return fetcher_.GetPage(id); }
  Result<Page*> AllocatePage(PageType type, uint8_t level,
                             MiniTransaction* mtr) override;
  Status FreePage(Page* page, MiniTransaction* mtr) override;
  size_t page_size() const override { return options_.page_size; }

 private:
  using Txn = Transactions::Txn;

  /// A durable commit waiting for the VDL to reach its commit LSN.
  struct QueuedCommit {
    Lsn lsn;
    TxnId txn;
    SimTime requested_at;
    std::function<void(Status)> done;
  };

  // --- Op plumbing ---------------------------------------------------------
  /// Unavailable, or Fenced once demoted: why a closed engine refuses work.
  Status ClosedStatus() const;
  /// OK when a statement of `txn` may run: engine open, txn active.
  Status AdmitStatement(TxnId txn);
  /// Charges CPU, then runs.
  void ChargeCpu(SimDuration cost, sim::EventFn then);
  /// Appends `mtr` to the log when `s` is OK, else aborts it; returns `s`.
  Status AppendOrAbort(MiniTransaction* mtr, Status s);
  void DeferForBackpressure(std::function<void()> retry);
  void DrainBackpressure();

  // --- LogOwner ------------------------------------------------------------
  Lsn Pgmrpl() const override;
  /// §4.2.2: a dedicated completion pass acks every commit whose commit
  /// LSN the VDL has passed, then wakes the durability waiters and the
  /// statements held back by the LAL.
  void OnVdlAdvanced() override;
  /// Fails queued commits and waiters and closes the engine, so new
  /// operations fail fast with Status::Fenced.
  void OnFenced() override;
  /// Fetches the system catalog, opens for traffic and starts undo.
  void OnRecovered() override;
  /// Crash and fencing: cancels the fetch timers and drops every fetch and
  /// waiter queued behind durability.
  void StopPipelines();

  // --- TxnOwner --------------------------------------------------------------
  void RunWithRetries(PageFetcher::Attempt attempt,
                      PageFetcher::Done done) override {
    fetcher_.RunWithRetries(std::move(attempt), std::move(done));
  }
  void AppendLog(MiniTransaction* mtr) override { log_.Append(mtr); }
  /// A transaction that wrote is marked aborted in the transaction table
  /// and queued for purge.
  void EndAbort(TxnId txn, PageFetcher::Done then) override;

  // --- Txn internals -----------------------------------------------------------
  /// One MTR: row change + undo append + (lazily) txn-table registration.
  Status WriteRowAttempt(TxnId id, PageId table, const std::string& key,
                         const std::string* value /* null = delete */);
  void PurgeTick();
  void PurgeChain(uint64_t gen, size_t budget);
  /// Purges one chunk of the oldest purgeable transaction, then continues
  /// the chain with `budget - 1`.
  void PurgeOne(uint64_t gen, size_t budget);
  void UndoNextRecoveredTxn(std::shared_ptr<std::vector<TxnId>> actives,
                            size_t idx);

  // --- System trees ------------------------------------------------------------
  static std::string UndoKey(TxnId txn, uint64_t seq);
  static std::string TxnKey(TxnId txn);
  Status EnsureSystemTrees();

  // --- Watermarks ---------------------------------------------------------------
  void PgmrplTick();

  // --- Replication ----------------------------------------------------------------
  void ReplicaShipTick();
  void HandleReplicaReadPoint(const sim::Message& msg);

  // --- Recovery --------------------------------------------------------------
  void StartBackgroundUndo();

  void HandleMessage(const sim::Message& msg);
  void ScheduleTimers();

  sim::EventLoop* loop_;
  sim::Network* network_;
  sim::NodeId node_id_;
  sim::Instance* instance_;
  ControlPlane* control_plane_;
  EngineOptions options_;
  Random rng_;
  EngineStats stats_;

  /// LSNs, batches, watermarks and recovery (§4.2, §4.3).
  LogWriter log_;
  BufferPool pool_;
  /// Open transactions, their row locks and in-memory undo.
  Transactions txns_;
  /// Cache misses: single-segment reads at the VDL carrying the PG's tail,
  /// routed to slots whose acked SCL has reached it (log_ answers both).
  PageFetcher fetcher_;

  // System trees.
  PageId meta_page_id_ = 0;
  std::unique_ptr<BTree> txn_table_;
  std::unique_ptr<BTree> undo_tree_;
  /// Cached schema versions by table anchor (authoritative copy lives in
  /// the catalog records on the meta page).
  std::map<PageId, uint32_t> table_versions_;

  /// Generic durability waiters: fired once VDL reaches the key.
  std::multimap<Lsn, std::function<void()>> durable_waiters_;

  /// Commit queue ordered by commit LSN (§4.2.2): a commit's LSN is
  /// allocated and queued in one step, so it appends in LSN order.
  std::deque<QueuedCommit> commit_queue_;
  std::deque<std::function<void()>> backpressure_queue_;
  std::deque<TxnId> purge_queue_;

  // Replication.
  std::vector<sim::NodeId> replicas_;
  std::vector<LogRecord> replica_stream_buffer_;
  std::vector<std::pair<Lsn, uint64_t>> replica_commit_buffer_;
  std::map<sim::NodeId, Lsn> replica_read_points_;
  Lsn last_shipped_vdl_ = kInvalidLsn;
  PgId pgmrpl_cursor_ = 0;

  // Recovery.
  std::function<void(Status)> recover_done_;
  std::function<void()> undo_complete_cb_;

  // Periodic-tick and ZDP timers; stored so Crash() can cancel them (the
  // generation guard neutralizes late firings, but a cancelled event also
  // releases its closure and its pending-queue slot immediately).
  sim::EventId pgmrpl_timer_ = 0;
  sim::EventId purge_timer_ = 0;
  sim::EventId ship_timer_ = 0;
  sim::EventId zdp_timer_ = 0;

  bool open_ = false;
  bool paused_ = false;           // ZDP engine swap in progress
  TxnId pause_watermark_ = 0;     // txns >= this are held during ZDP
  uint64_t generation_ = 0;
  Lsn last_broadcast_pgmrpl_ = kInvalidLsn;
  // Scratch state threaded through RunWithRetries attempts (single-threaded
  // event loop; one attempt runs at a time).
  Lsn durable_lsn_for_ddl_ = kInvalidLsn;
  uint32_t ddl_result_version_ = 0;
  bool purge_done_ = false;
};

}  // namespace aurora

#endif  // AURORA_ENGINE_DATABASE_H_
