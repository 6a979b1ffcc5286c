#include "harness/cluster.h"

#include "common/logging.h"

namespace aurora {

AuroraCluster::AuroraCluster(ClusterOptions options)
    : options_(options),
      loop_(static_cast<uint32_t>(options.num_azs)),
      topology_(options.num_azs) {
  loop_.set_workers(static_cast<uint32_t>(
      options_.sim_shards < 1 ? 1 : options_.sim_shards));
  Random rng(options_.seed);
  // The network's fallback loop and every global actor (S3 completions by
  // default, failure injector, repair manager) live on the control shard:
  // they observe and mutate the whole cluster, so they must run at barriers
  // with every shard quiesced.
  network_ = std::make_unique<sim::Network>(loop_.control(), &topology_,
                                            options_.fabric, rng.Fork());
  control_plane_ = std::make_unique<ControlPlane>(&topology_, rng.Fork());
  s3_ = std::make_unique<SimS3>(loop_.control(), SimS3::Options{}, rng.Fork());
  injector_ = std::make_unique<sim::FailureInjector>(
      loop_.control(), network_.get(), &topology_, rng.Fork());

  // Writer instance in AZ 0, homed on AZ 0's shard.
  writer_node_ = topology_.AddNode(0, "writer");
  writer_instance_ =
      std::make_unique<sim::Instance>(loop_.shard(0), options_.writer_instance);
  writer_ = std::make_unique<Database>(loop_.shard(0), network_.get(),
                                       writer_node_, writer_instance_.get(),
                                       control_plane_.get(), options_.engine,
                                       rng.Fork());

  // Read replicas spread across AZs (§4.2.4 allows up to 15); each is homed
  // on its AZ's shard.
  for (int i = 0; i < options_.num_replicas; ++i) {
    sim::AzId az = static_cast<sim::AzId>((i + 1) % options_.num_azs);
    sim::NodeId node = topology_.AddNode(az, "replica-" + std::to_string(i));
    replica_instances_.push_back(std::make_unique<sim::Instance>(
        loop_.shard(az), options_.replica_instance));
    auto replica = std::make_unique<ReadReplica>(
        loop_.shard(az), network_.get(), node, replica_instances_.back().get(),
        control_plane_.get(), writer_node_, options_.engine, rng.Fork());
    writer_->AttachReplica(node);
    replicas_.push_back(std::move(replica));
  }

  // Storage fleet: N hosts per AZ, each homed on its AZ's shard.
  for (int az = 0; az < options_.num_azs; ++az) {
    for (int i = 0; i < options_.storage_nodes_per_az; ++i) {
      sim::NodeId node = topology_.AddNode(
          static_cast<sim::AzId>(az),
          "storage-az" + std::to_string(az) + "-" + std::to_string(i));
      auto sn = std::make_unique<StorageNode>(
          loop_.shard(static_cast<uint32_t>(az)), network_.get(), node,
          control_plane_.get(), s3_.get(), options_.storage, rng.Fork());
      control_plane_->RegisterStorageNode(node, sn.get());
      StorageNode* raw = sn.get();
      injector_->RegisterNode(node, {[raw] { raw->Crash(); },
                                     [raw] { raw->Restart(); }});
      storage_nodes_.push_back(std::move(sn));
    }
  }

  // Topology is complete: shard placement is node -> home AZ, and the fabric
  // derives the PDES lookahead from the minimum cross-shard latency.
  {
    std::vector<uint32_t> shard_of(topology_.num_nodes());
    for (sim::NodeId n = 0; n < topology_.num_nodes(); ++n) {
      shard_of[n] = static_cast<uint32_t>(topology_.az_of(n));
    }
    network_->InstallShardRouting(&loop_, std::move(shard_of));
  }

  repair_ = std::make_unique<RepairManager>(
      loop_.control(), network_.get(), &topology_, control_plane_.get(),
      options_.repair, rng.Fork());
  if (options_.start_repair_manager) repair_->Start();

  RegisterAllMetrics();
}

void AuroraCluster::RegisterAllMetrics() {
  MetricsRegistry* m = &metrics_;

  // --- Engine (the current writer; closures indirect through `this` so
  // they keep reading the promoted engine after a failover) ----------------
  {
    auto stats = [this]() -> const EngineStats& { return writer_->stats(); };
    struct CounterDef {
      const char* name;
      uint64_t EngineStats::*field;
    };
    static constexpr CounterDef kEngineCounters[] = {
        {"txns_started", &EngineStats::txns_started},
        {"txns_committed", &EngineStats::txns_committed},
        {"txns_aborted", &EngineStats::txns_aborted},
        {"reads", &EngineStats::reads},
        {"writes", &EngineStats::writes},
        {"deletes", &EngineStats::deletes},
        {"storage_page_reads", &EngineStats::storage_page_reads},
        {"log_batches_sent", &EngineStats::log_batches_sent},
        {"log_records_sent", &EngineStats::log_records_sent},
        {"log_bytes_generated", &EngineStats::log_bytes_generated},
        {"backpressure_stalls", &EngineStats::backpressure_stalls},
        {"batch_retries", &EngineStats::batch_retries},
        {"read_retries", &EngineStats::read_retries},
        {"batch_encode_bytes_saved", &EngineStats::batch_encode_bytes_saved},
        {"fenced_rejections", &EngineStats::fenced_rejections},
        {"stale_config_refreshes", &EngineStats::stale_config_refreshes},
        {"corrupt_frames_dropped", &EngineStats::corrupt_frames_dropped},
        {"pages_freed", &EngineStats::pages_freed},
        {"pages_reused", &EngineStats::pages_reused},
    };
    for (const CounterDef& def : kEngineCounters) {
      m->RegisterCounter(std::string("engine.writer.") + def.name,
                         [stats, field = def.field] { return stats().*field; });
    }
    struct HistDef {
      const char* name;
      Histogram EngineStats::*field;
    };
    static constexpr HistDef kEngineHists[] = {
        {"commit_latency_us", &EngineStats::commit_latency_us},
        {"read_latency_us", &EngineStats::read_latency_us},
        {"write_latency_us", &EngineStats::write_latency_us},
        {"trace.append_to_flush_us", &EngineStats::batch_append_to_flush_us},
        {"trace.flush_to_first_ack_us",
         &EngineStats::batch_flush_to_first_ack_us},
        {"trace.first_ack_to_quorum_us",
         &EngineStats::batch_first_ack_to_quorum_us},
        {"trace.append_to_quorum_us", &EngineStats::batch_append_to_quorum_us},
        {"trace.page_fetch_latency_us", &EngineStats::page_fetch_latency_us},
        {"trace.read_retry_depth", &EngineStats::read_retry_depth},
    };
    for (const HistDef& def : kEngineHists) {
      m->RegisterHistogram(
          std::string("engine.writer.") + def.name,
          [stats, field = def.field] { return &(stats().*field); });
    }
    m->RegisterGauge("engine.writer.vdl",
                     [this] { return static_cast<double>(writer_->vdl()); });
    m->RegisterGauge("engine.writer.active_txns", [this] {
      return static_cast<double>(writer_->active_txns());
    });

    // Buffer pool and lock manager live inside the engine.
    m->RegisterCounter("engine.writer.cache.hits",
                       [this] { return writer_->buffer_pool()->stats().hits; });
    m->RegisterCounter("engine.writer.cache.misses", [this] {
      return writer_->buffer_pool()->stats().misses;
    });
    m->RegisterCounter("engine.writer.cache.evictions", [this] {
      return writer_->buffer_pool()->stats().evictions;
    });
    m->RegisterCounter("engine.writer.cache.eviction_blocked", [this] {
      return writer_->buffer_pool()->stats().eviction_blocked;
    });
    m->RegisterCounter("engine.writer.cache.installs", [this] {
      return writer_->buffer_pool()->stats().installs;
    });
    m->RegisterCounter("engine.writer.locks.grants", [this] {
      return writer_->lock_manager()->stats().grants;
    });
    m->RegisterCounter("engine.writer.locks.waits", [this] {
      return writer_->lock_manager()->stats().waits;
    });
    m->RegisterCounter("engine.writer.locks.deadlocks", [this] {
      return writer_->lock_manager()->stats().deadlocks;
    });
    m->RegisterCounter("engine.writer.locks.timeouts", [this] {
      return writer_->lock_manager()->stats().timeouts;
    });
  }

  // --- Read replicas (bounds-checked: failover shrinks the vector) --------
  for (size_t i = 0; i < replicas_.size(); ++i) {
    const std::string base = "replica.r" + std::to_string(i) + ".";
    auto alive = [this, i] { return i < replicas_.size(); };
    auto reg = [&](const char* name, auto getter) {
      m->RegisterCounter(base + name, [this, i, alive, getter]() -> uint64_t {
        return alive() ? getter(replicas_[i].get()) : 0;
      });
    };
    reg("records_applied",
        [](ReadReplica* r) { return r->stats().records_applied; });
    reg("records_discarded",
        [](ReadReplica* r) { return r->stats().records_discarded; });
    reg("mtrs_applied", [](ReadReplica* r) { return r->stats().mtrs_applied; });
    reg("reads", [](ReadReplica* r) { return r->stats().reads; });
    reg("storage_page_reads",
        [](ReadReplica* r) { return r->stats().storage_page_reads; });
    reg("corrupt_frames_dropped",
        [](ReadReplica* r) { return r->stats().corrupt_frames_dropped; });
    m->RegisterHistogram(base + "lag_us", [this, i, alive]() -> const Histogram* {
      return alive() ? &replicas_[i]->stats().lag_us : nullptr;
    });
    m->RegisterHistogram(base + "read_latency_us",
                         [this, i, alive]() -> const Histogram* {
                           return alive() ? &replicas_[i]->stats().read_latency_us
                                          : nullptr;
                         });
  }

  // --- Storage fleet (stable for the cluster's lifetime) ------------------
  for (size_t i = 0; i < storage_nodes_.size(); ++i) {
    StorageNode* sn = storage_nodes_[i].get();
    const std::string base = "storage.node" + std::to_string(sn->id()) + ".";
    const StorageNodeStats* s = &sn->stats();
    m->RegisterCounter(base + "batches_received", &s->batches_received);
    m->RegisterCounter(base + "records_received", &s->records_received);
    m->RegisterCounter(base + "acks_sent", &s->acks_sent);
    m->RegisterCounter(base + "page_reads_served", &s->page_reads_served);
    m->RegisterCounter(base + "page_read_errors", &s->page_read_errors);
    const std::string by_cause = base + "page_read_errors_by_cause.";
    m->RegisterCounter(by_cause + "incomplete", &s->read_errors_incomplete);
    m->RegisterCounter(by_cause + "below_floor", &s->read_errors_below_floor);
    m->RegisterCounter(by_cause + "not_found", &s->read_errors_not_found);
    m->RegisterCounter(by_cause + "fenced", &s->read_errors_fenced);
    m->RegisterCounter(by_cause + "stale_config",
                       &s->read_errors_stale_config);
    m->RegisterCounter(by_cause + "corrupt", &s->read_errors_corrupt);
    m->RegisterCounter(base + "gossip_rounds", &s->gossip_rounds);
    m->RegisterCounter(base + "gossip_records_sent", &s->gossip_records_sent);
    m->RegisterCounter(base + "gossip_records_filled",
                       &s->gossip_records_filled);
    m->RegisterCounter(base + "gossip_state_transfers",
                       &s->gossip_state_transfers);
    m->RegisterCounter(base + "records_coalesced", &s->records_coalesced);
    m->RegisterCounter(base + "records_gced", &s->records_gced);
    m->RegisterCounter(base + "scrub_rounds", &s->scrub_rounds);
    m->RegisterCounter(base + "pages_scrubbed", &s->pages_scrubbed);
    m->RegisterCounter(base + "corrupt_pages_found", &s->corrupt_pages_found);
    m->RegisterCounter(base + "corrupt_pages_repaired",
                       &s->corrupt_pages_repaired);
    m->RegisterCounter(base + "read_repairs", &s->read_repairs);
    m->RegisterCounter(base + "stale_config_rejects",
                       &s->stale_config_rejects);
    m->RegisterCounter(base + "torn_write_drops", &s->torn_write_drops);
    m->RegisterCounter(base + "latent_corruptions", &s->latent_corruptions);
    m->RegisterCounter(base + "backup_objects", &s->backup_objects);
    m->RegisterCounter(base + "background_deferrals",
                       &s->background_deferrals);
    m->RegisterCounter(base + "stale_epoch_rejects", &s->stale_epoch_rejects);
    m->RegisterCounter(base + "duplicate_batches", &s->duplicate_batches);
    m->RegisterCounter(base + "corrupt_frames_dropped",
                       &s->corrupt_frames_dropped);
    m->RegisterHistogram(base + "trace.gossip_fill_batch",
                         &s->gossip_fill_batch);
    m->RegisterCounter(base + "page_cache.hits",
                       [sn] { return sn->PageCacheTotals().hits; });
    m->RegisterCounter(base + "page_cache.partial_hits",
                       [sn] { return sn->PageCacheTotals().partial_hits; });
    m->RegisterCounter(base + "page_cache.misses",
                       [sn] { return sn->PageCacheTotals().misses; });
    m->RegisterCounter(base + "page_cache.evictions",
                       [sn] { return sn->PageCacheTotals().evictions; });
    m->RegisterGauge(base + "page_cache.bytes", [sn] {
      return static_cast<double>(sn->PageCacheBytes());
    });
    m->RegisterGauge(base + "hot_log_records", [sn] {
      return static_cast<double>(sn->HotLogRecords());
    });

    sim::Disk* disk = sn->disk();
    m->RegisterCounter(base + "disk.writes", [disk] { return disk->writes(); });
    m->RegisterCounter(base + "disk.reads", [disk] { return disk->reads(); });
    m->RegisterCounter(base + "disk.bytes_written",
                       [disk] { return disk->bytes_written(); });
    m->RegisterCounter(base + "disk.bytes_read",
                       [disk] { return disk->bytes_read(); });
    m->RegisterGauge(base + "disk.backlog_us", [disk] {
      return static_cast<double>(disk->backlog());
    });
  }

  // --- Storage fleet-wide reconstruction-cache totals ---------------------
  {
    auto totals = [this] {
      PageCacheStats t;
      for (const auto& sn : storage_nodes_) {
        PageCacheStats s = sn->PageCacheTotals();
        t.hits += s.hits;
        t.partial_hits += s.partial_hits;
        t.misses += s.misses;
        t.evictions += s.evictions;
      }
      return t;
    };
    m->RegisterCounter("storage.page_cache.hits",
                       [totals] { return totals().hits; });
    m->RegisterCounter("storage.page_cache.partial_hits",
                       [totals] { return totals().partial_hits; });
    m->RegisterCounter("storage.page_cache.misses",
                       [totals] { return totals().misses; });
    m->RegisterCounter("storage.page_cache.evictions",
                       [totals] { return totals().evictions; });
    m->RegisterGauge("storage.page_cache.bytes", [this] {
      uint64_t bytes = 0;
      for (const auto& sn : storage_nodes_) bytes += sn->PageCacheBytes();
      return static_cast<double>(bytes);
    });
  }

  // --- Storage fleet-wide robustness aggregates ---------------------------
  {
    auto sum = [this](uint64_t StorageNodeStats::*field) {
      uint64_t total = 0;
      for (const auto& sn : storage_nodes_) total += sn->stats().*field;
      return total;
    };
    m->RegisterCounter("storage.stale_epoch_rejects", [sum] {
      return sum(&StorageNodeStats::stale_epoch_rejects);
    });
    m->RegisterCounter("storage.stale_config_rejects", [sum] {
      return sum(&StorageNodeStats::stale_config_rejects);
    });
    m->RegisterCounter("storage.duplicate_batches", [sum] {
      return sum(&StorageNodeStats::duplicate_batches);
    });
    m->RegisterCounter("storage.corrupt_frames_dropped", [sum] {
      return sum(&StorageNodeStats::corrupt_frames_dropped);
    });
    // Scrubber / disk-fault posture (§2.2's "continuously verify ... CRCs").
    m->RegisterCounter("storage.scrub.rounds", [sum] {
      return sum(&StorageNodeStats::scrub_rounds);
    });
    m->RegisterCounter("storage.scrub.pages_scrubbed", [sum] {
      return sum(&StorageNodeStats::pages_scrubbed);
    });
    m->RegisterCounter("storage.scrub.corrupt_pages_found", [sum] {
      return sum(&StorageNodeStats::corrupt_pages_found);
    });
    m->RegisterCounter("storage.scrub.corrupt_pages_repaired", [sum] {
      return sum(&StorageNodeStats::corrupt_pages_repaired);
    });
    m->RegisterCounter("storage.scrub.read_repairs", [sum] {
      return sum(&StorageNodeStats::read_repairs);
    });
    m->RegisterCounter("storage.scrub.latent_corruptions", [sum] {
      return sum(&StorageNodeStats::latent_corruptions);
    });
    m->RegisterCounter("storage.scrub.torn_write_drops", [sum] {
      return sum(&StorageNodeStats::torn_write_drops);
    });
    m->RegisterCounter("storage.repair_chunk_crc_drops", [sum] {
      return sum(&StorageNodeStats::repair_chunk_crc_drops);
    });
    m->RegisterCounter("storage.repair_sessions_started", [sum] {
      return sum(&StorageNodeStats::repair_sessions_started);
    });
    m->RegisterCounter("storage.evicted_segments_dropped", [sum] {
      return sum(&StorageNodeStats::evicted_segments_dropped);
    });
  }

  // --- Network fabric ------------------------------------------------------
  {
    sim::Network* net = network_.get();
    m->RegisterCounter("net.total.messages_sent",
                       [net] { return net->total().messages_sent; });
    m->RegisterCounter("net.total.messages_received",
                       [net] { return net->total().messages_received; });
    m->RegisterCounter("net.total.packets_sent",
                       [net] { return net->total().packets_sent; });
    m->RegisterCounter("net.total.bytes_sent",
                       [net] { return net->total().bytes_sent; });
    m->RegisterCounter("net.total.messages_dropped",
                       [net] { return net->total().messages_dropped; });
    m->RegisterCounter("net.adversary.duplicates_injected", [net] {
      return net->adversary().duplicates_injected.load();
    });
    m->RegisterCounter("net.adversary.reordered",
                       [net] { return net->adversary().reordered.load(); });
    m->RegisterCounter("net.adversary.corrupted_injected", [net] {
      return net->adversary().corrupted_injected.load();
    });
    m->RegisterCounter("net.adversary.corrupted_dropped", [net] {
      return net->adversary().corrupted_dropped.load();
    });
    m->RegisterCounter("net.adversary.oneway_blocked",
                       [net] { return net->adversary().oneway_blocked.load(); });
    for (sim::NodeId n = 0; n < topology_.num_nodes(); ++n) {
      const std::string base = "net." + topology_.name_of(n) + ".";
      m->RegisterCounter(base + "messages_sent",
                         [net, n] { return net->stats_of(n).messages_sent; });
      m->RegisterCounter(base + "bytes_sent",
                         [net, n] { return net->stats_of(n).bytes_sent; });
      m->RegisterCounter(base + "packets_sent",
                         [net, n] { return net->stats_of(n).packets_sent; });
      m->RegisterCounter(base + "messages_dropped", [net, n] {
        return net->stats_of(n).messages_dropped;
      });
    }
  }

  // --- Chaos tooling (zeros unless a ChaosEngine/InvariantChecker ran) ----
  m->RegisterCounter("chaos.invariant_checks",
                     &chaos_counters_.invariant_checks);
  m->RegisterCounter("chaos.invariant_violations",
                     &chaos_counters_.invariant_violations);
  m->RegisterCounter("chaos.actions_executed",
                     &chaos_counters_.actions_executed);

  // --- Repair, S3, event loop ---------------------------------------------
  m->RegisterCounter("repair.started",
                     [this] { return repair_->stats().started; });
  m->RegisterCounter("repair.completed",
                     [this] { return repair_->stats().completed; });
  m->RegisterCounter("repair.failed",
                     [this] { return repair_->stats().failed; });
  m->RegisterCounter("repair.chunk_retries",
                     [this] { return repair_->stats().chunk_retries; });
  m->RegisterCounter("repair.donor_failovers",
                     [this] { return repair_->stats().donor_failovers; });
  m->RegisterCounter("repair.bytes_copied",
                     [this] { return repair_->stats().bytes_copied; });
  m->RegisterCounter("repair.concurrent_peak",
                     [this] { return repair_->stats().concurrent_peak; });
  m->RegisterCounter("repair.queued",
                     [this] { return repair_->stats().queued; });
  m->RegisterCounter("repair.no_replacement",
                     [this] { return repair_->stats().no_replacement; });
  m->RegisterCounter("repair.no_donor",
                     [this] { return repair_->stats().no_donor; });
  m->RegisterCounter("repair.transfer_restarts",
                     [this] { return repair_->stats().transfer_restarts; });
  m->RegisterCounter("repair.migrations",
                     [this] { return repair_->stats().migrations; });
  m->RegisterHistogram("repair.mttr_us",
                       [this] { return repair_->mttr_histogram(); });
  m->RegisterCounter("s3.objects", [this] { return s3_->num_objects(); });
  m->RegisterCounter("s3.bytes_stored", [this] { return s3_->bytes_stored(); });
  m->RegisterCounter("s3.puts", [this] { return s3_->puts(); });
  m->RegisterCounter("s3.gets", [this] { return s3_->gets(); });
  m->RegisterCounter("sim.events_executed",
                     [this] { return loop_.events_executed(); });
  m->RegisterGauge("sim.now_us",
                   [this] { return static_cast<double>(loop_.now()); });
  // Event-queue internals: executed events, lazily-cancelled tombstones and
  // the heap high-water mark (live + not-yet-purged entries).
  m->RegisterCounter("sim.loop.events_executed",
                     [this] { return loop_.events_executed(); });
  m->RegisterCounter("sim.loop.tombstones",
                     [this] { return loop_.tombstones(); });
  m->RegisterCounter("sim.loop.heap_peak",
                     [this] { return static_cast<uint64_t>(loop_.heap_peak()); });

  // --- PDES coordinator (DESIGN.md §11) -----------------------------------
  // Per logical shard plus coordinator totals. All deterministic: functions
  // of the partition and the event set, never of the worker-thread count.
  // (Barrier stall wall-clock is intentionally absent — it is measured per
  // run and belongs in bench JSON, not in a deterministic dump.)
  for (uint32_t s = 0; s < loop_.num_shards(); ++s) {
    const std::string base = "sim.loop.shard" + std::to_string(s) + ".";
    sim::EventLoop* shard = loop_.shard(s);
    m->RegisterCounter(base + "events_executed",
                       [shard] { return shard->events_executed(); });
    m->RegisterCounter(base + "tombstones",
                       [shard] { return shard->tombstones(); });
    m->RegisterCounter(base + "heap_peak", [shard] {
      return static_cast<uint64_t>(shard->heap_peak());
    });
  }
  m->RegisterCounter("sim.pdes.horizon_syncs",
                     [this] { return loop_.horizon_syncs(); });
  m->RegisterCounter("sim.pdes.mailbox_msgs",
                     [this] { return loop_.mailbox_msgs(); });
}

void AuroraCluster::EnsurePgMetricsRegistered() {
  const PgId total = static_cast<PgId>(control_plane_->num_pgs());
  for (PgId pg = next_pg_metric_; pg < total; ++pg) {
    const std::string base = "storage.pg" + std::to_string(pg) + ".";
    ControlPlane* cp = control_plane_.get();
    // Visits the PG's live, materialized segment replicas. Replicas on
    // crashed hosts (or not yet materialized) are skipped: the gauges
    // describe what the fleet can currently serve.
    auto for_each_live = [cp, pg](auto fn) {
      for (sim::NodeId n : cp->membership(pg).nodes) {
        StorageNode* sn = cp->node(n);
        if (sn == nullptr || sn->crashed()) continue;
        const Segment* seg = sn->segment(pg);
        if (seg == nullptr) continue;
        fn(*seg);
      }
    };
    metrics_.RegisterGauge(base + "scl_spread", [for_each_live] {
      // Freshness skew: max - min segment-complete LSN across replicas.
      uint64_t lo = 0, hi = 0;
      bool seen = false;
      for_each_live([&](const Segment& seg) {
        const uint64_t scl = seg.scl();
        if (!seen || scl < lo) lo = scl;
        if (!seen || scl > hi) hi = scl;
        seen = true;
      });
      return seen ? static_cast<double>(hi - lo) : 0.0;
    });
    metrics_.RegisterGauge(base + "hole_depth", [for_each_live] {
      // Deepest gossip debt: records received beyond the first hole.
      uint64_t depth = 0;
      for_each_live([&](const Segment& seg) {
        const uint64_t d =
            seg.max_lsn() > seg.scl() ? seg.max_lsn() - seg.scl() : 0;
        if (d > depth) depth = d;
      });
      return static_cast<double>(depth);
    });
    metrics_.RegisterGauge(base + "backup_lag", [for_each_live] {
      // Widest backup window: complete records not yet staged to S3.
      uint64_t lag = 0;
      for_each_live([&](const Segment& seg) {
        const uint64_t d =
            seg.scl() > seg.backup_lsn() ? seg.scl() - seg.backup_lsn() : 0;
        if (d > lag) lag = d;
      });
      return static_cast<double>(lag);
    });
  }
  next_pg_metric_ = total;
}

AuroraCluster::~AuroraCluster() = default;

StorageNode* AuroraCluster::storage_node_by_id(sim::NodeId id) {
  for (auto& sn : storage_nodes_) {
    if (sn->id() == id) return sn.get();
  }
  return nullptr;
}

void AuroraCluster::CrashWriter() { writer_->Crash(); }

Status AuroraCluster::FailoverToReplicaSync(size_t i) {
  if (i >= replicas_.size()) {
    return Status::InvalidArgument("no such replica");
  }
  writer_->Crash();
  // Unhook the dead writer's network identity before destroying it (its
  // handler closure captures the object).
  network_->Register(writer_node_, sim::Network::Handler());
  // Promote: the replica's host becomes the writer. Registering the new
  // engine takes over the node's network identity; the old replica object
  // is retired.
  sim::NodeId node = replicas_[i]->node_id();
  replicas_[i]->Crash();
  sim::Instance* instance = replica_instances_[i].get();
  Random rng(options_.seed ^ (0x9E3779B97F4A7C15ull + i));
  // The promoted engine stays homed on its host's AZ shard.
  auto promoted = std::make_unique<Database>(
      loop_.shard(topology_.az_of(node)), network_.get(), node, instance,
      control_plane_.get(), options_.engine, rng.Fork());
  // Surviving replicas follow the new writer.
  for (size_t r = 0; r < replicas_.size(); ++r) {
    if (r == i) continue;
    promoted->AttachReplica(replicas_[r]->node_id());
  }
  retired_replicas_.push_back(std::move(replicas_[i]));
  replicas_.erase(replicas_.begin() + static_cast<long>(i));
  // Keep the replaced instance object alive alongside the promoted engine
  // (the new writer runs on it).
  retired_writers_.push_back(std::move(writer_));
  writer_ = std::move(promoted);
  writer_node_ = node;
  return RecoverSync();
}

Status AuroraCluster::PromoteReplicaSync(size_t i) {
  if (i >= replicas_.size()) {
    return Status::InvalidArgument("no such replica");
  }
  // The old writer is NOT crashed and keeps its network registration: it
  // continues to run with its stale volume epoch until storage fences it.
  sim::NodeId node = replicas_[i]->node_id();
  replicas_[i]->Crash();
  sim::Instance* instance = replica_instances_[i].get();
  Random rng(options_.seed ^ (0xC2B2AE3D27D4EB4Full + i));
  auto promoted = std::make_unique<Database>(
      loop_.shard(topology_.az_of(node)), network_.get(), node, instance,
      control_plane_.get(), options_.engine, rng.Fork());
  for (size_t r = 0; r < replicas_.size(); ++r) {
    if (r == i) continue;
    promoted->AttachReplica(replicas_[r]->node_id());
  }
  retired_replicas_.push_back(std::move(replicas_[i]));
  replicas_.erase(replicas_.begin() + static_cast<long>(i));
  retired_writers_.push_back(std::move(writer_));
  writer_ = std::move(promoted);
  writer_node_ = node;
  // Quorum recovery bumps the volume epoch and truncates the old writer's
  // unacknowledged tail; from here on the zombie's batches are NAKed.
  return RecoverSync();
}

bool AuroraCluster::RunUntil(std::function<bool()> pred, SimDuration max) {
  const SimTime deadline = loop_.now() + max;
  while (!pred() && loop_.now() < deadline) {
    if (!loop_.RunOne()) {
      // Queue drained before the predicate held.
      return pred();
    }
  }
  return pred();
}

Status AuroraCluster::BootstrapSync() {
  Status result = Status::TimedOut("bootstrap did not finish");
  bool done = false;
  writer_->Bootstrap([&](Status s) {
    result = s;
    done = true;
  });
  RunUntil([&] { return done; }, Seconds(30));
  return result;
}

Status AuroraCluster::RecoverSync() {
  Status result = Status::TimedOut("recovery did not finish");
  bool done = false;
  writer_->Recover([&](Status s) {
    result = s;
    done = true;
  });
  RunUntil([&] { return done; }, Seconds(120));
  return result;
}

Status AuroraCluster::CreateTableSync(const std::string& name) {
  Status result = Status::TimedOut("create table did not finish");
  bool done = false;
  writer_->CreateTable(name, [&](Status s) {
    result = s;
    done = true;
  });
  RunUntil([&] { return done; }, Seconds(30));
  return result;
}

Result<PageId> AuroraCluster::TableAnchorSync(const std::string& name) {
  // The catalog page is pinned after bootstrap/recovery, so this is
  // synchronous in practice; drive the loop in case it is not resident.
  Result<PageId> r = writer_->TableAnchor(name);
  int spins = 0;
  while (!r.ok() && r.status().IsBusy() && spins++ < 1000) {
    loop_.RunOne();
    r = writer_->TableAnchor(name);
  }
  return r;
}

Status AuroraCluster::PutSync(PageId table, const std::string& key,
                              const std::string& value) {
  Status result = Status::TimedOut("put did not finish");
  bool done = false;
  TxnId txn = writer_->Begin();
  writer_->Put(txn, table, key, value, [&](Status s) {
    if (!s.ok()) {
      result = s;
      done = true;
      return;
    }
    writer_->Commit(txn, [&](Status cs) {
      result = cs;
      done = true;
    });
  });
  RunUntil([&] { return done; }, Seconds(60));
  return result;
}

Result<std::string> AuroraCluster::GetSync(PageId table,
                                           const std::string& key) {
  Result<std::string> result = Status::TimedOut("get did not finish");
  bool done = false;
  TxnId txn = writer_->Begin();
  writer_->Get(txn, table, key, [&](Result<std::string> r) {
    result = std::move(r);
    writer_->Commit(txn, [&](Status) { done = true; });
  });
  RunUntil([&] { return done; }, Seconds(60));
  return result;
}

Status AuroraCluster::DeleteSync(PageId table, const std::string& key) {
  Status result = Status::TimedOut("delete did not finish");
  bool done = false;
  TxnId txn = writer_->Begin();
  writer_->Delete(txn, table, key, [&](Status s) {
    if (!s.ok()) {
      result = s;
      done = true;
      return;
    }
    writer_->Commit(txn, [&](Status cs) {
      result = cs;
      done = true;
    });
  });
  RunUntil([&] { return done; }, Seconds(60));
  return result;
}

Result<std::string> AuroraCluster::ReplicaGetSync(size_t replica,
                                                  PageId table,
                                                  const std::string& key) {
  Result<std::string> result = Status::TimedOut("replica get did not finish");
  bool done = false;
  replicas_.at(replica)->Get(table, key, [&](Result<std::string> r) {
    result = std::move(r);
    done = true;
  });
  RunUntil([&] { return done; }, Seconds(60));
  return result;
}

}  // namespace aurora
