#include "harness/cluster.h"

#include "common/logging.h"
#include "harness/sync_ops.h"

namespace aurora {

namespace {

// The region's AZs (§2.1); each is one simulation shard.
constexpr int kNumAzs = 3;

}  // namespace

AuroraCluster::AuroraCluster(ClusterOptions options)
    : options_(options), loop_(kNumAzs), topology_(kNumAzs) {
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
    sim::AzId az = static_cast<sim::AzId>((i + 1) % kNumAzs);
    sim::NodeId node = topology_.AddNode(az, "replica-" + std::to_string(i));
    replica_instances_.push_back(
        std::make_unique<sim::Instance>(loop_.shard(az), sim::R38XLarge()));
    auto replica = std::make_unique<ReadReplica>(
        loop_.shard(az), network_.get(), node, replica_instances_.back().get(),
        control_plane_.get(), writer_node_, options_.engine, rng.Fork());
    writer_->AttachReplica(node);
    replicas_.push_back(std::move(replica));
  }

  // Storage fleet: N hosts per AZ, each homed on its AZ's shard.
  for (int az = 0; az < kNumAzs; ++az) {
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

  // --- Engine (the current writer; getters indirect through `this` so
  // they keep reading the promoted engine after a failover) ----------------
  m->RegisterFields("engine.writer.", [this] { return &writer_->stats(); });
  m->RegisterFields("engine.writer.cache.",
                    [this] { return &writer_->buffer_pool()->stats(); });
  m->RegisterFields("engine.writer.locks.",
                    [this] { return &writer_->lock_manager()->stats(); });
  m->RegisterGauge("engine.writer.vdl",
                   [this] { return static_cast<double>(writer_->vdl()); });
  m->RegisterGauge("engine.writer.active_txns", [this] {
    return static_cast<double>(writer_->active_txns());
  });

  // --- Read replicas: each name stays bound to its replica object, which
  // retired_replicas_ keeps alive after a promotion, so survivors keep
  // their names and a promoted replica's counters hold their final totals.
  for (size_t i = 0; i < replicas_.size(); ++i) {
    const ReadReplica* r = replicas_[i].get();
    m->RegisterFields("replica.r" + std::to_string(i) + ".",
                      [r] { return &r->stats(); });
  }

  // --- Storage fleet (stable for the cluster's lifetime) ------------------
  for (const auto& node : storage_nodes_) {
    StorageNode* sn = node.get();
    const std::string base = "storage.node" + std::to_string(sn->id()) + ".";
    m->RegisterFields(base, [sn] { return &sn->stats(); });
    m->RegisterFields(base + "page_cache.",
                      [sn] { return sn->PageCacheTotals(); });
    m->RegisterGauge(base + "page_cache.bytes", [sn] {
      return static_cast<double>(sn->SumSegments(&Segment::page_cache_bytes));
    });
    m->RegisterGauge(base + "hot_log_records", [sn] {
      return static_cast<double>(sn->SumSegments(&Segment::hot_log_size));
    });
    m->RegisterGauge(base + "hot_log_runs", [sn] {
      return static_cast<double>(sn->SumSegments(&Segment::hot_log_runs));
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

  // --- Storage fleet-wide totals ------------------------------------------
  m->RegisterFields("storage.page_cache.", [this] {
    PageCacheStats total;
    for (const auto& sn : storage_nodes_) {
      AddFields(&total, sn->PageCacheTotals());
    }
    return total;
  });
  m->RegisterGauge("storage.page_cache.bytes", [this] {
    uint64_t bytes = 0;
    for (const auto& sn : storage_nodes_) {
      bytes += sn->SumSegments(&Segment::page_cache_bytes);
    }
    return static_cast<double>(bytes);
  });
  // Robustness sums under their historical names; scrub.* is §2.2's
  // "continuously verify ... CRCs" posture.
  using S = StorageNodeStats;
  static constexpr std::pair<const char*, uint64_t S::*> kFleetSums[] = {
      {"stale_epoch_rejects", &S::stale_epoch_rejects},
      {"stale_config_rejects", &S::stale_config_rejects},
      {"duplicate_batches", &S::duplicate_batches},
      {"corrupt_frames_dropped", &S::corrupt_frames_dropped},
      {"scrub.rounds", &S::scrub_rounds},
      {"scrub.pages_scrubbed", &S::pages_scrubbed},
      {"scrub.corrupt_pages_found", &S::corrupt_pages_found},
      {"scrub.corrupt_pages_repaired", &S::corrupt_pages_repaired},
      {"scrub.read_repairs", &S::read_repairs},
      {"scrub.latent_corruptions", &S::latent_corruptions},
      {"scrub.torn_write_drops", &S::torn_write_drops},
      {"repair_chunk_crc_drops", &S::repair_chunk_crc_drops},
      {"repair_sessions_started", &S::repair_sessions_started},
      {"evicted_segments_dropped", &S::evicted_segments_dropped},
  };
  for (const auto& [name, field] : kFleetSums) {
    m->RegisterCounter(std::string("storage.") + name, [this, field] {
      uint64_t total = 0;
      for (const auto& sn : storage_nodes_) total += sn->stats().*field;
      return total;
    });
  }

  // --- Network fabric ------------------------------------------------------
  sim::Network* net = network_.get();
  m->RegisterFields("net.total.", [net] { return net->total(); });
  m->RegisterFields("net.adversary.", [net] { return &net->adversary(); });
  for (sim::NodeId n = 0; n < topology_.num_nodes(); ++n) {
    m->RegisterFields("net." + topology_.name_of(n) + ".",
                      [net, n] { return &net->stats_of(n); });
  }

  // --- Chaos tooling (zeros unless a ChaosEngine/InvariantChecker ran),
  // repair, S3 and the event loop ------------------------------------------
  m->RegisterFields("chaos.", [this] { return &chaos_counters_; });
  m->RegisterFields("repair.", [this] { return &repair_->stats(); });
  m->RegisterCounter("s3.objects", [this] { return s3_->num_objects(); });
  m->RegisterCounter("s3.bytes_stored", [this] { return s3_->bytes_stored(); });
  m->RegisterCounter("s3.puts", [this] { return s3_->puts(); });
  m->RegisterCounter("s3.gets", [this] { return s3_->gets(); });
  loop_.RegisterMetrics(m);
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
  return RunLoopUntil(&loop_, pred, max);
}

Status AuroraCluster::BootstrapSync() {
  return RunSync<Status>(this, "bootstrap did not finish", Seconds(30),
                         [&](auto done) { writer_->Bootstrap(done); });
}

Status AuroraCluster::RecoverSync() {
  return RunSync<Status>(this, "recovery did not finish", Seconds(120),
                         [&](auto done) { writer_->Recover(done); });
}

Status AuroraCluster::CreateTableSync(const std::string& name) {
  return RunSync<Status>(this, "create table did not finish", Seconds(30),
                         [&](auto done) { writer_->CreateTable(name, done); });
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
  return StatementSync(this, writer_.get(), "put did not finish",
                       [&](TxnId txn, auto done) {
                         writer_->Put(txn, table, key, value, done);
                       });
}

Result<std::string> AuroraCluster::GetSync(PageId table,
                                           const std::string& key) {
  return ReadSync(this, writer_.get(), table, key);
}

Status AuroraCluster::DeleteSync(PageId table, const std::string& key) {
  return StatementSync(this, writer_.get(), "delete did not finish",
                       [&](TxnId txn, auto done) {
                         writer_->Delete(txn, table, key, done);
                       });
}

Result<std::string> AuroraCluster::ReplicaGetSync(size_t replica,
                                                  PageId table,
                                                  const std::string& key) {
  return RunSync<Result<std::string>>(
      this, "replica get did not finish", Seconds(60), [&](auto done) {
        replicas_.at(replica)->Get(table, key, done);
      });
}

}  // namespace aurora
