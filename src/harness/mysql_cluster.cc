#include "harness/mysql_cluster.h"

#include "harness/sync_ops.h"

namespace aurora {

namespace {

// Cost for a binlog replica's single SQL thread to re-execute one
// statement. Much higher than the primary's per-statement CPU: the applier
// runs serially and pays the row I/O the primary amortizes across many
// connections (MySQL 5.6-era single-threaded replication).
constexpr SimDuration kBinlogApplyCost = Micros(800);

}  // namespace

MysqlCluster::MysqlCluster(MysqlClusterOptions options)
    : options_(options), loop_(2), topology_(3) {
  loop_.set_workers(static_cast<uint32_t>(
      options_.sim_shards < 1 ? 1 : options_.sim_shards));
  Random rng(options_.seed);
  network_ = std::make_unique<sim::Network>(loop_.control(), &topology_,
                                            options_.fabric, rng.Fork());
  s3_ = std::make_unique<SimS3>(loop_.control(), SimS3::Options{}, rng.Fork());

  // Figure 2 layout: primary instance + its EBS pair in AZ 1, standby
  // instance + its EBS pair in AZ 2. The whole complex is one MirroredMySql
  // object, so all six nodes are homed on shard 0 regardless of AZ — the
  // PDES partition follows object ownership, not geography.
  const sim::NodeId db_node = topology_.AddNode(0, "mysql-primary");
  baseline::MirroredMySql::NodeSet nodes;
  nodes.primary_ebs = topology_.AddNode(0, "ebs-primary");
  nodes.primary_ebs_mirror = topology_.AddNode(0, "ebs-primary-mirror");
  nodes.standby = topology_.AddNode(1, "mysql-standby");
  nodes.standby_ebs = topology_.AddNode(1, "ebs-standby");
  nodes.standby_ebs_mirror = topology_.AddNode(1, "ebs-standby-mirror");

  instance_ = std::make_unique<sim::Instance>(loop_.shard(0),
                                              options_.instance);
  db_ = std::make_unique<baseline::MirroredMySql>(
      loop_.shard(0), network_.get(), db_node, instance_.get(), s3_.get(),
      nodes, options_.ebs_disk, options_.mysql, rng.Fork());

  // Binlog replicas in AZ 3, homed on shard 1: they interact with the
  // primary only through binlog messages over the fabric.
  for (int i = 0; i < options_.num_binlog_replicas; ++i) {
    sim::NodeId node = topology_.AddNode(static_cast<sim::AzId>(2),
                                         "binlog-replica-" +
                                             std::to_string(i));
    replicas_.push_back(std::make_unique<baseline::BinlogReplica>(
        loop_.shard(1), network_.get(), node, kBinlogApplyCost));
    db_->AttachBinlogReplica(node);
  }

  {
    std::vector<uint32_t> shard_of(topology_.num_nodes(), 0);
    for (sim::NodeId n = 6; n < topology_.num_nodes(); ++n) shard_of[n] = 1;
    network_->InstallShardRouting(&loop_, std::move(shard_of));
  }

  RegisterAllMetrics();
}

void MysqlCluster::RegisterAllMetrics() {
  MetricsRegistry* m = &metrics_;
  // Getters indirect through db_, which lives as long as the cluster (the
  // baseline has no failover).
  m->RegisterFields("engine.mysql.", [this] { return &db_->stats(); });
  m->RegisterFields("engine.mysql.locks.",
                    [this] { return &db_->lock_manager()->stats(); });
  m->RegisterGauge("engine.mysql.flushed_lsn", [this] {
    return static_cast<double>(db_->flushed_lsn());
  });
  m->RegisterGauge("engine.mysql.checkpoint_lsn", [this] {
    return static_cast<double>(db_->checkpoint_lsn());
  });
  m->RegisterGauge("engine.mysql.dirty_pages", [this] {
    return static_cast<double>(db_->dirty_pages());
  });
  m->RegisterFields("net.total.", [this] { return network_->total(); });
  loop_.RegisterMetrics(m);
}

MysqlCluster::~MysqlCluster() = default;

bool MysqlCluster::RunUntil(std::function<bool()> pred, SimDuration max) {
  return RunLoopUntil(&loop_, pred, max);
}

Status MysqlCluster::BootstrapSync() {
  return RunSync<Status>(this, "bootstrap did not finish", Seconds(60),
                         [&](auto done) { db_->Bootstrap(done); });
}

Status MysqlCluster::RecoverSync() {
  return RunSync<Status>(this, "recovery did not finish", Minutes(30),
                         [&](auto done) { db_->Recover(done); });
}

Status MysqlCluster::CreateTableSync(const std::string& name) {
  return RunSync<Status>(this, "create table did not finish", Seconds(60),
                         [&](auto done) { db_->CreateTable(name, done); });
}

Result<PageId> MysqlCluster::TableAnchorSync(const std::string& name) {
  Result<PageId> r = db_->TableAnchor(name);
  int spins = 0;
  while (!r.ok() && r.status().IsBusy() && spins++ < 100000) {
    if (!loop_.RunOne()) break;
    r = db_->TableAnchor(name);
  }
  return r;
}

Status MysqlCluster::PutSync(PageId table, const std::string& key,
                             const std::string& value) {
  return StatementSync(this, db_.get(), "put did not finish",
                       [&](TxnId txn, auto done) {
                         db_->Put(txn, table, key, value, done);
                       });
}

Result<std::string> MysqlCluster::GetSync(PageId table,
                                          const std::string& key) {
  return ReadSync(this, db_.get(), table, key);
}

}  // namespace aurora
