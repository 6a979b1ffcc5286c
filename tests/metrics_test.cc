#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstring>
#include <fstream>
#include <set>
#include <string>

#include "common/metrics.h"
#include "harness/cluster.h"
#include "harness/mysql_cluster.h"
#include "tests/test_util.h"

namespace aurora {
namespace {

using testing::Key;

// --- Minimal strict JSON syntax checker (no dependencies) -----------------
// Validates the subset the emitter produces: objects, strings, numbers,
// null. Returns true iff `s` is one well-formed JSON value.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool Valid() {
    pos_ = 0;
    if (!Value()) return false;
    Ws();
    return pos_ == s_.size();
  }

 private:
  void Ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool Literal(const char* lit) {
    size_t n = strlen(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  bool String() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool Number() {
    size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() && (isdigit(s_[pos_]) || s_[pos_] == '.' ||
                                s_[pos_] == 'e' || s_[pos_] == 'E' ||
                                s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Object() {
    if (s_[pos_] != '{') return false;
    ++pos_;
    Ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      Ws();
      if (!String()) return false;
      Ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      if (!Value()) return false;
      Ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool Value() {
    Ws();
    if (pos_ >= s_.size()) return false;
    char c = s_[pos_];
    if (c == '{') return Object();
    if (c == '"') return String();
    if (c == 'n') return Literal("null");
    return Number();
  }

  const std::string& s_;
  size_t pos_ = 0;
};

TEST(MetricsRegistryTest, RegisterSnapshotAndRead) {
  MetricsRegistry reg;
  uint64_t counter = 7;
  Histogram hist;
  hist.Record(100);
  hist.Record(200);
  reg.RegisterCounter("a.b.count", [&counter] { return counter; });
  reg.RegisterCounter("a.b.fn_count", [] { return uint64_t{11}; });
  reg.RegisterGauge("a.depth", [] { return 2.5; });
  reg.RegisterHistogram("a.lat_us", &hist);
  EXPECT_EQ(reg.size(), 4u);

  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("a.b.count"), 7u);
  EXPECT_EQ(snap.counters.at("a.b.fn_count"), 11u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("a.depth"), 2.5);
  EXPECT_EQ(snap.histograms.at("a.lat_us").count, 2u);
  EXPECT_EQ(snap.histograms.at("a.lat_us").min, 100u);

  // Snapshots are point-in-time: later mutation is invisible to them but
  // visible to a fresh snapshot.
  counter = 50;
  hist.Record(300);
  EXPECT_EQ(snap.counters.at("a.b.count"), 7u);
  EXPECT_EQ(reg.Snapshot().counters.at("a.b.count"), 50u);
  EXPECT_EQ(reg.Snapshot().histograms.at("a.lat_us").count, 3u);
}

TEST(MetricsRegistryTest, ReRegistrationReplaces) {
  MetricsRegistry reg;
  reg.RegisterCounter("x.one", [] { return uint64_t{1}; });
  reg.RegisterCounter("x.one", [] { return uint64_t{2}; });  // replaces
  reg.RegisterCounter("x.two", [] { return uint64_t{3}; });
  reg.RegisterCounter("y.one", [] { return uint64_t{4}; });
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_EQ(reg.Snapshot().counters.at("x.one"), 2u);
}

struct ToyStats {
  uint64_t plain = 0;
  std::atomic<uint64_t> atomic{0};
  Histogram latency_us;

  template <typename F>
  static constexpr void Fields(F f) {
    f("plain", &ToyStats::plain);
    f("renamed.atomic", &ToyStats::atomic);
    f("latency_us", &ToyStats::latency_us);
  }
};

struct ToyTotals {
  uint64_t a = 0;
  uint64_t b = 0;

  template <typename F>
  static constexpr void Fields(F f) {
    f("a", &ToyTotals::a);
    f("b", &ToyTotals::b);
  }
};

// A field list registers each member under its listed name, read through
// the getter at snapshot time: by pointer, or by value for a computed sum.
TEST(MetricsRegistryTest, RegisterFieldsWalksTheFieldList) {
  MetricsRegistry reg;
  ToyStats stats;
  reg.RegisterFields("toy.", [&stats] { return &stats; });
  ToyTotals parts[2];
  reg.RegisterFields("sum.", [&parts] {
    ToyTotals total;
    for (const ToyTotals& p : parts) AddFields(&total, p);
    return total;
  });
  EXPECT_EQ(reg.size(), 5u);

  stats.plain = 3;
  stats.atomic = 4;
  stats.latency_us.Record(100);
  parts[0] = {1, 10};
  parts[1] = {2, 20};
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("toy.plain"), 3u);
  EXPECT_EQ(snap.counters.at("toy.renamed.atomic"), 4u);
  EXPECT_EQ(snap.histograms.at("toy.latency_us").count, 1u);
  EXPECT_EQ(snap.counters.at("sum.a"), 3u);
  EXPECT_EQ(snap.counters.at("sum.b"), 30u);
}

TEST(MetricsSnapshotTest, DiffSemantics) {
  MetricsRegistry reg;
  uint64_t counter = 10;
  double level = 1.0;
  Histogram hist;
  hist.Record(50);
  reg.RegisterCounter("c", [&counter] { return counter; });
  reg.RegisterGauge("g", [&level] { return level; });
  reg.RegisterHistogram("h", &hist);

  MetricsSnapshot before = reg.Snapshot();
  counter = 25;
  level = 9.0;
  hist.Record(70);
  hist.Record(90);
  MetricsSnapshot after = reg.Snapshot();

  MetricsSnapshot diff = after.Diff(before);
  EXPECT_EQ(diff.counters.at("c"), 15u);       // delta
  EXPECT_DOUBLE_EQ(diff.gauges.at("g"), 9.0);  // level: keeps "after"
  EXPECT_EQ(diff.histograms.at("h").count, 2u);  // count delta
  // A counter that went backwards (reset) clamps to zero.
  counter = 3;
  EXPECT_EQ(reg.Snapshot().Diff(before).counters.at("c"), 0u);
}

TEST(MetricsSnapshotTest, MergeWithPrefix) {
  MetricsSnapshot a, b;
  b.counters["x"] = 1;
  b.gauges["y"] = 2.0;
  a.MergeWithPrefix("sub", b);
  EXPECT_EQ(a.counters.at("sub.x"), 1u);
  EXPECT_DOUBLE_EQ(a.gauges.at("sub.y"), 2.0);
}

TEST(MetricsSnapshotTest, JsonIsWellFormedAndNested) {
  MetricsRegistry reg;
  uint64_t c = 42;
  Histogram h;
  h.Record(123);
  reg.RegisterCounter("engine.writer.txns", [&c] { return c; });
  reg.RegisterCounter("storage.node3.gossip_rounds", [] { return uint64_t{9}; });
  reg.RegisterGauge("engine.writer.vdl", [] { return 1e6; });
  reg.RegisterHistogram("engine.writer.commit_latency_us", &h);
  // Pathological names: leaf/prefix collision and escaping.
  reg.RegisterCounter("engine.writer", [] { return uint64_t{1}; });
  reg.RegisterCounter("weird.\"quoted\\name\"", [] { return uint64_t{2}; });

  std::string json = reg.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"engine\""), std::string::npos);
  EXPECT_NE(json.find("\"gossip_rounds\":9"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);

  EXPECT_TRUE(JsonChecker(MetricsSnapshot().ToJson()).Valid());
}

// --- Cluster integration ---------------------------------------------------

TEST(ClusterMetricsTest, DumpCoversEveryLayerAndTracingPopulates) {
  ClusterOptions o;
  o.engine.page_size = 4096;
  o.engine.pages_per_pg = 64;
  o.num_replicas = 1;
  AuroraCluster cluster(o);
  ASSERT_TRUE(cluster.BootstrapSync().ok());
  ASSERT_TRUE(cluster.CreateTableSync("t").ok());
  PageId table = *cluster.TableAnchorSync("t");

  MetricsSnapshot before = cluster.metrics()->Snapshot();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(cluster.PutSync(table, Key(i), "v" + std::to_string(i)).ok());
  }
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(cluster.GetSync(table, Key(i)).ok());
  }
  cluster.RunFor(Seconds(1));
  MetricsSnapshot after = cluster.metrics()->Snapshot();

  // One document, machine readable, covering every layer.
  std::string json = cluster.DumpMetricsJson();
  EXPECT_TRUE(JsonChecker(json).Valid());
  for (const char* layer :
       {"\"engine\"", "\"replica\"", "\"storage\"", "\"net\"", "\"disk\"",
        "\"cache\"", "\"locks\"", "\"repair\"", "\"s3\"", "\"sim\"",
        "\"trace\""}) {
    EXPECT_NE(json.find(layer), std::string::npos) << layer;
  }

  // The write-path stage tracing histograms populated during the run.
  const auto& hists = after.histograms;
  EXPECT_GT(hists.at("engine.writer.trace.append_to_flush_us").count, 0u);
  EXPECT_GT(hists.at("engine.writer.trace.flush_to_first_ack_us").count, 0u);
  EXPECT_GT(hists.at("engine.writer.trace.first_ack_to_quorum_us").count, 0u);
  EXPECT_GT(hists.at("engine.writer.trace.append_to_quorum_us").count, 0u);
  // Stages compose: append->quorum >= first-ack->quorum at every quantile
  // we expose (the first ack can't come after the quorum ack).
  EXPECT_GE(hists.at("engine.writer.trace.append_to_quorum_us").p50,
            hists.at("engine.writer.trace.first_ack_to_quorum_us").p50);

  // Interval semantics across the workload window.
  MetricsSnapshot diff = after.Diff(before);
  EXPECT_GE(diff.counters.at("engine.writer.txns_committed"), 40u);
  EXPECT_GT(diff.counters.at("net.total.messages_sent"), 0u);
  EXPECT_GT(diff.counters.at("engine.writer.log_records_sent"), 0u);

  // Storage fleet and disk counters are present per node.
  sim::NodeId sn_id = cluster.storage_node(0)->id();
  std::string base = "storage.node" + std::to_string(sn_id) + ".";
  EXPECT_TRUE(after.counters.count(base + "batches_received") == 1);
  EXPECT_TRUE(after.counters.count(base + "disk.writes") == 1);
  EXPECT_TRUE(after.histograms.count(base + "trace.gossip_fill_batch") == 1);
}

TEST(ClusterMetricsTest, RegistrySurvivesWriterFailover) {
  ClusterOptions o;
  o.engine.page_size = 4096;
  o.engine.pages_per_pg = 64;
  o.num_replicas = 2;
  AuroraCluster cluster(o);
  ASSERT_TRUE(cluster.BootstrapSync().ok());
  ASSERT_TRUE(cluster.CreateTableSync("t").ok());
  PageId table = *cluster.TableAnchorSync("t");
  ASSERT_TRUE(cluster.PutSync(table, Key(1), "before").ok());

  ASSERT_TRUE(cluster.FailoverToReplicaSync(0).ok());
  ASSERT_TRUE(cluster.PutSync(table, Key(2), "after").ok());

  // Engine readers now report the promoted writer; the dump stays valid.
  MetricsSnapshot snap = cluster.metrics()->Snapshot();
  EXPECT_GT(snap.counters.at("engine.writer.txns_committed"), 0u);
  EXPECT_TRUE(JsonChecker(cluster.DumpMetricsJson()).Valid());
}

// replica.rN.* names stay bound to replica N when a promotion removes
// another replica from the cluster's list; the promoted replica's counters
// hold their final totals, so no counter goes backwards.
TEST(ClusterMetricsTest, ReplicaNamesSurviveFailover) {
  ClusterOptions o;
  o.engine.page_size = 4096;
  o.engine.pages_per_pg = 64;
  o.num_replicas = 2;
  AuroraCluster cluster(o);
  ASSERT_TRUE(cluster.BootstrapSync().ok());
  ASSERT_TRUE(cluster.CreateTableSync("t").ok());
  PageId table = *cluster.TableAnchorSync("t");
  ASSERT_TRUE(cluster.PutSync(table, Key(1), "v").ok());
  cluster.RunFor(Millis(50));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.ReplicaGetSync(1, table, Key(1)).ok());
  }

  ASSERT_TRUE(cluster.FailoverToReplicaSync(0).ok());
  MetricsSnapshot snap = cluster.metrics()->Snapshot();
  EXPECT_EQ(snap.counters.at("replica.r0.reads"), 0u);
  EXPECT_EQ(snap.counters.at("replica.r1.reads"), 10u);
  EXPECT_EQ(snap.histograms.at("replica.r1.read_latency_us").count, 10u);
  EXPECT_EQ(snap.histograms.count("replica.r0.lag_us"), 1u);
}

// The set of exported names, pinned. A dropped or renamed key would read as
// 0 in every bench and script that looks it up by name.
TEST(ClusterMetricsTest, ExportedNamesMatchGolden) {
  std::set<std::string> actual;
  auto add = [&actual](const std::string& cluster, const MetricsSnapshot& s) {
    for (const auto& [name, v] : s.counters) {
      actual.insert(cluster + " counter " + name);
    }
    for (const auto& [name, v] : s.gauges) {
      actual.insert(cluster + " gauge " + name);
    }
    for (const auto& [name, v] : s.histograms) {
      actual.insert(cluster + " histogram " + name);
    }
  };
  ClusterOptions o;
  o.num_replicas = 1;
  AuroraCluster aurora(o);
  ASSERT_TRUE(aurora.BootstrapSync().ok());
  aurora.DumpMetricsJson();  // registers storage.pgN.* for bootstrap's PGs
  add("aurora", aurora.metrics()->Snapshot());
  MysqlClusterOptions mo;
  mo.num_binlog_replicas = 1;
  MysqlCluster mysql(mo);
  add("mysql", mysql.metrics()->Snapshot());

  const std::string path =
      std::string(AURORA_TEST_GOLDEN_DIR) + "/metric_names.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "cannot read " << path;
  std::set<std::string> golden;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') golden.insert(line);
  }
  std::string diff;
  for (const std::string& name : golden) {
    if (actual.count(name) == 0) diff += "- " + name + "\n";
  }
  for (const std::string& name : actual) {
    if (golden.count(name) == 0) diff += "+ " + name + "\n";
  }
  EXPECT_TRUE(diff.empty()) << path << " (- missing, + extra):\n" << diff;
}

}  // namespace
}  // namespace aurora
