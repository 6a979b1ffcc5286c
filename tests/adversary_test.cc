#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "harness/cluster.h"
#include "log/log_record.h"
#include "sim/chaos.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "sim/topology.h"
#include "storage/segment.h"
#include "tests/test_util.h"

namespace aurora {
namespace {

using testing::Key;

// ---------------------------------------------------------------------------
// Raw-fabric adversary behaviour (two nodes, hand-registered handlers).
// ---------------------------------------------------------------------------

struct RawFabric {
  sim::EventLoop loop;
  sim::Topology topology{1};
  sim::NodeId a, b;
  sim::Network net;
  std::vector<sim::Message> at_a, at_b;
  uint64_t rejected_at_b = 0;

  explicit RawFabric(uint64_t seed)
      : a(topology.AddNode(0, "a")),
        b(topology.AddNode(0, "b")),
        net(&loop, &topology, sim::FabricOptions{}, Random(seed)) {
    net.Register(a, [this](const sim::Message& m) {
      if (net.VerifyFrame(m)) at_a.push_back(m);
    });
    net.Register(b, [this](const sim::Message& m) {
      if (net.VerifyFrame(m)) {
        at_b.push_back(m);
      } else {
        ++rejected_at_b;
      }
    });
  }
};

TEST(AdversaryFabricTest, OneWayPartitionBlocksExactlyOneDirection) {
  RawFabric f(1);
  f.net.SetPartitionedOneWay(f.a, f.b, true);
  for (int i = 0; i < 10; ++i) {
    f.net.Send(f.a, f.b, 1, "a-to-b");
    f.net.Send(f.b, f.a, 1, "b-to-a");
  }
  f.loop.Run();
  EXPECT_TRUE(f.at_b.empty());          // forward direction is dead
  EXPECT_EQ(f.at_a.size(), 10u);        // replies still flow
  EXPECT_EQ(f.net.adversary().oneway_blocked, 10u);

  f.net.SetPartitionedOneWay(f.a, f.b, false);
  f.net.Send(f.a, f.b, 1, "healed");
  f.loop.Run();
  ASSERT_EQ(f.at_b.size(), 1u);
  EXPECT_EQ(f.at_b[0].payload().ToString(), "healed");
}

TEST(AdversaryFabricTest, DuplicationDeliversTwiceAndIsCounted) {
  RawFabric f(2);
  f.net.set_duplicate_probability(1.0);
  for (int i = 0; i < 20; ++i) f.net.Send(f.a, f.b, 1, "dup-me");
  f.loop.Run();
  EXPECT_EQ(f.at_b.size(), 40u);
  EXPECT_EQ(f.net.adversary().duplicates_injected, 20u);
}

TEST(AdversaryFabricTest, CorruptedFramesAreDetectedAndDropped) {
  RawFabric f(3);
  f.net.set_corrupt_probability(1.0);
  for (int i = 0; i < 25; ++i) f.net.Send(f.a, f.b, 1, "payload-" + Key(i));
  f.loop.Run();
  // Every frame had one bit flipped in transit; the frame CRC (stamped
  // before corruption) catches all of them at the receiver.
  EXPECT_TRUE(f.at_b.empty());
  EXPECT_EQ(f.rejected_at_b, 25u);
  EXPECT_EQ(f.net.adversary().corrupted_injected, 25u);
  EXPECT_EQ(f.net.adversary().corrupted_dropped, 25u);
}

// A write batch's decode memo travels with its shared body: an adversary
// duplicate keeps it, and a copy the fabric corrupts loses it, since the
// memo describes the clean bytes.
TEST(AdversaryFabricTest, DecodeMemoRidesDuplicatesButNotCorruptedCopies) {
  RawFabric f(5);
  std::vector<sim::Message> raw;
  f.net.Register(f.b, [&raw](const sim::Message& m) { raw.push_back(m); });
  auto body = std::make_shared<const std::string>("shared body");
  auto memo = std::make_shared<sim::DecodeMemo>();
  f.net.set_duplicate_probability(1.0);
  f.net.Send(f.a, f.b, 1, "h", body, memo);
  f.net.set_duplicate_probability(0.0);
  f.net.set_corrupt_probability(1.0);
  f.net.Send(f.a, f.b, 1, "h", body, memo);
  f.loop.Run();
  ASSERT_EQ(raw.size(), 3u);
  int with_memo = 0;
  for (const sim::Message& m : raw) {
    if (m.memo == nullptr) {
      EXPECT_FALSE(f.net.VerifyFrame(m));
    } else {
      EXPECT_EQ(m.memo, memo);
      EXPECT_TRUE(f.net.VerifyFrame(m));
      ++with_memo;
    }
  }
  EXPECT_EQ(with_memo, 2);
}

TEST(AdversaryFabricTest, ReorderWindowScramblesButLosesNothing) {
  RawFabric f(4);
  f.net.set_reorder_window(Millis(5));
  for (int i = 0; i < 50; ++i) f.net.Send(f.a, f.b, 1, Key(i));
  f.loop.Run();
  ASSERT_EQ(f.at_b.size(), 50u);  // reordering never loses frames
  EXPECT_GT(f.net.adversary().reordered, 0u);
  std::vector<std::string> order;
  for (const auto& m : f.at_b) order.push_back(m.payload().ToString());
  std::vector<std::string> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_NE(order, sorted);  // ...but really does scramble arrival order
}

TEST(AdversaryFabricTest, AdversaryOffDrawsNoRandomness) {
  // With every knob at zero the fabric must draw no adversary randomness,
  // so two networks — one never touched, one with knobs set and reset —
  // deliver identical schedules. This pins the determinism contract that
  // lets the chaos suite compare adversary-off runs against the seed.
  auto run = [](bool toggle) {
    RawFabric f(5);
    if (toggle) {
      f.net.set_duplicate_probability(0.5);
      f.net.set_reorder_window(Millis(3));
      f.net.set_corrupt_probability(0.5);
      f.net.set_duplicate_probability(0.0);
      f.net.set_reorder_window(0);
      f.net.set_corrupt_probability(0.0);
    }
    std::vector<SimTime> arrivals;
    f.net.Register(f.b, [&f, &arrivals](const sim::Message& m) {
      if (f.net.VerifyFrame(m)) arrivals.push_back(f.loop.now());
    });
    for (int i = 0; i < 30; ++i) f.net.Send(f.a, f.b, 1, Key(i));
    f.loop.Run();
    return arrivals;
  };
  EXPECT_EQ(run(false), run(true));
}

// ---------------------------------------------------------------------------
// Segment delivery-schedule equivalence (the property the whole receiver
// hardening rests on): writer batches and gossip pushes both funnel into
// Segment::AddRecord, so a segment that saw every record — in any order,
// any number of times — must end up byte-identical to one that saw the
// clean schedule exactly once, in order.
// ---------------------------------------------------------------------------

class SegmentScheduleTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SegmentScheduleTest,
                         ::testing::Values(11, 222, 3333, 44444));

TEST_P(SegmentScheduleTest, ShuffledDuplicatedDeliveryIsByteIdentical) {
  Random rng(GetParam());

  // A well-formed per-PG record chain: increasing LSNs, correct backlinks,
  // a CPL every few records, inserts spread over a handful of pages.
  std::vector<LogRecord> records;
  Lsn lsn = 100;
  Lsn prev = kInvalidLsn;
  for (int i = 0; i < 200; ++i) {
    LogRecord rec;
    rec.lsn = lsn;
    rec.prev_pg_lsn = prev;
    rec.prev_vol_lsn = prev;
    rec.page_id = static_cast<PageId>(1 + (i % 5));
    rec.txn_id = 1;
    rec.op = RedoOp::kInsert;
    rec.payload = LogRecord::MakeKeyValuePayload(
        Key(i), "value-" + std::to_string(i));
    if (i % 4 == 3) rec.flags |= kFlagCpl;
    prev = lsn;
    lsn += rec.EncodedSize();
    records.push_back(std::move(rec));
  }
  const Lsn tail = prev;

  auto finalize = [&](Segment* seg) {
    seg->SetVdlHint(tail);
    seg->SetPgmrpl(records.front().lsn);
    while (seg->CoalesceStep(64) > 0) {
    }
  };

  // Clean schedule: in order, once.
  Segment clean(0, 4096);
  for (const LogRecord& r : records) clean.AddRecord(r);
  finalize(&clean);
  EXPECT_EQ(clean.scl(), tail);

  // Adversarial schedule: every record delivered 1-3 times, the whole
  // multiset shuffled (unbounded reorder — strictly worse than the
  // fabric's bounded window).
  std::vector<const LogRecord*> schedule;
  for (const LogRecord& r : records) {
    const uint64_t copies = 1 + rng.Uniform(3);
    for (uint64_t c = 0; c < copies; ++c) schedule.push_back(&r);
  }
  for (size_t i = schedule.size(); i > 1; --i) {
    std::swap(schedule[i - 1], schedule[rng.Uniform(i)]);
  }

  Segment adversarial(0, 4096);
  size_t accepted = 0;
  for (const LogRecord* r : schedule) {
    if (adversarial.AddRecord(*r)) ++accepted;
  }
  EXPECT_EQ(accepted, records.size());  // duplicates ignored, all originals in
  finalize(&adversarial);

  std::string clean_state, adversarial_state;
  clean.SerializeTo(&clean_state);
  adversarial.SerializeTo(&adversarial_state);
  EXPECT_EQ(clean_state, adversarial_state);
}

// ---------------------------------------------------------------------------
// End-to-end: the full cluster under heavy duplication keeps storage
// idempotent (batches deduped by (epoch, batch_seq)), and under corruption
// never lets a flipped bit reach a page.
// ---------------------------------------------------------------------------

TEST(AdversaryClusterTest, DuplicatedBatchesAreDedupedNotReapplied) {
  ClusterOptions o;
  o.seed = 77;
  o.engine.page_size = 4096;
  o.engine.pages_per_pg = 64;
  AuroraCluster cluster(o);
  ASSERT_TRUE(cluster.BootstrapSync().ok());
  ASSERT_TRUE(cluster.CreateTableSync("t").ok());
  PageId table = *cluster.TableAnchorSync("t");

  ChaosEngine chaos(&cluster);
  AdversaryConfig cfg;
  cfg.duplicate_probability = 0.5;
  cfg.reorder_window = Millis(2);
  chaos.SetAdversary(cfg);

  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(cluster.PutSync(table, Key(i), "v" + std::to_string(i)).ok());
  }
  chaos.Run(Millis(500));
  chaos.ClearAdversary();

  uint64_t duplicate_batches = 0;
  for (size_t i = 0; i < cluster.num_storage_nodes(); ++i) {
    duplicate_batches += cluster.storage_node(i)->stats().duplicate_batches;
  }
  EXPECT_GT(duplicate_batches, 0u);

  for (int i = 0; i < 40; ++i) {
    auto got = cluster.GetSync(table, Key(i));
    ASSERT_TRUE(got.ok()) << i;
    EXPECT_EQ(*got, "v" + std::to_string(i));
  }
}

TEST(AdversaryClusterTest, CorruptionNeverCrashesNodesOrMutatesData) {
  ClusterOptions o;
  o.seed = 88;
  o.engine.page_size = 4096;
  o.engine.pages_per_pg = 64;
  o.num_replicas = 1;
  AuroraCluster cluster(o);
  ASSERT_TRUE(cluster.BootstrapSync().ok());
  ASSERT_TRUE(cluster.CreateTableSync("t").ok());
  PageId table = *cluster.TableAnchorSync("t");

  ChaosEngine chaos(&cluster);
  AdversaryConfig cfg;
  cfg.corrupt_probability = 0.01;  // aggressive: ~1 in 100 frames bit-flipped
  chaos.SetAdversary(cfg);
  chaos.StartChecker();

  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(cluster.PutSync(table, Key(i), "v" + std::to_string(i)).ok());
  }
  chaos.Run(Millis(500));
  chaos.ClearAdversary();

  const sim::AdversaryStats& adv = cluster.network()->adversary();
  EXPECT_GT(adv.corrupted_injected, 0u);
  EXPECT_GT(adv.corrupted_dropped, 0u);
  // Receivers counted their rejections (writer + storage + replica split).
  uint64_t receiver_drops = cluster.writer()->stats().corrupt_frames_dropped;
  for (size_t i = 0; i < cluster.num_storage_nodes(); ++i) {
    receiver_drops +=
        cluster.storage_node(i)->stats().corrupt_frames_dropped;
  }
  for (size_t i = 0; i < cluster.num_replicas(); ++i) {
    receiver_drops += cluster.replica(i)->stats().corrupt_frames_dropped;
  }
  EXPECT_EQ(receiver_drops, adv.corrupted_dropped);

  // Not one flipped bit reached a page: everything reads back unmodified.
  for (int i = 0; i < 60; ++i) {
    auto got = cluster.GetSync(table, Key(i));
    ASSERT_TRUE(got.ok()) << i;
    EXPECT_EQ(*got, "v" + std::to_string(i));
  }
  chaos.StopChecker();
  EXPECT_TRUE(chaos.checker()->violations().empty())
      << chaos.checker()->violations().front();
}

}  // namespace
}  // namespace aurora
