// Single-decode write fan-out (DESIGN.md §5): the writer's six copies of a
// batch share one encoded body and one decode memo, so the body is decoded
// once and every replica of the PG keeps the same immutable records, at any
// --sim_shards. Each replica still verifies its own frame and runs its own
// fences: a corrupted copy is dropped without touching the memo, a
// duplicate reuses it, and one the duplicate fence turns away decodes
// nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "harness/cluster.h"
#include "storage/wire.h"
#include "tests/test_util.h"

namespace aurora {
namespace {

using testing::Key;

// The record `seg` holds at `lsn`, or null.
const LogRecord* RecordOf(const Segment* seg, Lsn lsn) {
  std::vector<const LogRecord*> next = seg->RecordsAbove(lsn - 1, 1);
  return next.empty() || next[0]->lsn != lsn ? nullptr : next[0];
}

class WriteFanoutTest : public ::testing::TestWithParam<int> {
 protected:
  WriteFanoutTest() : cluster_(Options()) {
    EXPECT_TRUE(cluster_.BootstrapSync().ok());
    EXPECT_TRUE(cluster_.CreateTableSync("t").ok());
    table_ = *cluster_.TableAnchorSync("t");
  }

  ClusterOptions Options() const {
    ClusterOptions o;
    o.sim_shards = GetParam();
    o.engine.page_size = 4096;
    o.engine.pages_per_pg = 64;
    o.engine.buffer_pool_pages = 1024;
    o.storage_nodes_per_az = 3;
    // No GC: every record a replica received stays in its hot log to compare.
    o.storage.gc_interval = Minutes(10);
    return o;
  }

  const PgMembership& Members() {
    return cluster_.control_plane()->membership(0);
  }
  const Segment* SegmentOf(sim::NodeId node) {
    return cluster_.storage_node_by_id(node)->segment(0);
  }

  // A batch of `n` records that continues PG 0's chain above everything
  // the writer has allocated. Its VDL hint stays at the writer's VDL, so no
  // replica materializes it.
  void BuildBatch(int n) {
    Lsn tail = kInvalidLsn;
    Epoch epoch = 0;
    for (sim::NodeId node : Members().nodes) {
      tail = std::max(tail, SegmentOf(node)->max_lsn());
      epoch = std::max(epoch, SegmentOf(node)->epoch());
    }
    records_.clear();
    Lsn prev = tail;
    for (int i = 0; i < n; ++i) {
      LogRecord r;
      r.lsn = tail + 1000 + static_cast<Lsn>(i) * 10;
      r.prev_pg_lsn = prev;
      r.prev_vol_lsn = prev;
      r.page_id = 63;
      r.txn_id = 1;
      r.op = RedoOp::kSetNext;
      r.payload = LogRecord::MakePageIdPayload(static_cast<PageId>(i));
      if (i == n - 1) r.flags = kFlagCpl;
      prev = r.lsn;
      records_.push_back(r);
    }
    std::string records;
    EncodeRecordBatch(records_, &records);
    body_ = std::make_shared<const std::string>(
        wire::Encode(WriteBatchBody{.epoch = epoch,
                                    .cfg_epoch = Members().config_epoch,
                                    .batch_seq = kBatchSeq,
                                    .vdl_hint = cluster_.writer()->vdl(),
                                    .pgmrpl_hint = kInvalidLsn,
                                    .records = records}));
    memo_ = std::make_shared<sim::DecodeMemo>();
  }

  // Sends the batch to member `idx` the way the writer's SendBatch does.
  void SendTo(int idx) {
    const WriteBatchHead head{.pg = 0,
                              .replica = static_cast<ReplicaIdx>(idx)};
    cluster_.network()->Send(cluster_.writer_node(), Members().nodes[idx],
                             kMsgWriteBatch, wire::Encode(head), body_, memo_);
  }
  void SendToAll() {
    for (int idx = 0; idx < kReplicasPerPg; ++idx) SendTo(idx);
  }

  // Every member except `skip` holds each batch record as one shared,
  // unmodified object.
  void ExpectSharedRecords(int skip = -1) {
    for (const LogRecord& sent : records_) {
      const LogRecord* shared = nullptr;
      for (int idx = 0; idx < kReplicasPerPg; ++idx) {
        if (idx == skip) continue;
        const LogRecord* held = RecordOf(SegmentOf(Members().nodes[idx]),
                                         sent.lsn);
        ASSERT_NE(held, nullptr) << "replica " << idx << " lsn " << sent.lsn;
        if (shared == nullptr) shared = held;
        EXPECT_EQ(held, shared) << "replica " << idx << " lsn " << sent.lsn;
      }
      EXPECT_EQ(shared->prev_pg_lsn, sent.prev_pg_lsn);
      EXPECT_EQ(shared->payload, sent.payload);
    }
  }

  static constexpr uint64_t kBatchSeq = uint64_t{1} << 40;

  AuroraCluster cluster_;
  PageId table_ = kInvalidPage;
  std::vector<LogRecord> records_;
  std::shared_ptr<const std::string> body_;
  std::shared_ptr<sim::DecodeMemo> memo_;
};

INSTANTIATE_TEST_SUITE_P(SimShards, WriteFanoutTest, ::testing::Values(1, 4));

// After clean writes, each LSN a PG's replicas hold is one object.
TEST_P(WriteFanoutTest, CleanWritesKeepOneRecordPerLsnAcrossReplicas) {
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(cluster_.PutSync(table_, Key(i), "v" + std::to_string(i)).ok());
  }
  cluster_.RunFor(Millis(50));
  size_t on_all_six = 0;
  for (PgId pg = 0; pg < cluster_.control_plane()->num_pgs(); ++pg) {
    const PgMembership& members = cluster_.control_plane()->membership(pg);
    const Segment* first =
        cluster_.storage_node_by_id(members.nodes[0])->segment(pg);
    for (const LogRecord* rec : first->RecordsAbove(kInvalidLsn, SIZE_MAX)) {
      int holders = 0;
      for (sim::NodeId node : members.nodes) {
        const LogRecord* held =
            RecordOf(cluster_.storage_node_by_id(node)->segment(pg), rec->lsn);
        if (held == nullptr) continue;  // this replica already collected it
        EXPECT_EQ(held, rec) << "pg " << pg << " lsn " << rec->lsn;
        ++holders;
      }
      if (holders == kReplicasPerPg) ++on_all_six;
    }
  }
  EXPECT_GE(on_all_six, 40u);
}

TEST_P(WriteFanoutTest, BodyIsDecodedOnceForAllSixReplicas) {
  cluster_.RunFor(Millis(50));
  BuildBatch(235);
  SendToAll();
  cluster_.RunFor(Millis(20));
  EXPECT_EQ(memo_->decodes_for_testing(), 1u);
  ExpectSharedRecords();
}

TEST_P(WriteFanoutTest, CorruptedCopyIsDroppedWithoutTouchingTheMemo) {
  cluster_.RunFor(Millis(50));
  BuildBatch(16);
  const StorageNode* victim = cluster_.storage_node_by_id(Members().nodes[0]);
  const uint64_t dropped_before = victim->stats().corrupt_frames_dropped;
  cluster_.network()->set_corrupt_probability(1.0);
  SendTo(0);
  cluster_.network()->set_corrupt_probability(0.0);
  for (int idx = 1; idx < kReplicasPerPg; ++idx) SendTo(idx);
  cluster_.RunFor(Millis(5));
  // The corrupted copy failed its own frame check before any decode; the
  // five clean copies decoded once between them.
  EXPECT_EQ(victim->stats().corrupt_frames_dropped, dropped_before + 1);
  EXPECT_EQ(cluster_.network()->adversary().corrupted_dropped.load(), 1u);
  EXPECT_EQ(memo_->decodes_for_testing(), 1u);
  ExpectSharedRecords(/*skip=*/0);
  // Gossip later fills the victim from a peer with its own decoded copy;
  // the other replicas' records stay the objects they were.
  cluster_.RunFor(Seconds(2));
  const Segment* victim_seg = SegmentOf(Members().nodes[0]);
  const Segment* peer_seg = SegmentOf(Members().nodes[1]);
  for (const LogRecord& sent : records_) {
    const LogRecord* filled = RecordOf(victim_seg, sent.lsn);
    ASSERT_NE(filled, nullptr);
    EXPECT_NE(filled, RecordOf(peer_seg, sent.lsn));
    EXPECT_EQ(filled->payload, sent.payload);
  }
  ExpectSharedRecords(/*skip=*/0);
  EXPECT_EQ(memo_->decodes_for_testing(), 1u);
}

TEST_P(WriteFanoutTest, DuplicatesReuseTheMemoAndAreReacked) {
  cluster_.RunFor(Millis(50));
  BuildBatch(16);
  std::vector<uint64_t> acks_before;
  for (sim::NodeId node : Members().nodes) {
    acks_before.push_back(cluster_.storage_node_by_id(node)->stats().acks_sent);
  }
  cluster_.network()->set_duplicate_probability(1.0);
  SendToAll();
  cluster_.network()->set_duplicate_probability(0.0);
  cluster_.RunFor(Millis(20));
  EXPECT_EQ(cluster_.network()->adversary().duplicates_injected.load(),
            static_cast<uint64_t>(kReplicasPerPg));
  for (int idx = 0; idx < kReplicasPerPg; ++idx) {
    const StorageNode* sn = cluster_.storage_node_by_id(Members().nodes[idx]);
    EXPECT_EQ(sn->stats().acks_sent, acks_before[idx] + 2) << idx;
  }
  EXPECT_EQ(memo_->decodes_for_testing(), 1u);
  ExpectSharedRecords();
  // A copy arriving after the batch persisted meets the duplicate fence,
  // which runs before any decode: it is re-acked straight away, and a
  // fresh memo sent with it is never used.
  std::vector<uint64_t> dups_before;
  for (sim::NodeId node : Members().nodes) {
    dups_before.push_back(
        cluster_.storage_node_by_id(node)->stats().duplicate_batches);
  }
  const std::shared_ptr<sim::DecodeMemo> first_memo = memo_;
  memo_ = std::make_shared<sim::DecodeMemo>();
  SendToAll();
  cluster_.RunFor(Millis(20));
  for (int idx = 0; idx < kReplicasPerPg; ++idx) {
    const StorageNode* sn = cluster_.storage_node_by_id(Members().nodes[idx]);
    EXPECT_EQ(sn->stats().duplicate_batches, dups_before[idx] + 1) << idx;
  }
  EXPECT_EQ(memo_->decodes_for_testing(), 0u);
  EXPECT_EQ(first_memo->decodes_for_testing(), 1u);
  ExpectSharedRecords();
}

}  // namespace
}  // namespace aurora
