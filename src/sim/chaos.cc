#include "sim/chaos.h"

#include <algorithm>

#include "common/logging.h"
#include "engine/database.h"
#include "harness/cluster.h"
#include "sim/failure_injector.h"
#include "sim/network.h"
#include "storage/control_plane.h"
#include "storage/segment.h"
#include "storage/storage_node.h"

namespace aurora {

namespace {
// Human-readable trail is capped; the chaos.invariant_violations counter
// keeps the true total.
constexpr size_t kMaxRetainedViolations = 64;
}  // namespace

// ---------------------------------------------------------------------------
// InvariantChecker
// ---------------------------------------------------------------------------

InvariantChecker::InvariantChecker(AuroraCluster* cluster,
                                   SimDuration interval)
    : cluster_(cluster), interval_(interval) {}

InvariantChecker::~InvariantChecker() { Stop(); }

void InvariantChecker::Start() {
  if (running_) return;
  running_ = true;
  Tick();
}

void InvariantChecker::Stop() {
  if (!running_) return;
  running_ = false;
  cluster_->loop()->Cancel(timer_);
  timer_ = 0;
}

void InvariantChecker::Tick() {
  if (!running_) return;
  CheckNow();
  timer_ = cluster_->loop()->Schedule(interval_, [this] { Tick(); });
}

void InvariantChecker::Violation(std::string what) {
  ++cluster_->chaos_counters()->invariant_violations;
  AURORA_WARN("invariant violation @%llu: %s",
              static_cast<unsigned long long>(cluster_->loop()->now()),
              what.c_str());
  if (violations_.size() < kMaxRetainedViolations) {
    violations_.push_back("t=" +
                          std::to_string(cluster_->loop()->now()) + "us " +
                          std::move(what));
  }
}

void InvariantChecker::CheckNow() {
  ++checks_;
  ++cluster_->chaos_counters()->invariant_checks;

  Database* writer = cluster_->writer();

  // (1) Volume durability watermark: an open writer's VDL covers every
  // commit ever acknowledged, so the highest VDL ever observed is a floor.
  if (writer->is_open()) {
    if (max_vdl_seen_ != kInvalidLsn && writer->vdl() < max_vdl_seen_) {
      Violation("writer VDL regressed: " + std::to_string(writer->vdl()) +
                " < previously observed " + std::to_string(max_vdl_seen_));
    }
    max_vdl_seen_ = std::max(max_vdl_seen_, writer->vdl());
  }

  // Highest LSN any writer incarnation (current or zombie) ever allocated:
  // no segment can legitimately be complete beyond it.
  Lsn max_allocated = writer->max_allocated_lsn();
  for (size_t i = 0; i < cluster_->num_retired_writers(); ++i) {
    max_allocated =
        std::max(max_allocated, cluster_->retired_writer(i)->max_allocated_lsn());
  }

  const ControlPlane* cp = cluster_->control_plane();
  const auto& truncations = cp->truncations();

  for (size_t n = 0; n < cluster_->num_storage_nodes(); ++n) {
    StorageNode* sn = cluster_->storage_node(n);
    for (PgId pg = 0; pg < cp->num_pgs(); ++pg) {
      const Segment* seg = sn->segment(pg);
      if (seg == nullptr) continue;
      const std::string where = "node " + std::to_string(sn->id()) + " pg " +
                                std::to_string(pg);

      // (4) Materialization never outruns completeness.
      if (seg->applied_lsn() > seg->scl()) {
        Violation(where + ": applied_lsn " +
                  std::to_string(seg->applied_lsn()) + " > scl " +
                  std::to_string(seg->scl()));
      }
      // (5) Completeness never outruns allocation.
      if (max_allocated != kInvalidLsn && seg->scl() > max_allocated) {
        Violation(where + ": scl " + std::to_string(seg->scl()) +
                  " > max allocated " + std::to_string(max_allocated));
      }
      // (6) Durability hints never outrun the open writer's VDL.
      if (writer->is_open() && seg->vdl_hint() > writer->vdl()) {
        Violation(where + ": vdl_hint " + std::to_string(seg->vdl_hint()) +
                  " > writer vdl " + std::to_string(writer->vdl()));
      }

      SegmentBaseline& base = baselines_[{sn->id(), pg}];
      if (base.seg == seg) {
        // (2) SCL regression is legal only via epoch-versioned truncation.
        if (seg->scl() < base.scl) {
          bool truncated_at_epoch = false;
          for (const auto& tr : truncations) {
            if (tr.epoch == seg->epoch()) truncated_at_epoch = true;
          }
          if (seg->epoch() <= base.epoch && !truncated_at_epoch) {
            Violation(where + ": scl regressed " + std::to_string(base.scl) +
                      " -> " + std::to_string(seg->scl()) +
                      " without a newer epoch or recorded truncation");
          }
        }
        // (3) Watermark monotonicity.
        if (seg->vdl_hint() < base.vdl_hint) {
          Violation(where + ": vdl_hint regressed " +
                    std::to_string(base.vdl_hint) + " -> " +
                    std::to_string(seg->vdl_hint()));
        }
        if (seg->pgmrpl() < base.pgmrpl) {
          Violation(where + ": pgmrpl regressed " +
                    std::to_string(base.pgmrpl) + " -> " +
                    std::to_string(seg->pgmrpl()));
        }
      }
      base.seg = seg;  // (re)installed segments re-baseline silently
      base.scl = seg->scl();
      base.vdl_hint = seg->vdl_hint();
      base.pgmrpl = seg->pgmrpl();
      base.epoch = seg->epoch();
    }
  }

  // (7) Membership-change audit: every configuration the control plane ever
  // installed, checked incrementally as history grows.
  const std::vector<ControlPlane::ConfigRecord> history = cp->ConfigHistory();
  for (size_t i = config_audit_pos_; i < history.size(); ++i) {
    const ControlPlane::ConfigRecord& rec = history[i];
    const std::string where =
        "pg " + std::to_string(rec.pg) + " config epoch " +
        std::to_string(rec.config_epoch);
    for (int a = 0; a < kReplicasPerPg; ++a) {
      for (int b = a + 1; b < kReplicasPerPg; ++b) {
        if (rec.nodes[a] == rec.nodes[b]) {
          Violation(where + ": host " + std::to_string(rec.nodes[a]) +
                    " holds two replica slots");
        }
      }
    }
    auto it = last_config_.find(rec.pg);
    if (it != last_config_.end()) {
      if (rec.config_epoch <= it->second.epoch) {
        Violation(where + ": epoch did not advance past " +
                  std::to_string(it->second.epoch));
      }
      int changed = 0;
      for (int s = 0; s < kReplicasPerPg; ++s) {
        if (rec.nodes[s] != it->second.nodes[s]) ++changed;
      }
      if (changed > 1) {
        Violation(where + ": " + std::to_string(changed) +
                  " slots changed in one epoch step (quorum intersection "
                  "requires at most one)");
      }
    }
    last_config_[rec.pg] = {rec.config_epoch, rec.nodes};
  }
  config_audit_pos_ = history.size();

  // (8) Committed-durability floor under AZ+1: within the envelope (<= 3 of
  // 6 current members down) the highest committed prefix ever seen on a
  // member must stay reachable from the live members.
  if (max_vdl_seen_ != kInvalidLsn) {
    sim::Network* net = cluster_->network();
    for (PgId pg = 0; pg < cp->num_pgs(); ++pg) {
      const PgMembership& members = cp->membership(pg);
      int down = 0;
      std::vector<const Segment*> live;
      for (sim::NodeId host : members.nodes) {
        StorageNode* n = cp->node(host);
        if (net->IsNodeDown(host) || n == nullptr || n->crashed()) {
          ++down;
          continue;
        }
        const Segment* seg = n->segment(pg);
        if (seg != nullptr) live.push_back(seg);
      }
      Lsn& tail = committed_tail_[pg];
      Lsn base = kInvalidLsn;
      for (const Segment* seg : live) {
        base = std::max(base, seg->scl());
        tail = std::max(tail, std::min(seg->scl(), max_vdl_seen_));
      }
      if (tail == kInvalidLsn || down > 3) continue;  // beyond AZ+1
      if (base != kInvalidLsn && base >= tail) continue;
      // The best live SCL is behind the committed tail (its holder died).
      // Every committed record above a live SCL was write-quorum acked, so
      // with <= 3 members down at least one live member still holds it in
      // its hot log (records are only GC'd below their holder's own SCL).
      // Bridge upward through the union of live hot logs.
      std::map<Lsn, Lsn> next;  // prev_pg_lsn -> lsn
      for (const Segment* seg : live) {
        for (const RecordView& r : seg->RecordsAbove(base, SIZE_MAX)) {
          next[r.prev_pg_lsn] = r.lsn;
        }
      }
      Lsn cur = base;
      while (cur < tail) {
        auto bridge = next.find(cur);
        if (bridge == next.end()) break;
        cur = bridge->second;
      }
      if (cur < tail) {
        Violation("pg " + std::to_string(pg) + ": committed tail " +
                  std::to_string(tail) + " unreachable from live members (" +
                  std::to_string(down) + "/6 down, best live coverage " +
                  std::to_string(cur) + ")");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ChaosEngine
// ---------------------------------------------------------------------------

ChaosEngine::ChaosEngine(AuroraCluster* cluster, SimDuration checker_interval)
    : cluster_(cluster), checker_(cluster, checker_interval) {}

ChaosEngine::~ChaosEngine() = default;

void ChaosEngine::SetAdversary(const AdversaryConfig& cfg) {
  sim::Network* net = cluster_->network();
  net->set_drop_probability(cfg.drop_probability);
  net->set_duplicate_probability(cfg.duplicate_probability);
  net->set_reorder_window(cfg.reorder_window);
  net->set_corrupt_probability(cfg.corrupt_probability);
}

void ChaosEngine::At(SimDuration delay, std::string label,
                     sim::EventFn action) {
  cluster_->loop()->Schedule(
      delay, [this, label = std::move(label), action = std::move(action)] {
        ++cluster_->chaos_counters()->actions_executed;
        AURORA_INFO("chaos action @%llu: %s",
                    static_cast<unsigned long long>(cluster_->loop()->now()),
                    label.c_str());
        action();
      });
}

void ChaosEngine::CrashStorageAt(SimDuration delay, size_t index,
                                 SimDuration downtime) {
  At(delay, "crash storage #" + std::to_string(index), [this, index, downtime] {
    cluster_->failure_injector()->CrashNode(
        cluster_->storage_node(index)->id(), downtime);
  });
}

void ChaosEngine::FailAzAt(SimDuration delay, sim::AzId az,
                           SimDuration downtime) {
  At(delay, "fail az " + std::to_string(az),
     [this, az, downtime] { cluster_->failure_injector()->FailAz(az, downtime); });
}

void ChaosEngine::FailAzPlusOneAt(SimDuration delay, sim::AzId az,
                                  size_t extra_index, SimDuration downtime) {
  At(delay,
     "fail az " + std::to_string(az) + " + storage #" +
         std::to_string(extra_index),
     [this, az, extra_index, downtime] {
       cluster_->failure_injector()->FailAz(az, downtime);
       cluster_->failure_injector()->CrashNode(
           cluster_->storage_node(extra_index)->id(), downtime);
     });
}

void ChaosEngine::SlowNodeAt(SimDuration delay, sim::NodeId node,
                             double factor, SimDuration duration) {
  At(delay, "slow node " + std::to_string(node), [this, node, factor, duration] {
    cluster_->failure_injector()->SlowNode(node, factor, duration);
  });
}

void ChaosEngine::IsolateAt(SimDuration delay, sim::NodeId node) {
  At(delay, "isolate node " + std::to_string(node), [this, node] {
    sim::Topology* topo = cluster_->topology();
    for (sim::NodeId other = 0; other < topo->num_nodes(); ++other) {
      if (other != node) cluster_->network()->SetPartitioned(node, other, true);
    }
  });
}

void ChaosEngine::HealAt(SimDuration delay, sim::NodeId node) {
  At(delay, "heal node " + std::to_string(node), [this, node] {
    sim::Topology* topo = cluster_->topology();
    for (sim::NodeId other = 0; other < topo->num_nodes(); ++other) {
      if (other != node) cluster_->network()->SetPartitioned(node, other, false);
    }
  });
}

void ChaosEngine::Run(SimDuration d) { cluster_->RunFor(d); }

}  // namespace aurora
