#ifndef AURORA_ENGINE_OPTIONS_H_
#define AURORA_ENGINE_OPTIONS_H_

#include <cstdint>

#include "common/units.h"
#include "quorum/quorum.h"

namespace aurora {

/// Tunables of the Aurora database engine (writer and replicas).
///
/// Scale note: the paper's production constants (16 KiB InnoDB pages, 10 GB
/// segments, LAL = 10 million) are usable but benchmarks default to scaled-
/// down values so whole-cluster simulations fit one machine; harness/scale.h
/// documents the mapping.
struct EngineOptions {
  /// Page size in bytes (InnoDB default 16 KiB).
  size_t page_size = 16384;

  /// Pages per protection group. pages_per_pg * page_size is the logical
  /// segment size ("currently 10GB" in §2.2).
  uint64_t pages_per_pg = 4096;

  /// Quorum scheme (V=6, Vw=4, Vr=3 per §2.1).
  QuorumConfig quorum = QuorumConfig::Aurora();

  /// LSN Allocation Limit: the writer may not allocate an LSN more than
  /// this far above the current VDL (§4.2.1; 10M in production). Since our
  /// LSNs are byte offsets, this is a log-bytes bound.
  uint64_t lal = 10000000;

  /// Group-commit batching: a per-PG batch is flushed when it reaches this
  /// many bytes or this much time has passed since its first record.
  size_t batch_max_bytes = 32768;
  SimDuration batch_linger = Micros(500);

  /// Writer buffer-pool capacity in pages.
  size_t buffer_pool_pages = 8192;

  /// CPU cost model (charged against the sim::Instance): per-statement
  /// base cost, and per-page-touch cost.
  SimDuration cpu_per_statement = Micros(18);
  SimDuration cpu_per_page_touch = Micros(2);

  /// Timeout after which an un-acked storage read is retried on another
  /// segment replica (outlier avoidance, §1).
  SimDuration read_retry_timeout = Millis(15);

  /// Lock-wait timeout; a transaction waiting longer aborts (safety net on
  /// top of deadlock detection).
  SimDuration lock_timeout = Seconds(5);

  /// How often the writer recomputes and broadcasts the PGMRPL (§4.2.3).
  SimDuration pgmrpl_interval = Millis(100);

  /// Replica log-stream shipping interval (lag is dominated by this plus
  /// one network hop, §4.2.4).
  SimDuration replica_ship_interval = Micros(500);
};

}  // namespace aurora

#endif  // AURORA_ENGINE_OPTIONS_H_
