#ifndef AURORA_ENGINE_OPTIONS_H_
#define AURORA_ENGINE_OPTIONS_H_

#include <cstdint>

#include "common/units.h"
#include "quorum/quorum.h"

namespace aurora {

/// CPU cost model (charged against the sim::Instance): the base cost of one
/// statement, on the writer, a replica and the MySQL baseline alike.
inline constexpr SimDuration kCpuPerStatement = Micros(18);

/// How often the writer recomputes and broadcasts the PGMRPL (§4.2.3), and
/// how often a replica reports its read point.
inline constexpr SimDuration kPgmrplInterval = Millis(100);

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

  /// Writer buffer-pool capacity in pages.
  size_t buffer_pool_pages = 8192;
};

}  // namespace aurora

#endif  // AURORA_ENGINE_OPTIONS_H_
