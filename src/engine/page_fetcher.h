#ifndef AURORA_ENGINE_PAGE_FETCHER_H_
#define AURORA_ENGINE_PAGE_FETCHER_H_

#include <array>
#include <map>
#include <optional>
#include <vector>

#include "common/inline_function.h"
#include "common/result.h"
#include "engine/buffer_pool.h"
#include "engine/options.h"
#include "log/types.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "sim/topology.h"
#include "storage/wire.h"

namespace aurora {

/// Timeout after which an un-acked storage read is retried on another
/// segment replica (outlier avoidance, §1).
inline constexpr SimDuration kReadRetryTimeout = Millis(15);

/// What a fetch owner wants after a non-OK page-read reply.
enum class FetchRetry {
  kNow,    // resend immediately (to the next candidate segment)
  kLater,  // resend after a 1 ms pause
  kStop,   // the owner has abandoned its fetches (e.g. it was fenced)
};

/// The owner-specific half of the read path. The writer and the read
/// replicas share every mechanism in PageFetcher and differ only here.
class FetchPolicy {
 public:
  virtual ~FetchPolicy() = default;
  /// The segment hosts of `pg`, indexed by replica slot.
  virtual const std::array<sim::NodeId, kReplicasPerPg>& FetchMembers(
      PgId pg) = 0;
  /// The PG's tail at the owner's read point — its newest record at or
  /// below it — if the owner knows it. Sent with the request: a segment
  /// whose SCL has reached the tail serves the read.
  virtual std::optional<Lsn> ReadTail(PgId pg) = 0;
  /// Whether slot `idx` is known to hold every record of `pg` up to `lsn`
  /// (the read's tail, or its read point when it has none). Known slots
  /// are tried first; the others only when no slot is known.
  virtual bool KnownComplete(PgId pg, int idx, Lsn lsn) = 0;
  /// Stamps the request with the epochs storage checks (volume, config).
  virtual void StampEpochs(ReadPageReqMsg* req) = 0;
  /// Reacts to a non-OK reply for a read of `pg`.
  virtual FetchRetry OnErrorReply(PgId pg, Status::Code code) = 0;
  /// Runs after a fetched page is installed, before its waiters wake.
  /// `attempts` counts the resends the fetch needed.
  virtual void OnInstalled(PageId id, Page* page, SimDuration latency,
                           int attempts) = 0;
};

/// The cache-miss read path of §4.2.3/§4.2.4, shared by the writer and the
/// read replicas: a missing page is read from a single segment at the
/// owner's read point (no read quorum), same-AZ segments first, rotating
/// through the candidates on timeout or error. The fetcher owns the request
/// ids, the in-flight and waiter maps and the retry timers; it verifies the
/// page CRC, installs the page into the owner's BufferPool and re-runs the
/// operations that were waiting for it.
class PageFetcher {
 public:
  /// One optimistic attempt of an operation: Busy after a GetPage miss
  /// means "run me again once the page lands".
  using Attempt = InlineFunction<Status()>;
  using Done = InlineFunction<void(Status)>;

  /// `read_point` is read at the start of each fetch. `fetches` counts
  /// issued fetches; `retries` (nullable) counts resends after a timeout
  /// or an error reply.
  PageFetcher(sim::EventLoop* loop, sim::Network* network, sim::NodeId self,
              const sim::Topology* topology, const EngineOptions* options,
              BufferPool* pool, const Lsn* read_point, FetchPolicy* policy,
              uint64_t* fetches, uint64_t* retries);

  PageFetcher(const PageFetcher&) = delete;
  PageFetcher& operator=(const PageFetcher&) = delete;

  /// The resident page, or Busy after starting its fetch.
  Result<Page*> GetPage(PageId id);

  /// Runs `attempt` now and again after each page fetch it waits on, then
  /// hands its final status to `done`.
  void RunWithRetries(Attempt attempt, Done done);

  /// Handles a kMsgReadPageResp frame.
  void HandleResponse(const sim::Message& msg);

  /// Drops every fetch and waiter and cancels every fetch timer.
  void Reset();

  bool InFlight(PageId id) const { return in_flight_.count(id) != 0; }
  /// min(`floor`, the read point of every outstanding fetch).
  Lsn LowestReadPoint(Lsn floor) const;
  /// Request ids are shared with other request kinds of the owner.
  uint64_t NewRequestId() { return next_req_++; }

 private:
  struct PendingRead {
    PageId page = kInvalidPage;
    PgId pg = 0;
    Lsn read_point = kInvalidLsn;
    std::optional<Lsn> tail;  // ReadTail at start; every resend reuses it
    int attempt = 0;
    sim::EventId timer = 0;
    SimTime started_at = 0;
  };

  void Start(PageId id);
  void SendRequest(uint64_t req_id);
  sim::NodeId PickTarget(const PendingRead& pr);
  void CountRetry() {
    if (retries_ != nullptr) ++*retries_;
  }

  sim::EventLoop* loop_;
  sim::Network* network_;
  sim::NodeId self_;
  const sim::Topology* topology_;
  const EngineOptions* options_;
  BufferPool* pool_;
  const Lsn* read_point_;
  FetchPolicy* policy_;
  uint64_t* fetches_;
  uint64_t* retries_;

  std::map<uint64_t, PendingRead> pending_;
  std::map<PageId, uint64_t> in_flight_;  // page -> req id
  std::map<PageId, std::vector<InlineFunction<void()>>> waiters_;
  uint64_t next_req_ = 1;
  PageId last_miss_ = kInvalidPage;
  uint64_t generation_ = 0;
};

}  // namespace aurora

#endif  // AURORA_ENGINE_PAGE_FETCHER_H_
