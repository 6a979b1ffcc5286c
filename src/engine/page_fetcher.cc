#include "engine/page_fetcher.h"

#include <algorithm>

namespace aurora {

PageFetcher::PageFetcher(sim::EventLoop* loop, sim::Network* network,
                         sim::NodeId self, const sim::Topology* topology,
                         const EngineOptions* options, BufferPool* pool,
                         const Lsn* read_point, FetchPolicy* policy,
                         uint64_t* fetches, uint64_t* retries)
    : loop_(loop),
      network_(network),
      self_(self),
      topology_(topology),
      options_(options),
      pool_(pool),
      read_point_(read_point),
      policy_(policy),
      fetches_(fetches),
      retries_(retries) {}

Result<Page*> PageFetcher::GetPage(PageId id) {
  Page* page = pool_->Lookup(id);
  if (page != nullptr) return page;
  last_miss_ = id;
  Start(id);
  return Status::Busy("page miss");
}

void PageFetcher::RunWithRetries(Attempt attempt, Done done) {
  last_miss_ = kInvalidPage;
  Status s = attempt();
  if (s.IsBusy() && last_miss_ != kInvalidPage) {
    waiters_[last_miss_].push_back(
        [this, attempt = std::move(attempt), done = std::move(done)]() mutable {
          RunWithRetries(std::move(attempt), std::move(done));
        });
    return;
  }
  // Safe point for eviction: the attempt is finished, nothing holds raw
  // page pointers.
  pool_->EvictExcess();
  done(s);
}

void PageFetcher::Reset() {
  ++generation_;
  for (const auto& [req_id, pr] : pending_) loop_->Cancel(pr.timer);
  pending_.clear();
  in_flight_.clear();
  waiters_.clear();
}

Lsn PageFetcher::LowestReadPoint(Lsn floor) const {
  for (const auto& [req_id, pr] : pending_) {
    floor = std::min(floor, pr.read_point);
  }
  return floor;
}

void PageFetcher::Start(PageId id) {
  if (in_flight_.count(id)) return;
  uint64_t req_id = next_req_++;
  in_flight_[id] = req_id;
  PendingRead pr;
  pr.page = id;
  pr.pg = static_cast<PgId>(id / options_->pages_per_pg);
  pr.read_point = *read_point_;
  pr.tail = policy_->ReadTail(pr.pg);
  pr.started_at = loop_->now();
  pending_[req_id] = pr;
  ++*fetches_;
  SendRequest(req_id);
}

sim::NodeId PageFetcher::PickTarget(const PendingRead& pr) {
  const auto& members = policy_->FetchMembers(pr.pg);
  // Segments known to be complete at the read point, same-AZ first: one
  // up-to-date segment serves the read, no quorum needed (§4.2.3). With a
  // tail, a segment is complete once its chain reaches the tail.
  const Lsn need = pr.tail.value_or(pr.read_point);
  std::vector<int> candidates;
  for (int i = 0; i < kReplicasPerPg; ++i) {
    if (policy_->KnownComplete(pr.pg, i, need)) {
      candidates.push_back(i);
    }
  }
  if (candidates.empty()) {
    for (int i = 0; i < kReplicasPerPg; ++i) candidates.push_back(i);
  }
  std::stable_sort(candidates.begin(), candidates.end(), [&](int a, int b) {
    return topology_->SameAz(self_, members[a]) >
           topology_->SameAz(self_, members[b]);
  });
  return members[candidates[pr.attempt % candidates.size()]];
}

void PageFetcher::SendRequest(uint64_t req_id) {
  auto it = pending_.find(req_id);
  if (it == pending_.end()) return;
  PendingRead& pr = it->second;
  sim::NodeId target = PickTarget(pr);
  ReadPageReqMsg req;
  req.req_id = req_id;
  req.pg = pr.pg;
  req.page = pr.page;
  req.read_point = pr.read_point;
  req.tail = pr.tail;
  policy_->StampEpochs(&req);
  network_->Send(self_, target, kMsgReadPageReq, wire::Encode(req));

  const uint64_t gen = generation_;
  pr.timer = loop_->Schedule(kReadRetryTimeout, [this, gen, req_id] {
    if (gen != generation_) return;
    auto it = pending_.find(req_id);
    if (it == pending_.end()) return;
    ++it->second.attempt;
    CountRetry();
    SendRequest(req_id);
  });
}

void PageFetcher::HandleResponse(const sim::Message& msg) {
  ReadPageRespMsg resp;
  if (!wire::Decode(msg.payload(), &resp).ok()) return;
  auto it = pending_.find(resp.req_id);
  if (it == pending_.end()) return;  // late duplicate
  PendingRead& pr = it->second;
  loop_->Cancel(pr.timer);

  const auto code = static_cast<Status::Code>(resp.status_code);
  if (code != Status::Code::kOk) {
    const FetchRetry next = policy_->OnErrorReply(pr.pg, code);
    if (next == FetchRetry::kStop) return;  // `pr` may be gone
    ++pr.attempt;
    CountRetry();
    if (next == FetchRetry::kNow) {
      SendRequest(resp.req_id);
      return;
    }
    const uint64_t gen = generation_;
    const uint64_t req_id = resp.req_id;
    pr.timer = loop_->Schedule(Millis(1), [this, gen, req_id] {
      if (gen != generation_) return;
      SendRequest(req_id);
    });
    return;
  }

  // `page_bytes` points into the message: check it there, then copy it
  // once, into the pool slot.
  if (resp.page_bytes.size() != options_->page_size ||
      !Page::VerifyCrc(resp.page_bytes)) {
    ++pr.attempt;
    SendRequest(resp.req_id);
    return;
  }
  const PageId id = pr.page;
  const SimDuration latency = loop_->now() - pr.started_at;
  const int attempts = pr.attempt;
  pending_.erase(it);
  in_flight_.erase(id);
  Page* installed = pool_->Install(id, resp.page_bytes);
  // Safe point: no operation is mid-attempt here, so eviction cannot
  // invalidate live page pointers.
  pool_->EvictExcess();
  policy_->OnInstalled(id, installed, latency, attempts);

  auto wit = waiters_.find(id);
  if (wit == waiters_.end()) return;
  std::vector<InlineFunction<void()>> waiters = std::move(wit->second);
  waiters_.erase(wit);
  for (auto& w : waiters) w();
}

}  // namespace aurora
