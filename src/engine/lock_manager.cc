#include "engine/lock_manager.h"

#include <algorithm>

#include "common/logging.h"

namespace aurora {

namespace {

// Lock-wait timeout; a transaction waiting longer aborts (safety net on top
// of deadlock detection).
constexpr SimDuration kLockTimeout = Seconds(5);

}  // namespace

bool LockManager::Compatible(const LockEntry& e, TxnId txn, LockMode mode) {
  if (mode == LockMode::kShared) {
    return e.exclusive_holder == kInvalidTxn || e.exclusive_holder == txn;
  }
  // Exclusive: no other holder of any kind.
  if (e.exclusive_holder != kInvalidTxn && e.exclusive_holder != txn) {
    return false;
  }
  for (TxnId h : e.shared_holders) {
    if (h != txn) return false;
  }
  return true;
}

void LockManager::CollectBlockers(const LockEntry& e, TxnId skip,
                                  std::set<TxnId>* out) const {
  if (e.exclusive_holder != kInvalidTxn && e.exclusive_holder != skip) {
    out->insert(e.exclusive_holder);
  }
  for (TxnId h : e.shared_holders) {
    if (h != skip) out->insert(h);
  }
}

bool LockManager::WouldDeadlock(TxnId waiter, const LockEntry& e) const {
  // DFS over the wait-for graph: waiter -> holders of e -> what they wait
  // on -> ... A path back to `waiter` is a cycle.
  std::set<TxnId> frontier;
  CollectBlockers(e, waiter, &frontier);
  std::set<TxnId> visited;
  while (!frontier.empty()) {
    TxnId t = *frontier.begin();
    frontier.erase(frontier.begin());
    if (t == waiter) return true;
    if (!visited.insert(t).second) continue;
    auto tit = txns_.find(t);
    if (tit == txns_.end() || !tit->second.waiting_on) continue;
    CollectBlockers(slots_[*tit->second.waiting_on], kInvalidTxn, &frontier);
  }
  return false;
}

LockManager::Slot LockManager::NewEntry(PageId tree, std::string_view key,
                                        uint64_t hash) {
  Slot slot;
  if (free_slots_.empty()) {
    slot = static_cast<Slot>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  LockEntry& e = slots_[slot];
  e.tree = tree;
  e.key.assign(key);
  e.hash = hash;
  index_.Insert(hash, slot);
  return slot;
}

void LockManager::AddHolder(Slot slot, TxnLocks* t, TxnId txn,
                            LockMode mode) {
  LockEntry& e = slots_[slot];
  if (mode == LockMode::kShared) {
    e.shared_holders.push_back(txn);
  } else {
    auto sh = std::find(e.shared_holders.begin(), e.shared_holders.end(), txn);
    e.exclusive_holder = txn;
    if (sh != e.shared_holders.end()) {
      e.shared_holders.erase(sh);  // S -> X upgrade: already on the list
      return;
    }
  }
  t->held.push_back(slot);
}

Status LockManager::Lock(TxnId txn, PageId tree, std::string_view key,
                         LockMode mode) {
  const uint64_t hash = HashBytes(tree, key);
  Slot slot = index_.Find(hash, [&](Slot s) {
    return slots_[s].tree == tree && slots_[s].key == key;
  });
  if (slot == SlotIndex::kNone) {
    // Nobody holds or awaits the name: grant.
    slot = NewEntry(tree, key, hash);
    AddHolder(slot, &txns_[txn], txn, mode);
    ++stats_.grants;
    return Status::OK();
  }
  LockEntry& e = slots_[slot];
  auto holds_shared = [&e](TxnId t) {
    return std::find(e.shared_holders.begin(), e.shared_holders.end(), t) !=
           e.shared_holders.end();
  };
  const bool upgrade = holds_shared(txn);

  // Re-entrant fast paths.
  if (e.exclusive_holder == txn || (mode == LockMode::kShared && upgrade)) {
    ++stats_.grants;
    return Status::OK();
  }

  // Grant only if compatible AND no one is already queued (FIFO fairness;
  // prevents writer starvation under reader storms). An upgrade passes the
  // queue: whoever waits there waits for its S lock anyway.
  if (Compatible(e, txn, mode) && (e.waiters.empty() || upgrade)) {
    AddHolder(slot, &txns_[txn], txn, mode);
    ++stats_.grants;
    return Status::OK();
  }

  // An upgrade that must wait behind others is a classic deadlock source;
  // the wait-for check below covers it because we still hold our S lock.
  if (WouldDeadlock(txn, e)) {
    ++stats_.deadlocks;
    return Status::Aborted("deadlock detected");
  }

  ++stats_.waits;
  // The slot outlives the timeout: it keeps a waiter until the timeout
  // fires or is cancelled.
  sim::EventId timeout = loop_->Schedule(
      kLockTimeout, [this, slot, txn]() { TimeOut(slot, txn); });
  // An upgrade queues ahead of every waiter that holds nothing here.
  auto at = e.waiters.end();
  if (upgrade) {
    at = std::find_if(e.waiters.begin(), e.waiters.end(),
                      [&](const Waiter& w) { return !holds_shared(w.txn); });
  }
  e.waiters.insert(at, Waiter{txn, mode, nullptr, timeout});
  txns_[txn].waiting_on = slot;
  return Status::Busy("lock queued");
}

void LockManager::OnGrant(TxnId txn, GrantFn granted) {
  auto tit = txns_.find(txn);
  AURORA_CHECK(tit != txns_.end() && tit->second.waiting_on,
               "OnGrant without a queued request");
  auto& waiters = slots_[*tit->second.waiting_on].waiters;
  auto w = std::find_if(waiters.begin(), waiters.end(),
                        [txn](const Waiter& x) { return x.txn == txn; });
  AURORA_CHECK(w != waiters.end() && !w->granted,
               "OnGrant must follow the queuing Lock()");
  w->granted = std::move(granted);
}

LockManager::GrantFn LockManager::DropWaiter(Slot slot, TxnId txn) {
  auto& waiters = slots_[slot].waiters;
  auto w = std::find_if(waiters.begin(), waiters.end(),
                        [txn](const Waiter& x) { return x.txn == txn; });
  if (w == waiters.end()) return nullptr;
  loop_->Cancel(w->timeout_event);
  GrantFn granted = std::move(w->granted);
  waiters.erase(w);
  return granted;
}

void LockManager::TimeOut(Slot slot, TxnId txn) {
  ++stats_.timeouts;
  GrantFn granted = DropWaiter(slot, txn);
  auto tit = txns_.find(txn);
  if (tit != txns_.end()) {
    tit->second.waiting_on.reset();
    if (tit->second.held.empty()) txns_.erase(tit);
  }
  // Removing a waiter may unblock those behind it.
  GrantWaiters(slot);
  if (granted) granted(Status::TimedOut("lock wait timeout"));
}

bool LockManager::GrantWaiters(Slot slot) {
  // A grant callback may re-enter the lock manager: acquire further locks,
  // release a transaction (even one holding this name) or Reset()
  // everything. The pin keeps this slot from being freed and reused across
  // the callback; the generation notices a Reset().
  const uint64_t generation = generation_;
  LockEntry& e = slots_[slot];
  while (!e.waiters.empty() &&
         Compatible(e, e.waiters.front().txn, e.waiters.front().mode)) {
    Waiter w = std::move(e.waiters.front());
    e.waiters.erase(e.waiters.begin());
    TxnLocks& t = txns_.find(w.txn)->second;
    t.waiting_on.reset();
    AddHolder(slot, &t, w.txn, w.mode);
    loop_->Cancel(w.timeout_event);
    ++stats_.grants;
    if (!w.granted) continue;
    ++e.pins;
    w.granted(Status::OK());
    if (generation != generation_) return false;
    --e.pins;
  }
  if (e.pins == 0 && !e.held() && e.waiters.empty()) {
    index_.Erase(e.hash, slot);
    free_slots_.push_back(slot);
  }
  return true;
}

void LockManager::ReleaseAll(TxnId txn) {
  auto tit = txns_.find(txn);
  if (tit == txns_.end()) return;
  TxnLocks t = std::move(tit->second);
  txns_.erase(tit);

  // A cancelled wait unblocks the compatible requests queued behind it,
  // exactly as a timed-out one does; its own callback never fires.
  if (t.waiting_on) {
    DropWaiter(*t.waiting_on, txn);
    if (!GrantWaiters(*t.waiting_on)) return;
  }

  // (tree, key) order: grant callbacks, and so the whole history, follow
  // the release order.
  std::sort(t.held.begin(), t.held.end(), [this](Slot a, Slot b) {
    const LockEntry& x = slots_[a];
    const LockEntry& y = slots_[b];
    return x.tree != y.tree ? x.tree < y.tree : x.key < y.key;
  });
  // Every slot still on the list has `txn` as a holder, so no callback can
  // free it before the loop reaches it.
  for (Slot slot : t.held) {
    LockEntry& e = slots_[slot];
    if (e.exclusive_holder == txn) {
      e.exclusive_holder = kInvalidTxn;
    } else {
      auto sh =
          std::find(e.shared_holders.begin(), e.shared_holders.end(), txn);
      if (sh != e.shared_holders.end()) e.shared_holders.erase(sh);
    }
    if (!GrantWaiters(slot)) return;
  }
}

size_t LockManager::WaitingTxns() const {
  return std::count_if(txns_.begin(), txns_.end(), [](const auto& e) {
    return e.second.waiting_on.has_value();
  });
}

void LockManager::Reset() {
  for (LockEntry& e : slots_) {
    for (Waiter& w : e.waiters) loop_->Cancel(w.timeout_event);
  }
  slots_.clear();
  free_slots_.clear();
  index_.Clear();
  txns_.clear();
  ++generation_;
}

}  // namespace aurora
