#ifndef AURORA_ENGINE_LOCK_MANAGER_H_
#define AURORA_ENGINE_LOCK_MANAGER_H_

#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/inline_function.h"
#include "common/slot_index.h"
#include "common/status.h"
#include "common/units.h"
#include "log/types.h"
#include "sim/event_loop.h"

namespace aurora {

/// Lock modes: shared (readers) and exclusive (writers).
enum class LockMode : uint8_t { kShared, kExclusive };

/// Row-level two-phase locking with FIFO queuing and wait-for-graph deadlock
/// detection. Concurrency control lives entirely in the database engine —
/// the storage service "presents a unified view of the underlying data"
/// (§5) and knows nothing about locks.
///
/// Single-threaded like the rest of the simulation: Lock() either grants
/// synchronously (returns OK), queues (returns Busy; the caller then hands
/// over the callback that fires later), or detects a deadlock (returns
/// Aborted; the caller must roll back). Only a queued request stores a
/// callback, so an immediate grant or refusal copies nothing of the
/// caller's.
class LockManager {
 public:
  struct Stats {
    uint64_t grants = 0;
    uint64_t waits = 0;
    uint64_t deadlocks = 0;
    uint64_t timeouts = 0;

    /// Every member once, under its exported metric name.
    template <typename F>
    static constexpr void Fields(F f) {
      f("grants", &Stats::grants);
      f("waits", &Stats::waits);
      f("deadlocks", &Stats::deadlocks);
      f("timeouts", &Stats::timeouts);
    }
  };

  /// Fires once for a queued request: OK (lock acquired), Aborted (deadlock
  /// chose this waiter as victim) or TimedOut.
  using GrantFn = InlineFunction<void(Status)>;

  explicit LockManager(sim::EventLoop* loop) : loop_(loop) {}

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Requests `mode` on (tree, key) for `txn`.
  /// - OK: granted immediately (also when already held; an S->X upgrade
  ///   by the sole holder is granted even past queued requests, and is
  ///   otherwise queued ahead of every waiter holding nothing on the name).
  /// - Busy: queued. The caller must call OnGrant(txn, ...) before anything
  ///   else runs.
  /// - Aborted: the request would deadlock; nothing was queued.
  Status Lock(TxnId txn, PageId tree, std::string_view key, LockMode mode);

  /// Installs the callback of the request Lock() has just queued for `txn`.
  void OnGrant(TxnId txn, GrantFn granted);

  /// Releases everything `txn` holds, in (tree, key) order, and cancels its
  /// wait without firing its callback. Queued waiters may be granted (their
  /// callbacks fire synchronously).
  void ReleaseAll(TxnId txn);

  /// Drops every lock and waiter without firing callbacks (crash
  /// simulation: the instance's volatile state evaporates).
  void Reset();

  /// Number of lock names with at least one holder or waiter.
  size_t ActiveLocks() const { return index_.size(); }
  size_t WaitingTxns() const;
  const Stats& stats() const { return stats_; }

 private:
  struct Waiter {
    TxnId txn;
    LockMode mode;
    GrantFn granted;
    sim::EventId timeout_event;
  };

  /// One lock name with its holders and queue. Entries sit in stable slots;
  /// a freed slot keeps its key and vector capacity for the next name, so
  /// at steady state a new name allocates nothing.
  struct LockEntry {
    PageId tree = 0;
    std::string key;
    uint64_t hash = 0;
    std::vector<TxnId> shared_holders;  // each holder once, unordered
    TxnId exclusive_holder = kInvalidTxn;
    std::vector<Waiter> waiters;  // FIFO: the front is granted first
    /// GrantWaiters frames on the stack for this name; a pinned entry is
    /// not freed even when it falls idle.
    int pins = 0;
    bool held() const {
      return exclusive_holder != kInvalidTxn || !shared_holders.empty();
    }
  };
  using Slot = uint32_t;

  struct TxnLocks {
    std::vector<Slot> held;  // each name once, in acquisition order
    std::optional<Slot> waiting_on;
  };

  /// True if granting (txn, mode) is compatible with current holders.
  static bool Compatible(const LockEntry& e, TxnId txn, LockMode mode);
  /// Takes a slot (a freed one first) for a name nobody holds or awaits.
  Slot NewEntry(PageId tree, std::string_view key, uint64_t hash);
  /// Records `txn` as a holder of `slot` in `mode`.
  void AddHolder(Slot slot, TxnLocks* t, TxnId txn, LockMode mode);
  /// Grants queued waiters from the front (FIFO, no barging), then frees
  /// the entry if it fell idle. Returns false if a grant callback called
  /// Reset(), after which no entry may be touched.
  bool GrantWaiters(Slot slot);
  /// Would `waiter` waiting on `e`'s holders close a cycle in the wait-for
  /// graph?
  bool WouldDeadlock(TxnId waiter, const LockEntry& e) const;
  void CollectBlockers(const LockEntry& e, TxnId skip,
                       std::set<TxnId>* out) const;
  /// Takes `txn`'s request off `slot`'s queue and cancels its timeout;
  /// returns its callback.
  GrantFn DropWaiter(Slot slot, TxnId txn);
  void TimeOut(Slot slot, TxnId txn);

  sim::EventLoop* loop_;
  /// Lock names live in `slots_` (a deque: slots never move) and are
  /// found through `index_`, by a fixed hash of (tree, key).
  std::deque<LockEntry> slots_;
  std::vector<Slot> free_slots_;
  SlotIndex index_;
  std::map<TxnId, TxnLocks> txns_;
  /// Bumped by Reset(); a grant cascade stops when it moves.
  uint64_t generation_ = 0;
  Stats stats_;
};

}  // namespace aurora

#endif  // AURORA_ENGINE_LOCK_MANAGER_H_
