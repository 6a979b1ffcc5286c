#ifndef AURORA_ENGINE_TRANSACTIONS_H_
#define AURORA_ENGINE_TRANSACTIONS_H_

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/lock_manager.h"
#include "engine/page_fetcher.h"
#include "log/mtr.h"
#include "page/page_provider.h"

namespace aurora {

/// Transaction state as persisted in the system transaction table.
enum class TxnState : uint8_t {
  kActive = 1,
  kCommitted = 2,
  kAborted = 3,
};

/// What the transaction layer asks of the engine that owns it: the three
/// steps in which the Aurora writer and the MySQL baseline differ.
class TxnOwner {
 public:
  virtual ~TxnOwner() = default;
  /// The engine's page-miss retry loop: runs `attempt` now and again after
  /// each page it misses on has arrived, then hands its status to `done`.
  virtual void RunWithRetries(PageFetcher::Attempt attempt,
                              PageFetcher::Done done) = 0;
  /// Appends a finished MTR to the engine's redo log.
  virtual void AppendLog(MiniTransaction* mtr) = 0;
  /// The engine's last step of an abort, after the undo walk and before the
  /// transaction's locks are released and it is forgotten; it then calls
  /// `then` with the abort's status.
  virtual void EndAbort(TxnId txn, PageFetcher::Done then) = 0;
};

/// The transaction layer both engines share (§5: the engine keeps the
/// kernel's transactions, locking and undo): the row lock manager, the
/// registry of open transactions with their in-memory undo, statement
/// locking with its failure rule, rollback, and the read-only commit.
/// Durable commit, the redo log and everything else about durability stay
/// with the engine, which implements TxnOwner.
class Transactions {
 public:
  using Done = PageFetcher::Done;

  /// One row change, as rollback needs it: the old value, or that the row
  /// did not exist.
  struct UndoEntry {
    PageId table;
    std::string key;
    bool had_old;
    std::string old_value;
  };

  struct Txn {
    TxnId id = kInvalidTxn;
    TxnState state = TxnState::kActive;
    /// The transaction's row changes, oldest first (Aurora's in-memory
    /// mirror of its durable undo records).
    std::vector<UndoEntry> undo;
    /// The LSN the transaction's durable commit waits for.
    Lsn commit_lsn = kInvalidLsn;
  };

  /// Undo is applied through `pages` (the engine's buffer pool).
  Transactions(sim::EventLoop* loop, PageProvider* pages, TxnOwner* owner)
      : locks_(loop), pages_(pages), owner_(owner) {}

  Transactions(const Transactions&) = delete;
  Transactions& operator=(const Transactions&) = delete;

  /// Registers a new active transaction.
  TxnId Begin();
  /// Registers an active transaction under an id from an earlier
  /// incarnation (recovery's in-flight transactions); Begin() then hands
  /// out only higher ids.
  Txn* Adopt(TxnId id);
  Txn* Find(TxnId id);
  /// The transaction if it is registered and active, else null.
  Txn* FindActive(TxnId id);
  /// The one admission rule of both engines: a statement runs only for a
  /// registered, active transaction, and otherwise fails with Aborted.
  Status Admit(TxnId txn) {
    if (FindActive(txn) != nullptr) return Status::OK();
    return Status::Aborted("transaction not active");
  }

  /// Takes `mode` on (table, key) for `txn`, then runs `attempt(key)`
  /// through the engine's retry loop and calls `finish(status, done)`. A
  /// transaction Admit() refuses (ended by a crash while its statement
  /// waited for CPU) gets Aborted and no lock. A failed lock request
  /// (deadlock victim, timeout) rolls the transaction back before `done`
  /// sees the status. Every callable is moved along, never copied.
  template <typename AttemptFn, typename FinishFn, typename DoneFn>
  void LockAndRun(TxnId txn, PageId table, std::string key, LockMode mode,
                  AttemptFn attempt, FinishFn finish, DoneFn done);

  /// Undoes the transaction's changes newest first, then lets the owner end
  /// the abort, releases its locks and forgets it. InvalidArgument if
  /// unknown.
  void Rollback(TxnId txn, Done done);

  /// A transaction that changed nothing commits at once: releases its
  /// locks and forgets it. Returns false, doing nothing, if it changed
  /// rows; the engine then hardens its commit and calls End().
  bool CommitReadOnly(TxnId txn);
  /// Releases the transaction's locks and forgets it.
  void End(TxnId txn);

  /// Drops every transaction and lock without firing callbacks (crash,
  /// fencing). Ids keep counting up.
  void Reset();

  TxnId next_id() const { return next_id_; }
  void set_next_id(TxnId id) { next_id_ = id; }
  const std::map<TxnId, std::unique_ptr<Txn>>& all() const { return txns_; }
  LockManager* locks() { return &locks_; }

 private:
  /// Undoes the transaction's first `remaining` changes, newest first.
  void UndoFrom(TxnId txn, size_t remaining, Done done);
  /// Restores one row's old value in its own MTR. Idempotent, because
  /// recovery may replay it.
  Status UndoOne(const UndoEntry& e);

  LockManager locks_;
  PageProvider* pages_;
  TxnOwner* owner_;
  TxnId next_id_ = 1;
  std::map<TxnId, std::unique_ptr<Txn>> txns_;
};

template <typename AttemptFn, typename FinishFn, typename DoneFn>
void Transactions::LockAndRun(TxnId txn, PageId table, std::string key,
                              LockMode mode, AttemptFn attempt,
                              FinishFn finish, DoneFn done) {
  if (Status s = Admit(txn); !s.ok()) {
    done(s);
    return;
  }
  Status s = locks_.Lock(txn, table, key, mode);
  // Runs exactly once, so it may move its captures out. It is handed to the
  // lock manager only when the request queues.
  auto with_lock = [this, txn, key = std::move(key),
                    attempt = std::move(attempt), finish = std::move(finish),
                    done = std::move(done)](Status ls) mutable {
    if (ls.ok()) {
      owner_->RunWithRetries(
          [key = std::move(key), attempt = std::move(attempt)]() {
            return attempt(key);
          },
          [finish = std::move(finish), done = std::move(done)](Status s) {
            finish(s, done);
          });
      return;
    }
    Rollback(txn, [done = std::move(done), ls](Status) { done(ls); });
  };
  if (s.IsBusy()) {
    locks_.OnGrant(txn, std::move(with_lock));
    return;
  }
  with_lock(s);
}

}  // namespace aurora

#endif  // AURORA_ENGINE_TRANSACTIONS_H_
