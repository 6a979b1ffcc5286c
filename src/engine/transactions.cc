#include "engine/transactions.h"

#include <algorithm>

#include "page/btree.h"

namespace aurora {

TxnId Transactions::Begin() { return Adopt(next_id_)->id; }

Transactions::Txn* Transactions::Adopt(TxnId id) {
  next_id_ = std::max(next_id_, id + 1);
  std::unique_ptr<Txn>& txn = txns_[id];
  txn = std::make_unique<Txn>();
  txn->id = id;
  return txn.get();
}

Transactions::Txn* Transactions::Find(TxnId id) {
  auto it = txns_.find(id);
  return it == txns_.end() ? nullptr : it->second.get();
}

Transactions::Txn* Transactions::FindActive(TxnId id) {
  Txn* t = Find(id);
  return t != nullptr && t->state == TxnState::kActive ? t : nullptr;
}

void Transactions::Rollback(TxnId txn, Done done) {
  Txn* t = Find(txn);
  if (t == nullptr) {
    done(Status::InvalidArgument("unknown transaction"));
    return;
  }
  t->state = TxnState::kAborted;
  UndoFrom(txn, t->undo.size(), std::move(done));
}

void Transactions::UndoFrom(TxnId txn, size_t remaining, Done done) {
  const Txn* t = Find(txn);
  if (t == nullptr) {
    done(Status::Aborted("transaction gone during rollback"));
    return;
  }
  if (remaining == 0) {
    owner_->EndAbort(txn,
                     [this, txn, done = std::move(done)](Status s) mutable {
                       End(txn);
                       done(s);
                     });
    return;
  }
  owner_->RunWithRetries(
      [this, txn, remaining]() -> Status {
        const Txn* t = Find(txn);
        if (t == nullptr) {
          return Status::Aborted("transaction gone during rollback");
        }
        return UndoOne(t->undo[remaining - 1]);
      },
      [this, txn, remaining, done = std::move(done)](Status s) mutable {
        if (!s.ok()) {
          done(s);
          return;
        }
        UndoFrom(txn, remaining - 1, std::move(done));
      });
}

Status Transactions::UndoOne(const UndoEntry& e) {
  MiniTransaction mtr(kInvalidTxn);
  BTree tree(pages_, e.table);
  Status s;
  if (e.had_old) {
    s = tree.Upsert(e.key, e.old_value, &mtr);
  } else {
    s = tree.Delete(e.key, &mtr);
    if (s.IsNotFound()) s = Status::OK();
  }
  if (!s.ok()) {
    mtr.Abort();
    return s;
  }
  owner_->AppendLog(&mtr);
  return Status::OK();
}

bool Transactions::CommitReadOnly(TxnId txn) {
  const Txn* t = Find(txn);
  if (t == nullptr || !t->undo.empty()) return false;
  End(txn);
  return true;
}

void Transactions::End(TxnId txn) {
  locks_.ReleaseAll(txn);
  txns_.erase(txn);
}

void Transactions::Reset() {
  locks_.Reset();
  txns_.clear();
}

}  // namespace aurora
