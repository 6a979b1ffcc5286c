#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/lock_manager.h"
#include "sim/event_loop.h"

namespace aurora {
namespace {

class LockManagerTest : public ::testing::Test {
 protected:
  LockManagerTest() : locks_(&loop_) {}

  /// Convenience: request and record the grant status asynchronously.
  Status Lock(TxnId txn, const std::string& key, LockMode mode,
              Status* async_result = nullptr) {
    Status s = locks_.Lock(txn, 1, key, mode);
    if (s.IsBusy()) {
      locks_.OnGrant(txn, [async_result](Status granted) {
        if (async_result != nullptr) *async_result = granted;
      });
    }
    return s;
  }

  sim::EventLoop loop_;
  LockManager locks_;
};

TEST_F(LockManagerTest, SharedLocksCoexist) {
  EXPECT_TRUE(Lock(1, "k", LockMode::kShared).ok());
  EXPECT_TRUE(Lock(2, "k", LockMode::kShared).ok());
  EXPECT_TRUE(Lock(3, "k", LockMode::kShared).ok());
  EXPECT_EQ(locks_.ActiveLocks(), 1u);
}

TEST_F(LockManagerTest, ExclusiveExcludes) {
  EXPECT_TRUE(Lock(1, "k", LockMode::kExclusive).ok());
  Status granted = Status::NotFound("");
  EXPECT_TRUE(Lock(2, "k", LockMode::kShared, &granted).IsBusy());
  EXPECT_TRUE(granted.IsNotFound());  // not yet granted
  locks_.ReleaseAll(1);
  EXPECT_TRUE(granted.ok());  // granted on release
}

TEST_F(LockManagerTest, ReentrantAcquisition) {
  EXPECT_TRUE(Lock(1, "k", LockMode::kShared).ok());
  EXPECT_TRUE(Lock(1, "k", LockMode::kShared).ok());
  EXPECT_TRUE(Lock(1, "k", LockMode::kExclusive).ok());  // sole-holder upgrade
  EXPECT_TRUE(Lock(1, "k", LockMode::kShared).ok());     // X covers S
}

TEST_F(LockManagerTest, FifoFairnessPreventsWriterStarvation) {
  EXPECT_TRUE(Lock(1, "k", LockMode::kShared).ok());
  Status writer = Status::NotFound("");
  EXPECT_TRUE(Lock(2, "k", LockMode::kExclusive, &writer).IsBusy());
  // A later reader must NOT barge past the queued writer.
  Status reader = Status::NotFound("");
  EXPECT_TRUE(Lock(3, "k", LockMode::kShared, &reader).IsBusy());
  locks_.ReleaseAll(1);
  EXPECT_TRUE(writer.ok());
  EXPECT_TRUE(reader.IsNotFound());  // still behind the writer
  locks_.ReleaseAll(2);
  EXPECT_TRUE(reader.ok());
}

TEST_F(LockManagerTest, DeadlockDetectedOnCycle) {
  EXPECT_TRUE(Lock(1, "a", LockMode::kExclusive).ok());
  EXPECT_TRUE(Lock(2, "b", LockMode::kExclusive).ok());
  // 1 waits for b (held by 2).
  EXPECT_TRUE(Lock(1, "b", LockMode::kExclusive).IsBusy());
  // 2 -> a would close the cycle: refused immediately.
  EXPECT_TRUE(Lock(2, "a", LockMode::kExclusive).IsAborted());
  EXPECT_EQ(locks_.stats().deadlocks, 1u);
  // Victim rolls back; waiter proceeds.
  Status waiter = Status::NotFound("");
  locks_.ReleaseAll(2);
  EXPECT_EQ(locks_.WaitingTxns(), 0u);
}

TEST_F(LockManagerTest, UpgradeDeadlockDetected) {
  // Classic S->X upgrade collision.
  EXPECT_TRUE(Lock(1, "k", LockMode::kShared).ok());
  EXPECT_TRUE(Lock(2, "k", LockMode::kShared).ok());
  EXPECT_TRUE(Lock(1, "k", LockMode::kExclusive).IsBusy());  // waits on 2
  EXPECT_TRUE(Lock(2, "k", LockMode::kExclusive).IsAborted());  // cycle
}

TEST_F(LockManagerTest, SoleHolderUpgradesPastAQueuedWriter) {
  EXPECT_TRUE(Lock(1, "k", LockMode::kShared).ok());
  Status writer = Status::NotFound("");
  EXPECT_TRUE(Lock(2, "k", LockMode::kExclusive, &writer).IsBusy());
  // The writer waits for txn 1's S lock; queueing 1's upgrade behind it
  // would close a cycle with no holder edge, ended only by the timeout.
  Status upgrade = Status::NotFound("");
  EXPECT_TRUE(Lock(1, "k", LockMode::kExclusive, &upgrade).ok());
  EXPECT_TRUE(upgrade.IsNotFound());  // granted at once, no callback
  EXPECT_TRUE(writer.IsNotFound());
  locks_.ReleaseAll(1);
  EXPECT_TRUE(writer.ok());
  loop_.RunFor(Seconds(6));
  EXPECT_EQ(locks_.stats().timeouts, 0u);
}

TEST_F(LockManagerTest, QueuedUpgradeGoesAheadOfWaitersHoldingNothing) {
  EXPECT_TRUE(Lock(1, "k", LockMode::kShared).ok());
  EXPECT_TRUE(Lock(3, "k", LockMode::kShared).ok());
  Status writer = Status::NotFound("");
  EXPECT_TRUE(Lock(2, "k", LockMode::kExclusive, &writer).IsBusy());
  // Txn 1 must wait for reader 3, but ahead of the writer, which waits
  // for 1 anyway.
  Status upgrade = Status::NotFound("");
  EXPECT_TRUE(Lock(1, "k", LockMode::kExclusive, &upgrade).IsBusy());
  locks_.ReleaseAll(3);
  EXPECT_TRUE(upgrade.ok());
  EXPECT_TRUE(writer.IsNotFound());
  locks_.ReleaseAll(1);
  EXPECT_TRUE(writer.ok());
  loop_.RunFor(Seconds(6));
  EXPECT_EQ(locks_.stats().timeouts, 0u);
}

TEST_F(LockManagerTest, ThreeWayDeadlockDetected) {
  EXPECT_TRUE(Lock(1, "a", LockMode::kExclusive).ok());
  EXPECT_TRUE(Lock(2, "b", LockMode::kExclusive).ok());
  EXPECT_TRUE(Lock(3, "c", LockMode::kExclusive).ok());
  EXPECT_TRUE(Lock(1, "b", LockMode::kExclusive).IsBusy());
  EXPECT_TRUE(Lock(2, "c", LockMode::kExclusive).IsBusy());
  EXPECT_TRUE(Lock(3, "a", LockMode::kExclusive).IsAborted());
}

TEST_F(LockManagerTest, TimeoutFiresForStuckWaiter) {
  EXPECT_TRUE(Lock(1, "k", LockMode::kExclusive).ok());
  Status waiter = Status::NotFound("");
  EXPECT_TRUE(Lock(2, "k", LockMode::kExclusive, &waiter).IsBusy());
  loop_.RunFor(Seconds(6));
  EXPECT_TRUE(waiter.IsTimedOut());
  EXPECT_EQ(locks_.stats().timeouts, 1u);
  // Lock table cleaned up; holder unaffected.
  EXPECT_TRUE(Lock(1, "k", LockMode::kExclusive).ok());
}

TEST_F(LockManagerTest, ReleaseAllCancelsWaits) {
  EXPECT_TRUE(Lock(1, "k", LockMode::kExclusive).ok());
  Status waiter = Status::NotFound("");
  EXPECT_TRUE(Lock(2, "k", LockMode::kExclusive, &waiter).IsBusy());
  locks_.ReleaseAll(2);  // waiter gives up (rollback)
  EXPECT_EQ(locks_.WaitingTxns(), 0u);
  locks_.ReleaseAll(1);
  EXPECT_TRUE(waiter.IsNotFound());  // callback never fired
  EXPECT_EQ(locks_.ActiveLocks(), 0u);
}

TEST_F(LockManagerTest, ChainedGrantsCascade) {
  EXPECT_TRUE(Lock(1, "k", LockMode::kExclusive).ok());
  std::vector<Status> granted(3, Status::NotFound(""));
  EXPECT_TRUE(Lock(2, "k", LockMode::kShared, &granted[0]).IsBusy());
  EXPECT_TRUE(Lock(3, "k", LockMode::kShared, &granted[1]).IsBusy());
  EXPECT_TRUE(Lock(4, "k", LockMode::kShared, &granted[2]).IsBusy());
  locks_.ReleaseAll(1);
  // All compatible queued readers granted in one cascade.
  EXPECT_TRUE(granted[0].ok());
  EXPECT_TRUE(granted[1].ok());
  EXPECT_TRUE(granted[2].ok());
}

TEST_F(LockManagerTest, ResetDropsEverythingSilently) {
  EXPECT_TRUE(Lock(1, "a", LockMode::kExclusive).ok());
  Status waiter = Status::NotFound("");
  EXPECT_TRUE(Lock(2, "a", LockMode::kExclusive, &waiter).IsBusy());
  locks_.Reset();
  EXPECT_EQ(locks_.ActiveLocks(), 0u);
  EXPECT_EQ(locks_.WaitingTxns(), 0u);
  loop_.Run();
  EXPECT_TRUE(waiter.IsNotFound());  // no callback after reset
}

TEST_F(LockManagerTest, CancelledWaitGrantsTheRequestsBehindIt) {
  EXPECT_TRUE(Lock(1, "k", LockMode::kShared).ok());
  Status writer = Status::NotFound("");
  Status reader = Status::NotFound("");
  EXPECT_TRUE(Lock(2, "k", LockMode::kExclusive, &writer).IsBusy());
  EXPECT_TRUE(Lock(3, "k", LockMode::kShared, &reader).IsBusy());
  // Txn 2 rolls back while queued: txn 3's S request is compatible with
  // txn 1's S lock and must not wait for the lock timeout.
  locks_.ReleaseAll(2);
  EXPECT_TRUE(reader.ok());
  EXPECT_TRUE(writer.IsNotFound());  // a cancelled wait never fires
  EXPECT_EQ(locks_.WaitingTxns(), 0u);
  loop_.RunFor(Seconds(6));
  EXPECT_EQ(locks_.stats().timeouts, 0u);
  locks_.ReleaseAll(1);
  locks_.ReleaseAll(3);
  EXPECT_EQ(locks_.ActiveLocks(), 0u);
}

TEST_F(LockManagerTest, ReleaseAllGrantsInNameOrder) {
  // Txn 1 takes c, b, a (reverse order) and each has a queued writer.
  for (const char* key : {"c", "b", "a"}) {
    EXPECT_TRUE(Lock(1, key, LockMode::kExclusive).ok());
  }
  std::vector<std::string> order;
  TxnId txn = 2;
  for (const char* key : {"b", "c", "a"}) {
    ASSERT_TRUE(locks_.Lock(txn, 1, key, LockMode::kExclusive).IsBusy());
    locks_.OnGrant(txn, [&order, key](Status s) {
      EXPECT_TRUE(s.ok());
      order.push_back(key);
    });
    ++txn;
  }
  // A second tree sorts after the first whatever its key.
  EXPECT_TRUE(locks_.Lock(1, 0, "z", LockMode::kExclusive).ok());
  ASSERT_TRUE(locks_.Lock(9, 0, "z", LockMode::kExclusive).IsBusy());
  locks_.OnGrant(9, [&order](Status) { order.push_back("tree0/z"); });
  locks_.ReleaseAll(1);
  EXPECT_EQ(order,
            (std::vector<std::string>{"tree0/z", "a", "b", "c"}));
}

TEST_F(LockManagerTest, GrantCallbackMayReleaseOtherTxnsMidCascade) {
  // Txn 1 holds a and b. Txn 2 waits on a; its grant releases itself (so
  // the name being granted falls idle inside the callback) and txn 4, which
  // waits on b behind nobody else. Txn 3 queues on a behind txn 2.
  EXPECT_TRUE(Lock(1, "a", LockMode::kExclusive).ok());
  EXPECT_TRUE(Lock(1, "b", LockMode::kExclusive).ok());
  EXPECT_TRUE(Lock(5, "c", LockMode::kExclusive).ok());
  int fired = 0;
  ASSERT_TRUE(locks_.Lock(2, 1, "a", LockMode::kExclusive).IsBusy());
  locks_.OnGrant(2, [this, &fired](Status s) {
    EXPECT_TRUE(s.ok());
    ++fired;
    locks_.ReleaseAll(2);
    locks_.ReleaseAll(4);
    locks_.ReleaseAll(5);
  });
  Status third = Status::NotFound("");
  Status fourth = Status::NotFound("");
  EXPECT_TRUE(Lock(3, "a", LockMode::kShared, &third).IsBusy());
  EXPECT_TRUE(Lock(4, "b", LockMode::kShared, &fourth).IsBusy());
  locks_.ReleaseAll(1);
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(third.ok());        // granted when txn 2 released a
  EXPECT_TRUE(fourth.IsNotFound());  // its wait was cancelled
  EXPECT_EQ(locks_.WaitingTxns(), 0u);
  EXPECT_EQ(locks_.ActiveLocks(), 1u);  // txn 3's S lock on a
  locks_.ReleaseAll(3);
  EXPECT_EQ(locks_.ActiveLocks(), 0u);
  loop_.RunFor(Seconds(6));
  EXPECT_EQ(locks_.stats().timeouts, 0u);
}

TEST_F(LockManagerTest, GrantCallbackMayResetMidCascade) {
  EXPECT_TRUE(Lock(1, "a", LockMode::kExclusive).ok());
  EXPECT_TRUE(Lock(1, "b", LockMode::kExclusive).ok());
  ASSERT_TRUE(locks_.Lock(2, 1, "a", LockMode::kExclusive).IsBusy());
  locks_.OnGrant(2, [this](Status s) {
    EXPECT_TRUE(s.ok());
    locks_.Reset();
  });
  Status later = Status::NotFound("");
  EXPECT_TRUE(Lock(3, "b", LockMode::kExclusive, &later).IsBusy());
  locks_.ReleaseAll(1);
  EXPECT_TRUE(later.IsNotFound());  // dropped by the reset, never fired
  EXPECT_EQ(locks_.ActiveLocks(), 0u);
  EXPECT_EQ(locks_.WaitingTxns(), 0u);
  loop_.RunFor(Seconds(6));
  EXPECT_TRUE(later.IsNotFound());
  // The table works after the reset.
  EXPECT_TRUE(Lock(3, "b", LockMode::kExclusive).ok());
  EXPECT_EQ(locks_.ActiveLocks(), 1u);
}

TEST_F(LockManagerTest, DifferentTreesAreIndependentNamespaces) {
  EXPECT_TRUE(locks_.Lock(1, 1, "k", LockMode::kExclusive).ok());
  EXPECT_TRUE(locks_.Lock(2, 2, "k", LockMode::kExclusive).ok());
  EXPECT_EQ(locks_.ActiveLocks(), 2u);
}

}  // namespace
}  // namespace aurora
