#ifndef AURORA_HARNESS_SYNC_OPS_H_
#define AURORA_HARNESS_SYNC_OPS_H_

#include <functional>
#include <string>
#include <utility>

#include "common/result.h"
#include "common/units.h"
#include "log/types.h"
#include "sim/sharded_loop.h"

// The synchronous helpers both test clusters (Aurora and the mirrored-MySQL
// baseline) offer: each starts one engine call and runs the cluster's event
// loop until the call's callback fires.

namespace aurora {

/// Runs `loop` until `pred` holds or `max` of simulated time has passed;
/// returns whether it holds (checked early if the queue drains first).
inline bool RunLoopUntil(sim::ShardedEventLoop* loop,
                         const std::function<bool()>& pred, SimDuration max) {
  const SimTime deadline = loop->now() + max;
  while (!pred() && loop->now() < deadline) {
    if (!loop->RunOne()) return pred();  // queue drained first
  }
  return pred();
}

/// Calls `start(done)` and runs `cluster` until `done` delivers the result,
/// or returns TimedOut(`what`) after `max`.
template <typename R, typename Cluster, typename Start>
R RunSync(Cluster* cluster, const char* what, SimDuration max, Start start) {
  R result = Status::TimedOut(what);
  bool done = false;
  start([&](R r) {
    result = std::move(r);
    done = true;
  });
  cluster->RunUntil([&] { return done; }, max);
  return result;
}

/// Runs `statement(txn, done)` in a new transaction of `db` and commits it
/// if the statement succeeds.
template <typename Cluster, typename Db, typename Statement>
Status StatementSync(Cluster* cluster, Db* db, const char* what,
                     Statement statement) {
  return RunSync<Status>(cluster, what, Seconds(60), [&](auto done) {
    const TxnId txn = db->Begin();
    statement(txn, [db, txn, done](Status s) {
      if (!s.ok()) {
        done(s);
        return;
      }
      db->Commit(txn, done);
    });
  });
}

/// A point read in its own transaction, returned once that commits.
template <typename Cluster, typename Db>
Result<std::string> ReadSync(Cluster* cluster, Db* db, PageId table,
                             const std::string& key) {
  Result<std::string> result = Status::TimedOut("get did not finish");
  bool done = false;
  const TxnId txn = db->Begin();
  db->Get(txn, table, key, [&](Result<std::string> r) {
    result = std::move(r);
    db->Commit(txn, [&](Status) { done = true; });
  });
  cluster->RunUntil([&] { return done; }, Seconds(60));
  return result;
}

}  // namespace aurora

#endif  // AURORA_HARNESS_SYNC_OPS_H_
