#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "harness/cluster.h"
#include "harness/mysql_cluster.h"

// A statement whose lock request fails (deadlock victim or lock timeout)
// has already rolled its transaction back when its callback runs. The
// workload drivers rely on it: they drop such a transaction's id without
// calling Rollback, so a transaction left open would keep its row locks
// until every later waiter hit the 5 s lock timeout. Both engines run the
// same cases.

namespace aurora {
namespace {

struct AuroraEngine {
  using Cluster = AuroraCluster;
  static ClusterOptions Options() {
    ClusterOptions o;
    o.engine.page_size = 4096;
    o.engine.pages_per_pg = 64;
    o.storage_nodes_per_az = 3;
    return o;
  }
  static Database* Db(Cluster* c) { return c->writer(); }
  static void Crash(Cluster* c) { c->CrashWriter(); }
};

struct MysqlEngine {
  using Cluster = MysqlCluster;
  static MysqlClusterOptions Options() {
    MysqlClusterOptions o;
    o.mysql.engine.page_size = 4096;
    return o;
  }
  static baseline::MirroredMySql* Db(Cluster* c) { return c->db(); }
  static void Crash(Cluster* c) { c->db()->Crash(); }
};

// T1 reads `a`; T2 writes `b`, then queues for `a` behind T1's S lock.
// `victim(db, table, t1, done)` then makes T1 request `b`, which closes the
// cycle, so T1 is the deadlock victim. Checks that T1's statement fails
// with Aborted, that T2's write of `a` completes at once because T1's locks
// are gone, and that T1 itself is gone: Rollback does not know it, and once
// T2 has committed, a later Get of T1 (as TpccDriver::ReadOnlyTxn issues
// after a failed first read) returns Aborted and takes no lock.
template <typename Engine, typename Victim>
void ExpectVictimRolledBack(Victim victim) {
  typename Engine::Cluster cluster(Engine::Options());
  ASSERT_TRUE(cluster.BootstrapSync().ok());
  ASSERT_TRUE(cluster.CreateTableSync("t").ok());
  const PageId table = *cluster.TableAnchorSync("t");
  ASSERT_TRUE(cluster.PutSync(table, "a", "a0").ok());
  ASSERT_TRUE(cluster.PutSync(table, "b", "b0").ok());
  auto* db = Engine::Db(&cluster);
  auto now = [&cluster] { return cluster.loop()->now(); };

  const TxnId t1 = db->Begin();
  const TxnId t2 = db->Begin();
  bool read = false;
  db->Get(t1, table, "a", [&](Result<std::string> r) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    read = true;
  });
  ASSERT_TRUE(cluster.RunUntil([&] { return read; }, Seconds(1)));
  bool wrote_b = false;
  db->Put(t2, table, "b", "b2", [&](Status s) {
    EXPECT_TRUE(s.ok()) << s.ToString();
    wrote_b = true;
  });
  ASSERT_TRUE(cluster.RunUntil([&] { return wrote_b; }, Seconds(1)));
  std::optional<Status> put_a;
  SimTime put_a_at = 0;
  db->Put(t2, table, "a", "a2", [&](Status s) {
    put_a = s;
    put_a_at = now();
  });
  cluster.RunFor(Millis(1));
  ASSERT_FALSE(put_a.has_value()) << "T2 must wait for T1's S lock on a";

  const SimTime started = now();
  std::optional<Status> failed;
  victim(db, table, t1, [&](Status s) { failed = s; });
  ASSERT_TRUE(cluster.RunUntil(
      [&] { return failed.has_value() && put_a.has_value(); }, Seconds(10)));
  EXPECT_TRUE(failed->IsAborted()) << failed->ToString();
  EXPECT_TRUE(put_a->ok()) << put_a->ToString();
  EXPECT_LE(put_a_at - started, Millis(10))
      << "T2 waited for a lock the victim should have released";
  std::optional<Status> rolled_back;
  db->Rollback(t1, [&](Status s) { rolled_back = s; });
  ASSERT_TRUE(rolled_back.has_value());
  EXPECT_TRUE(rolled_back->IsInvalidArgument())
      << "T1 is still registered: " << rolled_back->ToString();

  bool committed = false;
  db->Commit(t2, [&](Status s) {
    EXPECT_TRUE(s.ok()) << s.ToString();
    committed = true;
  });
  ASSERT_TRUE(cluster.RunUntil([&] { return committed; }, Seconds(1)));
  ASSERT_EQ(db->lock_manager()->ActiveLocks(), 0u);
  std::optional<Status> late_read;
  db->Get(t1, table, "a",
          [&](Result<std::string> r) { late_read = r.status(); });
  ASSERT_TRUE(cluster.RunUntil([&] { return late_read.has_value(); },
                               Seconds(1)));
  EXPECT_TRUE(late_read->IsAborted()) << late_read->ToString();
  EXPECT_EQ(db->lock_manager()->ActiveLocks(), 0u)
      << "a statement of the rolled-back T1 took a lock";
}

// The two victim statements: a read and a delete of `b`.
auto GetB = [](auto* db, PageId table, TxnId t1, auto done) {
  db->Get(t1, table, "b", [done](Result<std::string> r) { done(r.status()); });
};
auto DeleteB = [](auto* db, PageId table, TxnId t1, auto done) {
  db->Delete(t1, table, "b", done);
};

// A read admitted just before a crash reaches the lock manager after it,
// when its transaction is gone. It must fail without taking a lock: the
// recovered engine would otherwise keep that lock, and a later write of
// the row would time out behind it.
template <typename Engine>
void ExpectStatementAcrossCrashTakesNoLock() {
  typename Engine::Cluster cluster(Engine::Options());
  ASSERT_TRUE(cluster.BootstrapSync().ok());
  ASSERT_TRUE(cluster.CreateTableSync("t").ok());
  const PageId table = *cluster.TableAnchorSync("t");
  ASSERT_TRUE(cluster.PutSync(table, "a", "a0").ok());
  auto* db = Engine::Db(&cluster);

  std::optional<Status> read;
  db->Get(db->Begin(), table, "a",
          [&](Result<std::string> r) { read = r.status(); });
  Engine::Crash(&cluster);
  ASSERT_TRUE(cluster.RecoverSync().ok());
  ASSERT_TRUE(read.has_value());
  EXPECT_TRUE(read->IsAborted()) << read->ToString();
  EXPECT_EQ(db->lock_manager()->ActiveLocks(), 0u)
      << "the read took a lock for a transaction the crash ended";
  const SimTime started = cluster.loop()->now();
  EXPECT_TRUE(cluster.PutSync(table, "a", "a1").ok());
  EXPECT_LE(cluster.loop()->now() - started, Millis(100));
}

TEST(LockFailureTest, AuroraDeadlockedGetRollsItsTransactionBack) {
  ExpectVictimRolledBack<AuroraEngine>(GetB);
}

TEST(LockFailureTest, AuroraDeadlockedDeleteRollsItsTransactionBack) {
  ExpectVictimRolledBack<AuroraEngine>(DeleteB);
}

TEST(LockFailureTest, MysqlDeadlockedGetRollsItsTransactionBack) {
  ExpectVictimRolledBack<MysqlEngine>(GetB);
}

TEST(LockFailureTest, MysqlDeadlockedDeleteRollsItsTransactionBack) {
  ExpectVictimRolledBack<MysqlEngine>(DeleteB);
}

TEST(LockFailureTest, AuroraStatementAcrossCrashTakesNoLock) {
  ExpectStatementAcrossCrashTakesNoLock<AuroraEngine>();
}

TEST(LockFailureTest, MysqlStatementAcrossCrashTakesNoLock) {
  ExpectStatementAcrossCrashTakesNoLock<MysqlEngine>();
}

}  // namespace
}  // namespace aurora
