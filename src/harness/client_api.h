#ifndef AURORA_HARNESS_CLIENT_API_H_
#define AURORA_HARNESS_CLIENT_API_H_

#include <functional>
#include <string>
#include <type_traits>

#include "baseline/mirrored_mysql.h"
#include "engine/database.h"

namespace aurora {

/// Engine-agnostic OLTP facade so workload generators (SysBench, TPC-C,
/// customer scenarios) can drive the Aurora engine and the mirrored-MySQL
/// baseline identically. Both engines keep one contract the drivers rely
/// on: a statement whose lock request fails (deadlock victim, lock timeout)
/// has already rolled its transaction back when its callback runs, and a
/// later statement of it fails with Aborted, taking no lock.
class ClientApi {
 public:
  virtual ~ClientApi() = default;

  virtual TxnId Begin() = 0;
  virtual void Put(TxnId txn, PageId table, const std::string& key,
                   const std::string& value,
                   std::function<void(Status)> done) = 0;
  virtual void Get(TxnId txn, PageId table, const std::string& key,
                   std::function<void(Result<std::string>)> done) = 0;
  virtual void Delete(TxnId txn, PageId table, const std::string& key,
                      std::function<void(Status)> done) = 0;
  virtual void Commit(TxnId txn, std::function<void(Status)> done) = 0;
  virtual void Rollback(TxnId txn, std::function<void(Status)> done) = 0;
  /// Lets drivers report the connection count (the baseline's contention
  /// model consumes it; Aurora ignores it).
  virtual void SetActiveConnections(int n) = 0;
};

/// Forwards every call to an engine with the ClientApi surface: the Aurora
/// writer or the mirrored-MySQL baseline.
template <typename Db>
class EngineClient : public ClientApi {
 public:
  explicit EngineClient(Db* db) : db_(db) {}

  TxnId Begin() override { return db_->Begin(); }
  void Put(TxnId txn, PageId table, const std::string& key,
           const std::string& value,
           std::function<void(Status)> done) override {
    db_->Put(txn, table, key, value, std::move(done));
  }
  void Get(TxnId txn, PageId table, const std::string& key,
           std::function<void(Result<std::string>)> done) override {
    db_->Get(txn, table, key, std::move(done));
  }
  void Delete(TxnId txn, PageId table, const std::string& key,
              std::function<void(Status)> done) override {
    db_->Delete(txn, table, key, std::move(done));
  }
  void Commit(TxnId txn, std::function<void(Status)> done) override {
    db_->Commit(txn, std::move(done));
  }
  void Rollback(TxnId txn, std::function<void(Status)> done) override {
    db_->Rollback(txn, std::move(done));
  }
  void SetActiveConnections(int n) override {
    if constexpr (std::is_same_v<Db, baseline::MirroredMySql>) {
      db_->mutable_options()->active_connections = n;
    }
  }

 private:
  Db* db_;
};

using AuroraClient = EngineClient<Database>;
using MysqlClient = EngineClient<baseline::MirroredMySql>;

}  // namespace aurora

#endif  // AURORA_HARNESS_CLIENT_API_H_
