#ifndef AURORA_BASELINE_EBS_H_
#define AURORA_BASELINE_EBS_H_

#include <functional>
#include <map>
#include <string>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "sim/disk.h"
#include "sim/event_loop.h"
#include "sim/network.h"

namespace aurora::baseline {

/// A simulated EBS volume: a network block service with a synchronous
/// AZ-local mirror (Figure 2 — every write is acknowledged only after both
/// the primary EBS server and its mirror have persisted it).
///
/// Addressing is by named object ("wal/000042", "page/17", "dwb", ...) with
/// whole-object writes, which is how the baseline engine uses it.
class EbsVolume {
 public:
  EbsVolume(sim::EventLoop* loop, sim::Network* network, sim::NodeId server,
            sim::NodeId mirror, sim::DiskOptions disk_options, Random rng);

  EbsVolume(const EbsVolume&) = delete;
  EbsVolume& operator=(const EbsVolume&) = delete;

  /// Client-side API (used by the engine instance that attached the
  /// volume): the payload crosses the network to the EBS server, is
  /// persisted, mirrored, and acknowledged.
  void Write(sim::NodeId client, const std::string& key, std::string bytes,
             std::function<void(Status)> done);
  void Read(sim::NodeId client, const std::string& key,
            std::function<void(Result<std::string>)> done);

  /// Direct (recovery-path, same-instance) accessors.
  Result<std::string> GetSync(const std::string& key) const;
  std::vector<std::string> ListKeys(const std::string& prefix) const;
  bool Contains(const std::string& key) const { return objects_.count(key); }

  uint64_t writes() const { return writes_; }
  uint64_t bytes_written() const { return bytes_written_; }

  /// Client-side completion routing: the engine owning the client node must
  /// forward EBS ack/response messages here.
  void HandleClientSide(const sim::Message& msg);

 private:
  struct PendingOp {
    sim::NodeId client;
    std::function<void(Status)> write_done;
    std::function<void(Result<std::string>)> read_done;
    std::string key;
    std::string bytes;
  };

  void HandleServerMessage(const sim::Message& msg);
  void HandleMirrorMessage(const sim::Message& msg);

  sim::EventLoop* loop_;
  sim::Network* network_;
  sim::NodeId server_;
  sim::NodeId mirror_;
  sim::Disk server_disk_;
  sim::Disk mirror_disk_;

  std::map<std::string, std::string> objects_;
  std::map<uint64_t, PendingOp> pending_;
  uint64_t next_op_ = 1;
  uint64_t writes_ = 0;
  uint64_t bytes_written_ = 0;
};

}  // namespace aurora::baseline

#endif  // AURORA_BASELINE_EBS_H_
