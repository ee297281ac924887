// CoordinatorService: the networked control plane (§3 "coordinator
// cluster"). It owns the authoritative routing table — shards on a
// consistent-hash ring, each served by a master and optionally a replica —
// and serves it over RESP:
//
//   CLUSTER ADDNODE <id> <host> <port> [REPLICAOF <shard>]
//   CLUSTER NODES | CLUSTER EPOCH | CLUSTER ROUTE <key>
//   CLUSTER FAIL <id> | CLUSTER RECOVER <id>
//
// Every membership change bumps the epoch and pushes the new snapshot to
// all healthy data nodes (CLUSTER SETSLOTS), so nodes answer -MOVED with
// fresh routes while clients pull refreshes lazily. Registering a replica
// wires replication automatically: the coordinator tells the replica
// REPLICAOF <master host> <master port>. When a master is reported failed,
// the coordinator promotes the shard's healthy replica (REPLICAOF NO ONE),
// repoints the shard at it, and bumps the epoch — the failover flow of
// §6.4, observable from outside via CLUSTER EPOCH / INFO role.
//
// An optional probe thread PINGs every node and reports failures itself;
// clients also report failures they observe (CLUSTER FAIL), so failover
// works with probing disabled (the deterministic test configuration).
//
// The RESP front end is a server::Server whose table holds one CLUSTER row
// next to the shared built-ins (PING, INFO, METRICS, SLOWLOG, LATENCY, ...).
// Its executor runs ThreadMode::kSingle, so control commands execute one at
// a time.

#ifndef TIERBASE_CLUSTER_NET_COORDINATOR_SERVICE_H_
#define TIERBASE_CLUSTER_NET_COORDINATOR_SERVICE_H_

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster_net/routing.h"
#include "common/mutex.h"
#include "common/transport.h"
#include "server/server.h"

namespace tierbase::cluster_net {

class CoordinatorService {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    uint16_t port = 0;  // 0 = ephemeral.
    /// Ring points per shard; Start() rejects values outside
    /// [1, WireRouting::kMaxVirtualNodes].
    int virtual_nodes = 64;
    /// PING every node this often and fail unresponsive ones; 0 = off.
    uint64_t probe_interval_micros = 0;
    /// Per-call I/O budget for control-plane RPCs to data nodes (probes,
    /// SETSLOTS pushes, REPLICAOF wiring). A hung node costs the control
    /// plane at most this, not a kernel TCP timeout.
    uint64_t node_io_timeout_micros = 2'000'000;
    /// Dial data nodes through this transport instead of the process
    /// default (tests inject partitions here).
    common::Transport* transport = nullptr;
  };

  explicit CoordinatorService(Options options);
  ~CoordinatorService();

  CoordinatorService(const CoordinatorService&) = delete;
  CoordinatorService& operator=(const CoordinatorService&) = delete;

  Status Start();
  void Stop();
  /// Async-signal-safe half of Stop(): ends the event loop; the caller's
  /// Wait()/Stop() then performs the joins.
  void RequestStop() {
    if (server_->loop() != nullptr) server_->loop()->Stop();
  }
  /// Blocks until the control loop exits (SHUTDOWN or Stop()).
  void Wait() { server_->Wait(); }
  uint16_t port() const { return server_->port(); }

  // In-process API (the RESP commands call straight into these).
  Status AddNode(const std::string& id, const std::string& host,
                 uint16_t port, const std::string& replica_of_shard);
  Status MarkFailed(const std::string& id);
  Status Recover(const std::string& id);
  uint64_t epoch() const;
  WireRouting Routing() const;

  uint64_t failovers() const { return failovers_.load(); }
  uint64_t probes_sent() const { return probes_sent_.load(); }
  uint64_t probe_failures() const { return probe_failures_.load(); }
  /// Nodes the prober (not a client report) marked failed.
  uint64_t probe_marked_failed() const { return probe_marked_failed_.load(); }

 private:
  /// Registers the coordinator's instruments. Called once from the ctor.
  void RegisterInstruments();
  /// The CLUSTER row's handler (the subcommands in the file comment).
  void ClusterCommand(const server::RespCommand& cmd, std::string* out);
  /// Best-effort CLUSTER SETSLOTS push to every healthy node.
  void PushRouting();
  /// Best-effort one-shot command to a node (REPLICAOF wiring, probes),
  /// bounded by options_.node_io_timeout_micros.
  Status CallNode(const NodeRecord& node, const std::vector<Slice>& args,
                  server::RespValue* reply) const;
  void ProbeLoop();

  Options options_;
  mutable common::Mutex mu_;
  WireRouting routing_ GUARDED_BY(mu_);

  std::thread probe_thread_;
  std::atomic<bool> stop_probe_{false};
  std::atomic<uint64_t> failovers_{0};
  std::atomic<uint64_t> probes_sent_{0};
  std::atomic<uint64_t> probe_failures_{0};
  std::atomic<uint64_t> probe_marked_failed_{0};
  std::unique_ptr<server::Server> server_;
};

}  // namespace tierbase::cluster_net

#endif  // TIERBASE_CLUSTER_NET_COORDINATOR_SERVICE_H_
