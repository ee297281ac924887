// NodeClusterState: everything a tierbase_server process needs to act as a
// member of the networked cluster.
//
//   * Identity + routing. The node knows its cluster id; the coordinator
//     pushes routing snapshots via CLUSTER SETSLOTS. Keyed commands check
//     ownership against the snapshot and answer -MOVED for misrouted keys,
//     which is what lets smart clients and the proxy detect stale routes
//     and refresh on the epoch bump.
//   * Master role. Applied string mutations are recorded into a bounded
//     OpLog; replicas pull ranges over the wire with REPLPULL, and WAIT
//     reports how many replicas have acknowledged the current head. The
//     OpLog keeps op copies only from its first REPLPULL on, so a node
//     without replicas holds just a sequence counter.
//   * Replica role. REPLICAOF starts a pull thread that streams the
//     master's oplog over a persistent RESP connection, applying each op
//     locally and acking by sequence. A sequence gap (bounded-ring
//     overrun) triggers a full resync via REPLSNAPSHOT pages. REPLICAOF NO
//     ONE — sent by the coordinator on failover — stops the link and
//     promotes the node to master. Its own oplog has counted every applied
//     op all along but holds copies only if something pulled from it, so
//     a new replica chaining off it full-resyncs once, then streams.
//
// Scope: string ops replicate (SET with TTL, DEL, EXPIRE, FLUSHALL); rich
// cache-tier types stay node-local in this reproduction. Replication
// streams the cache tier — full resync pages come from the cache SCAN, so
// cluster data nodes are expected to run cache-only/WAL policies (the
// configuration every cluster test and script uses); a tiered master
// would not snapshot storage-only keys to its replica.

#ifndef TIERBASE_CLUSTER_NET_NODE_STATE_H_
#define TIERBASE_CLUSTER_NET_NODE_STATE_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "cluster_net/oplog.h"
#include "cluster_net/routing.h"
#include "common/mutex.h"
#include "common/retry.h"
#include "common/transport.h"
#include "core/tierbase.h"
#include "server/client.h"

namespace tierbase::cluster_net {

/// Immutable snapshot installed by CLUSTER SETSLOTS; readers grab the
/// shared_ptr under a short lock and route against it lock-free.
struct RoutingView {
  WireRouting wire;
  Router router;

  explicit RoutingView(WireRouting w)
      : wire(std::move(w)), router(wire.BuildRouter()) {}
};

class NodeClusterState {
 public:
  struct Options {
    std::string id;
    size_t oplog_capacity = 65536;
    /// Replica idle poll interval between empty REPLPULLs.
    uint64_t pull_interval_micros = 2000;
    size_t pull_max_ops = 512;
    /// Backoff for the pull link against an unreachable master: jittered
    /// exponential from 20 ms up to 1 s instead of hammering connect().
    common::RetryPolicy pull_retry;
    /// Connect/IO budget for the pull link. Bounded by default so a
    /// black-holed master (partitioned, SIGSTOPped) turns into a failed
    /// pull → backoff → reconnect instead of a read() stuck forever —
    /// a stuck pull thread would also hang the REPLICAOF NO ONE that
    /// promotes this replica (StopReplication joins it). 0 = unbounded.
    uint64_t pull_io_timeout_micros = 2'000'000;
    /// Dial through this transport instead of the process default (tests
    /// inject partitions here).
    common::Transport* transport = nullptr;
  };

  NodeClusterState(TierBase* db, Options options);
  ~NodeClusterState();

  NodeClusterState(const NodeClusterState&) = delete;
  NodeClusterState& operator=(const NodeClusterState&) = delete;

  const std::string& id() const { return options_.id; }
  bool is_replica() const { return is_replica_.load(std::memory_order_acquire); }
  /// Epoch of the installed routing snapshot (0 = none yet).
  uint64_t epoch() const;

  // --- Routing. ---
  Status InstallRouting(const std::string& payload);
  std::shared_ptr<const RoutingView> routing() const;
  /// True if `key` belongs to another shard; *moved_error then holds the
  /// RESP error payload ("MOVED <epoch> <shard> <host:port>").
  bool CheckMoved(const Slice& key, std::string* moved_error);

  /// Lock-free misroute checker bound to one routing snapshot. Fetch one
  /// per pipelined batch (routing() takes a mutex) and test many keys.
  class RouteChecker {
   public:
    RouteChecker() = default;
    RouteChecker(std::shared_ptr<const RoutingView> view,
                 const NodeRecord* self)
        : view_(std::move(view)), self_(self) {}
    /// False also covers "no routing installed" (serve everything).
    bool Misrouted(const Slice& key) const {
      if (view_ == nullptr || self_ == nullptr) return false;
      std::string shard = view_->router.Route(key);
      return !shard.empty() && shard != self_->shard;
    }

   private:
    std::shared_ptr<const RoutingView> view_;
    const NodeRecord* self_ = nullptr;  // Points into *view_.
  };
  RouteChecker route_checker() const;

  /// Serializes engine-apply + oplog-append for replicated writes, so the
  /// oplog order always matches the apply order under multi-threaded
  /// dispatch (two racing SETs of one key must not replicate reversed).
  common::Mutex& write_order_mu() { return write_order_mu_; }

  // --- Master side. ---
  OpLog* oplog() { return &oplog_; }
  void RecordSet(const Slice& key, const Slice& value, uint64_t ttl_micros);
  void RecordDelete(const Slice& key);
  void RecordExpire(const Slice& key, uint64_t ttl_micros);
  void RecordFlush();
  /// REPLPULL bookkeeping: `acked` = highest sequence the replica applied.
  void NoteReplicaAck(const std::string& replica_id, uint64_t acked);
  /// Replicas whose ack has reached `target` (WAIT).
  size_t CountReplicasAtLeast(uint64_t target) const;
  size_t connected_replicas() const;

  // --- Replica side. ---
  Status StartReplicaOf(const std::string& host, uint16_t port);
  /// REPLICAOF NO ONE: stop pulling and become a master.
  void StopReplication();
  uint64_t replica_applied_seq() const { return replica_applied_.load(); }
  /// Master head at the last pull minus what we applied, in ops.
  uint64_t replica_lag() const;
  std::string master_endpoint() const;
  uint64_t full_resyncs() const { return full_resyncs_.load(); }
  /// Replicated ops the local engine refused (e.g. a WAL/flush error on a
  /// durable replica). Non-zero means the replica is stalled, not silently
  /// diverging: replica_applied_ stops advancing so the op is re-pulled.
  uint64_t apply_failures() const { return apply_failures_.load(); }

  uint64_t moved_replies() const { return moved_replies_.load(); }

  /// Successful (re)connects of the pull link.
  uint64_t pull_connects() const { return pull_connects_.load(); }
  /// Backoff sleeps taken by the pull link (failed connect or failed pull).
  uint64_t pull_backoffs() const { return pull_backoffs_.load(); }
  uint64_t last_pull_backoff_micros() const {
    return last_pull_backoff_micros_.load();
  }

  /// "# Cluster" INFO section lines (each "key:value\r\n").
  void AppendInfo(std::string* out) const;

 private:
  void PullLoop();
  /// One pull round trip; false when the caller should back off (idle or
  /// connection trouble).
  bool PullOnce(server::Client* client);
  Status FullResync(server::Client* client);
  Status ApplyOp(const ReplOp& op);

  TierBase* db_;
  Options options_;
  OpLog oplog_;

  mutable common::Mutex routing_mu_;
  std::shared_ptr<const RoutingView> routing_view_ GUARDED_BY(routing_mu_);
  common::Mutex write_order_mu_;

  // Replica-ack table (master side).
  mutable common::Mutex acks_mu_;
  std::map<std::string, uint64_t> replica_acks_ GUARDED_BY(acks_mu_);

  // Replica link (replica side).
  mutable common::Mutex link_mu_;
  std::string master_host_ GUARDED_BY(link_mu_);
  uint16_t master_port_ GUARDED_BY(link_mu_) = 0;
  std::thread pull_thread_ GUARDED_BY(link_mu_);
  std::atomic<bool> stop_pull_{false};
  std::atomic<bool> is_replica_{false};
  std::atomic<uint64_t> replica_applied_{0};
  std::atomic<uint64_t> master_head_seen_{0};
  std::atomic<uint64_t> full_resyncs_{0};
  std::atomic<uint64_t> apply_failures_{0};
  std::atomic<uint64_t> pull_connects_{0};
  std::atomic<uint64_t> pull_backoffs_{0};
  std::atomic<uint64_t> last_pull_backoff_micros_{0};

  std::atomic<uint64_t> moved_replies_{0};
};

}  // namespace tierbase::cluster_net

#endif  // TIERBASE_CLUSTER_NET_NODE_STATE_H_
