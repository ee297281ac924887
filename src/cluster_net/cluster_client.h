// NetClusterClient: the smart data-path client of the networked cluster
// (§3 client tier). It pulls a routing snapshot from the coordinator,
// routes each key on the shared consistent-hash ring, and keeps one
// pipelined connection per data node.
//
// Every op is one routed round: on each attempt the round groups the
// op's pending keys by owning node, ships every node's command before it
// reads any reply (so the sub-batches execute concurrently server side),
// and reads each reply back into caller order. An op supplies only its
// wire command per node (GET, SET, DEL, a forwarded command verbatim,
// MGET or MSET) and how that reply reads back. A single-key op sends its
// own verb, as a sub-batch of one.
//
// Staleness and failure handling follow the paper's pull-based refresh
// protocol: on -MOVED (a node with a newer epoch rejected the key), on a
// failed connect, flush or reply read, or on Unavailable, the client
// reports the failure to the coordinator (CLUSTER FAIL), refreshes its
// snapshot once per attempt, backs off and retries the keys still
// pending — which is how a master kill converges to the promoted replica
// without any client restart.
//
// Thread model: one internal mutex serializes rounds (connections are
// plain blocking sockets), so concurrent callers' rounds queue behind
// each other. Use one client per runner thread to measure parallel
// throughput, exactly like RemoteEngine.

#ifndef TIERBASE_CLUSTER_NET_CLUSTER_CLIENT_H_
#define TIERBASE_CLUSTER_NET_CLUSTER_CLIENT_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster_net/routing.h"
#include "common/circuit_breaker.h"
#include "common/clock.h"
#include "common/kv_engine.h"
#include "common/mutex.h"
#include "common/retry.h"
#include "common/transport.h"
#include "server/client.h"

namespace tierbase::cluster_net {

class NetClusterClient : public KvEngine {
 public:
  struct Options {
    /// Coordinator endpoints ("host:port"), tried in order.
    std::vector<std::string> coordinators;
    /// Routing refreshes (and retries) per operation before giving up.
    int max_retries = 3;
    /// Backoff between failed attempts of one operation. Short by design:
    /// a data-path client waits milliseconds, not the replica link's
    /// seconds.
    common::RetryPolicy retry = [] {
      common::RetryPolicy p;
      p.initial_backoff_micros = 1'000;
      p.max_backoff_micros = 100'000;
      return p;
    }();
    /// Per-node circuit breaker: after `failure_threshold` consecutive
    /// connect/I-O failures the node's keys fail fast with Unavailable
    /// ("circuit open") instead of re-dialing a dead endpoint on every op.
    common::CircuitBreakerOptions breaker;
    /// Connect/IO budget for coordinator control-plane calls.
    uint64_t coordinator_timeout_micros = 2'000'000;
    /// Connect/IO budget per data-node operation. Bounded by default: a
    /// black-holed node (partitioned, SIGSTOPped) must turn into a
    /// TimedOut → failure report → failover, not a client hung forever.
    /// 0 = unbounded blocking I/O.
    uint64_t node_timeout_micros = 5'000'000;
    /// Injectable time for backoffs and breakers; nullptr = wall clock.
    const Clock* clock = nullptr;
    /// Dial through this transport instead of the process default.
    common::Transport* transport = nullptr;
    /// Seed for backoff jitter (deterministic in tests).
    uint64_t seed = 1;
  };

  static Result<std::unique_ptr<NetClusterClient>> Connect(Options options);

  std::string name() const override { return "cluster-client-net"; }

  Status Set(const Slice& key, const Slice& value) override;
  Status Get(const Slice& key, std::string* value) override;
  Status Delete(const Slice& key) override;
  void MultiGet(const std::vector<Slice>& keys,
                std::vector<std::string>* values,
                std::vector<Status>* statuses) override;
  void MultiSet(const std::vector<Slice>& keys,
                const std::vector<Slice>& values,
                std::vector<Status>* statuses) override;
  /// Aggregated footprint across all healthy masters (INFO per node).
  UsageStats GetUsage() const override;
  /// PING round trip on every cached connection.
  Status WaitIdle() override;

  /// Forwards an arbitrary single-key command to the key's owner with the
  /// same routed round (the proxy relays rich-type commands this
  /// way). `key` must be one of `args`.
  Status Forward(const std::vector<Slice>& args, const Slice& key,
                 server::RespValue* reply);

  uint64_t epoch() const;

  struct Stats {
    uint64_t route_refreshes = 0;
    uint64_t moved_redirects = 0;
    uint64_t failures_reported = 0;
    /// Backoff sleeps taken between failed attempts.
    uint64_t backoff_waits = 0;
    /// Aggregated over all per-node breakers.
    uint64_t breaker_trips = 0;
    uint64_t breaker_fast_fails = 0;
    /// "closed" | "open" | "half_open", per node id.
    std::map<std::string, std::string> breaker_states;
    /// Sub-batches shipped, per node id. A single-key op is a sub-batch
    /// of one.
    std::map<std::string, uint64_t> node_batches;
    /// Cumulative micros spent waiting on each node's sub-batch reply,
    /// single-key ops included, per node id. fanout_micros / batches is
    /// the node's mean sub-batch latency — the slowest node bounds the
    /// whole gather, so a skewed entry here names the straggler.
    std::map<std::string, uint64_t> node_fanout_micros;
  };
  Stats GetStats() const;

 private:
  explicit NetClusterClient(Options options)
      : options_(std::move(options)) {}

  // All Locked methods require mu_.
  Status RefreshRoutingLocked() EXCLUSIVE_LOCKS_REQUIRED(mu_);
  void ReportFailureLocked(const std::string& node_id)
      EXCLUSIVE_LOCKS_REQUIRED(mu_);
  /// Connection to the healthy master of `shard` (cached; reconnects on
  /// demand). Null with *why set when the shard has no reachable master.
  /// *fast_fail (if non-null) is set when the node's circuit breaker
  /// rejected the attempt without dialing — the caller should give up on
  /// the key immediately instead of reporting/refreshing.
  server::Client* MasterConnLocked(const std::string& shard, Status* why,
                                   std::string* node_id,
                                   bool* fast_fail = nullptr)
      EXCLUSIVE_LOCKS_REQUIRED(mu_);
  common::CircuitBreaker* BreakerLocked(const std::string& node_id)
      EXCLUSIVE_LOCKS_REQUIRED(mu_);
  /// One jittered backoff sleep (counted in stats).
  void BackoffLocked(common::RetryState* retry)
      EXCLUSIVE_LOCKS_REQUIRED(mu_);
  Status CoordinatorCallLocked(const std::vector<Slice>& args,
                               server::RespValue* reply)
      EXCLUSIVE_LOCKS_REQUIRED(mu_);
  /// The one routed round behind every op, over keys[0..n). Each attempt
  /// routes the pending keys, calls `encode(indices, &args)` for each
  /// owning node's wire command, ships them all, and hands each reply
  /// that is not a stale route to `decode(indices, &reply, statuses)`.
  /// Failed connects, flushes and reads and stale routes leave keys
  /// pending for the next attempt, after one refresh and a backoff.
  template <typename Encode, typename Decode>
  void RoutedRound(const Slice* keys, size_t n, Status* statuses,
                   Encode encode, Decode decode) LOCKS_EXCLUDED(mu_);
  /// A round of one key: sends `args` and returns `decode(&reply)`.
  template <typename Decode>
  Status RoutedCall(const Slice& key, const std::vector<Slice>& args,
                    Decode decode) LOCKS_EXCLUDED(mu_);

  Options options_;
  mutable common::Mutex mu_;
  WireRouting routing_ GUARDED_BY(mu_);
  Router router_ GUARDED_BY(mu_){64};
  std::map<std::string, std::unique_ptr<server::Client>> conns_
      GUARDED_BY(mu_);  // By node.
  std::set<std::string> reported_ GUARDED_BY(mu_);  // Failure reports this
                                                    // snapshot.
  // Breakers persist across routing refreshes (keyed by node id): a
  // refresh must not grant a dead node a fresh set of failures.
  std::map<std::string, std::unique_ptr<common::CircuitBreaker>> breakers_
      GUARDED_BY(mu_);
  server::Client coordinator_ GUARDED_BY(mu_);
  Stats stats_ GUARDED_BY(mu_);
};

}  // namespace tierbase::cluster_net

#endif  // TIERBASE_CLUSTER_NET_CLUSTER_CLIENT_H_
