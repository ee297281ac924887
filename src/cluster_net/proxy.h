// ClusterProxy: the RESP front end for naive clients. Anything that speaks
// plain Redis protocol — redis-cli, the bundled Client/RemoteEngine, the
// YCSB runner's --remote mode — connects to the proxy as if it were a
// single server; the proxy routes per key and scatter–gathers batches
// across the cluster server-side through an embedded NetClusterClient.
//
// The proxy is a server::Server like a data node: the same multi-reactor
// event loop, executor and CommandTable, so it answers PING/QUIT/SHUTDOWN/
// COMMAND/PERF and INFO/METRICS/SLOWLOG/LATENCY/ANALYTICS/HOTKEYS from its
// own registry, and pipelined read/write trains (GET/MGET, SET/MSET) become
// one cluster-wide MultiGet/MultiSet — a client that pipelines N commands
// pays one scatter–gather round, one sub-batch per node, instead of N.
// Its verb rows:
//
//   GET SET MGET MSET DEL EXISTS   run here over the cluster client (DEL
//                                  and EXISTS fan out per key and sum);
//   EXPIRE TTL INCR HSET HGET LPUSH LRANGE ZADD ZRANGE, SET .. EX|PX
//                                  forward verbatim to the key's owner.
//
// Every row takes the node's arity and key flags. Node-local verbs (SCAN,
// DBSIZE, FLUSHALL, CLUSTER, REPLICAOF, REPLPULL, REPLSNAPSHOT, WAIT) are
// unknown here. -MOVED/-READONLY admission stays on the nodes.
//
// Smart-client vs proxy trade-off (README "Running a cluster"): the smart
// client saves a network hop and spreads client-side, the proxy
// centralizes routing (and its single backend connection set serializes
// concurrent batches) but requires zero client changes.

#ifndef TIERBASE_CLUSTER_NET_PROXY_H_
#define TIERBASE_CLUSTER_NET_PROXY_H_

#include <memory>
#include <string>
#include <vector>

#include "analytics/workload_analytics.h"
#include "cluster_net/cluster_client.h"
#include "server/server.h"

namespace tierbase::cluster_net {

class ClusterProxy {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    uint16_t port = 0;  // 0 = ephemeral.
    /// Event-loop shards for the client-facing side (--io-threads). The
    /// proxy rides the same multi-reactor core as the server: each client
    /// connection is owned by one loop; upstream fan-out stays on the
    /// executor task serving that batch.
    int io_threads = 1;
    /// Per-loop SO_REUSEPORT listeners instead of accept-distribute.
    bool so_reuseport = false;
    /// listen(2) backlog (--tcp-backlog).
    int tcp_backlog = 128;
    NetClusterClient::Options backend;
    threading::ElasticOptions executor;
    /// Workload observatory over the traffic this proxy routes — the
    /// cluster-wide aggregate view (every node's string traffic passes
    /// through here). analytics.shards == 0 picks a small default; set
    /// analytics.enabled = false to disable (--no-analytics).
    analytics::WorkloadAnalyticsOptions analytics;
  };

  explicit ClusterProxy(Options options);
  ~ClusterProxy();

  ClusterProxy(const ClusterProxy&) = delete;
  ClusterProxy& operator=(const ClusterProxy&) = delete;

  Status Start();
  void Stop();
  /// Async-signal-safe half of Stop(): ends the event loop; the caller's
  /// Wait()/Stop() then performs the joins.
  void RequestStop() {
    if (server_->loop() != nullptr) server_->loop()->Stop();
  }
  void Wait() { server_->Wait(); }
  uint16_t port() const { return server_->port(); }

  NetClusterClient* backend() { return engine_.client.get(); }

  /// Cluster-wide workload observatory; null when disabled.
  analytics::WorkloadAnalytics* analytics() { return analytics_.get(); }

 private:
  /// The engine the proxy's rows and trains run on: the cluster client,
  /// feeding every routed string access to the observatory first (a
  /// node's TierBase feeds its own the same way).
  class ObservedEngine final : public KvEngine {
   public:
    std::string name() const override { return "cluster-proxy"; }
    Status Set(const Slice& key, const Slice& value) override;
    Status Get(const Slice& key, std::string* value) override;
    Status Delete(const Slice& key) override { return client->Delete(key); }
    void MultiGet(const std::vector<Slice>& keys,
                  std::vector<std::string>* values,
                  std::vector<Status>* statuses) override;
    void MultiSet(const std::vector<Slice>& keys,
                  const std::vector<Slice>& values,
                  std::vector<Status>* statuses) override;
    UsageStats GetUsage() const override { return client->GetUsage(); }
    // WaitIdle deliberately stays the no-op default: SHUTDOWN stops the
    // proxy, never drains or waits on the nodes.

    std::unique_ptr<NetClusterClient> client;  // Connected by Start().
    analytics::WorkloadAnalytics* analytics = nullptr;
  };

  /// Adds the proxy's verb rows (see the file comment).
  void AddRows();
  /// Registers the backend's routing and robustness instruments.
  void RegisterInstruments();
  /// DEL / EXISTS: `verb` per key at its owner, replies summed.
  void FanOutCount(const char* verb, const server::RespCommand& cmd,
                   std::string* out);

  Options options_;
  std::unique_ptr<analytics::WorkloadAnalytics> analytics_;
  ObservedEngine engine_;
  // One backend-stats snapshot per registry render (pre-render hook);
  // written and read only inside registry renders, which the registry
  // serializes under its own lock.
  NetClusterClient::Stats info_stats_;
  std::unique_ptr<server::Server> server_;
};

}  // namespace tierbase::cluster_net

#endif  // TIERBASE_CLUSTER_NET_PROXY_H_
