// ClusterProxy: the RESP front end for naive clients. Anything that speaks
// plain Redis protocol — redis-cli, the bundled Client/RemoteEngine, the
// YCSB runner's --remote mode — connects to the proxy as if it were a
// single server; the proxy routes per key and scatter–gathers batches
// across the cluster server-side through an embedded NetClusterClient.
//
// The proxy reuses the server's multi-reactor event loop and executor:
// pipelined command batches arrive as one dispatch, runs of GETs/SETs (and
// explicit MGET/MSET) become cluster MultiGet/MultiSet — so a client that
// pipelines N reads pays one scatter–gather round instead of N routed
// round trips.
// Rich-type and TTL commands forward verbatim to the owning node.
//
// Smart-client vs proxy trade-off (README "Running a cluster"): the smart
// client saves a network hop and spreads client-side, the proxy
// centralizes routing (and its single backend connection set serializes
// concurrent batches) but requires zero client changes.

#ifndef TIERBASE_CLUSTER_NET_PROXY_H_
#define TIERBASE_CLUSTER_NET_PROXY_H_

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analytics/workload_analytics.h"
#include "cluster_net/cluster_client.h"
#include "common/metrics.h"
#include "server/event_loop.h"
#include "threading/elastic_executor.h"

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
    if (loop_ != nullptr) loop_->Stop();
  }
  void Wait();
  uint16_t port() const { return loop_ == nullptr ? 0 : loop_->port(); }

  NetClusterClient* backend() { return backend_.get(); }

  /// The proxy's instrument registry (INFO/METRICS source).
  metrics::MetricsRegistry* registry() { return &registry_; }

  /// Cluster-wide workload observatory; null when disabled.
  analytics::WorkloadAnalytics* analytics() { return analytics_.get(); }

 private:
  void ExecuteBatch(const std::vector<server::RespCommand>& cmds,
                    std::string* out, bool* close_connection,
                    bool* shutdown_server);
  void ExecuteOne(const server::RespCommand& cmd, std::string* out,
                  bool* close_connection, bool* shutdown_server);
  void BatchedGets(const std::vector<server::RespCommand>& cmds, size_t begin,
                   size_t end, std::string* out);
  void BatchedSets(const std::vector<server::RespCommand>& cmds, size_t begin,
                   size_t end, std::string* out);
  void Info(std::string* out);
  void Analytics(const server::RespCommand& cmd, std::string* out);
  void HotKeys(const server::RespCommand& cmd, std::string* out);
  /// Registers the proxy's instruments. Called once from the ctor.
  void RegisterInstruments();

  /// Feeds a routed read/write into the observatory (no-op when disabled).
  void RecordRead(const Slice& key);
  void RecordWrite(const Slice& key, size_t value_bytes);

  Options options_;
  std::unique_ptr<analytics::WorkloadAnalytics> analytics_;
  std::unique_ptr<NetClusterClient> backend_;
  std::unique_ptr<threading::ElasticExecutor> executor_;
  std::unique_ptr<server::EventLoop> loop_;
  std::thread loop_thread_;
  bool running_ = false;

  metrics::MetricsRegistry registry_;
  metrics::Counter* commands_ = nullptr;
  metrics::Counter* batches_ = nullptr;
  metrics::Counter* coalesced_ = nullptr;
  metrics::LatencyHistogram* fanout_hist_ = nullptr;

  // One backend-stats snapshot per registry render (pre-render hook);
  // written and read only inside registry renders, which the registry
  // serializes under its own lock.
  NetClusterClient::Stats info_stats_;
};

}  // namespace tierbase::cluster_net

#endif  // TIERBASE_CLUSTER_NET_PROXY_H_
