// tierbase_server: a standalone RESP-speaking TierBase data node.
//
//   ./build/tierbase_server                        # cache-only on :6380
//   ./build/tierbase_server --port 0 --port-file p # ephemeral port -> file
//   ./build/tierbase_server --policy write-back --dir /tmp/tb
//   redis-cli -p 6380 ping
//
// Flags:
//   --host H            bind address          (default 127.0.0.1)
//   --port N            listen port; 0 = ephemeral (default 6380)
//   --port-file PATH    write the bound port to PATH once listening
//   --policy P          cache-only | wal | write-through | write-back
//   --dir PATH          data directory (WAL / LSM storage tier)
//   --threads MODE      single | multi | elastic (default elastic)
//   --max-threads N     executor thread cap (default 4)
//
// Multi-reactor serving (see README "Serving over the network"):
//   --io-threads N      event-loop shards; each connection is owned by one
//                       loop, accepts are distributed round-robin
//                       (default 1 — the classic single-reactor shape)
//   --accept-policy P   round-robin | least-conn accept distribution
//   --so-reuseport      per-loop SO_REUSEPORT listeners instead of
//                       accept-distribute (io-threads > 1)
//   --tcp-backlog N     listen(2) backlog (default 128)
//   --shards N          cache shards (default 4)
//   --memory-budget B   cache budget in bytes; 0 = unlimited (default 0)
//   --wal-sync M        storage/WAL sync mode: interval (default, fsync at
//                       most once a second) | every (fsync per record —
//                       every acknowledged write survives kill -9)
//
// Overload protection (see README "Fault tolerance"):
//   --max-clients N     reject accepts past N live connections with
//                       "-ERR max clients reached"; 0 = unlimited (default)
//   --max-out-buffer B  disconnect a connection whose pending replies
//                       exceed B bytes (default 64 MiB)
//   --busy-watermark N  shed commands with -BUSY while N dispatch batches
//                       are already in flight; 0 = unlimited (default)
//
// Observability (see README "Observability"):
//   --slowlog-threshold-micros N
//                       log commands slower than N micros to SLOWLOG
//                       (default 10000; 0 logs every command, negative
//                       disables the slow log)
//   --no-telemetry      disable per-command clocking, latency histograms
//                       and the slow log (INFO/METRICS still render; the
//                       histograms just stay empty)
//   --no-analytics      disable the workload observatory (live MRC,
//                       HOTKEYS, keyspace shape); ANALYTICS/HOTKEYS then
//                       return an error and "# Workload" reports off
//   --analytics-sample-rate N
//                       SHARDS spatial rate for the live miss-ratio curve:
//                       ~1/N of the keyspace pays reuse-distance
//                       bookkeeping (default 64; 1 = exact)
//   --hotkey-sample-rate N
//                       temporal rate for the hot-key sketch: every Nth
//                       access per thread feeds it (default 64)
//
// Cluster membership (see README "Running a cluster"):
//   --cluster-id ID     join a cluster under this node id: enables the
//                       CLUSTER/REPLICAOF/REPLPULL/WAIT vocabulary, -MOVED
//                       replies, and oplog recording for wire replication
//   --replicaof H:P     boot as a replica streaming from this master
//                       (normally the coordinator wires this on ADDNODE)
//   --oplog-cap N       replication oplog bound in ops (default 65536);
//                       ops are retained only from the first REPLPULL
//                       on, so a node without replicas keeps none
//
// The process exits when a client issues SHUTDOWN (or on SIGINT/SIGTERM).

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "cluster_net/node_state.h"
#include "common/env.h"
#include "server/client.h"
#include "tierbase/server.h"
#include "tierbase/tierbase.h"

using namespace tierbase;

namespace {

server::EventLoop* g_loop = nullptr;

void HandleSignal(int) {
  // Only the async-signal-safe half of shutdown: an atomic store plus a
  // self-pipe write. The main thread's Wait() then returns and performs
  // the joins (Server::Stop would join threads — not signal-safe).
  if (g_loop != nullptr) g_loop->Stop();
}

int Usage(const char* argv0) {
  fprintf(stderr,
          "usage: %s [--host H] [--port N] [--port-file PATH]\n"
          "          [--policy cache-only|wal|write-through|write-back]\n"
          "          [--dir PATH] [--threads single|multi|elastic]\n"
          "          [--max-threads N] [--shards N] [--memory-budget B]\n"
          "          [--io-threads N] [--accept-policy round-robin|least-conn]\n"
          "          [--so-reuseport] [--tcp-backlog N]\n"
          "          [--wal-sync interval|every]\n"
          "          [--max-clients N] [--max-out-buffer B]\n"
          "          [--busy-watermark N]\n"
          "          [--slowlog-threshold-micros N] [--no-telemetry]\n"
          "          [--no-analytics] [--analytics-sample-rate N]\n"
          "          [--hotkey-sample-rate N]\n"
          "          [--cluster-id ID] [--replicaof HOST:PORT]\n"
          "          [--oplog-cap N]\n",
          argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 6380;
  std::string port_file;
  std::string policy = "cache-only";
  std::string dir;
  std::string threads = "elastic";
  int max_threads = 4;
  int shards = 4;
  size_t memory_budget = 0;
  std::string wal_sync = "interval";
  size_t max_clients = 0;
  size_t max_out_buffer = 64u << 20;
  size_t busy_watermark = 0;
  int io_threads = 1;
  std::string accept_policy = "round-robin";
  bool so_reuseport = false;
  int tcp_backlog = 128;
  std::string cluster_id;
  std::string replicaof;
  size_t oplog_cap = 65536;
  long long slowlog_threshold = 10'000;
  bool telemetry = true;
  bool analytics = true;
  long long analytics_sample_rate = 0;  // 0 = library default.
  long long hotkey_sample_rate = 0;

  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        fprintf(stderr, "%s needs a value\n", flag);
        exit(2);
      }
      return argv[++i];
    };
    if (strcmp(argv[i], "--host") == 0) {
      host = next("--host");
    } else if (strcmp(argv[i], "--port") == 0) {
      port = atoi(next("--port"));
    } else if (strcmp(argv[i], "--port-file") == 0) {
      port_file = next("--port-file");
    } else if (strcmp(argv[i], "--policy") == 0) {
      policy = next("--policy");
    } else if (strcmp(argv[i], "--dir") == 0) {
      dir = next("--dir");
    } else if (strcmp(argv[i], "--threads") == 0) {
      threads = next("--threads");
    } else if (strcmp(argv[i], "--max-threads") == 0) {
      max_threads = atoi(next("--max-threads"));
    } else if (strcmp(argv[i], "--shards") == 0) {
      shards = atoi(next("--shards"));
    } else if (strcmp(argv[i], "--memory-budget") == 0) {
      memory_budget = strtoull(next("--memory-budget"), nullptr, 10);
    } else if (strcmp(argv[i], "--wal-sync") == 0) {
      wal_sync = next("--wal-sync");
    } else if (strcmp(argv[i], "--max-clients") == 0) {
      max_clients = strtoull(next("--max-clients"), nullptr, 10);
    } else if (strcmp(argv[i], "--max-out-buffer") == 0) {
      max_out_buffer = strtoull(next("--max-out-buffer"), nullptr, 10);
    } else if (strcmp(argv[i], "--busy-watermark") == 0) {
      busy_watermark = strtoull(next("--busy-watermark"), nullptr, 10);
    } else if (strcmp(argv[i], "--io-threads") == 0) {
      io_threads = atoi(next("--io-threads"));
      if (io_threads < 1) return Usage(argv[0]);
    } else if (strcmp(argv[i], "--accept-policy") == 0) {
      accept_policy = next("--accept-policy");
    } else if (strcmp(argv[i], "--so-reuseport") == 0) {
      so_reuseport = true;
    } else if (strcmp(argv[i], "--tcp-backlog") == 0) {
      tcp_backlog = atoi(next("--tcp-backlog"));
      if (tcp_backlog < 1) return Usage(argv[0]);
    } else if (strcmp(argv[i], "--cluster-id") == 0) {
      cluster_id = next("--cluster-id");
    } else if (strcmp(argv[i], "--replicaof") == 0) {
      replicaof = next("--replicaof");
    } else if (strcmp(argv[i], "--oplog-cap") == 0) {
      oplog_cap = strtoull(next("--oplog-cap"), nullptr, 10);
    } else if (strcmp(argv[i], "--slowlog-threshold-micros") == 0) {
      slowlog_threshold =
          strtoll(next("--slowlog-threshold-micros"), nullptr, 10);
    } else if (strcmp(argv[i], "--no-telemetry") == 0) {
      telemetry = false;
    } else if (strcmp(argv[i], "--no-analytics") == 0) {
      analytics = false;
    } else if (strcmp(argv[i], "--analytics-sample-rate") == 0) {
      analytics_sample_rate = strtoll(next("--analytics-sample-rate"),
                                      nullptr, 10);
      if (analytics_sample_rate < 1) return Usage(argv[0]);
    } else if (strcmp(argv[i], "--hotkey-sample-rate") == 0) {
      hotkey_sample_rate = strtoll(next("--hotkey-sample-rate"), nullptr, 10);
      if (hotkey_sample_rate < 1) return Usage(argv[0]);
    } else {
      return Usage(argv[0]);
    }
  }
  if (port < 0 || port > 65535) return Usage(argv[0]);
  if (wal_sync != "interval" && wal_sync != "every") return Usage(argv[0]);

  TierBaseOptions options;
  options.cache.shards = shards;
  options.cache.memory_budget = memory_budget;
  // One setting for both tiers' WALs: the wal policy's and the LSM's.
  if (wal_sync == "every") options.wal_sync_interval_micros = 0;
  options.analytics.enabled = analytics;
  if (analytics_sample_rate > 0) {
    options.analytics.mrc_sample_rate =
        static_cast<uint32_t>(analytics_sample_rate);
  }
  if (hotkey_sample_rate > 0) {
    options.analytics.hotkey_sample_rate =
        static_cast<uint32_t>(hotkey_sample_rate);
  }

  Result<std::unique_ptr<LsmStorageAdapter>> storage{
      std::unique_ptr<LsmStorageAdapter>()};
  if (policy == "cache-only") {
    options.policy = CachingPolicy::kCacheOnly;
  } else if (policy == "wal") {
    options.policy = CachingPolicy::kWalFile;
    if (dir.empty()) dir = env::MakeTempDir("tb_server");
    options.wal_dir = dir;
  } else if (policy == "write-through" || policy == "write-back") {
    options.policy = policy == "write-through" ? CachingPolicy::kWriteThrough
                                               : CachingPolicy::kWriteBack;
    if (dir.empty()) dir = env::MakeTempDir("tb_server");
    Status mk = env::CreateDirIfMissing(dir);
    if (!mk.ok()) {
      fprintf(stderr, "data dir: %s\n", mk.ToString().c_str());
      return 1;
    }
    lsm::LsmOptions lsm_options;
    lsm_options.dir = dir + "/storage";
    lsm_options.wal_sync_interval_micros = options.wal_sync_interval_micros;
    storage = LsmStorageAdapter::Open(lsm_options);
    if (!storage.ok()) {
      fprintf(stderr, "storage tier: %s\n",
              storage.status().ToString().c_str());
      return 1;
    }
  } else {
    return Usage(argv[0]);
  }

  auto db = TierBase::Open(options, storage.ok() ? storage->get() : nullptr);
  if (!db.ok()) {
    fprintf(stderr, "tierbase: %s\n", db.status().ToString().c_str());
    return 1;
  }

  server::ServerOptions server_options;
  server_options.net.host = host;
  server_options.net.port = static_cast<uint16_t>(port);
  server_options.net.max_connections = max_clients;
  server_options.net.max_out_buffer = max_out_buffer;
  server_options.net.max_dispatch_inflight = busy_watermark;
  server_options.net.io_threads = io_threads;
  server_options.net.so_reuseport = so_reuseport;
  server_options.net.backlog = tcp_backlog;
  if (accept_policy == "round-robin") {
    server_options.net.accept_policy = server::AcceptPolicy::kRoundRobin;
  } else if (accept_policy == "least-conn") {
    server_options.net.accept_policy = server::AcceptPolicy::kLeastConnections;
  } else {
    return Usage(argv[0]);
  }
  if (threads == "single") {
    server_options.executor.mode = threading::ThreadMode::kSingle;
  } else if (threads == "multi") {
    server_options.executor.mode = threading::ThreadMode::kMulti;
  } else if (threads == "elastic") {
    server_options.executor.mode = threading::ThreadMode::kElastic;
  } else {
    return Usage(argv[0]);
  }
  server_options.executor.max_threads = max_threads;

  server::Server srv(db->get(), server_options);
  srv.commands()->set_telemetry_enabled(telemetry);
  srv.commands()->slowlog()->set_threshold_micros(slowlog_threshold);

  std::unique_ptr<cluster_net::NodeClusterState> cluster;
  if (!cluster_id.empty()) {
    cluster_net::NodeClusterState::Options cluster_options;
    cluster_options.id = cluster_id;
    cluster_options.oplog_capacity = oplog_cap;
    cluster = std::make_unique<cluster_net::NodeClusterState>(
        db->get(), std::move(cluster_options));
    srv.commands()->set_cluster(cluster.get());
  } else if (!replicaof.empty()) {
    fprintf(stderr, "--replicaof requires --cluster-id\n");
    return 2;
  }

  Status s = srv.Start();
  if (!s.ok()) {
    fprintf(stderr, "server: %s\n", s.ToString().c_str());
    return 1;
  }
  g_loop = srv.loop();
  signal(SIGINT, HandleSignal);
  signal(SIGTERM, HandleSignal);

  if (!replicaof.empty()) {
    std::string master_host;
    uint16_t master_port = 0;
    Status rs = server::ParseHostPort(replicaof, &master_host, &master_port);
    if (rs.ok()) rs = cluster->StartReplicaOf(master_host, master_port);
    if (!rs.ok()) {
      fprintf(stderr, "--replicaof: %s\n", rs.ToString().c_str());
      srv.Stop();
      return 1;
    }
  }

  printf("tierbase_server: %s policy, %s threading, listening on %s:%u%s%s\n",
         policy.c_str(), threads.c_str(), host.c_str(),
         static_cast<unsigned>(srv.port()),
         cluster_id.empty() ? "" : ", cluster node ",
         cluster_id.c_str());
  fflush(stdout);
  if (!port_file.empty()) {
    std::string contents = std::to_string(srv.port()) + "\n";
    Status ws = env::WriteStringToFileSync(port_file, contents);
    if (!ws.ok()) {
      fprintf(stderr, "port file: %s\n", ws.ToString().c_str());
      srv.Stop();
      return 1;
    }
  }

  srv.Wait();   // Until SHUTDOWN (or a signal calls Stop()).
  srv.Stop();   // Join the executor if SHUTDOWN ended the loop.
  printf("tierbase_server: shut down cleanly\n");
  return 0;
}
