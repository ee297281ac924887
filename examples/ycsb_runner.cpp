// ycsb_runner: drives the standard YCSB workload mixes (A-F) against
// either an in-process TierBase instance or — with --remote host:port — a
// live tierbase_server over the RESP protocol, so any workload can be
// replayed across the network front end and compared with the in-process
// numbers.
//
//   ./build/ycsb_runner --workload A --records 100000 --ops 100000
//   ./build/tierbase_server --port 6380 &
//   ./build/ycsb_runner --workload A --remote 127.0.0.1:6380
//
// Flags:
//   --workload L        A..F (default A)
//   --records N         dataset size (default 100000)
//   --ops N             operations in the run phase (default 100000)
//   --threads N         client threads (default 1)
//   --batch N           ops per engine call; >1 uses MultiGet/MultiSet,
//                       which the remote mode ships as MGET/MSET (default 1)
//   --remote HOST:PORT  drive a live server (or tierbase_proxy) directly
//   --cluster SPEC[,..] drive a live cluster through the smart client:
//                       SPECs are coordinator endpoints; keys route on the
//                       shared ring, batches scatter–gather per node
//   --policy P          in-process policy: cache-only (default) | wal
//   --shards N          in-process cache shards (default 4)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster_net/cluster_client.h"
#include "common/env.h"
#include "tierbase/server.h"
#include "tierbase/tierbase.h"
#include "tierbase/workload.h"

using namespace tierbase;

namespace {

void PrintResult(const char* phase, const workload::RunResult& r) {
  printf("%-6s ops=%llu  %.0f ops/s  p50=%lluus p99=%lluus  errors=%llu "
         "not_found=%llu\n",
         phase, static_cast<unsigned long long>(r.ops), r.throughput,
         static_cast<unsigned long long>(r.latency.Percentile(0.50)),
         static_cast<unsigned long long>(r.latency.Percentile(0.99)),
         static_cast<unsigned long long>(r.errors),
         static_cast<unsigned long long>(r.not_found));
}

}  // namespace

int main(int argc, char** argv) {
  char workload_name = 'A';
  uint64_t records = 100000, ops = 100000;
  int threads = 1, batch = 1, shards = 4;
  std::string remote, cluster, policy = "cache-only";

  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        fprintf(stderr, "%s needs a value\n", flag);
        exit(2);
      }
      return argv[++i];
    };
    if (strcmp(argv[i], "--workload") == 0) {
      workload_name = next("--workload")[0];
    } else if (strcmp(argv[i], "--records") == 0) {
      records = strtoull(next("--records"), nullptr, 10);
    } else if (strcmp(argv[i], "--ops") == 0) {
      ops = strtoull(next("--ops"), nullptr, 10);
    } else if (strcmp(argv[i], "--threads") == 0) {
      threads = atoi(next("--threads"));
    } else if (strcmp(argv[i], "--batch") == 0) {
      batch = atoi(next("--batch"));
    } else if (strcmp(argv[i], "--remote") == 0) {
      remote = next("--remote");
    } else if (strcmp(argv[i], "--cluster") == 0) {
      cluster = next("--cluster");
    } else if (strcmp(argv[i], "--policy") == 0) {
      policy = next("--policy");
    } else if (strcmp(argv[i], "--shards") == 0) {
      shards = atoi(next("--shards"));
    } else {
      fprintf(stderr,
              "usage: %s [--workload A-F] [--records N] [--ops N]\n"
              "          [--threads N] [--batch N] [--remote HOST:PORT]\n"
              "          [--cluster COORD[,COORD...]]\n"
              "          [--policy cache-only|wal] [--shards N]\n",
              argv[0]);
      return 2;
    }
  }

  workload::YcsbOptions options;
  if (!workload::WorkloadByName(workload_name, &options)) {
    fprintf(stderr, "unknown workload '%c' (want A-F)\n", workload_name);
    return 2;
  }
  options.record_count = records;
  options.operation_count = ops;

  workload::RunnerOptions runner;
  runner.threads = threads;
  runner.batch_size = batch;

  std::unique_ptr<KvEngine> engine;
  cluster_net::NetClusterClient* cluster_client = nullptr;
  std::string wal_dir;
  if (!cluster.empty()) {
    cluster_net::NetClusterClient::Options cluster_options;
    std::stringstream specs(cluster);
    std::string spec;
    while (std::getline(specs, spec, ',')) {
      if (!spec.empty()) cluster_options.coordinators.push_back(spec);
    }
    auto client = cluster_net::NetClusterClient::Connect(cluster_options);
    if (!client.ok()) {
      fprintf(stderr, "cluster connect %s: %s\n", cluster.c_str(),
              client.status().ToString().c_str());
      return 1;
    }
    cluster_client = client->get();
    engine = std::move(*client);
    if (threads > 1) {
      fprintf(stderr,
              "warning: --cluster shares one smart client; --threads %d "
              "will be serialized\n",
              threads);
    }
  } else if (!remote.empty()) {
    std::string host;
    uint16_t port = 0;
    Status s = server::ParseHostPort(remote, &host, &port);
    if (!s.ok()) {
      fprintf(stderr, "--remote: %s\n", s.ToString().c_str());
      return 2;
    }
    auto client = server::RemoteEngine::Connect(host, port);
    if (!client.ok()) {
      fprintf(stderr, "connect %s: %s\n", remote.c_str(),
              client.status().ToString().c_str());
      return 1;
    }
    engine = std::move(*client);
    if (threads > 1) {
      // One RemoteEngine = one socket with a serializing mutex; N runner
      // threads would measure lock contention, not parallel throughput.
      fprintf(stderr,
              "warning: --remote shares one connection; --threads %d will "
              "be serialized (use bench_server for multi-connection "
              "loopback numbers)\n",
              threads);
    }
  } else {
    TierBaseOptions db_options;
    db_options.cache.shards = shards;
    if (policy == "wal") {
      db_options.policy = CachingPolicy::kWalFile;
      wal_dir = env::MakeTempDir("tb_ycsb");
      db_options.wal_dir = wal_dir;
    } else if (policy != "cache-only") {
      fprintf(stderr, "unsupported --policy %s\n", policy.c_str());
      return 2;
    }
    auto db = TierBase::Open(db_options, nullptr);
    if (!db.ok()) {
      fprintf(stderr, "tierbase: %s\n", db.status().ToString().c_str());
      return 1;
    }
    engine = std::move(*db);
  }

  printf("workload %c on %s: %llu records, %llu ops, %d thread(s), "
         "batch %d\n",
         workload_name, engine->name().c_str(),
         static_cast<unsigned long long>(records),
         static_cast<unsigned long long>(ops), threads, batch);

  PrintResult("load", workload::RunLoadPhase(engine.get(), options, runner));
  PrintResult("run", workload::RunPhase(engine.get(), options, runner));

  if (cluster_client != nullptr) {
    cluster_net::NetClusterClient::Stats stats = cluster_client->GetStats();
    printf("cluster: epoch=%llu refreshes=%llu moved=%llu reported=%llu\n",
           static_cast<unsigned long long>(cluster_client->epoch()),
           static_cast<unsigned long long>(stats.route_refreshes),
           static_cast<unsigned long long>(stats.moved_redirects),
           static_cast<unsigned long long>(stats.failures_reported));
    for (const auto& [node, batches] : stats.node_batches) {
      printf("cluster: routed_batches[%s]=%llu (a single-key op is one)\n",
             node.c_str(), static_cast<unsigned long long>(batches));
    }
  }

  engine->WaitIdle();
  engine.reset();
  if (!wal_dir.empty()) env::RemoveDirRecursive(wal_dir);
  return 0;
}
