// tierbase_coordinator: the cluster control plane as a standalone process.
//
//   ./build/tierbase_coordinator --port 7000
//   ./build/tierbase_cli -p 7000 CLUSTER ADDNODE n1 127.0.0.1 7001
//   ./build/tierbase_cli -p 7000 CLUSTER ADDNODE r1 127.0.0.1 7003 REPLICAOF n1
//   ./build/tierbase_cli -p 7000 CLUSTER NODES
//
// Flags:
//   --host H               bind address (default 127.0.0.1)
//   --port N               listen port; 0 = ephemeral (default 7000)
//   --port-file PATH       write the bound port to PATH once listening
//   --vnodes N             virtual nodes per shard on the ring, 1..4096
//                          (default 64)
//   --probe-interval-ms N  PING every node this often and fail the
//                          unresponsive; 0 = rely on client reports
//                          (default 0)
//
// The process exits on SHUTDOWN (or SIGINT/SIGTERM).

#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "cluster_net/coordinator_service.h"
#include "common/env.h"

using namespace tierbase;

namespace {

cluster_net::CoordinatorService* g_service = nullptr;

void HandleSignal(int) {
  if (g_service != nullptr) g_service->RequestStop();
}

int Usage(const char* argv0) {
  fprintf(stderr,
          "usage: %s [--host H] [--port N] [--port-file PATH] [--vnodes N]\n"
          "          [--probe-interval-ms N]\n",
          argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  cluster_net::CoordinatorService::Options options;
  options.port = 7000;
  std::string port_file;
  int probe_ms = 0;

  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        fprintf(stderr, "%s needs a value\n", flag);
        exit(2);
      }
      return argv[++i];
    };
    if (strcmp(argv[i], "--host") == 0) {
      options.host = next("--host");
    } else if (strcmp(argv[i], "--port") == 0) {
      options.port = static_cast<uint16_t>(atoi(next("--port")));
    } else if (strcmp(argv[i], "--port-file") == 0) {
      port_file = next("--port-file");
    } else if (strcmp(argv[i], "--vnodes") == 0) {
      // Start() checks the range; here only reject junk and int overflow.
      const char* value = next("--vnodes");
      const char* end = value + strlen(value);
      auto [ptr, ec] = std::from_chars(value, end, options.virtual_nodes);
      if (ec != std::errc() || ptr != end) return Usage(argv[0]);
    } else if (strcmp(argv[i], "--probe-interval-ms") == 0) {
      probe_ms = atoi(next("--probe-interval-ms"));
    } else {
      return Usage(argv[0]);
    }
  }
  if (probe_ms < 0) return Usage(argv[0]);
  options.probe_interval_micros = static_cast<uint64_t>(probe_ms) * 1000;

  cluster_net::CoordinatorService service(options);
  Status s = service.Start();
  if (!s.ok()) {
    fprintf(stderr, "coordinator: %s\n", s.ToString().c_str());
    return 1;
  }
  g_service = &service;
  signal(SIGINT, HandleSignal);
  signal(SIGTERM, HandleSignal);

  printf("tierbase_coordinator: listening on %s:%u (probe %dms)\n",
         options.host.c_str(), static_cast<unsigned>(service.port()),
         probe_ms);
  fflush(stdout);
  if (!port_file.empty()) {
    Status ws = env::WriteStringToFileSync(
        port_file, std::to_string(service.port()) + "\n");
    if (!ws.ok()) {
      fprintf(stderr, "port file: %s\n", ws.ToString().c_str());
      service.Stop();
      return 1;
    }
  }

  service.Wait();
  service.Stop();
  printf("tierbase_coordinator: shut down cleanly\n");
  return 0;
}
