// bench_server: loopback throughput/latency for the RESP front end.
//
// Boots an in-process tierbase server (cache-only TierBase, 4 shards,
// kSingle executor — the paper's one-event-loop-per-instance shape) and
// drives GET/SET traffic over 127.0.0.1 with 1-4 client connections,
// unpipelined (depth 1: one request per round trip) and pipelined
// (depth 32: the client batches 32 requests per flush, which the event
// loop dispatches as one batch and the command table coalesces into one
// MultiGet/MultiSet). The pipelined-vs-unpipelined gap is the headline:
// it is the network-visible form of the PR-2 batching work.
//
// Emits machine-readable JSON (stdout, or --json <path>); the committed
// baseline lives in BENCH_server.json. Latency percentiles are per round
// trip (per batch at depth 32).
//
// Beyond the thread-per-connection matrix, two multiplexed sweeps probe
// the multi-reactor core (PR 10): a connection sweep (64..1024 depth-1
// GET connections, closed loop, driven from one nonblocking-socket
// thread) and an offered-load sweep (open loop, deterministic arrivals,
// latency charged from each op's *scheduled* arrival time so queueing
// under overload is not coordinated-omission-hidden) that emits the
// p99-vs-offered-load curve.
//
// Flags: --smoke (tiny op counts, CI bit-rot guard), --json <path>,
//        --records N, --ops N (ops per pipelined row; unpipelined rows
//        run ops/8), --no-telemetry (disable the server's per-command
//        clocking — run both ways to price the telemetry layer; the
//        srv_* columns read 0 with it off),
//        --io-threads N (server reactor shards; rows are tagged with
//        it), --connections LIST (comma list, conn sweep,
//        up to 1024), --offered-load LIST (comma list of kops for the
//        open-loop curve), --load-connections N (conns the load curve
//        runs over, default 64), --load-seconds S (per-point duration).

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_telemetry.h"
#include "common/histogram.h"
#include "common/random.h"
#include "core/tierbase.h"
#include "server/client.h"
#include "server/server.h"
#include "workload/ycsb.h"

namespace tierbase {
namespace bench {
namespace {

struct Row {
  std::string op;
  int connections = 1;
  int pipeline = 1;
  double kops = 0;
  double p50_us = 0;
  double p99_us = 0;
  // Server-observed latency for the same row (LATENCY HISTOGRAM <op>,
  // dispatch -> reply; per command, so coalesced trains count each
  // member). The client-vs-server gap is loopback + parse + queue time.
  ServerLatency server;
};

std::string BenchKey(uint64_t i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "k%015llu", static_cast<unsigned long long>(i));
  return buf;
}

/// One client thread: `ops` operations against `port`, `pipeline` per
/// round trip. Returns the per-round-trip latency histogram (micros).
Histogram RunClient(uint16_t port, const std::string& op, uint64_t records,
                    uint64_t ops, int pipeline, uint64_t seed,
                    bool* failed) {
  Histogram latency;
  server::Client client;
  if (!client.Connect("127.0.0.1", port).ok()) {
    *failed = true;
    return latency;
  }
  Random rng(seed);
  const std::string value(100, 'v');
  server::RespValue reply;
  uint64_t remaining = ops;
  while (remaining > 0) {
    const int batch = static_cast<int>(
        std::min<uint64_t>(remaining, static_cast<uint64_t>(pipeline)));
    for (int i = 0; i < batch; ++i) {
      std::string key = BenchKey(rng.Uniform(records));
      if (op == "get") {
        client.Append({"GET", key});
      } else {
        client.Append({"SET", key, value});
      }
    }
    const uint64_t start = Clock::Real()->NowMicros();
    if (!client.Flush().ok()) {
      *failed = true;
      return latency;
    }
    for (int i = 0; i < batch; ++i) {
      if (!client.ReadReply(&reply).ok() || reply.IsError()) {
        *failed = true;
        return latency;
      }
    }
    latency.Add(Clock::Real()->NowMicros() - start);
    remaining -= static_cast<uint64_t>(batch);
  }
  return latency;
}

// ---------------------------------------------------------------------------
// Multiplexed driver: hundreds of depth-1 connections from one thread.
//
// A thread per connection stops making sense past a few dozen sockets on
// a 1-vCPU box, so the connection and offered-load sweeps multiplex all
// sockets over poll(2) in the bench process. Each connection carries at
// most one in-flight GET (depth 1 — the latency-under-load shape, not
// the pipelining shape measured above).
// ---------------------------------------------------------------------------

struct MuxConn {
  int fd = -1;
  bool inflight = false;
  uint64_t scheduled_us = 0;  // Arrival time the in-flight op was due.
  std::string out;            // Unsent request bytes (short-write tail).
  std::string in;             // Unparsed reply bytes.
};

struct MuxResult {
  bool ok = false;
  double seconds = 0;
  uint64_t completed = 0;
  Histogram latency;
};

/// Consumes one complete RESP reply from the front of `buf` if present.
/// Only the shapes GET/SET traffic produces (+simple, -error, $bulk).
bool ConsumeReply(std::string* buf, bool* error) {
  if (buf->empty()) return false;
  const size_t eol = buf->find("\r\n");
  if (eol == std::string::npos) return false;
  const char t = (*buf)[0];
  if (t == '$') {
    const long len = atol(buf->c_str() + 1);
    if (len < 0) {
      buf->erase(0, eol + 2);
      return true;
    }
    const size_t need = eol + 2 + static_cast<size_t>(len) + 2;
    if (buf->size() < need) return false;
    buf->erase(0, need);
    return true;
  }
  if (t == '-') *error = true;
  buf->erase(0, eol + 2);
  return true;
}

int ConnectMux(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
              sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

/// Queues one GET on `conn` and flushes as much as the socket takes.
/// Returns false on a hard socket error.
bool MuxSend(MuxConn* conn, uint64_t records, Random* rng,
             uint64_t scheduled_us) {
  const std::string key = BenchKey(rng->Uniform(records));
  char req[64];
  const int n = snprintf(req, sizeof(req), "*2\r\n$3\r\nGET\r\n$%zu\r\n%s\r\n",
                         key.size(), key.c_str());
  conn->out.append(req, static_cast<size_t>(n));
  conn->inflight = true;
  conn->scheduled_us = scheduled_us;
  while (!conn->out.empty()) {
    const ssize_t w =
        send(conn->fd, conn->out.data(), conn->out.size(), MSG_NOSIGNAL);
    if (w > 0) {
      conn->out.erase(0, static_cast<size_t>(w));
    } else if (w < 0 && errno == EINTR) {
      continue;
    } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;  // poll(2) arms POLLOUT for the tail.
    } else {
      return false;
    }
  }
  return true;
}

/// Drives `connections` depth-1 GET connections from this thread.
///
/// offered_ops_per_sec == 0: closed loop — every connection always has a
/// request in flight; latency runs from send time. > 0: open loop with
/// deterministic arrivals every 1e6/rate micros; latency runs from each
/// op's *scheduled* arrival, so when the server falls behind the queueing
/// delay lands in the histogram instead of silently stretching the run
/// (no coordinated omission).
MuxResult RunMuxSweep(uint16_t port, uint64_t records, int connections,
                      uint64_t total_ops, uint64_t offered_ops_per_sec) {
  MuxResult result;
  std::vector<MuxConn> conns(static_cast<size_t>(connections));
  for (auto& c : conns) {
    c.fd = ConnectMux(port);
    if (c.fd < 0) {
      fprintf(stderr, "mux connect failed (%d conns)\n", connections);
      for (auto& d : conns)
        if (d.fd >= 0) close(d.fd);
      return result;
    }
  }
  Random rng(42);
  const uint64_t start = Clock::Real()->NowMicros();
  const uint64_t interval_us =
      offered_ops_per_sec > 0 ? 1000000 / offered_ops_per_sec : 0;
  // Overload safety valve: an offered load far beyond capacity would
  // otherwise drain its backlog forever.
  const uint64_t deadline =
      offered_ops_per_sec > 0
          ? start + 5 * interval_us * total_ops + 2000000
          : ~0ull;
  uint64_t generated = 0;
  uint64_t next_due = start;
  std::deque<uint64_t> backlog;       // Due arrivals awaiting a free conn.
  std::deque<size_t> idle;            // Conns with no request in flight.
  for (size_t i = 0; i < conns.size(); ++i) idle.push_back(i);
  std::vector<struct pollfd> pfds(conns.size());
  bool failed = false;
  char buf[4096];

  while (result.completed < total_ops && !failed) {
    uint64_t now = Clock::Real()->NowMicros();
    if (now > deadline) break;
    if (offered_ops_per_sec > 0) {
      while (generated < total_ops && next_due <= now) {
        backlog.push_back(next_due);
        next_due += interval_us;
        ++generated;
      }
      while (!backlog.empty() && !idle.empty()) {
        const size_t i = idle.front();
        idle.pop_front();
        const uint64_t due = backlog.front();
        backlog.pop_front();
        if (!MuxSend(&conns[i], records, &rng, due)) failed = true;
      }
    } else {
      while (!idle.empty() && generated < total_ops) {
        const size_t i = idle.front();
        idle.pop_front();
        ++generated;
        if (!MuxSend(&conns[i], records, &rng, now)) failed = true;
      }
    }
    if (failed) break;

    for (size_t i = 0; i < conns.size(); ++i) {
      pfds[i].fd = conns[i].fd;
      pfds[i].events = static_cast<short>(
          (conns[i].inflight ? POLLIN : 0) |
          (conns[i].out.empty() ? 0 : POLLOUT));
      pfds[i].revents = 0;
    }
    int timeout_ms = 100;
    if (offered_ops_per_sec > 0 && generated < total_ops) {
      // Round up: a 0ms timeout would busy-spin the pacer against the
      // server on a single-core box and poison the latency numbers.
      const uint64_t until = next_due > now ? next_due - now : 0;
      timeout_ms =
          static_cast<int>(std::min<uint64_t>((until + 999) / 1000, 100));
    }
    const int ready = poll(pfds.data(), pfds.size(), timeout_ms);
    if (ready < 0 && errno != EINTR) {
      failed = true;
      break;
    }
    now = Clock::Real()->NowMicros();
    for (size_t i = 0; i < conns.size() && ready > 0; ++i) {
      MuxConn& c = conns[i];
      if (pfds[i].revents == 0) continue;
      if (pfds[i].revents & POLLOUT) {
        while (!c.out.empty()) {
          const ssize_t w =
              send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
          if (w > 0) {
            c.out.erase(0, static_cast<size_t>(w));
          } else if (w < 0 && errno == EINTR) {
            continue;
          } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            break;
          } else {
            failed = true;
            break;
          }
        }
      }
      if (pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) {
        while (true) {
          const ssize_t n = recv(c.fd, buf, sizeof(buf), 0);
          if (n > 0) {
            c.in.append(buf, static_cast<size_t>(n));
            continue;
          }
          if (n < 0 && errno == EINTR) continue;
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          failed = true;  // Peer closed or hard error mid-bench.
          break;
        }
        bool err = false;
        while (c.inflight && ConsumeReply(&c.in, &err)) {
          if (err) {
            failed = true;
            break;
          }
          result.latency.Add(now - c.scheduled_us);
          ++result.completed;
          c.inflight = false;
          idle.push_back(i);
        }
      }
      if (failed) break;
    }
  }

  const uint64_t end = Clock::Real()->NowMicros();
  for (auto& c : conns) close(c.fd);
  result.seconds = static_cast<double>(end - start) / 1e6;
  result.ok = !failed && result.completed > 0;
  return result;
}

/// Parses "64,256,1024" into ints; returns false on junk or out-of-range.
bool ParseIntList(const char* s, int max_value, std::vector<int>* out) {
  out->clear();
  std::string token;
  for (const char* p = s;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!token.empty()) {
        const int v = atoi(token.c_str());
        if (v < 1 || v > max_value) return false;
        out->push_back(v);
        token.clear();
      }
      if (*p == '\0') break;
    } else {
      token.push_back(*p);
    }
  }
  return !out->empty();
}

struct SweepRow {
  int connections = 0;
  double offered_kops = 0;  // 0 = closed loop.
  double kops = 0;
  double p50_us = 0;
  double p99_us = 0;
};

void EmitJson(FILE* f, uint64_t records, uint64_t ops, int io_threads,
              const std::vector<Row>& rows,
              const std::vector<SweepRow>& conn_sweep,
              int load_connections,
              const std::vector<SweepRow>& load_curve) {
  fprintf(f, "{\n");
  fprintf(f, "  \"bench\": \"server\",\n");
  fprintf(f, "  \"transport\": \"tcp-loopback\",\n");
  fprintf(f, "  \"value_bytes\": 100,\n");
  fprintf(f, "  \"records\": %" PRIu64 ",\n", records);
  fprintf(f, "  \"ops_pipelined_row\": %" PRIu64 ",\n", ops);
  fprintf(f, "  \"io_threads\": %d,\n", io_threads);
  fprintf(f, "  \"backend\": \"epoll\",\n");
  fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    fprintf(f,
            "    {\"op\": \"%s\", \"connections\": %d, \"pipeline\": %d, "
            "\"kops\": %.1f, \"p50_us\": %.1f, \"p99_us\": %.1f, "
            "\"srv_cnt\": %" PRIu64 ", \"srv_p50_us\": %" PRIu64
            ", \"srv_p99_us\": %" PRIu64 "}%s\n",
            r.op.c_str(), r.connections, r.pipeline, r.kops, r.p50_us,
            r.p99_us, r.server.cnt, r.server.p50_us, r.server.p99_us,
            i + 1 < rows.size() ? "," : "");
  }
  fprintf(f, "  ],\n");
  fprintf(f, "  \"conn_sweep\": [\n");
  for (size_t i = 0; i < conn_sweep.size(); ++i) {
    const SweepRow& r = conn_sweep[i];
    fprintf(f,
            "    {\"op\": \"get\", \"connections\": %d, \"pipeline\": 1, "
            "\"kops\": %.1f, \"p50_us\": %.1f, \"p99_us\": %.1f}%s\n",
            r.connections, r.kops, r.p50_us, r.p99_us,
            i + 1 < conn_sweep.size() ? "," : "");
  }
  fprintf(f, "  ],\n");
  fprintf(f, "  \"load_curve\": {\"op\": \"get\", \"connections\": %d, "
          "\"points\": [\n", load_connections);
  for (size_t i = 0; i < load_curve.size(); ++i) {
    const SweepRow& r = load_curve[i];
    fprintf(f,
            "    {\"offered_kops\": %.1f, \"achieved_kops\": %.1f, "
            "\"p50_us\": %.1f, \"p99_us\": %.1f}%s\n",
            r.offered_kops, r.kops, r.p50_us, r.p99_us,
            i + 1 < load_curve.size() ? "," : "");
  }
  fprintf(f, "  ]}\n}\n");
}

int Main(int argc, char** argv) {
  uint64_t records = 100000;
  uint64_t ops = 400000;  // Per pipelined row; unpipelined rows run ops/8.
  std::string json_path;
  bool telemetry = true;
  int io_threads = 1;
  std::vector<int> conn_sweep_sizes = {64, 256, 1024};
  std::vector<int> offered_loads_kops = {10, 20, 40, 60, 80};
  int load_connections = 64;
  double load_seconds = 2.0;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      records = 2000;
      ops = 4000;
      conn_sweep_sizes = {16, 64};
      offered_loads_kops = {5, 10};
      load_connections = 16;
      load_seconds = 0.3;
    } else if (strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (strcmp(argv[i], "--records") == 0 && i + 1 < argc) {
      records = strtoull(argv[++i], nullptr, 10);
    } else if (strcmp(argv[i], "--ops") == 0 && i + 1 < argc) {
      ops = strtoull(argv[++i], nullptr, 10);
    } else if (strcmp(argv[i], "--no-telemetry") == 0) {
      telemetry = false;
    } else if (strcmp(argv[i], "--io-threads") == 0 && i + 1 < argc) {
      io_threads = atoi(argv[++i]);
      if (io_threads < 1) return 2;
    } else if (strcmp(argv[i], "--connections") == 0 && i + 1 < argc) {
      if (!ParseIntList(argv[++i], 1024, &conn_sweep_sizes)) {
        fprintf(stderr, "--connections wants 1..1024 values\n");
        return 2;
      }
    } else if (strcmp(argv[i], "--offered-load") == 0 && i + 1 < argc) {
      if (!ParseIntList(argv[++i], 1000000, &offered_loads_kops)) {
        fprintf(stderr, "--offered-load wants kops values\n");
        return 2;
      }
    } else if (strcmp(argv[i], "--load-connections") == 0 && i + 1 < argc) {
      load_connections = atoi(argv[++i]);
      if (load_connections < 1 || load_connections > 1024) return 2;
    } else if (strcmp(argv[i], "--load-seconds") == 0 && i + 1 < argc) {
      load_seconds = atof(argv[++i]);
      if (load_seconds <= 0) return 2;
    } else {
      fprintf(stderr,
              "usage: %s [--smoke] [--json path] [--records N] [--ops N] "
              "[--no-telemetry] [--io-threads N] "
              "[--connections LIST] [--offered-load LIST] "
              "[--load-connections N] [--load-seconds S]\n",
              argv[0]);
      return 2;
    }
  }
  (void)smoke;

  // 1024 bench sockets + 1024 server sides + epoll/eventfd plumbing blow
  // through the default 1024 soft fd limit; lift it to the hard cap.
  struct rlimit rl;
  if (getrlimit(RLIMIT_NOFILE, &rl) == 0 && rl.rlim_cur < rl.rlim_max) {
    rl.rlim_cur = rl.rlim_max;
    setrlimit(RLIMIT_NOFILE, &rl);
  }

  TierBaseOptions options;
  options.policy = CachingPolicy::kCacheOnly;
  options.cache.shards = 4;
  auto db = TierBase::Open(options, nullptr);
  if (!db.ok()) {
    fprintf(stderr, "tierbase: %s\n", db.status().ToString().c_str());
    return 1;
  }
  server::ServerOptions server_options;
  server_options.net.port = 0;
  server_options.net.io_threads = io_threads;
  server_options.net.max_connections = 2048;
  server_options.executor.mode = threading::ThreadMode::kSingle;
  server::Server srv(db->get(), server_options);
  srv.commands()->set_telemetry_enabled(telemetry);
  Status s = srv.Start();
  if (!s.ok()) {
    fprintf(stderr, "server: %s\n", s.ToString().c_str());
    return 1;
  }

  {  // Preload every key via one pipelined connection.
    server::Client client;
    if (!client.Connect("127.0.0.1", srv.port()).ok()) {
      fprintf(stderr, "preload connect failed\n");
      return 1;
    }
    const std::string value(100, 'v');
    server::RespValue reply;
    constexpr uint64_t kLoadBatch = 64;
    for (uint64_t i = 0; i < records; i += kLoadBatch) {
      const uint64_t end = std::min(records, i + kLoadBatch);
      for (uint64_t j = i; j < end; ++j) {
        client.Append({"SET", BenchKey(j), value});
      }
      if (!client.Flush().ok()) {
        fprintf(stderr, "preload failed\n");
        return 1;
      }
      for (uint64_t j = i; j < end; ++j) {
        if (!client.ReadReply(&reply).ok() || reply.IsError()) {
          fprintf(stderr, "preload failed\n");
          return 1;
        }
      }
    }
  }

  // Admin connection for server-side telemetry: resets the op's latency
  // histogram before each row and fetches the snapshot after it.
  server::Client admin;
  if (!admin.Connect("127.0.0.1", srv.port()).ok()) {
    fprintf(stderr, "admin connect failed\n");
    return 1;
  }

  std::vector<Row> rows;
  for (const char* op : {"get", "set"}) {
    for (int connections : {1, 2, 4}) {
      for (int pipeline : {1, 32}) {
        const uint64_t row_ops = pipeline == 1 ? ops / 8 : ops;
        if (!ResetServerLatency(&admin, op)) {
          fprintf(stderr, "LATENCY RESET failed\n");
          return 1;
        }
        const uint64_t per_conn =
            row_ops / static_cast<uint64_t>(connections);
        std::vector<std::thread> threads;
        std::vector<Histogram> latencies(static_cast<size_t>(connections));
        std::vector<bool> failed(static_cast<size_t>(connections), false);
        Stopwatch watch;
        for (int c = 0; c < connections; ++c) {
          threads.emplace_back([&, c] {
            bool f = false;
            latencies[static_cast<size_t>(c)] =
                RunClient(srv.port(), op, records, per_conn, pipeline,
                          100 + static_cast<uint64_t>(c), &f);
            failed[static_cast<size_t>(c)] = f;
          });
        }
        for (auto& t : threads) t.join();
        const double seconds = watch.ElapsedSeconds();
        for (bool f : failed) {
          if (f) {
            fprintf(stderr, "client failed (%s c=%d p=%d)\n", op,
                    connections, pipeline);
            return 1;
          }
        }
        Histogram merged;
        for (const Histogram& h : latencies) merged.Merge(h);
        Row row;
        row.op = op;
        row.connections = connections;
        row.pipeline = pipeline;
        const uint64_t total =
            per_conn * static_cast<uint64_t>(connections);
        row.kops =
            seconds > 0 ? static_cast<double>(total) / seconds / 1e3 : 0;
        row.p50_us = static_cast<double>(merged.Percentile(0.50));
        row.p99_us = static_cast<double>(merged.Percentile(0.99));
        row.server = FetchServerLatency(&admin, op);
        if (!row.server.ok) {
          fprintf(stderr, "LATENCY HISTOGRAM failed\n");
          return 1;
        }
        rows.push_back(row);
        printf("%-4s conns=%d pipeline=%-3d %10.1f kops  p50=%6.0fus "
               "p99=%6.0fus  srv(cnt=%" PRIu64 " p50=%" PRIu64
               "us p99=%" PRIu64 "us)\n",
               op, connections, pipeline, row.kops, row.p50_us, row.p99_us,
               row.server.cnt, row.server.p50_us, row.server.p99_us);
        fflush(stdout);
      }
    }
  }

  // Connection sweep: closed loop, depth 1, multiplexed from one thread.
  std::vector<SweepRow> conn_sweep;
  for (int connections : conn_sweep_sizes) {
    const uint64_t sweep_ops =
        std::max<uint64_t>(ops / 4, static_cast<uint64_t>(connections) * 4);
    MuxResult r = RunMuxSweep(srv.port(), records, connections, sweep_ops,
                              /*offered_ops_per_sec=*/0);
    if (!r.ok) {
      fprintf(stderr, "conn sweep failed (c=%d)\n", connections);
      return 1;
    }
    SweepRow row;
    row.connections = connections;
    row.kops = static_cast<double>(r.completed) / r.seconds / 1e3;
    row.p50_us = static_cast<double>(r.latency.Percentile(0.50));
    row.p99_us = static_cast<double>(r.latency.Percentile(0.99));
    conn_sweep.push_back(row);
    printf("sweep conns=%-5d closed-loop %10.1f kops  p50=%6.0fus "
           "p99=%6.0fus\n",
           connections, row.kops, row.p50_us, row.p99_us);
    fflush(stdout);
  }

  // Offered-load curve: open loop at fixed connection count; p99 includes
  // queueing delay from each op's scheduled arrival.
  std::vector<SweepRow> load_curve;
  for (int kops_target : offered_loads_kops) {
    const uint64_t rate = static_cast<uint64_t>(kops_target) * 1000;
    const uint64_t curve_ops =
        std::max<uint64_t>(static_cast<uint64_t>(
                               static_cast<double>(rate) * load_seconds),
                           256);
    MuxResult r =
        RunMuxSweep(srv.port(), records, load_connections, curve_ops, rate);
    if (!r.ok) {
      fprintf(stderr, "load curve failed (offered=%dk)\n", kops_target);
      return 1;
    }
    SweepRow row;
    row.connections = load_connections;
    row.offered_kops = static_cast<double>(kops_target);
    row.kops = static_cast<double>(r.completed) / r.seconds / 1e3;
    row.p50_us = static_cast<double>(r.latency.Percentile(0.50));
    row.p99_us = static_cast<double>(r.latency.Percentile(0.99));
    load_curve.push_back(row);
    printf("load  conns=%-5d offered=%4dk %8.1f kops  p50=%6.0fus "
           "p99=%6.0fus\n",
           load_connections, kops_target, row.kops, row.p50_us, row.p99_us);
    fflush(stdout);
  }

  const int srv_io_threads = srv.loop()->io_threads();

  srv.Stop();

  if (!json_path.empty()) {
    FILE* f = fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    EmitJson(f, records, ops, srv_io_threads, rows, conn_sweep,
             load_connections, load_curve);
    fclose(f);
    printf("JSON written to %s\n", json_path.c_str());
  } else {
    EmitJson(stdout, records, ops, srv_io_threads, rows, conn_sweep,
             load_connections, load_curve);
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace tierbase

int main(int argc, char** argv) { return tierbase::bench::Main(argc, argv); }
