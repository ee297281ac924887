#include "cluster_net/proxy.h"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/clock.h"
#include "common/hash.h"
#include "server/resp.h"

namespace tierbase::cluster_net {

namespace {

using server::EqualsUpper;

/// Strict signed-integer parse of a RESP argument (mirrors the server's).
bool ParseArgInt(const Slice& arg, int64_t* out) {
  if (arg.empty() || arg.size() > 20) return false;
  char buf[24];
  memcpy(buf, arg.data(), arg.size());
  buf[arg.size()] = '\0';
  errno = 0;
  char* end = nullptr;
  long long v = strtoll(buf, &end, 10);
  if (errno != 0 || end != buf + arg.size()) return false;
  *out = v;
  return true;
}

void AppendStatus(std::string* out, const Status& s) {
  // Robustness contract: Unavailable (dead shard / open breaker) and Busy
  // (overload shed) keep their distinct error classes on the wire so
  // clients can tell "retry elsewhere/later" from a hard error.
  if (s.IsUnavailable()) {
    server::AppendError(out, "UNAVAILABLE " + s.message());
    return;
  }
  if (s.IsBusy()) {
    server::AppendError(out, "BUSY " + s.message());
    return;
  }
  server::AppendError(out, "ERR " + s.ToString());
}

}  // namespace

ClusterProxy::ClusterProxy(Options options) : options_(std::move(options)) {
  if (options_.analytics.enabled) {
    analytics::WorkloadAnalyticsOptions aopts = options_.analytics;
    // No cache engine to inherit a shard count from: a few trackers keep
    // snapshot-time lock holds short against the routed hot path.
    if (aopts.shards == 0) aopts.shards = 4;
    analytics_ = std::make_unique<analytics::WorkloadAnalytics>(aopts);
  }
  RegisterInstruments();
}

void ClusterProxy::RecordRead(const Slice& key) {
  if (analytics_ != nullptr) {
    analytics_->RecordRead(key, Hash64(key));
  }
}

void ClusterProxy::RecordWrite(const Slice& key, size_t value_bytes) {
  if (analytics_ != nullptr) {
    // The proxy never sees TTLs on the coalesced string path; shape
    // histograms carry value/key sizes only.
    analytics_->RecordWrite(key, Hash64(key), value_bytes, 0);
  }
}

void ClusterProxy::RegisterInstruments() {
  // Callbacks null-check backend_/loop_: INFO can run (in tests) before
  // Start() wires them.
  registry_.AddText("Proxy", "proxy_port",
                    [this] { return std::to_string(port()); });
  commands_ = registry_.AddCounter("Proxy", "proxy_commands",
                                   "Commands executed by the proxy");
  batches_ = registry_.AddCounter("Proxy", "proxy_batches",
                                  "Pipelined batches executed");
  coalesced_ = registry_.AddCounter(
      "Proxy", "proxy_coalesced_commands",
      "Commands served through cluster-wide scatter-gather trains");
  registry_.AddCallback(
      "Proxy", "connected_clients", "Connections currently open",
      metrics::MetricType::kGauge,
      [this] { return loop_ != nullptr ? loop_->connections_active() : 0; });
  registry_.AddCallback(
      "Proxy", "io_threads", "Event-loop shards serving clients",
      metrics::MetricType::kGauge, [this] {
        return loop_ != nullptr ? static_cast<uint64_t>(loop_->io_threads())
                                : static_cast<uint64_t>(options_.io_threads);
      });
  registry_.AddCallback(
      "Proxy", "loop_wakeups", "Wakeup-channel fires across all loops",
      metrics::MetricType::kCounter,
      [this] { return loop_ != nullptr ? loop_->loop_wakeups() : 0; });
  // Per-loop ownership/accept-balance breakdown (dynamic key set).
  registry_.AddBlock("Proxy", [this](std::string* out) {
    if (loop_ == nullptr) return;
    for (size_t i = 0; i < loop_->shard_count(); ++i) {
      const server::IoShard* shard = loop_->shard(i);
      const std::string sfx = "_loop" + std::to_string(i);
      out->append("connected_clients" + sfx + ":" +
                  std::to_string(shard->connections_active()) + "\r\n");
      out->append("accepts" + sfx + ":" +
                  std::to_string(shard->connections_assigned()) + "\r\n");
      out->append("loop_wakeups" + sfx + ":" +
                  std::to_string(shard->wakeups()) + "\r\n");
    }
  });
  fanout_hist_ = registry_.AddHistogram(
      "Proxy", "proxy_fanout_latency_us",
      "Scatter-gather train latency (all nodes shipped and gathered), "
      "microseconds");

  // One backend-stats snapshot per render; the callbacks below read it.
  registry_.AddPreRender([this] {
    info_stats_ = backend_ != nullptr ? backend_->GetStats()
                                      : NetClusterClient::Stats();
  });
  registry_.AddCallback(
      "Cluster", "cluster_epoch", "Routing snapshot epoch",
      metrics::MetricType::kGauge,
      [this] { return backend_ != nullptr ? backend_->epoch() : 0; });
  registry_.AddCallback("Cluster", "route_refreshes",
                        "Routing snapshot refreshes",
                        metrics::MetricType::kCounter,
                        [this] { return info_stats_.route_refreshes; });
  registry_.AddCallback("Cluster", "moved_redirects",
                        "-MOVED replies observed",
                        metrics::MetricType::kCounter,
                        [this] { return info_stats_.moved_redirects; });
  registry_.AddCallback("Cluster", "failures_reported",
                        "Node failures reported to the coordinator",
                        metrics::MetricType::kCounter,
                        [this] { return info_stats_.failures_reported; });
  // Per-node keys are dynamic (they follow the routing snapshot), so they
  // render as an INFO-only block.
  registry_.AddBlock("Cluster", [this](std::string* out) {
    char line[160];
    for (const auto& [node, batches] : info_stats_.node_batches) {
      snprintf(line, sizeof(line), "routed_batches_%s:%" PRIu64 "\r\n",
               node.c_str(), batches);
      *out += line;
    }
    for (const auto& [node, micros] : info_stats_.node_fanout_micros) {
      snprintf(line, sizeof(line), "fanout_micros_%s:%" PRIu64 "\r\n",
               node.c_str(), micros);
      *out += line;
    }
  });

  registry_.AddCallback("Robustness", "backoff_waits",
                        "Backoff sleeps between failed attempts",
                        metrics::MetricType::kCounter,
                        [this] { return info_stats_.backoff_waits; });
  registry_.AddCallback("Robustness", "breaker_trips",
                        "Circuit breaker open transitions",
                        metrics::MetricType::kCounter,
                        [this] { return info_stats_.breaker_trips; });
  registry_.AddCallback("Robustness", "breaker_fast_fails",
                        "Operations rejected by an open breaker",
                        metrics::MetricType::kCounter,
                        [this] { return info_stats_.breaker_fast_fails; });
  registry_.AddBlock("Robustness", [this](std::string* out) {
    char line[160];
    for (const auto& [node, state] : info_stats_.breaker_states) {
      snprintf(line, sizeof(line), "breaker_state_%s:%s\r\n", node.c_str(),
               state.c_str());
      *out += line;
    }
  });

  // # Workload: the cluster-wide aggregate view — every routed string
  // access feeds the proxy's own observatory. Shared registration with the
  // server's per-node section.
  analytics::RegisterWorkloadInstruments(&registry_, analytics_.get());
}

ClusterProxy::~ClusterProxy() { Stop(); }

Status ClusterProxy::Start() {
  if (running_) return Status::InvalidArgument("proxy already running");
  auto backend = NetClusterClient::Connect(options_.backend);
  if (!backend.ok()) return backend.status();
  backend_ = std::move(*backend);
  executor_ =
      std::make_unique<threading::ElasticExecutor>(options_.executor);
  server::EventLoopOptions net;
  net.host = options_.host;
  net.port = options_.port;
  net.io_threads = options_.io_threads;
  net.so_reuseport = options_.so_reuseport;
  net.backlog = options_.tcp_backlog;
  loop_ = std::make_unique<server::EventLoop>(
      net, [this](std::shared_ptr<server::Connection> conn,
                  server::CommandBatch batch) {
        auto shared = std::make_shared<server::CommandBatch>(std::move(batch));
        executor_->Submit([this, conn = std::move(conn), shared] {
          std::string out;
          bool close_connection = false;
          bool shutdown_server = false;
          ExecuteBatch(shared->cmds, &out, &close_connection,
                       &shutdown_server);
          conn->CompleteBatch(std::move(out), close_connection,
                              shutdown_server);
        });
      });
  Status s = loop_->Listen();
  if (!s.ok()) {
    loop_.reset();
    executor_->Shutdown();
    executor_.reset();
    backend_.reset();
    return s;
  }
  loop_thread_ = std::thread([this] { loop_->Run(); });
  running_ = true;
  return Status::OK();
}

void ClusterProxy::Stop() {
  if (!running_) return;
  loop_->Stop();
  if (loop_thread_.joinable()) loop_thread_.join();
  executor_->Shutdown();
  running_ = false;
}

void ClusterProxy::Wait() {
  if (loop_thread_.joinable()) loop_thread_.join();
}

void ClusterProxy::ExecuteBatch(const std::vector<server::RespCommand>& cmds,
                                std::string* out, bool* close_connection,
                                bool* shutdown_server) {
  batches_->Inc();
  commands_->Inc(cmds.size());
  size_t i = 0;
  while (i < cmds.size()) {
    // A pipelined train of plain GETs (or SETs) becomes one cluster-wide
    // scatter–gather, the proxy's equivalent of the server's coalescing.
    if (cmds[i].args.size() == 2 && EqualsUpper(cmds[i].args[0], "GET")) {
      size_t j = i + 1;
      while (j < cmds.size() && cmds[j].args.size() == 2 &&
             EqualsUpper(cmds[j].args[0], "GET")) {
        ++j;
      }
      if (j - i >= 2) {
        BatchedGets(cmds, i, j, out);
        coalesced_->Inc(j - i);
        i = j;
        continue;
      }
    } else if (cmds[i].args.size() == 3 &&
               EqualsUpper(cmds[i].args[0], "SET")) {
      size_t j = i + 1;
      while (j < cmds.size() && cmds[j].args.size() == 3 &&
             EqualsUpper(cmds[j].args[0], "SET")) {
        ++j;
      }
      if (j - i >= 2) {
        BatchedSets(cmds, i, j, out);
        coalesced_->Inc(j - i);
        i = j;
        continue;
      }
    }
    ExecuteOne(cmds[i], out, close_connection, shutdown_server);
    ++i;
  }
}

void ClusterProxy::BatchedGets(const std::vector<server::RespCommand>& cmds,
                               size_t begin, size_t end, std::string* out) {
  std::vector<Slice> keys;
  keys.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) keys.push_back(cmds[i].args[1]);
  for (const Slice& key : keys) RecordRead(key);
  std::vector<std::string> values;
  std::vector<Status> statuses;
  const uint64_t t0 = Clock::Real()->NowMicros();
  backend_->MultiGet(keys, &values, &statuses);
  fanout_hist_->Record(Clock::Real()->NowMicros() - t0);
  for (size_t i = 0; i < keys.size(); ++i) {
    if (statuses[i].ok()) {
      server::AppendBulk(out, values[i]);
    } else if (statuses[i].IsNotFound()) {
      server::AppendNullBulk(out);
    } else {
      AppendStatus(out, statuses[i]);
    }
  }
}

void ClusterProxy::BatchedSets(const std::vector<server::RespCommand>& cmds,
                               size_t begin, size_t end, std::string* out) {
  std::vector<Slice> keys, values;
  keys.reserve(end - begin);
  values.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    keys.push_back(cmds[i].args[1]);
    values.push_back(cmds[i].args[2]);
    RecordWrite(cmds[i].args[1], cmds[i].args[2].size());
  }
  std::vector<Status> statuses;
  const uint64_t t0 = Clock::Real()->NowMicros();
  backend_->MultiSet(keys, values, &statuses);
  fanout_hist_->Record(Clock::Real()->NowMicros() - t0);
  for (const Status& s : statuses) {
    if (s.ok()) {
      server::AppendSimpleString(out, "OK");
    } else {
      AppendStatus(out, s);
    }
  }
}

void ClusterProxy::ExecuteOne(const server::RespCommand& cmd,
                              std::string* out, bool* close_connection,
                              bool* shutdown_server) {
  if (cmd.args.empty()) {
    server::AppendError(out, "ERR empty command");
    return;
  }
  const Slice& name = cmd.args[0];
  const size_t argc = cmd.args.size();

  if (EqualsUpper(name, "PING")) {
    if (argc == 2) {
      server::AppendBulk(out, cmd.args[1]);
    } else {
      server::AppendSimpleString(out, "PONG");
    }
    return;
  }
  if (EqualsUpper(name, "QUIT")) {
    server::AppendSimpleString(out, "OK");
    *close_connection = true;
    return;
  }
  if (EqualsUpper(name, "SHUTDOWN")) {
    // Shuts the proxy down, not the data nodes.
    server::AppendSimpleString(out, "OK");
    *close_connection = true;
    *shutdown_server = true;
    return;
  }
  if (EqualsUpper(name, "COMMAND")) {
    server::AppendArrayHeader(out, 0);
    return;
  }
  if (EqualsUpper(name, "INFO")) {
    Info(out);
    return;
  }
  if (EqualsUpper(name, "METRICS")) {
    std::string body;
    registry_.RenderPrometheus(&body);
    server::AppendBulk(out, body);
    return;
  }
  if (EqualsUpper(name, "ANALYTICS") && argc >= 2 && argc <= 3) {
    Analytics(cmd, out);
    return;
  }
  if (EqualsUpper(name, "HOTKEYS") && argc <= 2) {
    HotKeys(cmd, out);
    return;
  }
  if (EqualsUpper(name, "GET") && argc == 2) {
    RecordRead(cmd.args[1]);
    std::string value;
    Status s = backend_->Get(cmd.args[1], &value);
    if (s.ok()) {
      server::AppendBulk(out, value);
    } else if (s.IsNotFound()) {
      server::AppendNullBulk(out);
    } else {
      AppendStatus(out, s);
    }
    return;
  }
  if (EqualsUpper(name, "SET") && argc == 3) {
    RecordWrite(cmd.args[1], cmd.args[2].size());
    Status s = backend_->Set(cmd.args[1], cmd.args[2]);
    if (s.ok()) {
      server::AppendSimpleString(out, "OK");
    } else {
      AppendStatus(out, s);
    }
    return;
  }
  if (EqualsUpper(name, "MGET") && argc >= 2) {
    std::vector<Slice> keys(cmd.args.begin() + 1, cmd.args.end());
    for (const Slice& key : keys) RecordRead(key);
    std::vector<std::string> values;
    std::vector<Status> statuses;
    backend_->MultiGet(keys, &values, &statuses);
    // Nil is strictly "no such key": a shard that stayed unreachable must
    // surface as an error, not as a phantom miss.
    for (const Status& s : statuses) {
      if (!s.ok() && !s.IsNotFound()) {
        AppendStatus(out, s);
        return;
      }
    }
    server::AppendArrayHeader(out, keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      if (statuses[i].ok()) {
        server::AppendBulk(out, values[i]);
      } else {
        server::AppendNullBulk(out);
      }
    }
    return;
  }
  if (EqualsUpper(name, "MSET") && argc >= 3 && argc % 2 == 1) {
    std::vector<Slice> keys, values;
    for (size_t i = 1; i < argc; i += 2) {
      keys.push_back(cmd.args[i]);
      values.push_back(cmd.args[i + 1]);
      RecordWrite(cmd.args[i], cmd.args[i + 1].size());
    }
    std::vector<Status> statuses;
    backend_->MultiSet(keys, values, &statuses);
    for (const Status& s : statuses) {
      if (!s.ok()) {
        AppendStatus(out, s);
        return;
      }
    }
    server::AppendSimpleString(out, "OK");
    return;
  }
  if (EqualsUpper(name, "DEL") && argc >= 2) {
    // DEL fans out per owner; the reply sums the per-node removal counts.
    // An unreachable shard fails the whole command — ":N" must never
    // masquerade as "the other keys did not exist".
    int64_t removed = 0;
    for (size_t i = 1; i < argc; ++i) {
      server::RespValue reply;
      Status s =
          backend_->Forward({"DEL", cmd.args[i]}, cmd.args[i], &reply);
      if (!s.ok()) {
        AppendStatus(out, s);
        return;
      }
      if (reply.type == server::RespValue::Type::kInteger) {
        removed += reply.integer;
      }
    }
    server::AppendInteger(out, removed);
    return;
  }

  // Any other single-key command (INCR, EXPIRE, TTL, EXISTS, HSET, HGET,
  // LPUSH, LRANGE, ZADD, ZRANGE, ...) forwards verbatim to the key's
  // owner and relays the reply.
  if (argc >= 2) {
    server::RespValue reply;
    Status s = backend_->Forward(cmd.args, cmd.args[1], &reply);
    if (!s.ok()) {
      AppendStatus(out, s);
      return;
    }
    server::AppendValue(out, reply);
    return;
  }
  std::string msg = "ERR unknown command '";
  msg.append(name.data(), std::min<size_t>(name.size(), 64));
  msg += "'";
  server::AppendError(out, msg);
}

void ClusterProxy::Info(std::string* out) {
  std::string body;
  registry_.RenderInfo(&body);
  server::AppendBulk(out, body);
}

void ClusterProxy::Analytics(const server::RespCommand& cmd,
                             std::string* out) {
  if (analytics_ == nullptr) {
    server::AppendError(
        out, "ERR analytics disabled (proxy started with --no-analytics)");
    return;
  }
  if (EqualsUpper(cmd.args[1], "MRC")) {
    int shard = -1;
    if (cmd.args.size() == 3) {
      int64_t v = 0;
      if (!ParseArgInt(cmd.args[2], &v) || v < 0 ||
          v >= analytics_->shards()) {
        server::AppendError(out, "ERR shard index out of range");
        return;
      }
      shard = static_cast<int>(v);
    }
    server::AppendBulk(out, analytics::FormatMrcReport(
                                analytics_->Mrc(shard), analytics_->shards()));
    return;
  }
  if (EqualsUpper(cmd.args[1], "RESET")) {
    analytics_->Reset();
    server::AppendSimpleString(out, "OK");
    return;
  }
  server::AppendError(out, "ERR unknown ANALYTICS subcommand, try MRC|RESET");
}

void ClusterProxy::HotKeys(const server::RespCommand& cmd, std::string* out) {
  if (analytics_ == nullptr) {
    server::AppendError(
        out, "ERR analytics disabled (proxy started with --no-analytics)");
    return;
  }
  int64_t k = 10;
  if (cmd.args.size() == 2 &&
      (!ParseArgInt(cmd.args[1], &k) || k <= 0 || k > 10'000)) {
    server::AppendError(out, "ERR value is not an integer or out of range");
    return;
  }
  std::vector<analytics::HotKey> top =
      analytics_->TopKeys(static_cast<size_t>(k));
  server::AppendArrayHeader(out, top.size() * 2);
  for (const analytics::HotKey& h : top) {
    server::AppendBulk(out, h.key);
    server::AppendInteger(out, static_cast<int64_t>(h.count));
  }
}

}  // namespace tierbase::cluster_net
