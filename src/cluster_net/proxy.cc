#include "cluster_net/proxy.h"

#include <cinttypes>
#include <cstdio>
#include <map>

#include "common/hash.h"

namespace tierbase::cluster_net {

using server::AppendStatusError;
using server::RespCommand;

Status ClusterProxy::ObservedEngine::Get(const Slice& key,
                                         std::string* value) {
  if (analytics != nullptr) analytics->RecordRead(key, Hash64(key));
  return client->Get(key, value);
}

Status ClusterProxy::ObservedEngine::Set(const Slice& key,
                                         const Slice& value) {
  // The proxy never sees TTLs on its own string path (SET .. EX|PX
  // forwards); shape histograms carry value/key sizes only.
  if (analytics != nullptr) {
    analytics->RecordWrite(key, Hash64(key), value.size(), 0);
  }
  return client->Set(key, value);
}

void ClusterProxy::ObservedEngine::MultiGet(const std::vector<Slice>& keys,
                                            std::vector<std::string>* values,
                                            std::vector<Status>* statuses) {
  if (analytics != nullptr) {
    for (const Slice& key : keys) analytics->RecordRead(key, Hash64(key));
  }
  client->MultiGet(keys, values, statuses);
}

void ClusterProxy::ObservedEngine::MultiSet(const std::vector<Slice>& keys,
                                            const std::vector<Slice>& values,
                                            std::vector<Status>* statuses) {
  if (analytics != nullptr) {
    for (size_t i = 0; i < keys.size(); ++i) {
      analytics->RecordWrite(keys[i], Hash64(keys[i]), values[i].size(), 0);
    }
  }
  client->MultiSet(keys, values, statuses);
}

ClusterProxy::ClusterProxy(Options options) : options_(std::move(options)) {
  if (options_.analytics.enabled) {
    analytics::WorkloadAnalyticsOptions aopts = options_.analytics;
    // No cache engine to inherit a shard count from: a few trackers keep
    // snapshot-time lock holds short against the routed hot path.
    if (aopts.shards == 0) aopts.shards = 4;
    analytics_ = std::make_unique<analytics::WorkloadAnalytics>(aopts);
  }
  engine_.analytics = analytics_.get();
  server::ServerOptions server_options;
  server_options.net.host = options_.host;
  server_options.net.port = options_.port;
  server_options.net.io_threads = options_.io_threads;
  server_options.net.so_reuseport = options_.so_reuseport;
  server_options.net.backlog = options_.tcp_backlog;
  server_options.executor = options_.executor;
  server_ = std::make_unique<server::Server>(
      server::CommandTable::Backend{&engine_, analytics_.get()},
      server_options);
  AddRows();
  RegisterInstruments();
}

ClusterProxy::~ClusterProxy() { Stop(); }

Status ClusterProxy::Start() {
  if (server_->running()) {
    return Status::InvalidArgument("proxy already running");
  }
  auto client = NetClusterClient::Connect(options_.backend);
  if (!client.ok()) return client.status();
  engine_.client = std::move(*client);
  Status s = server_->Start();
  if (!s.ok()) engine_.client.reset();
  return s;
}

void ClusterProxy::Stop() { server_->Stop(); }

void ClusterProxy::AddRows() {
  using Handler = server::CommandTable::Handler;
  Handler forward = [this](const RespCommand& cmd, std::string* out) {
    server::RespValue reply;
    Status s = backend()->Forward(cmd.args, cmd.args[1], &reply);
    if (s.ok()) {
      server::AppendValue(out, reply);
    } else {
      AppendStatusError(out, s);
    }
  };
  std::map<std::string, Handler> local = {
      {"GET",
       [this](const RespCommand& cmd, std::string* out) {
         std::string value;
         server::AppendValueOrNull(out, engine_.Get(cmd.args[1], &value),
                                   value);
       }},
      {"SET",
       [this, forward](const RespCommand& cmd, std::string* out) {
         if (cmd.args.size() != 3) return forward(cmd, out);  // EX|PX.
         server::AppendOkOrError(out, engine_.Set(cmd.args[1], cmd.args[2]));
       }},
      // No handler: the table's read/write trains serve MGET and MSET
      // through engine_, one scatter–gather per train.
      {"MGET", nullptr},
      {"MSET", nullptr},
      {"DEL",
       [this](const RespCommand& cmd, std::string* out) {
         FanOutCount("DEL", cmd, out);
       }},
      {"EXISTS",
       [this](const RespCommand& cmd, std::string* out) {
         FanOutCount("EXISTS", cmd, out);
       }},
  };
  for (const server::CommandSpec& spec : server::NodeCommandSpecs()) {
    auto it = local.find(spec.name);
    if (it != local.end()) {
      server_->commands()->AddRow(spec, std::move(it->second));
    } else if (spec.flags & server::kFlagKey) {
      server_->commands()->AddRow(spec, forward);
    }
  }
}

void ClusterProxy::FanOutCount(const char* verb, const RespCommand& cmd,
                               std::string* out) {
  // An unreachable shard fails the whole command — ":N" must never
  // masquerade as "the other keys did not exist".
  int64_t count = 0;
  for (size_t i = 1; i < cmd.args.size(); ++i) {
    server::RespValue reply;
    Status s = backend()->Forward({verb, cmd.args[i]}, cmd.args[i], &reply);
    if (!s.ok()) return AppendStatusError(out, s);
    if (reply.type == server::RespValue::Type::kInteger) {
      count += reply.integer;
    }
  }
  server::AppendInteger(out, count);
}

void ClusterProxy::RegisterInstruments() {
  metrics::MetricsRegistry* reg = server_->commands()->registry();
  // One backend-stats snapshot per render; the callbacks below read it.
  // backend() is null until Start() connects it.
  reg->AddPreRender([this] {
    info_stats_ = backend() != nullptr ? backend()->GetStats()
                                       : NetClusterClient::Stats();
  });
  reg->AddCallback(
      "Cluster", "cluster_epoch", "Routing snapshot epoch",
      metrics::MetricType::kGauge,
      [this] { return backend() != nullptr ? backend()->epoch() : 0; });
  reg->AddCallback("Cluster", "route_refreshes", "Routing snapshot refreshes",
                   metrics::MetricType::kCounter,
                   [this] { return info_stats_.route_refreshes; });
  reg->AddCallback("Cluster", "moved_redirects", "-MOVED replies observed",
                   metrics::MetricType::kCounter,
                   [this] { return info_stats_.moved_redirects; });
  reg->AddCallback("Cluster", "failures_reported",
                   "Node failures reported to the coordinator",
                   metrics::MetricType::kCounter,
                   [this] { return info_stats_.failures_reported; });
  // Per-node keys are dynamic (they follow the routing snapshot), so they
  // render as an INFO-only block. routed_batches_<node> counts the
  // sub-batches the backend shipped to the node, a single-key op (GET,
  // SET, DEL, EXISTS, a forwarded verb) as a sub-batch of one.
  reg->AddBlock("Cluster", [this](std::string* out) {
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

  reg->AddCallback("Robustness", "backoff_waits",
                   "Backoff sleeps between failed attempts",
                   metrics::MetricType::kCounter,
                   [this] { return info_stats_.backoff_waits; });
  reg->AddCallback("Robustness", "breaker_trips",
                   "Circuit breaker open transitions",
                   metrics::MetricType::kCounter,
                   [this] { return info_stats_.breaker_trips; });
  reg->AddCallback("Robustness", "breaker_fast_fails",
                   "Operations rejected by an open breaker",
                   metrics::MetricType::kCounter,
                   [this] { return info_stats_.breaker_fast_fails; });
  reg->AddBlock("Robustness", [this](std::string* out) {
    char line[160];
    for (const auto& [node, state] : info_stats_.breaker_states) {
      snprintf(line, sizeof(line), "breaker_state_%s:%s\r\n", node.c_str(),
               state.c_str());
      *out += line;
    }
  });
}

}  // namespace tierbase::cluster_net
