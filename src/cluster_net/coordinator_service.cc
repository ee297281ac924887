#include "cluster_net/coordinator_service.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "common/mutex.h"
#include "server/client.h"

namespace tierbase::cluster_net {

namespace {

using server::AppendOkOrError;
using server::EqualsUpper;

/// Ids, hosts and shard names travel in the whitespace/line-delimited
/// WireRouting payload; one malformed token would wedge routing parsing
/// cluster-wide, so registration rejects anything outside [A-Za-z0-9._-].
bool ValidToken(const std::string& s) {
  if (s.empty() || s.size() > 128) return false;
  for (char c : s) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

CoordinatorService::CoordinatorService(Options options)
    : options_(std::move(options)) {
  routing_.virtual_nodes = options_.virtual_nodes;
  routing_.epoch = 1;
  server::ServerOptions server_options;
  server_options.net.host = options_.host;
  server_options.net.port = options_.port;
  server_options.executor.mode = threading::ThreadMode::kSingle;
  server_ = std::make_unique<server::Server>(server::CommandTable::Backend{},
                                             server_options);
  server_->commands()->AddRow(
      {"CLUSTER", 2, 7, 0},
      [this](const server::RespCommand& cmd, std::string* out) {
        ClusterCommand(cmd, out);
      });
  RegisterInstruments();
}

void CoordinatorService::RegisterInstruments() {
  metrics::MetricsRegistry* reg = server_->commands()->registry();
  auto poll = [reg](const char* key, const char* help, metrics::MetricType t,
                    std::function<uint64_t()> fn) {
    reg->AddCallback("Coordinator", key, help, t, std::move(fn));
  };
  poll("cluster_epoch", "Authoritative routing epoch",
       metrics::MetricType::kGauge, [this] { return epoch(); });
  poll("known_nodes", "Nodes in the routing table",
       metrics::MetricType::kGauge,
       [this] { return static_cast<uint64_t>(Routing().nodes.size()); });
  poll("failovers", "Replica promotions performed",
       metrics::MetricType::kCounter, [this] { return failovers_.load(); });
  poll("probe_interval_micros", "Probe period (0 = probing off)",
       metrics::MetricType::kGauge,
       [this] { return options_.probe_interval_micros; });
  poll("node_io_timeout_micros", "Control-plane per-call I/O budget",
       metrics::MetricType::kGauge,
       [this] { return options_.node_io_timeout_micros; });
  poll("probes_sent", "Health probes sent", metrics::MetricType::kCounter,
       [this] { return probes_sent_.load(); });
  poll("probe_failures", "Health probes that failed",
       metrics::MetricType::kCounter,
       [this] { return probe_failures_.load(); });
  poll("probe_marked_failed", "Nodes failed by the prober",
       metrics::MetricType::kCounter,
       [this] { return probe_marked_failed_.load(); });
}

CoordinatorService::~CoordinatorService() { Stop(); }

Status CoordinatorService::Start() {
  if (server_->running()) {
    return Status::InvalidArgument("coordinator already running");
  }
  // Nodes and clients reject routing payloads outside this range, so an
  // out-of-range ring size would fail every route cluster-wide.
  if (options_.virtual_nodes < 1 ||
      options_.virtual_nodes > WireRouting::kMaxVirtualNodes) {
    return Status::InvalidArgument(
        "virtual_nodes must be in 1.." +
        std::to_string(WireRouting::kMaxVirtualNodes));
  }
  TIERBASE_RETURN_IF_ERROR(server_->Start());
  if (options_.probe_interval_micros > 0) {
    stop_probe_.store(false);
    probe_thread_ = std::thread(&CoordinatorService::ProbeLoop, this);
  }
  return Status::OK();
}

void CoordinatorService::Stop() {
  stop_probe_.store(true, std::memory_order_release);
  if (probe_thread_.joinable()) probe_thread_.join();
  server_->Stop();
}

uint64_t CoordinatorService::epoch() const {
  common::MutexLock lock(&mu_);
  return routing_.epoch;
}

WireRouting CoordinatorService::Routing() const {
  common::MutexLock lock(&mu_);
  return routing_;
}

Status CoordinatorService::CallNode(const NodeRecord& node,
                                    const std::vector<Slice>& args,
                                    server::RespValue* reply) const {
  server::Client client;
  client.set_transport(options_.transport);
  TIERBASE_RETURN_IF_ERROR(
      client.Connect(node.host, node.port, options_.node_io_timeout_micros));
  TIERBASE_RETURN_IF_ERROR(client.Call(args, reply));
  if (reply->IsError()) return Status::IOError(reply->str);
  return Status::OK();
}

void CoordinatorService::PushRouting() {
  WireRouting snapshot = Routing();
  const std::string payload = snapshot.Serialize();
  for (const NodeRecord& node : snapshot.nodes) {
    if (!node.healthy) continue;
    server::RespValue reply;
    // Best effort: a node that misses the push answers -MOVED with a stale
    // epoch until the next push; clients recover via coordinator refresh.
    CallNode(node, {"CLUSTER", "SETSLOTS", payload}, &reply);
  }
}

Status CoordinatorService::AddNode(const std::string& id,
                                   const std::string& host, uint16_t port,
                                   const std::string& replica_of_shard) {
  if (!ValidToken(id) || !ValidToken(host) ||
      (!replica_of_shard.empty() && !ValidToken(replica_of_shard))) {
    return Status::InvalidArgument("invalid node id/host/shard token");
  }
  NodeRecord master_of_shard;
  {
    common::MutexLock lock(&mu_);
    if (routing_.FindNode(id) != nullptr) {
      return Status::InvalidArgument("duplicate node id: " + id);
    }
    NodeRecord rec;
    rec.id = id;
    rec.host = host;
    rec.port = port;
    if (replica_of_shard.empty()) {
      rec.shard = id;
    } else {
      const NodeRecord* master = routing_.MasterOfShard(replica_of_shard);
      if (master == nullptr) {
        return Status::NotFound("no healthy master for shard: " +
                                replica_of_shard);
      }
      master_of_shard = *master;
      rec.is_replica = true;
      rec.shard = replica_of_shard;
    }
    routing_.nodes.push_back(std::move(rec));
    ++routing_.epoch;
  }
  PushRouting();
  if (!replica_of_shard.empty()) {
    // Wire replication: tell the replica who its master is.
    NodeRecord replica;
    replica.id = id;
    replica.host = host;
    replica.port = port;
    server::RespValue reply;
    CallNode(replica,
             {"REPLICAOF", master_of_shard.host,
              std::to_string(master_of_shard.port)},
             &reply);
  }
  return Status::OK();
}

Status CoordinatorService::MarkFailed(const std::string& id) {
  NodeRecord promoted;
  bool have_promotion = false;
  {
    common::MutexLock lock(&mu_);
    NodeRecord* failed = nullptr;
    for (NodeRecord& n : routing_.nodes) {
      if (n.id == id) failed = &n;
    }
    if (failed == nullptr) return Status::NotFound("unknown node: " + id);
    if (!failed->healthy) return Status::OK();  // Already handled.
    failed->healthy = false;
    if (!failed->is_replica) {
      // Promote the shard's healthy replica, if any; otherwise the shard
      // leaves the ring and its keyspace falls to ring successors.
      for (NodeRecord& n : routing_.nodes) {
        if (n.is_replica && n.healthy && n.shard == failed->shard) {
          n.is_replica = false;
          promoted = n;
          have_promotion = true;
          break;
        }
      }
    }
    ++routing_.epoch;
  }
  if (have_promotion) {
    failovers_.fetch_add(1, std::memory_order_relaxed);
    server::RespValue reply;
    CallNode(promoted, {"REPLICAOF", "NO", "ONE"}, &reply);
  }
  PushRouting();
  return Status::OK();
}

Status CoordinatorService::Recover(const std::string& id) {
  NodeRecord rejoined;
  NodeRecord current_master;
  bool as_replica = false;
  {
    common::MutexLock lock(&mu_);
    NodeRecord* rec = nullptr;
    for (NodeRecord& n : routing_.nodes) {
      if (n.id == id) rec = &n;
    }
    if (rec == nullptr) return Status::NotFound("unknown node: " + id);
    if (rec->healthy) return Status::OK();
    rec->healthy = true;
    // If the shard gained another master while this node was down (its old
    // replica was promoted), the node rejoins as a replica of that master.
    const NodeRecord* master = routing_.MasterOfShard(rec->shard);
    if (master != nullptr && master->id != rec->id) {
      rec->is_replica = true;
      as_replica = true;
      current_master = *master;
    } else {
      rec->is_replica = false;
    }
    rejoined = *rec;
    ++routing_.epoch;
  }
  server::RespValue reply;
  if (as_replica) {
    CallNode(rejoined,
             {"REPLICAOF", current_master.host,
              std::to_string(current_master.port)},
             &reply);
  } else {
    CallNode(rejoined, {"REPLICAOF", "NO", "ONE"}, &reply);
  }
  PushRouting();
  return Status::OK();
}

void CoordinatorService::ProbeLoop() {
  constexpr uint64_t kSliceMicros = 5'000;
  while (!stop_probe_.load(std::memory_order_acquire)) {
    uint64_t slept = 0;
    while (slept < options_.probe_interval_micros &&
           !stop_probe_.load(std::memory_order_acquire)) {
      uint64_t slice =
          std::min(kSliceMicros, options_.probe_interval_micros - slept);
      std::this_thread::sleep_for(std::chrono::microseconds(slice));
      slept += slice;
    }
    if (stop_probe_.load(std::memory_order_acquire)) return;
    WireRouting snapshot = Routing();
    for (const NodeRecord& node : snapshot.nodes) {
      if (!node.healthy) continue;
      server::RespValue reply;
      probes_sent_.fetch_add(1, std::memory_order_relaxed);
      if (!CallNode(node, {"PING"}, &reply).ok()) {
        probe_failures_.fetch_add(1, std::memory_order_relaxed);
        probe_marked_failed_.fetch_add(1, std::memory_order_relaxed);
        MarkFailed(node.id);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// RESP front end.
// ---------------------------------------------------------------------------

void CoordinatorService::ClusterCommand(const server::RespCommand& cmd,
                                        std::string* out) {
  const Slice& sub = cmd.args[1];
  if (EqualsUpper(sub, "EPOCH") && cmd.args.size() == 2) {
    server::AppendInteger(out, static_cast<int64_t>(epoch()));
  } else if (EqualsUpper(sub, "NODES") && cmd.args.size() == 2) {
    server::AppendBulk(out, Routing().Serialize());
  } else if (EqualsUpper(sub, "ROUTE") && cmd.args.size() == 3) {
    WireRouting snapshot = Routing();
    Router router = snapshot.BuildRouter();
    std::string shard = router.Route(cmd.args[2]);
    if (shard.empty()) {
      server::AppendError(out, "CLUSTERDOWN no shards in the ring");
      return;
    }
    const NodeRecord* master = snapshot.MasterOfShard(shard);
    server::AppendBulk(
        out, shard + " " + (master == nullptr ? "?:0" : master->endpoint()));
  } else if (EqualsUpper(sub, "ADDNODE") &&
             (cmd.args.size() == 5 || cmd.args.size() == 7)) {
    int64_t port = 0;
    if (!server::ParseArgInt(cmd.args[4], &port) || port <= 0 ||
        port > 65535) {
      server::AppendError(out, "ERR invalid node port");
      return;
    }
    std::string replica_of;
    if (cmd.args.size() == 7) {
      if (!EqualsUpper(cmd.args[5], "REPLICAOF")) {
        server::AppendError(out, "ERR syntax error");
        return;
      }
      replica_of = cmd.args[6].ToString();
    }
    AppendOkOrError(out, AddNode(cmd.args[2].ToString(),
                                 cmd.args[3].ToString(),
                                 static_cast<uint16_t>(port), replica_of));
  } else if (EqualsUpper(sub, "FAIL") && cmd.args.size() == 3) {
    AppendOkOrError(out, MarkFailed(cmd.args[2].ToString()));
  } else if (EqualsUpper(sub, "RECOVER") && cmd.args.size() == 3) {
    AppendOkOrError(out, Recover(cmd.args[2].ToString()));
  } else {
    server::AppendError(out, "ERR unknown CLUSTER subcommand");
  }
}

}  // namespace tierbase::cluster_net
