#include "cluster_net/cluster_client.h"
#include "common/mutex.h"
#include "common/perf_context.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <numeric>

namespace tierbase::cluster_net {

namespace {

/// The reply says our routing snapshot is stale (-MOVED from a node with a
/// newer epoch, -READONLY from a not-yet promoted replica, -CLUSTERDOWN).
bool IsStaleRouteReply(const server::RespValue& reply) {
  return reply.IsError() && (reply.str.rfind("MOVED", 0) == 0 ||
                             reply.str.rfind("READONLY", 0) == 0 ||
                             reply.str.rfind("CLUSTERDOWN", 0) == 0);
}

/// A reply that is `+OK` or an error.
Status OkOrError(const server::RespValue* reply) {
  return reply->IsError() ? Status::InvalidArgument(reply->str) : Status::OK();
}

uint64_t ParseInfoField(const std::string& info, const char* field) {
  size_t pos = info.find(field);
  if (pos == std::string::npos) return 0;
  return strtoull(info.c_str() + pos + strlen(field), nullptr, 10);
}

}  // namespace

Result<std::unique_ptr<NetClusterClient>> NetClusterClient::Connect(
    Options options) {
  if (options.coordinators.empty()) {
    return Status::InvalidArgument("no coordinator endpoints");
  }
  std::unique_ptr<NetClusterClient> client(
      new NetClusterClient(std::move(options)));
  common::MutexLock lock(&client->mu_);
  client->coordinator_.set_transport(client->options_.transport);
  Status s = client->RefreshRoutingLocked();
  if (!s.ok()) return s;
  return client;
}

Status NetClusterClient::CoordinatorCallLocked(const std::vector<Slice>& args,
                                               server::RespValue* reply) {
  Status last = Status::IOError("no coordinator reachable");
  for (size_t attempt = 0; attempt < options_.coordinators.size() + 1;
       ++attempt) {
    if (!coordinator_.connected()) {
      // Round-robin over the configured coordinator endpoints.
      const std::string& spec =
          options_.coordinators[attempt % options_.coordinators.size()];
      std::string host;
      uint16_t port = 0;
      last = server::ParseHostPort(spec, &host, &port);
      if (!last.ok()) continue;
      last = coordinator_.Connect(host, port,
                                  options_.coordinator_timeout_micros);
      if (!last.ok()) continue;
    }
    last = coordinator_.Call(args, reply);
    if (last.ok()) return Status::OK();
    coordinator_.Close();
  }
  return last;
}

Status NetClusterClient::RefreshRoutingLocked() {
  server::RespValue reply;
  TIERBASE_RETURN_IF_ERROR(CoordinatorCallLocked({"CLUSTER", "NODES"}, &reply));
  if (reply.type != server::RespValue::Type::kBulkString) {
    return Status::IOError("malformed CLUSTER NODES reply");
  }
  WireRouting wire;
  TIERBASE_RETURN_IF_ERROR(WireRouting::Parse(reply.str, &wire));
  routing_ = std::move(wire);
  router_ = routing_.BuildRouter();
  reported_.clear();
  ++stats_.route_refreshes;
  return Status::OK();
}

void NetClusterClient::ReportFailureLocked(const std::string& node_id) {
  conns_.erase(node_id);
  // One report per node per routing snapshot: a dead node shows up once
  // per failed sub-batch key otherwise (the refresh clears the set).
  if (!reported_.insert(node_id).second) return;
  ++stats_.failures_reported;
  server::RespValue reply;
  CoordinatorCallLocked({"CLUSTER", "FAIL", node_id}, &reply);
}

common::CircuitBreaker* NetClusterClient::BreakerLocked(
    const std::string& node_id) {
  auto it = breakers_.find(node_id);
  if (it == breakers_.end()) {
    common::CircuitBreakerOptions bo = options_.breaker;
    if (bo.clock == nullptr) bo.clock = options_.clock;
    it = breakers_
             .emplace(node_id, std::make_unique<common::CircuitBreaker>(bo))
             .first;
  }
  return it->second.get();
}

void NetClusterClient::BackoffLocked(common::RetryState* retry) {
  uint64_t micros = retry->NextBackoffMicros();
  if (micros == 0) return;
  ++stats_.backoff_waits;
  const Clock* clock =
      options_.clock != nullptr ? options_.clock : Clock::Real();
  clock->SleepMicros(micros);
}

server::Client* NetClusterClient::MasterConnLocked(const std::string& shard,
                                                   Status* why,
                                                   std::string* node_id,
                                                   bool* fast_fail) {
  if (fast_fail != nullptr) *fast_fail = false;
  const NodeRecord* master = routing_.MasterOfShard(shard);
  if (master == nullptr) {
    *why = Status::Unavailable("no healthy master for shard " + shard);
    node_id->clear();
    return nullptr;
  }
  *node_id = master->id;
  auto it = conns_.find(master->id);
  // An established connection is served without consulting the breaker:
  // an open breaker means dialing fails, and a live socket is the best
  // evidence that is no longer true (its ops will half-close the loop via
  // RecordSuccess/RecordFailure either way).
  if (it != conns_.end() && it->second->connected()) return it->second.get();
  common::CircuitBreaker* breaker = BreakerLocked(master->id);
  if (!breaker->Allow()) {
    *why = Status::Unavailable("circuit open for node " + master->id);
    if (fast_fail != nullptr) *fast_fail = true;
    return nullptr;
  }
  auto conn = std::make_unique<server::Client>();
  conn->set_transport(options_.transport);
  *why = conn->Connect(master->host, master->port,
                       options_.node_timeout_micros);
  if (!why->ok()) {
    breaker->RecordFailure();
    conns_.erase(master->id);
    return nullptr;
  }
  server::Client* raw = conn.get();
  conns_[master->id] = std::move(conn);
  return raw;
}

template <typename Encode, typename Decode>
void NetClusterClient::RoutedRound(const Slice* keys, size_t n,
                                   Status* statuses, Encode encode,
                                   Decode decode) {
  std::fill(statuses, statuses + n, Status::Unavailable("not attempted"));
  if (n == 0) return;
  metrics::ScopedPerfStage fanout_stage(metrics::PerfContext::kNetFanout);
  common::MutexLock lock(&mu_);

  struct NodeBatch {
    server::Client* conn;
    std::string node_id;
    std::vector<size_t> indices;  // Into keys, ascending.
    Status sent;                  // The flush's outcome.
  };
  std::vector<NodeBatch> batches;
  std::vector<size_t> pending(n);
  std::iota(pending.begin(), pending.end(), 0);
  std::vector<size_t> again;  // Keys to retry on the next attempt.
  std::vector<Slice> args;
  common::RetryState retry(options_.retry, options_.clock, options_.seed);
  for (int attempt = 0; attempt < options_.max_retries && !pending.empty();
       ++attempt) {
    if (attempt > 0) BackoffLocked(&retry);
    batches.clear();
    again.clear();

    // Route: group the pending keys by their shard's master.
    for (size_t i : pending) {
      std::string shard = router_.Route(keys[i]);
      if (shard.empty()) {
        statuses[i] = Status::Unavailable("no shards in the ring");
        again.push_back(i);
        continue;
      }
      std::string node_id;
      bool fast_fail = false;
      server::Client* conn =
          MasterConnLocked(shard, &statuses[i], &node_id, &fast_fail);
      if (conn == nullptr) {
        // Breaker open: the key fails now and finally. Reporting and
        // refreshing again would only churn the coordinator; the breaker's
        // half-open probe is the way back. Other nodes' keys proceed.
        if (fast_fail) continue;
        if (!node_id.empty()) ReportFailureLocked(node_id);
        again.push_back(i);
        continue;
      }
      auto it = std::find_if(
          batches.begin(), batches.end(),
          [conn](const NodeBatch& b) { return b.conn == conn; });
      if (it == batches.end()) {
        batches.push_back({conn, std::move(node_id), {}, {}});
        it = batches.end() - 1;
      }
      it->indices.push_back(i);
    }

    // Scatter: ship every node's command before reading any reply.
    for (NodeBatch& b : batches) {
      args.clear();
      encode(b.indices, &args);
      b.conn->Append(args);
      b.sent = b.conn->Flush();
      if (b.sent.ok()) ++stats_.node_batches[b.node_id];
    }

    // Gather.
    for (NodeBatch& b : batches) {
      server::RespValue reply;
      Status s = b.sent;
      if (s.ok()) {
        const uint64_t wait_start = Clock::Real()->NowMicros();
        s = b.conn->ReadReply(&reply);
        stats_.node_fanout_micros[b.node_id] +=
            Clock::Real()->NowMicros() - wait_start;
      }
      if (!s.ok()) {
        // A failed flush or read: the node is likely down. The report
        // drops the connection.
        BreakerLocked(b.node_id)->RecordFailure();
        ReportFailureLocked(b.node_id);
        for (size_t i : b.indices) statuses[i] = s;
        again.insert(again.end(), b.indices.begin(), b.indices.end());
        continue;
      }
      // The node answered: a breaker success even if the answer is a
      // stale route or an application error.
      BreakerLocked(b.node_id)->RecordSuccess();
      if (IsStaleRouteReply(reply)) {
        // -MOVED / -READONLY: refresh and retry, no failure report.
        ++stats_.moved_redirects;
        for (size_t i : b.indices) {
          statuses[i] = Status::Unavailable(reply.str);
        }
        again.insert(again.end(), b.indices.begin(), b.indices.end());
        continue;
      }
      decode(b.indices, &reply, statuses);
    }

    // Key order, so a key given twice in a batch keeps its last value.
    std::sort(again.begin(), again.end());
    pending.swap(again);
    if (!pending.empty()) RefreshRoutingLocked();
  }
}

template <typename Decode>
Status NetClusterClient::RoutedCall(const Slice& key,
                                    const std::vector<Slice>& args,
                                    Decode decode) {
  Status status;
  RoutedRound(
      &key, 1, &status,
      [&](const std::vector<size_t>&, std::vector<Slice>* out) {
        *out = args;
      },
      [&](const std::vector<size_t>&, server::RespValue* reply,
          Status* statuses) { statuses[0] = decode(reply); });
  return status;
}

Status NetClusterClient::Set(const Slice& key, const Slice& value) {
  return RoutedCall(key, {"SET", key, value}, OkOrError);
}

Status NetClusterClient::Get(const Slice& key, std::string* value) {
  return RoutedCall(key, {"GET", key}, [value](server::RespValue* reply) {
    if (reply->IsError()) return Status::InvalidArgument(reply->str);
    if (reply->IsNull()) return Status::NotFound("");
    *value = std::move(reply->str);
    return Status::OK();
  });
}

Status NetClusterClient::Delete(const Slice& key) {
  return RoutedCall(key, {"DEL", key}, OkOrError);
}

Status NetClusterClient::Forward(const std::vector<Slice>& args,
                                 const Slice& key,
                                 server::RespValue* reply) {
  // Error replies (WRONGTYPE, arity) relay verbatim to the caller.
  return RoutedCall(key, args, [reply](server::RespValue* r) {
    *reply = std::move(*r);
    return Status::OK();
  });
}

void NetClusterClient::MultiGet(const std::vector<Slice>& keys,
                                std::vector<std::string>* values,
                                std::vector<Status>* statuses) {
  values->assign(keys.size(), std::string());
  statuses->resize(keys.size());
  RoutedRound(
      keys.data(), keys.size(), statuses->data(),
      [&keys](const std::vector<size_t>& indices, std::vector<Slice>* args) {
        args->emplace_back("MGET");
        for (size_t i : indices) args->push_back(keys[i]);
      },
      [values](const std::vector<size_t>& indices, server::RespValue* reply,
               Status* out) {
        if (reply->type != server::RespValue::Type::kArray ||
            reply->elements.size() != indices.size()) {
          Status bad = reply->IsError()
                           ? Status::InvalidArgument(reply->str)
                           : Status::IOError("malformed MGET reply");
          for (size_t i : indices) out[i] = bad;
          return;
        }
        for (size_t k = 0; k < indices.size(); ++k) {
          server::RespValue& e = reply->elements[k];
          if (e.type == server::RespValue::Type::kBulkString) {
            (*values)[indices[k]] = std::move(e.str);
            out[indices[k]] = Status::OK();
          } else {
            out[indices[k]] = Status::NotFound("");
          }
        }
      });
}

void NetClusterClient::MultiSet(const std::vector<Slice>& keys,
                                const std::vector<Slice>& values,
                                std::vector<Status>* statuses) {
  statuses->resize(keys.size());
  RoutedRound(
      keys.data(), keys.size(), statuses->data(),
      [&](const std::vector<size_t>& indices, std::vector<Slice>* args) {
        args->emplace_back("MSET");
        for (size_t i : indices) {
          args->push_back(keys[i]);
          args->push_back(values[i]);
        }
      },
      [](const std::vector<size_t>& indices, server::RespValue* reply,
         Status* out) {
        const Status outcome = OkOrError(reply);
        for (size_t i : indices) out[i] = outcome;
      });
}

UsageStats NetClusterClient::GetUsage() const {
  UsageStats total;
  common::MutexLock lock(&mu_);
  auto* self = const_cast<NetClusterClient*>(this);
  for (const NodeRecord& node : routing_.nodes) {
    if (node.is_replica || !node.healthy) continue;
    Status why;
    std::string node_id;
    server::Client* conn = self->MasterConnLocked(node.shard, &why, &node_id);
    if (conn == nullptr) continue;
    server::RespValue reply;
    if (!conn->Call({"INFO"}, &reply).ok() ||
        reply.type != server::RespValue::Type::kBulkString) {
      continue;
    }
    total.memory_bytes += ParseInfoField(reply.str, "bytes_cached:");
    total.pmem_bytes += ParseInfoField(reply.str, "pmem_bytes:");
    total.keys += ParseInfoField(reply.str, "keys_cached:");
  }
  return total;
}

Status NetClusterClient::WaitIdle() {
  common::MutexLock lock(&mu_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    server::RespValue reply;
    if (it->second->connected() &&
        it->second->Call({"PING"}, &reply).ok()) {
      ++it;
    } else {
      it = conns_.erase(it);
    }
  }
  return Status::OK();
}

uint64_t NetClusterClient::epoch() const {
  common::MutexLock lock(&mu_);
  return routing_.epoch;
}

NetClusterClient::Stats NetClusterClient::GetStats() const {
  common::MutexLock lock(&mu_);
  Stats stats = stats_;
  for (const auto& [id, breaker] : breakers_) {
    stats.breaker_trips += breaker->trips();
    stats.breaker_fast_fails += breaker->fast_fails();
    stats.breaker_states[id] = breaker->state_name();
  }
  return stats;
}

}  // namespace tierbase::cluster_net
