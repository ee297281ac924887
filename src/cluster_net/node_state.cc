#include "cluster_net/node_state.h"
#include "common/mutex.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>

namespace tierbase::cluster_net {

namespace {

constexpr uint64_t kSleepSliceMicros = 2'000;

void SleepMicrosChecking(uint64_t micros, const std::atomic<bool>& stop) {
  uint64_t slept = 0;
  while (slept < micros && !stop.load(std::memory_order_acquire)) {
    uint64_t slice = std::min(kSleepSliceMicros, micros - slept);
    std::this_thread::sleep_for(std::chrono::microseconds(slice));
    slept += slice;
  }
}

}  // namespace

NodeClusterState::NodeClusterState(TierBase* db, Options options)
    : db_(db), options_(std::move(options)), oplog_(options_.oplog_capacity) {}

NodeClusterState::~NodeClusterState() { StopReplication(); }

uint64_t NodeClusterState::epoch() const {
  std::shared_ptr<const RoutingView> view = routing();
  return view == nullptr ? 0 : view->wire.epoch;
}

Status NodeClusterState::InstallRouting(const std::string& payload) {
  WireRouting wire;
  TIERBASE_RETURN_IF_ERROR(WireRouting::Parse(payload, &wire));
  auto view = std::make_shared<const RoutingView>(std::move(wire));
  common::MutexLock lock(&routing_mu_);
  // Never roll the epoch backwards (a slow push racing a newer one).
  if (routing_view_ != nullptr &&
      routing_view_->wire.epoch > view->wire.epoch) {
    return Status::OK();
  }
  routing_view_ = std::move(view);
  return Status::OK();
}

std::shared_ptr<const RoutingView> NodeClusterState::routing() const {
  common::MutexLock lock(&routing_mu_);
  return routing_view_;
}

NodeClusterState::RouteChecker NodeClusterState::route_checker() const {
  std::shared_ptr<const RoutingView> view = routing();
  const NodeRecord* self =
      view == nullptr ? nullptr : view->wire.FindNode(options_.id);
  return RouteChecker(std::move(view), self);
}

bool NodeClusterState::CheckMoved(const Slice& key, std::string* moved_error) {
  std::shared_ptr<const RoutingView> view = routing();
  if (view == nullptr) return false;  // No routing installed: serve all.
  const NodeRecord* self = view->wire.FindNode(options_.id);
  if (self == nullptr) return false;  // Not in the table yet: serve all.
  std::string shard = view->router.Route(key);
  if (shard.empty() || shard == self->shard) return false;
  moved_replies_.fetch_add(1, std::memory_order_relaxed);
  const NodeRecord* owner = view->wire.MasterOfShard(shard);
  char buf[192];
  snprintf(buf, sizeof(buf), "MOVED %llu %s %s",
           static_cast<unsigned long long>(view->wire.epoch), shard.c_str(),
           owner == nullptr ? "?:0" : owner->endpoint().c_str());
  *moved_error = buf;
  return true;
}

void NodeClusterState::RecordSet(const Slice& key, const Slice& value,
                                 uint64_t ttl_micros) {
  oplog_.Append(ReplOp::Type::kSet, key, value, ttl_micros);
}

void NodeClusterState::RecordDelete(const Slice& key) {
  oplog_.Append(ReplOp::Type::kDelete, key, Slice(), 0);
}

void NodeClusterState::RecordExpire(const Slice& key, uint64_t ttl_micros) {
  oplog_.Append(ReplOp::Type::kExpire, key, Slice(), ttl_micros);
}

void NodeClusterState::RecordFlush() {
  oplog_.Append(ReplOp::Type::kFlushAll, Slice(), Slice(), 0);
}

void NodeClusterState::NoteReplicaAck(const std::string& replica_id,
                                      uint64_t acked) {
  common::MutexLock lock(&acks_mu_);
  uint64_t& slot = replica_acks_[replica_id];
  if (acked > slot) slot = acked;
}

size_t NodeClusterState::CountReplicasAtLeast(uint64_t target) const {
  common::MutexLock lock(&acks_mu_);
  size_t n = 0;
  for (const auto& [id, acked] : replica_acks_) {
    (void)id;
    if (acked >= target) ++n;
  }
  return n;
}

size_t NodeClusterState::connected_replicas() const {
  common::MutexLock lock(&acks_mu_);
  return replica_acks_.size();
}

// ---------------------------------------------------------------------------
// Replica link.
// ---------------------------------------------------------------------------

Status NodeClusterState::StartReplicaOf(const std::string& host,
                                        uint16_t port) {
  StopReplication();
  common::MutexLock lock(&link_mu_);
  master_host_ = host;
  master_port_ = port;
  stop_pull_.store(false, std::memory_order_release);
  is_replica_.store(true, std::memory_order_release);
  replica_applied_.store(0);
  master_head_seen_.store(0);
  pull_thread_ = std::thread(&NodeClusterState::PullLoop, this);
  return Status::OK();
}

void NodeClusterState::StopReplication() {
  // Join outside the lock: PullLoop's first action is to lock link_mu_ to
  // read the master endpoint, so joining while holding it would deadlock
  // against a freshly spawned puller.
  std::thread to_join;
  {
    common::MutexLock lock(&link_mu_);
    stop_pull_.store(true, std::memory_order_release);
    to_join = std::move(pull_thread_);
  }
  if (to_join.joinable()) to_join.join();
  is_replica_.store(false, std::memory_order_release);
}

uint64_t NodeClusterState::replica_lag() const {
  uint64_t head = master_head_seen_.load(std::memory_order_relaxed);
  uint64_t applied = replica_applied_.load(std::memory_order_relaxed);
  return head > applied ? head - applied : 0;
}

std::string NodeClusterState::master_endpoint() const {
  common::MutexLock lock(&link_mu_);
  if (master_port_ == 0) return "";
  return master_host_ + ":" + std::to_string(master_port_);
}

Status NodeClusterState::ApplyOp(const ReplOp& op) {
  // An engine refusal (WAL append error, write-back flush error, OOM on a
  // durable replica) must not be swallowed: recording the op as applied
  // while the engine dropped it would silently diverge this replica from
  // its master. The caller keeps replica_applied_ put so the op is
  // re-pulled once the engine heals.
  Status s;
  switch (op.type) {
    case ReplOp::Type::kSet:
      s = op.ttl_micros == 0 ? db_->Set(op.key, op.value)
                             : db_->SetEx(op.key, op.value, op.ttl_micros);
      if (s.ok()) RecordSet(op.key, op.value, op.ttl_micros);
      break;
    case ReplOp::Type::kDelete:
      s = db_->Delete(op.key);
      if (s.IsNotFound()) s = Status::OK();  // Deleting absent = applied.
      if (s.ok()) RecordDelete(op.key);
      break;
    case ReplOp::Type::kExpire:
      // May miss if the key never reached this replica; Expire's NotFound
      // is then the correct no-op.
      db_->cache()->Expire(op.key, op.ttl_micros);
      RecordExpire(op.key, op.ttl_micros);
      break;
    case ReplOp::Type::kFlushAll:
      db_->cache()->Clear();
      RecordFlush();
      break;
  }
  if (!s.ok()) apply_failures_.fetch_add(1, std::memory_order_relaxed);
  return s;
}

Status NodeClusterState::FullResync(server::Client* client) {
  full_resyncs_.fetch_add(1, std::memory_order_relaxed);
  db_->cache()->Clear();
  RecordFlush();
  std::string cursor = "0";
  uint64_t resume_seq = 0;
  bool first_page = true;
  do {
    if (stop_pull_.load(std::memory_order_acquire)) {
      return Status::Aborted("replication stopping");
    }
    server::RespValue reply;
    TIERBASE_RETURN_IF_ERROR(
        client->Call({"REPLSNAPSHOT", cursor, "256"}, &reply));
    if (reply.IsError()) return Status::IOError(reply.str);
    if (reply.type != server::RespValue::Type::kArray ||
        reply.elements.size() < 2 ||
        (reply.elements.size() - 2) % 3 != 0) {
      return Status::Corruption("malformed REPLSNAPSHOT reply");
    }
    if (first_page) {
      // Resume incremental pulls from the head observed before any page:
      // mutations racing the snapshot get replayed (sets are idempotent),
      // bounding the lost-update window to the snapshot duration.
      resume_seq = static_cast<uint64_t>(reply.elements[1].integer);
      first_page = false;
    }
    for (size_t i = 2; i + 2 < reply.elements.size(); i += 3) {
      ReplOp op;
      op.type = ReplOp::Type::kSet;
      op.key = std::move(reply.elements[i].str);
      op.value = std::move(reply.elements[i + 1].str);
      op.ttl_micros = static_cast<uint64_t>(reply.elements[i + 2].integer);
      TIERBASE_RETURN_IF_ERROR(ApplyOp(op));
    }
    cursor = reply.elements[0].str;
  } while (cursor != "0");
  replica_applied_.store(resume_seq, std::memory_order_release);
  master_head_seen_.store(resume_seq, std::memory_order_release);
  return Status::OK();
}

bool NodeClusterState::PullOnce(server::Client* client) {
  const std::string from =
      std::to_string(replica_applied_.load(std::memory_order_acquire) + 1);
  server::RespValue reply;
  Status s = client->Call(
      {"REPLPULL", options_.id, from, std::to_string(options_.pull_max_ops)},
      &reply);
  if (!s.ok()) return false;
  if (reply.IsError()) {
    // Sequence gap: the master's bounded oplog dropped ops we never saw.
    if (reply.str.rfind("REPLGAP", 0) == 0) {
      return FullResync(client).ok();
    }
    return false;
  }
  if (reply.type != server::RespValue::Type::kArray ||
      reply.elements.empty()) {
    return false;
  }
  master_head_seen_.store(static_cast<uint64_t>(reply.elements[0].integer),
                          std::memory_order_release);
  for (size_t i = 1; i < reply.elements.size(); ++i) {
    const server::RespValue& e = reply.elements[i];
    if (e.type != server::RespValue::Type::kArray || e.elements.size() != 5) {
      return false;
    }
    ReplOp op;
    op.seq = static_cast<uint64_t>(e.elements[0].integer);
    const std::string& type = e.elements[1].str;
    if (type == "SET") {
      op.type = ReplOp::Type::kSet;
    } else if (type == "DEL") {
      op.type = ReplOp::Type::kDelete;
    } else if (type == "FLUSH") {
      op.type = ReplOp::Type::kFlushAll;
    } else if (type == "EXPIRE") {
      op.type = ReplOp::Type::kExpire;
    } else {
      return false;
    }
    op.key = e.elements[2].str;
    op.value = e.elements[3].str;
    op.ttl_micros = static_cast<uint64_t>(e.elements[4].integer);
    if (!ApplyOp(op).ok()) {
      // Don't advance past the failed op: it will be re-pulled, and the
      // lag it accumulates is visible in INFO (replica_lag_ops).
      return false;
    }
    replica_applied_.store(op.seq, std::memory_order_release);
  }
  // Ops arrived: poll again immediately. Empty pull: let the caller idle.
  return reply.elements.size() > 1;
}

void NodeClusterState::PullLoop() {
  server::Client client;
  client.set_transport(options_.transport);
  std::string host;
  uint16_t port = 0;
  {
    common::MutexLock lock(&link_mu_);
    host = master_host_;
    port = master_port_;
  }
  // Jittered exponential backoff against an unreachable master: without it
  // a dead master gets hammered with connect() 50×/s forever, and a fleet
  // of replicas reconnects in lockstep the instant it returns. Seeded from
  // the node id so chaos tests replay the exact schedule.
  uint64_t seed = 1;
  for (char c : options_.id) seed = seed * 131 + static_cast<uint8_t>(c);
  common::RetryState retry(options_.pull_retry, nullptr, seed);
  auto backoff = [&] {
    uint64_t micros = retry.NextBackoffMicros();
    pull_backoffs_.fetch_add(1, std::memory_order_relaxed);
    last_pull_backoff_micros_.store(micros, std::memory_order_relaxed);
    SleepMicrosChecking(micros, stop_pull_);
  };
  while (!stop_pull_.load(std::memory_order_acquire)) {
    if (!client.connected()) {
      if (!client.Connect(host, port, options_.pull_io_timeout_micros).ok()) {
        backoff();
        continue;
      }
      pull_connects_.fetch_add(1, std::memory_order_relaxed);
    }
    if (!PullOnce(&client)) {
      if (!client.connected()) {
        backoff();
      } else {
        // Connected and idle (or a full resync just completed): the link
        // is healthy, so reset the ladder and poll at the idle interval.
        retry.RecordSuccess();
        SleepMicrosChecking(options_.pull_interval_micros, stop_pull_);
      }
    } else {
      retry.RecordSuccess();
    }
  }
}

void NodeClusterState::AppendInfo(std::string* out) const {
  char line[192];
  auto add = [&](const char* fmt, auto... args) {
    snprintf(line, sizeof(line), fmt, args...);
    *out += line;
    *out += "\r\n";
  };
  add("cluster_enabled:1");
  add("cluster_id:%s", options_.id.c_str());
  add("role:%s", is_replica() ? "replica" : "master");
  add("cluster_epoch:%" PRIu64, epoch());
  std::shared_ptr<const RoutingView> view = routing();
  if (view != nullptr) {
    const NodeRecord* self = view->wire.FindNode(options_.id);
    if (self != nullptr) add("shard:%s", self->shard.c_str());
  }
  add("repl_head_seq:%" PRIu64, oplog_.head_seq());
  add("repl_min_seq:%" PRIu64, oplog_.min_seq());
  add("connected_replicas:%zu", connected_replicas());
  add("moved_replies:%" PRIu64, moved_replies());
  if (is_replica()) {
    add("master_link:%s", master_endpoint().c_str());
    add("replica_applied_seq:%" PRIu64, replica_applied_seq());
    add("replica_lag_ops:%" PRIu64, replica_lag());
    add("full_resyncs:%" PRIu64, full_resyncs());
    add("replica_apply_failures:%" PRIu64, apply_failures());
    add("replica_pull_connects:%" PRIu64, pull_connects());
    add("replica_pull_backoffs:%" PRIu64, pull_backoffs());
    add("replica_last_backoff_micros:%" PRIu64, last_pull_backoff_micros());
  }
}

}  // namespace tierbase::cluster_net
