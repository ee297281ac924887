// The data node's verb rows: maps RESP commands onto the TierBase engine
// API. String commands go through TierBase (and therefore observe the
// caching policy: WAL logging, write-through acknowledgement, write-back
// dirty marking). Rich-type and TTL commands operate on the cache tier
// engine, which is where those types live in this reproduction. With
// cluster membership attached (CommandTable::set_cluster) the string
// mutations are also recorded in the replication oplog, and the
// CLUSTER/REPLICAOF/REPLPULL/REPLSNAPSHOT/WAIT vocabulary is live.

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>

#include "cluster_net/node_state.h"
#include "common/mutex.h"
#include "core/tierbase.h"
#include "server/command.h"

namespace tierbase {
namespace server {

namespace {

bool ParseArgDouble(const Slice& arg, double* out) {
  if (arg.empty() || arg.size() > 63) return false;
  char buf[64];
  memcpy(buf, arg.data(), arg.size());
  buf[arg.size()] = '\0';
  errno = 0;
  char* end = nullptr;
  double v = strtod(buf, &end);
  if (errno != 0 || end != buf + arg.size()) return false;
  *out = v;
  return true;
}

/// Redis-style score formatting: integral scores print without a decimal
/// point, everything else with %.17g round-trip precision.
std::string FormatDouble(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<long long>(v))) {
    snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

constexpr const char* kOk = "OK";
constexpr uint64_t kMicrosPerSecond = 1'000'000;

/// The node's handlers. Owned jointly by the table rows that call it.
class NodeCommands {
 public:
  NodeCommands(TierBase* db, CommandTable* table) : db_(db), table_(table) {}

  void Get(const RespCommand& cmd, std::string* out);
  void Set(const RespCommand& cmd, std::string* out);
  void Del(const RespCommand& cmd, std::string* out);
  void Exists(const RespCommand& cmd, std::string* out);
  void Expire(const RespCommand& cmd, std::string* out);
  void Ttl(const RespCommand& cmd, std::string* out);
  void Incr(const RespCommand& cmd, std::string* out);
  void HSet(const RespCommand& cmd, std::string* out);
  void HGet(const RespCommand& cmd, std::string* out);
  void LPush(const RespCommand& cmd, std::string* out);
  void LRange(const RespCommand& cmd, std::string* out);
  void ZAdd(const RespCommand& cmd, std::string* out);
  void ZRange(const RespCommand& cmd, std::string* out);
  void Scan(const RespCommand& cmd, std::string* out);
  void DbSize(const RespCommand& cmd, std::string* out);
  void FlushAll(const RespCommand& cmd, std::string* out);
  void Cluster(const RespCommand& cmd, std::string* out);
  void ReplicaOf(const RespCommand& cmd, std::string* out);
  void ReplPull(const RespCommand& cmd, std::string* out);
  void ReplSnapshot(const RespCommand& cmd, std::string* out);
  void Wait(const RespCommand& cmd, std::string* out);

  /// Registers the engine's INFO/METRICS sections.
  void RegisterInstruments();

 private:
  cluster_net::NodeClusterState* cluster() const { return table_->cluster(); }
  /// Serializes apply + oplog-append on a cluster node so replicas see
  /// writes in apply order (see NodeClusterState::write_order_mu).
  common::Mutex* write_order_mu() const {
    return cluster() != nullptr ? &cluster()->write_order_mu() : nullptr;
  }

  TierBase* db_;
  CommandTable* table_;

  // One TierBase::Stats snapshot per registry render, taken by a
  // pre-render hook so the ~30 per-key callbacks don't each re-aggregate.
  // Conceptually GUARDED_BY(registry mu_): written and read only inside
  // registry renders, which the registry serializes.
  TierBase::Stats info_stats_;
};

struct NodeRow {
  CommandSpec spec;
  void (NodeCommands::*handler)(const RespCommand&, std::string*);
};

const NodeRow kNodeRows[] = {
    {{"GET", 2, 2, kFlagKey}, &NodeCommands::Get},
    {{"SET", 3, 5, kFlagKey | kFlagWrite}, &NodeCommands::Set},
    {{"DEL", 2, 0, kFlagKeysAll | kFlagWrite}, &NodeCommands::Del},
    {{"EXISTS", 2, 0, kFlagKeysAll}, &NodeCommands::Exists},
    // No handler: the table's read/write trains serve MGET and MSET.
    {{"MGET", 2, 0, kFlagKeysAll}, nullptr},
    {{"MSET", 3, 0, kFlagKeysPairs | kFlagWrite}, nullptr},
    {{"EXPIRE", 3, 3, kFlagKey | kFlagWrite}, &NodeCommands::Expire},
    {{"TTL", 2, 2, kFlagKey}, &NodeCommands::Ttl},
    {{"INCR", 2, 2, kFlagKey | kFlagWrite}, &NodeCommands::Incr},
    {{"HSET", 4, 0, kFlagKey | kFlagWrite}, &NodeCommands::HSet},
    {{"HGET", 3, 3, kFlagKey}, &NodeCommands::HGet},
    {{"LPUSH", 3, 0, kFlagKey | kFlagWrite}, &NodeCommands::LPush},
    {{"LRANGE", 4, 4, kFlagKey}, &NodeCommands::LRange},
    {{"ZADD", 4, 0, kFlagKey | kFlagWrite}, &NodeCommands::ZAdd},
    {{"ZRANGE", 4, 5, kFlagKey}, &NodeCommands::ZRange},
    {{"SCAN", 2, 4, 0}, &NodeCommands::Scan},
    {{"DBSIZE", 1, 1, 0}, &NodeCommands::DbSize},
    {{"FLUSHALL", 1, 1, kFlagWrite}, &NodeCommands::FlushAll},
    {{"CLUSTER", 2, 3, 0}, &NodeCommands::Cluster},
    {{"REPLICAOF", 3, 3, 0}, &NodeCommands::ReplicaOf},
    {{"REPLPULL", 4, 4, 0}, &NodeCommands::ReplPull},
    {{"REPLSNAPSHOT", 3, 3, 0}, &NodeCommands::ReplSnapshot},
    {{"WAIT", 3, 3, 0}, &NodeCommands::Wait},
};

void NodeCommands::RegisterInstruments() {
  metrics::MetricsRegistry* reg = table_->registry();
  // Cluster membership attaches after construction (set_cluster), and its
  // key set is dynamic (role-dependent), so the whole section is a block.
  reg->AddBlock("Cluster", [this](std::string* out) {
    if (cluster() != nullptr) {
      cluster()->AppendInfo(out);
      return;
    }
    out->append("cluster_enabled:0\r\n");
  });

  // One aggregated engine snapshot per render; the per-key callbacks below
  // read fields out of it instead of re-locking every cache shard each.
  reg->AddPreRender([this] { info_stats_ = db_->GetStats(); });
  auto stat = [reg](const char* section, const char* key, const char* help,
                    std::function<uint64_t()> fn,
                    metrics::MetricType type = metrics::MetricType::kCounter) {
    reg->AddCallback(section, key, help, type, std::move(fn));
  };
  stat("Stats", "gets", "Engine point reads",
       [this] { return info_stats_.gets; });
  stat("Stats", "sets", "Engine point writes",
       [this] { return info_stats_.sets; });
  stat("Stats", "keyspace_hits", "Cache-tier read hits",
       [this] { return info_stats_.cache_hits; });
  stat("Stats", "keyspace_misses", "Cache-tier read misses",
       [this] { return info_stats_.cache_misses; });
  stat("Stats", "evicted_keys", "Keys evicted by the cache budget",
       [this] { return info_stats_.evictions; });
  stat("Stats", "expired_keys", "Keys removed by TTL expiry",
       [this] { return info_stats_.expirations; });
  stat("Stats", "lru_touches", "LRU promotions on hit",
       [this] { return info_stats_.lru_touches; });
  stat("Stats", "multi_shard_locks", "Multi-op shard lock rounds",
       [this] { return info_stats_.multi_shard_locks; });
  stat("Stats", "multi_batches", "MultiGet/MultiSet engine batches",
       [this] { return info_stats_.multi_batches; });
  stat("Stats", "storage_populates", "Cache fills from the storage tier",
       [this] { return info_stats_.storage_populates; });
  stat("Stats", "write_through_storage_writes",
       "Synchronous storage-tier writes",
       [this] { return info_stats_.write_through.storage_writes; });
  stat("Stats", "deferred_fetches", "Deferred storage fetches",
       [this] { return info_stats_.deferred_fetch.fetches; });
  stat("Stats", "deferred_fetch_batch_calls",
       "Storage MultiReads issued for deferred fetches",
       [this] { return info_stats_.deferred_fetch.batch_calls; });
  stat("Stats", "deferred_fetch_shared",
       "Deferred fetches that rode on another caller's read",
       [this] { return info_stats_.deferred_fetch.shared; });

  reg->AddText("Persistence", "policy", [this] { return db_->name(); });
  stat("Persistence", "wb_dirty", "Dirty write-back entries pending flush",
       [this] { return info_stats_.write_back_dirty; },
       metrics::MetricType::kGauge);
  stat("Persistence", "wb_flush_batches", "Write-back flush batches",
       [this] { return info_stats_.write_back.flush_batches; });
  stat("Persistence", "wb_flushed_ops", "Dirty entries flushed",
       [this] { return info_stats_.write_back.flushed_ops; });
  stat("Persistence", "wb_flush_failures", "Write-back flush failures",
       [this] { return info_stats_.write_back.flush_failures; });
  stat("Persistence", "wb_flush_retries", "Write-back flush retries",
       [this] { return info_stats_.write_back.flush_retries; });
  stat("Persistence", "wb_backpressure_waits",
       "Writes stalled on the dirty-set cap",
       [this] { return info_stats_.write_back.backpressure_waits; });
  reg->AddText("Persistence", "wb_flush_error", [this] {
    return info_stats_.flush_error.empty() ? std::string("ok")
                                           : info_stats_.flush_error;
  });
  stat("Persistence", "wal_replayed_records", "Cache WAL records replayed",
       [this] { return info_stats_.wal.records_replayed; });
  stat("Persistence", "wal_truncated_tails", "Cache WAL tails truncated",
       [this] { return info_stats_.wal.truncated_tails; });
  stat("Persistence", "wal_skipped_bytes", "Cache WAL bytes skipped",
       [this] { return info_stats_.wal.skipped_bytes; });
  stat("Persistence", "storage_wal_replayed_records",
       "Storage WAL records replayed",
       [this] { return info_stats_.storage_wal.records_replayed; });
  stat("Persistence", "storage_wal_truncated_tails",
       "Storage WAL tails truncated",
       [this] { return info_stats_.storage_wal.truncated_tails; });
  stat("Persistence", "storage_wal_skipped_bytes",
       "Storage WAL bytes skipped",
       [this] { return info_stats_.storage_wal.skipped_bytes; });

  stat("Memory", "bytes_cached", "Bytes resident in the cache tier",
       [this] { return info_stats_.bytes_cached; },
       metrics::MetricType::kGauge);
  stat("Memory", "pmem_bytes", "Bytes resident in the pmem tier",
       [this] { return info_stats_.pmem_bytes; },
       metrics::MetricType::kGauge);

  stat("Keyspace", "keys_cached", "Keys resident in the cache tier",
       [this] { return info_stats_.keys_cached; },
       metrics::MetricType::kGauge);
}

void NodeCommands::Get(const RespCommand& cmd, std::string* out) {
  std::string value;
  AppendValueOrNull(out, db_->Get(cmd.args[1], &value), value);
}

void NodeCommands::Set(const RespCommand& cmd, std::string* out) {
  uint64_t ttl_micros = 0;
  if (cmd.args.size() > 3) {
    // SET key value [EX seconds | PX millis].
    if (cmd.args.size() != 5) {
      AppendError(out, "ERR syntax error");
      return;
    }
    int64_t amount = 0;
    if (!ParseArgInt(cmd.args[4], &amount) || amount <= 0) {
      AppendError(out, "ERR invalid expire time in 'set' command");
      return;
    }
    if (EqualsUpper(cmd.args[3], "EX")) {
      ttl_micros = static_cast<uint64_t>(amount) * kMicrosPerSecond;
    } else if (EqualsUpper(cmd.args[3], "PX")) {
      ttl_micros = static_cast<uint64_t>(amount) * 1000;
    } else {
      AppendError(out, "ERR syntax error");
      return;
    }
  }
  Status s;
  {
    common::OptionalMutexLock order_lock(write_order_mu());
    s = ttl_micros == 0 ? db_->Set(cmd.args[1], cmd.args[2])
                        : db_->SetEx(cmd.args[1], cmd.args[2], ttl_micros);
    if (s.ok() && cluster() != nullptr) {
      metrics::ScopedPerfStage oplog_stage(metrics::PerfContext::kOplogAppend);
      cluster()->RecordSet(cmd.args[1], cmd.args[2], ttl_micros);
    }
  }
  AppendOkOrError(out, s);
}

void NodeCommands::Del(const RespCommand& cmd, std::string* out) {
  int64_t removed = 0;
  for (size_t i = 1; i < cmd.args.size(); ++i) {
    // Delete is policy-aware (tombstones under write-back, synchronous
    // under write-through); count only keys that were present. The probe
    // populates no cache entry just to answer a count.
    const bool existed = db_->Exists(cmd.args[i]);
    Status s;
    {
      common::OptionalMutexLock order_lock(write_order_mu());
      s = db_->Delete(cmd.args[i]);
      if (s.ok() && cluster() != nullptr) {
        metrics::ScopedPerfStage oplog_stage(
            metrics::PerfContext::kOplogAppend);
        cluster()->RecordDelete(cmd.args[i]);
      }
    }
    if (s.ok() && existed) ++removed;
  }
  AppendInteger(out, removed);
}

void NodeCommands::Exists(const RespCommand& cmd, std::string* out) {
  int64_t count = 0;
  for (size_t i = 1; i < cmd.args.size(); ++i) {
    // Tiered, the key may live only in storage or the dirty buffer. Like
    // DEL's probe, this one counts no read and populates no cache entry.
    if (db_->Exists(cmd.args[i])) ++count;
  }
  AppendInteger(out, count);
}

void NodeCommands::Expire(const RespCommand& cmd, std::string* out) {
  int64_t seconds = 0;
  if (!ParseArgInt(cmd.args[2], &seconds)) {
    AppendError(out, "ERR value is not an integer or out of range");
    return;
  }
  common::OptionalMutexLock order_lock(write_order_mu());
  if (seconds <= 0) {
    // Redis deletes the key on a non-positive TTL.
    const bool existed = db_->Exists(cmd.args[1]);
    if (existed) {
      db_->Delete(cmd.args[1]);
      if (cluster() != nullptr) cluster()->RecordDelete(cmd.args[1]);
    }
    AppendInteger(out, existed ? 1 : 0);
    return;
  }
  const uint64_t ttl_micros =
      static_cast<uint64_t>(seconds) * kMicrosPerSecond;
  Status s = db_->cache()->Expire(cmd.args[1], ttl_micros);
  if (s.ok() && cluster() != nullptr) {
    cluster()->RecordExpire(cmd.args[1], ttl_micros);
  }
  AppendInteger(out, s.ok() ? 1 : 0);
}

void NodeCommands::Ttl(const RespCommand& cmd, std::string* out) {
  Result<uint64_t> ttl = db_->cache()->Ttl(cmd.args[1]);
  if (!ttl.ok()) {
    AppendInteger(out, -2);  // No such key.
    return;
  }
  if (*ttl == 0) {
    AppendInteger(out, -1);  // No expiry set.
    return;
  }
  AppendInteger(out,
                static_cast<int64_t>((*ttl + kMicrosPerSecond - 1) /
                                     kMicrosPerSecond));
}

void NodeCommands::Incr(const RespCommand& cmd, std::string* out) {
  // Lock-free counter bump via the engine's CAS: read, add one, swap;
  // retry on interleaved writers.
  for (int attempt = 0; attempt < 64; ++attempt) {
    std::string current;
    Status s = db_->Get(cmd.args[1], &current);
    bool create = s.IsNotFound();
    int64_t value = 0;
    if (s.ok()) {
      if (!ParseArgInt(current, &value)) {
        AppendError(out, "ERR value is not an integer or out of range");
        return;
      }
    } else if (!create) {
      AppendStatusError(out, s);
      return;
    }
    if (value == INT64_MAX) {
      AppendError(out, "ERR increment or decrement would overflow");
      return;
    }
    const std::string next = std::to_string(value + 1);
    {
      common::OptionalMutexLock order_lock(write_order_mu());
      s = create ? db_->Cas(cmd.args[1], "", next, /*allow_create=*/true)
                 : db_->Cas(cmd.args[1], current, next);
      // Replicate the outcome, not the increment: replays are idempotent.
      if (s.ok() && cluster() != nullptr) {
        metrics::ScopedPerfStage oplog_stage(
            metrics::PerfContext::kOplogAppend);
        cluster()->RecordSet(cmd.args[1], next, 0);
      }
    }
    if (s.ok()) {
      AppendInteger(out, value + 1);
      return;
    }
    if (!s.IsAborted()) {
      AppendStatusError(out, s);
      return;
    }
  }
  AppendError(out, "ERR INCR retry budget exhausted under contention");
}

void NodeCommands::HSet(const RespCommand& cmd, std::string* out) {
  if (cmd.args.size() % 2 != 0) {
    AppendError(out, "ERR wrong number of arguments for 'hset' command");
    return;
  }
  cache::HashEngine* cache = db_->cache();
  int64_t added = 0;
  for (size_t i = 2; i < cmd.args.size(); i += 2) {
    std::string existing;
    const bool is_new = !cache->HGet(cmd.args[1], cmd.args[i], &existing).ok();
    Status s = cache->HSet(cmd.args[1], cmd.args[i], cmd.args[i + 1]);
    if (!s.ok()) {
      AppendStatusError(out, s);
      return;
    }
    if (is_new) ++added;
  }
  AppendInteger(out, added);
}

void NodeCommands::HGet(const RespCommand& cmd, std::string* out) {
  std::string value;
  AppendValueOrNull(out, db_->cache()->HGet(cmd.args[1], cmd.args[2], &value),
                    value);
}

void NodeCommands::LPush(const RespCommand& cmd, std::string* out) {
  cache::HashEngine* cache = db_->cache();
  for (size_t i = 2; i < cmd.args.size(); ++i) {
    Status s = cache->LPush(cmd.args[1], cmd.args[i]);
    if (!s.ok()) {
      AppendStatusError(out, s);
      return;
    }
  }
  Result<uint64_t> len = cache->LLen(cmd.args[1]);
  AppendInteger(out, len.ok() ? static_cast<int64_t>(*len) : 0);
}

void NodeCommands::LRange(const RespCommand& cmd, std::string* out) {
  int64_t start = 0, stop = 0;
  if (!ParseArgInt(cmd.args[2], &start) || !ParseArgInt(cmd.args[3], &stop)) {
    AppendError(out, "ERR value is not an integer or out of range");
    return;
  }
  std::vector<std::string> elements;
  Status s = db_->cache()->LRange(cmd.args[1], start, stop, &elements);
  if (!s.ok() && !s.IsNotFound()) {
    AppendStatusError(out, s);
    return;
  }
  AppendArrayHeader(out, elements.size());
  for (const std::string& e : elements) AppendBulk(out, e);
}

void NodeCommands::ZAdd(const RespCommand& cmd, std::string* out) {
  if (cmd.args.size() % 2 != 0) {
    AppendError(out, "ERR syntax error");
    return;
  }
  cache::HashEngine* cache = db_->cache();
  int64_t added = 0;
  for (size_t i = 2; i < cmd.args.size(); i += 2) {
    double score = 0;
    if (!ParseArgDouble(cmd.args[i], &score)) {
      AppendError(out, "ERR value is not a valid float");
      return;
    }
    const bool is_new = !cache->ZScore(cmd.args[1], cmd.args[i + 1]).ok();
    Status s = cache->ZAdd(cmd.args[1], score, cmd.args[i + 1]);
    if (!s.ok()) {
      AppendStatusError(out, s);
      return;
    }
    if (is_new) ++added;
  }
  AppendInteger(out, added);
}

void NodeCommands::ZRange(const RespCommand& cmd, std::string* out) {
  int64_t start = 0, stop = 0;
  if (!ParseArgInt(cmd.args[2], &start) || !ParseArgInt(cmd.args[3], &stop)) {
    AppendError(out, "ERR value is not an integer or out of range");
    return;
  }
  bool with_scores = false;
  if (cmd.args.size() == 5) {
    if (!EqualsUpper(cmd.args[4], "WITHSCORES")) {
      AppendError(out, "ERR syntax error");
      return;
    }
    with_scores = true;
  }
  std::vector<std::pair<std::string, double>> members;
  Status s = db_->cache()->ZRange(cmd.args[1], start, stop, &members);
  if (!s.ok() && !s.IsNotFound()) {
    AppendStatusError(out, s);
    return;
  }
  AppendArrayHeader(out, members.size() * (with_scores ? 2 : 1));
  for (const auto& [member, score] : members) {
    AppendBulk(out, member);
    if (with_scores) AppendBulk(out, FormatDouble(score));
  }
}

void NodeCommands::Scan(const RespCommand& cmd, std::string* out) {
  int64_t cursor = 0;
  if (!ParseArgInt(cmd.args[1], &cursor) || cursor < 0) {
    AppendError(out, "ERR invalid cursor");
    return;
  }
  int64_t count = 10;
  if (cmd.args.size() > 2) {
    if (cmd.args.size() != 4 || !EqualsUpper(cmd.args[2], "COUNT") ||
        !ParseArgInt(cmd.args[3], &count) || count <= 0) {
      AppendError(out, "ERR syntax error");
      return;
    }
  }
  std::vector<std::string> keys;
  uint64_t next = db_->cache()->Scan(static_cast<uint64_t>(cursor),
                                     static_cast<size_t>(count), &keys);
  AppendArrayHeader(out, 2);
  AppendBulk(out, std::to_string(next));
  AppendArrayHeader(out, keys.size());
  for (const std::string& key : keys) AppendBulk(out, key);
}

void NodeCommands::DbSize(const RespCommand& cmd, std::string* out) {
  (void)cmd;
  AppendInteger(out,
                static_cast<int64_t>(db_->cache()->GetUsage().keys));
}

void NodeCommands::FlushAll(const RespCommand& cmd, std::string* out) {
  (void)cmd;
  if (db_->storage() != nullptr) {
    // A cache-only wipe would quietly resurrect from the storage tier on
    // the next miss; refuse rather than lie.
    AppendError(out,
                "ERR FLUSHALL wipes the cache tier only and this instance "
                "has a storage tier (write-through/write-back)");
    return;
  }
  common::OptionalMutexLock order_lock(write_order_mu());
  db_->cache()->Clear();
  if (cluster() != nullptr) cluster()->RecordFlush();
  AppendSimpleString(out, kOk);
}

void NodeCommands::Cluster(const RespCommand& cmd, std::string* out) {
  if (cluster() == nullptr) {
    AppendError(out, "ERR This instance has cluster support disabled");
    return;
  }
  const Slice& sub = cmd.args[1];
  if (EqualsUpper(sub, "EPOCH")) {
    AppendInteger(out, static_cast<int64_t>(cluster()->epoch()));
  } else if (EqualsUpper(sub, "MYID")) {
    AppendBulk(out, cluster()->id());
  } else if (EqualsUpper(sub, "NODES")) {
    std::shared_ptr<const cluster_net::RoutingView> view =
        cluster()->routing();
    AppendBulk(out, view == nullptr ? std::string() : view->wire.Serialize());
  } else if (EqualsUpper(sub, "SETSLOTS")) {
    if (cmd.args.size() != 3) {
      AppendError(out, "ERR wrong number of arguments for 'cluster' command");
      return;
    }
    AppendOkOrError(out, cluster()->InstallRouting(cmd.args[2].ToString()));
  } else {
    AppendError(out, "ERR unknown CLUSTER subcommand");
  }
}

void NodeCommands::ReplicaOf(const RespCommand& cmd, std::string* out) {
  if (cluster() == nullptr) {
    AppendError(out, "ERR This instance has cluster support disabled");
    return;
  }
  if (EqualsUpper(cmd.args[1], "NO") &&
      EqualsUpper(cmd.args[2], "ONE")) {
    cluster()->StopReplication();  // Promotion: keep serving as a master.
    AppendSimpleString(out, kOk);
    return;
  }
  int64_t port = 0;
  if (!ParseArgInt(cmd.args[2], &port) || port <= 0 || port > 65535) {
    AppendError(out, "ERR invalid master port");
    return;
  }
  AppendOkOrError(out, cluster()->StartReplicaOf(
                           cmd.args[1].ToString(), static_cast<uint16_t>(port)));
}

void NodeCommands::ReplPull(const RespCommand& cmd, std::string* out) {
  if (cluster() == nullptr) {
    AppendError(out, "ERR This instance has cluster support disabled");
    return;
  }
  int64_t from = 0, max_ops = 0;
  if (!ParseArgInt(cmd.args[2], &from) || from <= 0 ||
      !ParseArgInt(cmd.args[3], &max_ops) || max_ops <= 0) {
    AppendError(out, "ERR invalid REPLPULL arguments");
    return;
  }
  cluster_net::OpLog* log = cluster()->oplog();
  cluster()->NoteReplicaAck(cmd.args[1].ToString(),
                            static_cast<uint64_t>(from) - 1);
  std::vector<cluster_net::ReplOp> ops;
  if (!log->Read(static_cast<uint64_t>(from), static_cast<size_t>(max_ops),
                 &ops)) {
    char msg[64];
    snprintf(msg, sizeof(msg), "REPLGAP %llu %llu",
             static_cast<unsigned long long>(log->min_seq()),
             static_cast<unsigned long long>(log->head_seq()));
    AppendError(out, msg);
    return;
  }
  AppendArrayHeader(out, ops.size() + 1);
  AppendInteger(out, static_cast<int64_t>(log->head_seq()));
  for (const cluster_net::ReplOp& op : ops) {
    AppendArrayHeader(out, 5);
    AppendInteger(out, static_cast<int64_t>(op.seq));
    switch (op.type) {
      case cluster_net::ReplOp::Type::kSet:
        AppendBulk(out, "SET");
        break;
      case cluster_net::ReplOp::Type::kDelete:
        AppendBulk(out, "DEL");
        break;
      case cluster_net::ReplOp::Type::kFlushAll:
        AppendBulk(out, "FLUSH");
        break;
      case cluster_net::ReplOp::Type::kExpire:
        AppendBulk(out, "EXPIRE");
        break;
    }
    AppendBulk(out, op.key);
    AppendBulk(out, op.value);
    AppendInteger(out, static_cast<int64_t>(op.ttl_micros));
  }
}

void NodeCommands::ReplSnapshot(const RespCommand& cmd, std::string* out) {
  if (cluster() == nullptr) {
    AppendError(out, "ERR This instance has cluster support disabled");
    return;
  }
  int64_t cursor = 0, count = 0;
  if (!ParseArgInt(cmd.args[1], &cursor) || cursor < 0 ||
      !ParseArgInt(cmd.args[2], &count) || count <= 0) {
    AppendError(out, "ERR invalid REPLSNAPSHOT arguments");
    return;
  }
  std::vector<std::string> keys;
  uint64_t next = db_->cache()->Scan(static_cast<uint64_t>(cursor),
                                     static_cast<size_t>(count), &keys);
  // String values only: rich types are node-local in this reproduction.
  // Each entry ships (key, value, remaining-TTL) so a resynced replica
  // keeps the same expiry behavior as one that streamed incrementally.
  struct SnapshotEntry {
    std::string key;
    std::string value;
    uint64_t ttl_micros;
  };
  std::vector<SnapshotEntry> entries;
  entries.reserve(keys.size());
  for (std::string& key : keys) {
    std::string value;
    if (!db_->Get(key, &value).ok()) continue;
    // NotFound here means the key expired after the Get; shipping it with
    // ttl 0 ("no expiry") would make the replica keep it forever.
    Result<uint64_t> ttl = db_->cache()->Ttl(key);
    if (!ttl.ok()) continue;
    entries.push_back({std::move(key), std::move(value), *ttl});
  }
  AppendArrayHeader(out, 2 + entries.size() * 3);
  AppendBulk(out, std::to_string(next));
  AppendInteger(out, static_cast<int64_t>(cluster()->oplog()->head_seq()));
  for (const SnapshotEntry& e : entries) {
    AppendBulk(out, e.key);
    AppendBulk(out, e.value);
    AppendInteger(out, static_cast<int64_t>(e.ttl_micros));
  }
}

// WAIT occupies its dispatch worker while polling. The executor's
// stall-aware scale-up activates a reserve thread so queued REPLPULLs
// (which advance the acks WAIT is watching) keep flowing — but kSingle
// mode pins max_threads to 1, so there WAIT can only report the acks
// already in; run cluster masters in multi/elastic mode.
void NodeCommands::Wait(const RespCommand& cmd, std::string* out) {
  int64_t num_replicas = 0, timeout_ms = 0;
  if (!ParseArgInt(cmd.args[1], &num_replicas) || num_replicas < 0 ||
      !ParseArgInt(cmd.args[2], &timeout_ms) || timeout_ms < 0) {
    AppendError(out, "ERR invalid WAIT arguments");
    return;
  }
  if (cluster() == nullptr) {
    AppendInteger(out, 0);
    return;
  }
  metrics::ScopedPerfStage wait_stage(metrics::PerfContext::kReplicaWait);
  const uint64_t target = cluster()->oplog()->head_seq();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  size_t acked = cluster()->CountReplicasAtLeast(target);
  while (acked < static_cast<size_t>(num_replicas) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    acked = cluster()->CountReplicasAtLeast(target);
  }
  AppendInteger(out, static_cast<int64_t>(acked));
}

}  // namespace

void AddNodeCommands(CommandTable* table, TierBase* db) {
  auto node = std::make_shared<NodeCommands>(db, table);
  node->RegisterInstruments();
  for (const NodeRow& row : kNodeRows) {
    CommandTable::Handler handler;
    if (row.handler != nullptr) {
      handler = [node, fn = row.handler](const RespCommand& cmd,
                                         std::string* out) {
        ((*node).*fn)(cmd, out);
      };
    }
    table->AddRow(row.spec, std::move(handler));
  }
}

std::vector<CommandSpec> NodeCommandSpecs() {
  std::vector<CommandSpec> specs;
  for (const NodeRow& row : kNodeRows) specs.push_back(row.spec);
  return specs;
}

}  // namespace server
}  // namespace tierbase
