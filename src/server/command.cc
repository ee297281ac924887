#include "server/command.h"

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "cluster_net/node_state.h"
#include "common/clock.h"
#include "common/mutex.h"

namespace tierbase {
namespace server {

namespace {

// Cluster admission flags per table entry: which arguments are keys (for
// -MOVED ownership checks) and whether the command mutates (for -READONLY
// on replicas). Doubles as the SLOWLOG redaction map: key positions are
// kept, value positions dropped.
constexpr uint8_t kFlagKey = 1;        // args[1] is a key.
constexpr uint8_t kFlagKeysAll = 2;    // args[1..] are keys.
constexpr uint8_t kFlagKeysPairs = 4;  // args[1,3,5..] are keys (MSET).
constexpr uint8_t kFlagWrite = 8;

// SLOWLOG entries keep at most this many keys per command (Redis caps
// logged args the same way).
constexpr size_t kSlowlogMaxKeys = 8;

/// Uppercases a command name into `buf`; false if it can't be a command
/// (too long for any table entry).
bool UpperName(const Slice& name, char* buf, size_t cap) {
  if (name.size() >= cap) return false;
  for (size_t i = 0; i < name.size(); ++i) {
    buf[i] = static_cast<char>(
        std::toupper(static_cast<unsigned char>(name[i])));
  }
  buf[name.size()] = '\0';
  return true;
}

std::string LowerName(const char* name) {
  std::string out;
  for (const char* c = name; *c != '\0'; ++c) {
    out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(*c))));
  }
  return out;
}

void AppendWrongArity(std::string* out, const char* upper_name) {
  std::string msg = "ERR wrong number of arguments for '";
  msg += LowerName(upper_name);
  msg += "' command";
  AppendError(out, msg);
}

/// Strict signed-integer parse of a RESP argument.
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

uint64_t NowMicros() { return Clock::Real()->NowMicros(); }

}  // namespace

void AppendStatusError(std::string* out, const Status& s) {
  if (s.IsInvalidArgument() &&
      s.message().find("wrong value type") != std::string::npos) {
    AppendError(out,
                "WRONGTYPE Operation against a key holding the wrong kind "
                "of value");
    return;
  }
  // Robustness contract (mirrored by the proxy): Unavailable and Busy keep
  // their own error classes on the wire so clients can tell "retry
  // elsewhere/later" from a hard error.
  if (s.IsUnavailable()) {
    AppendError(out, "UNAVAILABLE " + s.message());
    return;
  }
  if (s.IsBusy()) {
    AppendError(out, "BUSY " + s.message());
    return;
  }
  AppendError(out, "ERR " + s.ToString());
}

// Dispatch table. Arity rules: {min, max} inclusive argument counts
// (command name included); parity constraints checked in the handlers.
const CommandTable::Spec CommandTable::kSpecs[] = {
    {"GET", 2, 2, &CommandTable::Get, kFlagKey},
    {"SET", 3, 5, &CommandTable::Set, kFlagKey | kFlagWrite},
    {"DEL", 2, 0, &CommandTable::Del, kFlagKeysAll | kFlagWrite},
    {"EXISTS", 2, 0, &CommandTable::Exists, kFlagKeysAll},
    {"MGET", 2, 0, &CommandTable::MGet, kFlagKeysAll},
    {"MSET", 3, 0, &CommandTable::MSet, kFlagKeysPairs | kFlagWrite},
    {"EXPIRE", 3, 3, &CommandTable::Expire, kFlagKey | kFlagWrite},
    {"TTL", 2, 2, &CommandTable::Ttl, kFlagKey},
    {"INCR", 2, 2, &CommandTable::Incr, kFlagKey | kFlagWrite},
    {"HSET", 4, 0, &CommandTable::HSet, kFlagKey | kFlagWrite},
    {"HGET", 3, 3, &CommandTable::HGet, kFlagKey},
    {"LPUSH", 3, 0, &CommandTable::LPush, kFlagKey | kFlagWrite},
    {"LRANGE", 4, 4, &CommandTable::LRange, kFlagKey},
    {"ZADD", 4, 0, &CommandTable::ZAdd, kFlagKey | kFlagWrite},
    {"ZRANGE", 4, 5, &CommandTable::ZRange, kFlagKey},
    {"INFO", 1, 2, &CommandTable::Info, 0},
    {"SCAN", 2, 4, &CommandTable::Scan, 0},
    {"DBSIZE", 1, 1, &CommandTable::DbSize, 0},
    {"FLUSHALL", 1, 1, &CommandTable::FlushAll, kFlagWrite},
    {"CLUSTER", 2, 3, &CommandTable::Cluster, 0},
    {"REPLICAOF", 3, 3, &CommandTable::ReplicaOf, 0},
    {"REPLPULL", 4, 4, &CommandTable::ReplPull, 0},
    {"REPLSNAPSHOT", 3, 3, &CommandTable::ReplSnapshot, 0},
    {"WAIT", 3, 3, &CommandTable::Wait, 0},
    {"SLOWLOG", 2, 3, &CommandTable::SlowLogCmd, 0},
    {"LATENCY", 2, 3, &CommandTable::Latency, 0},
    {"METRICS", 1, 1, &CommandTable::Metrics, 0},
    {"ANALYTICS", 2, 3, &CommandTable::Analytics, 0},
    {"HOTKEYS", 1, 2, &CommandTable::HotKeys, 0},
};
const size_t CommandTable::kNumSpecs =
    sizeof(CommandTable::kSpecs) / sizeof(CommandTable::kSpecs[0]);

CommandTable::CommandTable(TierBase* db) : db_(db) { RegisterInstruments(); }

void CommandTable::RegisterInstruments() {
  // Section registration order fixes the INFO section order.
  registry_.AddText("Server", "engine", [this] { return db_->name(); });
  registry_.AddText("Server", "telemetry",
                    [this] { return telemetry_ ? "on" : "off"; });

  // Cluster membership attaches after construction (set_cluster), and its
  // key set is dynamic (role-dependent), so the whole section is a block.
  registry_.AddBlock("Cluster", [this](std::string* out) {
    if (cluster_ != nullptr) {
      cluster_->AppendInfo(out);
      return;
    }
    out->append("cluster_enabled:0\r\n");
  });

  // One aggregated engine snapshot per render; the per-key callbacks below
  // read fields out of it instead of re-locking every cache shard each.
  registry_.AddPreRender([this] { info_stats_ = db_->GetStats(); });
  auto stat = [this](const char* section, const char* key, const char* help,
                     std::function<uint64_t()> fn,
                     metrics::MetricType type = metrics::MetricType::kCounter) {
    registry_.AddCallback(section, key, help, type, std::move(fn));
  };

  commands_ = registry_.AddCounter("Stats", "total_commands_processed",
                                   "Commands executed");
  batches_ = registry_.AddCounter("Stats", "dispatch_batches",
                                  "Pipelined batches executed");
  coalesced_ = registry_.AddCounter(
      "Stats", "coalesced_commands",
      "Commands served through coalesced MultiGet/MultiSet trains");
  errors_ = registry_.AddCounter("Stats", "command_errors",
                                 "Commands answered with an error reply");
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
  stat("Stats", "write_back_flushed_ops",
       "Dirty entries flushed to storage",
       [this] { return info_stats_.write_back.flushed_ops; });
  stat("Stats", "write_back_flush_batches", "Write-back flush batches",
       [this] { return info_stats_.write_back.flush_batches; });
  stat("Stats", "write_through_storage_writes",
       "Synchronous storage-tier writes",
       [this] { return info_stats_.write_through.storage_writes; });
  stat("Stats", "deferred_fetches", "Deferred storage fetches",
       [this] { return info_stats_.deferred_fetch.fetches; });

  // # Commandstats: one latency histogram per command family, recorded
  // dispatch -> reply. [kNumSpecs] catches pre-table commands (PING,
  // QUIT, SHUTDOWN, COMMAND, PERF) and unknown names.
  cmd_hist_.resize(kNumSpecs + 1);
  for (size_t i = 0; i < kNumSpecs; ++i) {
    std::string lower = LowerName(kSpecs[i].name);
    cmd_hist_[i] = registry_.AddHistogram(
        "Commandstats", "cmd_" + lower + "_latency_us",
        std::string(kSpecs[i].name) +
            " latency, dispatch to reply, microseconds");
    if (strcmp(kSpecs[i].name, "GET") == 0) {
      get_spec_index_ = static_cast<int>(i);
    } else if (strcmp(kSpecs[i].name, "SET") == 0) {
      set_spec_index_ = static_cast<int>(i);
    }
  }
  cmd_hist_[kNumSpecs] = registry_.AddHistogram(
      "Commandstats", "cmd_other_latency_us",
      "Latency of pre-table and unknown commands, microseconds");

  registry_.AddText("Persistence", "policy", [this] { return db_->name(); });
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
  registry_.AddText("Persistence", "wb_flush_error", [this] {
    return info_stats_.flush_error.empty() ? std::string("ok")
                                           : info_stats_.flush_error;
  });
  stat("Persistence", "wal_replayed_records", "Cache WAL records replayed",
       [this] { return info_stats_.wal_replayed_records; });
  stat("Persistence", "wal_truncated_tails", "Cache WAL tails truncated",
       [this] { return info_stats_.wal_truncated_tails; });
  stat("Persistence", "wal_skipped_bytes", "Cache WAL bytes skipped",
       [this] { return info_stats_.wal_skipped_bytes; });
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
  stat("Keyspace", "slowlog_len", "Entries currently in the slow log",
       [this] { return static_cast<uint64_t>(slowlog_.Len()); },
       metrics::MetricType::kGauge);

  // # Workload: the observatory's live view of the traffic itself (miss-
  // ratio curve, hot keys, keyspace shape), fed by the TierBase-owned
  // WorkloadAnalytics. Shared registration with the proxy.
  analytics::RegisterWorkloadInstruments(&registry_, db_->analytics());
}

void CommandTable::ExecuteBatch(const std::vector<RespCommand>& cmds,
                                std::string* out, bool* close_connection,
                                bool* shutdown_server, PerfState* perf,
                                const BatchTiming* timing) {
  batches_->Inc();
  commands_->Inc(cmds.size());

  // PERF tracing: install the connection's context for this batch. The
  // enabled flag is sampled once — PERF ON inside the batch takes effect
  // from the next batch on.
  metrics::PerfContext* pctx =
      (perf != nullptr && perf->enabled) ? &perf->ctx : nullptr;
  uint64_t exec_start = 0;
  uint64_t upstream_micros = 0;  // parse + queue wait, part of wall time.
  if (pctx != nullptr) {
    exec_start = NowMicros();
    if (timing != nullptr) {
      pctx->AddStage(metrics::PerfContext::kParse, timing->parse_micros);
      upstream_micros = timing->parse_micros;
      if (timing->dispatched_at_micros != 0 &&
          exec_start > timing->dispatched_at_micros) {
        const uint64_t queue_wait = exec_start - timing->dispatched_at_micros;
        pctx->AddStage(metrics::PerfContext::kQueueWait, queue_wait);
        upstream_micros += queue_wait;
      }
    }
  }
  metrics::ScopedPerfContext perf_scope(pctx);

  // Coalesced batches must be uniformly admissible in cluster mode: every
  // key owned here and (for SETs) not a read-only replica. A train with
  // any inadmissible command falls back to per-command dispatch so each
  // gets its own -MOVED / -READONLY reply.
  auto batch_admissible = [&](size_t begin, size_t end, bool write) {
    if (cluster_ == nullptr) return true;
    if (write && cluster_->is_replica()) return false;
    // One routing-snapshot fetch for the whole train, then lock-free
    // per-key checks.
    cluster_net::NodeClusterState::RouteChecker checker =
        cluster_->route_checker();
    for (size_t k = begin; k < end; ++k) {
      if (checker.Misrouted(cmds[k].args[1])) return false;
    }
    return true;
  };

  char name[16];
  size_t i = 0;
  while (i < cmds.size()) {
    // Coalesce trains of plain single-key GETs / two-argument SETs that a
    // pipelining client queued back-to-back into one batched engine call.
    if (cmds[i].args.size() == 2 && UpperName(cmds[i].args[0], name, 16) &&
        strcmp(name, "GET") == 0) {
      size_t j = i + 1;
      while (j < cmds.size() && cmds[j].args.size() == 2 &&
             UpperName(cmds[j].args[0], name, 16) &&
             strcmp(name, "GET") == 0) {
        ++j;
      }
      if (j - i >= 2 && batch_admissible(i, j, /*write=*/false)) {
        const uint64_t t0 = telemetry_ ? NowMicros() : 0;
        CoalescedGets(cmds, i, j, out);
        if (telemetry_) {
          const uint64_t elapsed = NowMicros() - t0;
          RecordLatency(get_spec_index_, elapsed, j - i);
          if (slowlog_.ShouldLog(elapsed)) {
            RecordSlowTrain(cmds, i, j, elapsed);
          }
        }
        coalesced_->Inc(j - i);
        i = j;
        continue;
      }
    } else if (cmds[i].args.size() == 3 &&
               UpperName(cmds[i].args[0], name, 16) &&
               strcmp(name, "SET") == 0) {
      size_t j = i + 1;
      while (j < cmds.size() && cmds[j].args.size() == 3 &&
             UpperName(cmds[j].args[0], name, 16) &&
             strcmp(name, "SET") == 0) {
        ++j;
      }
      if (j - i >= 2 && batch_admissible(i, j, /*write=*/true)) {
        const uint64_t t0 = telemetry_ ? NowMicros() : 0;
        CoalescedSets(cmds, i, j, out);
        if (telemetry_) {
          const uint64_t elapsed = NowMicros() - t0;
          RecordLatency(set_spec_index_, elapsed, j - i);
          if (slowlog_.ShouldLog(elapsed)) {
            RecordSlowTrain(cmds, i, j, elapsed);
          }
        }
        coalesced_->Inc(j - i);
        i = j;
        continue;
      }
    }
    ExecuteOne(cmds[i], out, close_connection, shutdown_server, perf);
    ++i;
  }

  if (pctx != nullptr) {
    pctx->AddBatch(NowMicros() - exec_start + upstream_micros, cmds.size());
  }
}

void CommandTable::RecordLatency(int spec_index, uint64_t micros,
                                 uint64_t count) {
  const size_t idx =
      spec_index >= 0 ? static_cast<size_t>(spec_index) : kNumSpecs;
  cmd_hist_[idx]->Record(micros, count);
}

void CommandTable::RecordSlow(const RespCommand& cmd, uint8_t flags,
                              uint64_t micros) {
  std::vector<std::string> args;
  args.push_back(cmd.args[0].ToString());
  size_t total_keys = 0;
  auto push_key = [&](const Slice& key) {
    ++total_keys;
    if (args.size() <= kSlowlogMaxKeys) args.push_back(key.ToString());
  };
  if ((flags & kFlagKey) && cmd.args.size() > 1) push_key(cmd.args[1]);
  if (flags & kFlagKeysAll) {
    for (size_t i = 1; i < cmd.args.size(); ++i) push_key(cmd.args[i]);
  }
  if (flags & kFlagKeysPairs) {
    for (size_t i = 1; i < cmd.args.size(); i += 2) push_key(cmd.args[i]);
  }
  if (total_keys > kSlowlogMaxKeys) {
    args.push_back("... (" + std::to_string(total_keys - kSlowlogMaxKeys) +
                   " more keys)");
  }
  slowlog_.Add(micros, std::move(args));
}

void CommandTable::RecordSlowTrain(const std::vector<RespCommand>& cmds,
                                   size_t begin, size_t end,
                                   uint64_t micros) {
  std::vector<std::string> args;
  args.push_back(cmds[begin].args[0].ToString());
  const size_t keys = end - begin;
  for (size_t k = begin; k < end && k - begin < kSlowlogMaxKeys; ++k) {
    args.push_back(cmds[k].args[1].ToString());
  }
  if (keys > kSlowlogMaxKeys) {
    args.push_back("... (" + std::to_string(keys - kSlowlogMaxKeys) +
                   " more keys)");
  }
  slowlog_.Add(micros, std::move(args));
}

bool CommandTable::ClusterAdmits(const RespCommand& cmd, uint8_t flags,
                                 std::string* out) {
  if (cluster_ == nullptr || flags == 0) return true;
  if ((flags & kFlagWrite) && cluster_->is_replica()) {
    AppendError(out,
                "READONLY You can't write against a read only replica.");
    return false;
  }
  // One snapshot fetch per command; CheckMoved (second fetch) only runs on
  // the rare misrouted path to format the -MOVED payload.
  cluster_net::NodeClusterState::RouteChecker checker =
      cluster_->route_checker();
  std::string moved;
  auto admit = [&](const Slice& key) {
    if (!checker.Misrouted(key)) return true;
    if (!cluster_->CheckMoved(key, &moved)) {
      moved = "MOVED 0 stale-route ?:0";  // Routing changed mid-check.
    }
    AppendError(out, moved);
    return false;
  };
  if ((flags & kFlagKey) && cmd.args.size() > 1) {
    if (!admit(cmd.args[1])) return false;
  }
  if (flags & kFlagKeysAll) {
    for (size_t i = 1; i < cmd.args.size(); ++i) {
      if (!admit(cmd.args[i])) return false;
    }
  }
  if (flags & kFlagKeysPairs) {
    for (size_t i = 1; i < cmd.args.size(); i += 2) {
      if (!admit(cmd.args[i])) return false;
    }
  }
  return true;
}

void CommandTable::CoalescedGets(const std::vector<RespCommand>& cmds,
                                 size_t begin, size_t end, std::string* out) {
  std::vector<Slice> keys;
  keys.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) keys.push_back(cmds[i].args[1]);
  std::vector<std::string> values;
  std::vector<Status> statuses;
  db_->MultiGet(keys, &values, &statuses);
  for (size_t i = 0; i < keys.size(); ++i) {
    if (statuses[i].ok()) {
      AppendBulk(out, values[i]);
    } else if (statuses[i].IsNotFound()) {
      AppendNullBulk(out);
    } else {
      AppendStatusError(out, statuses[i]);
      errors_->Inc();
    }
  }
}

void CommandTable::CoalescedSets(const std::vector<RespCommand>& cmds,
                                 size_t begin, size_t end, std::string* out) {
  std::vector<Slice> keys, values;
  keys.reserve(end - begin);
  values.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    keys.push_back(cmds[i].args[1]);
    values.push_back(cmds[i].args[2]);
  }
  std::vector<Status> statuses;
  {
    // Apply + oplog-append atomically so replicas see writes in apply
    // order (see NodeClusterState::write_order_mu).
    common::OptionalMutexLock order_lock(
      cluster_ != nullptr ? &cluster_->write_order_mu() : nullptr);
    db_->MultiSet(keys, values, &statuses);
    if (cluster_ != nullptr) {
      metrics::ScopedPerfStage oplog_stage(
          metrics::PerfContext::kOplogAppend);
      for (size_t i = 0; i < statuses.size(); ++i) {
        if (statuses[i].ok()) cluster_->RecordSet(keys[i], values[i], 0);
      }
    }
  }
  for (const Status& s : statuses) {
    if (s.ok()) {
      AppendSimpleString(out, kOk);
    } else {
      AppendStatusError(out, s);
      errors_->Inc();
    }
  }
}

void CommandTable::ExecuteOne(const RespCommand& cmd, std::string* out,
                              bool* close_connection, bool* shutdown_server,
                              PerfState* perf) {
  int spec_index = -1;
  if (!telemetry_) {
    ExecuteOneImpl(cmd, out, close_connection, shutdown_server, perf,
                   &spec_index);
    return;
  }
  const uint64_t t0 = NowMicros();
  ExecuteOneImpl(cmd, out, close_connection, shutdown_server, perf,
                 &spec_index);
  const uint64_t elapsed = NowMicros() - t0;
  RecordLatency(spec_index, elapsed, 1);
  if (slowlog_.ShouldLog(elapsed) && !cmd.args.empty()) {
    RecordSlow(cmd, spec_index >= 0 ? kSpecs[spec_index].flags : 0, elapsed);
  }
}

void CommandTable::ExecuteOneImpl(const RespCommand& cmd, std::string* out,
                                  bool* close_connection,
                                  bool* shutdown_server, PerfState* perf,
                                  int* spec_index) {
  *spec_index = -1;
  char name[16];
  if (cmd.args.empty() || !UpperName(cmd.args[0], name, 16)) {
    AppendError(out, "ERR unknown command");
    errors_->Inc();
    return;
  }
  const size_t argc = cmd.args.size();
  const size_t before_errors = out->size();

  if (strcmp(name, "PING") == 0) {
    if (argc == 1) {
      AppendSimpleString(out, "PONG");
    } else if (argc == 2) {
      AppendBulk(out, cmd.args[1]);
    } else {
      AppendWrongArity(out, name);
    }
    return;
  }
  if (strcmp(name, "QUIT") == 0) {
    AppendSimpleString(out, kOk);
    *close_connection = true;
    return;
  }
  if (strcmp(name, "SHUTDOWN") == 0) {
    bool nosave = false;
    if (argc == 2 && EqualsUpper(cmd.args[1], "NOSAVE")) {
      nosave = true;
    } else if (argc != 1) {
      AppendWrongArity(out, name);
      return;
    }
    // A polite shutdown must not lose acknowledged dirty entries: drain
    // the write-back tier (and sync the WAL / wait out storage) before
    // acking. On drain failure refuse to stop — data would be lost;
    // SHUTDOWN NOSAVE forces the exit.
    if (!nosave) {
      Status drain = db_->WaitIdle();
      if (!drain.ok()) {
        AppendError(out, "ERR shutdown aborted, flush failed (" +
                             drain.ToString() + "); SHUTDOWN NOSAVE forces");
        errors_->Inc();
        return;
      }
    }
    // Reply before stopping so a synchronous client sees the ack; the
    // event loop flushes pending output during teardown.
    AppendSimpleString(out, kOk);
    *close_connection = true;
    *shutdown_server = true;
    return;
  }
  if (strcmp(name, "COMMAND") == 0) {
    // Stub so redis-cli's startup probe doesn't error out.
    AppendArrayHeader(out, 0);
    return;
  }
  if (strcmp(name, "PERF") == 0) {
    // Handled before the table: PERF mutates the connection's own tracing
    // state, which only the batch path carries.
    if (argc != 2) {
      AppendWrongArity(out, name);
      errors_->Inc();
      return;
    }
    if (perf == nullptr) {
      AppendError(out, "ERR PERF requires a client connection");
      errors_->Inc();
      return;
    }
    if (EqualsUpper(cmd.args[1], "ON")) {
      perf->ctx.Reset();
      perf->enabled = true;
      AppendSimpleString(out, kOk);
    } else if (EqualsUpper(cmd.args[1], "OFF")) {
      perf->enabled = false;
      AppendSimpleString(out, kOk);
    } else if (EqualsUpper(cmd.args[1], "GET")) {
      std::string report;
      perf->ctx.AppendReport(&report);
      AppendBulk(out, report);
    } else {
      AppendError(out, "ERR unknown PERF subcommand, try ON|OFF|GET");
      errors_->Inc();
    }
    return;
  }

  for (size_t si = 0; si < kNumSpecs; ++si) {
    const Spec& entry = kSpecs[si];
    if (strcmp(name, entry.name) != 0) continue;
    *spec_index = static_cast<int>(si);
    if (argc < entry.min_argc ||
        (entry.max_argc != 0 && argc > entry.max_argc)) {
      AppendWrongArity(out, name);
      errors_->Inc();
      return;
    }
    if (!ClusterAdmits(cmd, entry.flags, out)) {
      errors_->Inc();
      return;
    }
    (this->*entry.handler)(cmd, out);
    if (out->size() > before_errors && (*out)[before_errors] == '-') {
      errors_->Inc();
    }
    return;
  }

  std::string msg = "ERR unknown command '";
  msg.append(cmd.args[0].data(),
             std::min<size_t>(cmd.args[0].size(), 64));
  msg += "'";
  AppendError(out, msg);
  errors_->Inc();
}

void CommandTable::Get(const RespCommand& cmd, std::string* out) {
  std::string value;
  Status s = db_->Get(cmd.args[1], &value);
  if (s.ok()) {
    AppendBulk(out, value);
  } else if (s.IsNotFound()) {
    AppendNullBulk(out);
  } else {
    AppendStatusError(out, s);
  }
}

void CommandTable::Set(const RespCommand& cmd, std::string* out) {
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
    common::OptionalMutexLock order_lock(
      cluster_ != nullptr ? &cluster_->write_order_mu() : nullptr);
    s = ttl_micros == 0 ? db_->Set(cmd.args[1], cmd.args[2])
                        : db_->SetEx(cmd.args[1], cmd.args[2], ttl_micros);
    if (s.ok() && cluster_ != nullptr) {
      metrics::ScopedPerfStage oplog_stage(metrics::PerfContext::kOplogAppend);
      cluster_->RecordSet(cmd.args[1], cmd.args[2], ttl_micros);
    }
  }
  if (s.ok()) {
    AppendSimpleString(out, kOk);
  } else {
    AppendStatusError(out, s);
  }
}

void CommandTable::Del(const RespCommand& cmd, std::string* out) {
  int64_t removed = 0;
  for (size_t i = 1; i < cmd.args.size(); ++i) {
    // Delete is policy-aware (tombstones under write-back, synchronous
    // under write-through); count only keys that were present. For
    // cache-cold keys the storage tier is probed directly — no value
    // round trip through the Get path and no cache populate just to
    // answer a count. (The probe can overcount a key whose write-back
    // delete tombstone has not flushed yet; Redis-exact counting there
    // would need a dirty-buffer existence API for a rare edge.)
    bool existed = db_->cache()->Exists(cmd.args[i]);
    if (!existed && db_->storage() != nullptr) {
      std::string scratch;
      existed = db_->storage()->Read(cmd.args[i], &scratch).ok();
    }
    Status s;
    {
      common::OptionalMutexLock order_lock(
        cluster_ != nullptr ? &cluster_->write_order_mu() : nullptr);
      s = db_->Delete(cmd.args[i]);
      if (s.ok() && cluster_ != nullptr) {
        metrics::ScopedPerfStage oplog_stage(
            metrics::PerfContext::kOplogAppend);
        cluster_->RecordDelete(cmd.args[i]);
      }
    }
    if (s.ok() && existed) ++removed;
  }
  AppendInteger(out, removed);
}

void CommandTable::Exists(const RespCommand& cmd, std::string* out) {
  int64_t count = 0;
  for (size_t i = 1; i < cmd.args.size(); ++i) {
    if (db_->cache()->Exists(cmd.args[i])) {
      ++count;
    } else if (db_->storage() != nullptr) {
      // Tiered: the key may live only in the storage tier; a Get both
      // answers existence and warms the cache.
      std::string scratch;
      if (db_->Get(cmd.args[i], &scratch).ok()) ++count;
    }
  }
  AppendInteger(out, count);
}

void CommandTable::MGet(const RespCommand& cmd, std::string* out) {
  std::vector<Slice> keys(cmd.args.begin() + 1, cmd.args.end());
  std::vector<std::string> values;
  std::vector<Status> statuses;
  db_->MultiGet(keys, &values, &statuses);
  AppendArrayHeader(out, keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    if (statuses[i].ok()) {
      AppendBulk(out, values[i]);
    } else {
      AppendNullBulk(out);  // Redis: wrong-type/missing both read as null.
    }
  }
}

void CommandTable::MSet(const RespCommand& cmd, std::string* out) {
  if (cmd.args.size() % 2 != 1) {
    AppendError(out, "ERR wrong number of arguments for 'mset' command");
    return;
  }
  std::vector<Slice> keys, values;
  for (size_t i = 1; i < cmd.args.size(); i += 2) {
    keys.push_back(cmd.args[i]);
    values.push_back(cmd.args[i + 1]);
  }
  std::vector<Status> statuses;
  {
    common::OptionalMutexLock order_lock(
      cluster_ != nullptr ? &cluster_->write_order_mu() : nullptr);
    db_->MultiSet(keys, values, &statuses);
    if (cluster_ != nullptr) {
      metrics::ScopedPerfStage oplog_stage(metrics::PerfContext::kOplogAppend);
      for (size_t i = 0; i < keys.size(); ++i) {
        if (statuses[i].ok()) cluster_->RecordSet(keys[i], values[i], 0);
      }
    }
  }
  for (const Status& s : statuses) {
    if (!s.ok()) {
      AppendStatusError(out, s);
      return;
    }
  }
  AppendSimpleString(out, kOk);
}

void CommandTable::Expire(const RespCommand& cmd, std::string* out) {
  int64_t seconds = 0;
  if (!ParseArgInt(cmd.args[2], &seconds)) {
    AppendError(out, "ERR value is not an integer or out of range");
    return;
  }
  common::OptionalMutexLock order_lock(
    cluster_ != nullptr ? &cluster_->write_order_mu() : nullptr);
  if (seconds <= 0) {
    // Redis deletes the key on a non-positive TTL.
    bool existed = db_->cache()->Exists(cmd.args[1]);
    if (existed) {
      db_->Delete(cmd.args[1]);
      if (cluster_ != nullptr) cluster_->RecordDelete(cmd.args[1]);
    }
    AppendInteger(out, existed ? 1 : 0);
    return;
  }
  const uint64_t ttl_micros =
      static_cast<uint64_t>(seconds) * kMicrosPerSecond;
  Status s = db_->cache()->Expire(cmd.args[1], ttl_micros);
  if (s.ok() && cluster_ != nullptr) {
    cluster_->RecordExpire(cmd.args[1], ttl_micros);
  }
  AppendInteger(out, s.ok() ? 1 : 0);
}

void CommandTable::Ttl(const RespCommand& cmd, std::string* out) {
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

void CommandTable::Incr(const RespCommand& cmd, std::string* out) {
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
      common::OptionalMutexLock order_lock(
        cluster_ != nullptr ? &cluster_->write_order_mu() : nullptr);
      s = create ? db_->Cas(cmd.args[1], "", next, /*allow_create=*/true)
                 : db_->Cas(cmd.args[1], current, next);
      // Replicate the outcome, not the increment: replays are idempotent.
      if (s.ok() && cluster_ != nullptr) {
        metrics::ScopedPerfStage oplog_stage(
            metrics::PerfContext::kOplogAppend);
        cluster_->RecordSet(cmd.args[1], next, 0);
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

void CommandTable::HSet(const RespCommand& cmd, std::string* out) {
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

void CommandTable::HGet(const RespCommand& cmd, std::string* out) {
  std::string value;
  Status s = db_->cache()->HGet(cmd.args[1], cmd.args[2], &value);
  if (s.ok()) {
    AppendBulk(out, value);
  } else if (s.IsNotFound()) {
    AppendNullBulk(out);
  } else {
    AppendStatusError(out, s);
  }
}

void CommandTable::LPush(const RespCommand& cmd, std::string* out) {
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

void CommandTable::LRange(const RespCommand& cmd, std::string* out) {
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

void CommandTable::ZAdd(const RespCommand& cmd, std::string* out) {
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

void CommandTable::ZRange(const RespCommand& cmd, std::string* out) {
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

void CommandTable::Info(const RespCommand& cmd, std::string* out) {
  (void)cmd;  // Section filters are accepted but the full report is sent.
  std::string body;
  registry_.RenderInfo(&body);
  AppendBulk(out, body);
}

void CommandTable::Metrics(const RespCommand& cmd, std::string* out) {
  (void)cmd;
  std::string body;
  registry_.RenderPrometheus(&body);
  AppendBulk(out, body);
}

void CommandTable::Analytics(const RespCommand& cmd, std::string* out) {
  analytics::WorkloadAnalytics* wa = db_->analytics();
  if (wa == nullptr) {
    AppendError(out,
                "ERR analytics disabled (server started with --no-analytics)");
    return;
  }
  char sub[16];
  if (!UpperName(cmd.args[1], sub, 16)) {
    AppendError(out, "ERR unknown ANALYTICS subcommand");
    return;
  }
  if (strcmp(sub, "MRC") == 0) {
    // Whole-cache curve by default; ANALYTICS MRC <shard> narrows to one
    // reuse tracker (shard-local entry counts).
    int shard = -1;
    if (cmd.args.size() == 3) {
      int64_t v = 0;
      if (!ParseArgInt(cmd.args[2], &v) || v < 0 || v >= wa->shards()) {
        AppendError(out, "ERR shard index out of range");
        return;
      }
      shard = static_cast<int>(v);
    }
    AppendBulk(out, analytics::FormatMrcReport(wa->Mrc(shard), wa->shards()));
    return;
  }
  if (strcmp(sub, "RESET") == 0) {
    wa->Reset();
    AppendSimpleString(out, kOk);
    return;
  }
  AppendError(out, "ERR unknown ANALYTICS subcommand, try MRC|RESET");
}

void CommandTable::HotKeys(const RespCommand& cmd, std::string* out) {
  analytics::WorkloadAnalytics* wa = db_->analytics();
  if (wa == nullptr) {
    AppendError(out,
                "ERR analytics disabled (server started with --no-analytics)");
    return;
  }
  int64_t k = 10;
  if (cmd.args.size() == 2 &&
      (!ParseArgInt(cmd.args[1], &k) || k <= 0 || k > 10'000)) {
    AppendError(out, "ERR value is not an integer or out of range");
    return;
  }
  std::vector<analytics::HotKey> top = wa->TopKeys(static_cast<size_t>(k));
  // Flat [key, estimated-count, key, estimated-count, ...] pairs, hottest
  // first. Counts are estimated true counts in the current decay window.
  AppendArrayHeader(out, top.size() * 2);
  for (const analytics::HotKey& h : top) {
    AppendBulk(out, h.key);
    AppendInteger(out, static_cast<int64_t>(h.count));
  }
}

void CommandTable::SlowLogCmd(const RespCommand& cmd, std::string* out) {
  char sub[16];
  if (!UpperName(cmd.args[1], sub, 16)) {
    AppendError(out, "ERR unknown SLOWLOG subcommand");
    return;
  }
  if (strcmp(sub, "GET") == 0) {
    int64_t n = 10;
    if (cmd.args.size() == 3 &&
        (!ParseArgInt(cmd.args[2], &n) || n < 0)) {
      AppendError(out, "ERR value is not an integer or out of range");
      return;
    }
    std::vector<SlowLog::Entry> entries =
        slowlog_.Get(static_cast<size_t>(n));
    AppendArrayHeader(out, entries.size());
    for (const SlowLog::Entry& e : entries) {
      AppendArrayHeader(out, 4);
      AppendInteger(out, static_cast<int64_t>(e.id));
      AppendInteger(out, e.unix_seconds);
      AppendInteger(out, static_cast<int64_t>(e.duration_micros));
      AppendArrayHeader(out, e.args.size());
      for (const std::string& a : e.args) AppendBulk(out, a);
    }
    return;
  }
  if (strcmp(sub, "RESET") == 0) {
    slowlog_.Reset();
    AppendSimpleString(out, kOk);
    return;
  }
  if (strcmp(sub, "LEN") == 0) {
    AppendInteger(out, static_cast<int64_t>(slowlog_.Len()));
    return;
  }
  AppendError(out, "ERR unknown SLOWLOG subcommand, try GET|RESET|LEN");
}

void CommandTable::Latency(const RespCommand& cmd, std::string* out) {
  char sub[16];
  if (!UpperName(cmd.args[1], sub, 16)) {
    AppendError(out, "ERR unknown LATENCY subcommand");
    return;
  }
  // An optional third arg names one command family (e.g. "get").
  std::string only_key;
  if (cmd.args.size() == 3) {
    only_key = "cmd_";
    for (size_t i = 0; i < cmd.args[2].size(); ++i) {
      only_key.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(cmd.args[2][i]))));
    }
    only_key += "_latency_us";
  }
  std::vector<std::pair<std::string, metrics::LatencyHistogram*>> hists;
  for (auto& [key, hist] : registry_.Histograms()) {
    if (only_key.empty() || key == only_key) hists.emplace_back(key, hist);
  }
  if (strcmp(sub, "HISTOGRAM") == 0) {
    if (!only_key.empty() && hists.empty()) {
      AppendError(out, "ERR no latency histogram for that command");
      return;
    }
    AppendArrayHeader(out, hists.size() * 2);
    for (auto& [key, hist] : hists) {
      AppendBulk(out, key);
      AppendBulk(out, metrics::HistogramInfoValue(hist->Snapshot()));
    }
    return;
  }
  if (strcmp(sub, "RESET") == 0) {
    for (auto& [key, hist] : hists) {
      (void)key;
      hist->Reset();
    }
    AppendInteger(out, static_cast<int64_t>(hists.size()));
    return;
  }
  AppendError(out, "ERR unknown LATENCY subcommand, try HISTOGRAM|RESET");
}

void CommandTable::Scan(const RespCommand& cmd, std::string* out) {
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

void CommandTable::DbSize(const RespCommand& cmd, std::string* out) {
  (void)cmd;
  AppendInteger(out,
                static_cast<int64_t>(db_->cache()->GetUsage().keys));
}

void CommandTable::FlushAll(const RespCommand& cmd, std::string* out) {
  (void)cmd;
  if (db_->storage() != nullptr) {
    // A cache-only wipe would quietly resurrect from the storage tier on
    // the next miss; refuse rather than lie.
    AppendError(out,
                "ERR FLUSHALL wipes the cache tier only and this instance "
                "has a storage tier (write-through/write-back)");
    return;
  }
  common::OptionalMutexLock order_lock(
    cluster_ != nullptr ? &cluster_->write_order_mu() : nullptr);
  db_->cache()->Clear();
  if (cluster_ != nullptr) cluster_->RecordFlush();
  AppendSimpleString(out, kOk);
}

void CommandTable::Cluster(const RespCommand& cmd, std::string* out) {
  char sub[16];
  if (!UpperName(cmd.args[1], sub, 16)) {
    AppendError(out, "ERR unknown CLUSTER subcommand");
    return;
  }
  if (cluster_ == nullptr) {
    AppendError(out, "ERR This instance has cluster support disabled");
    return;
  }
  if (strcmp(sub, "EPOCH") == 0) {
    AppendInteger(out, static_cast<int64_t>(cluster_->epoch()));
  } else if (strcmp(sub, "MYID") == 0) {
    AppendBulk(out, cluster_->id());
  } else if (strcmp(sub, "NODES") == 0) {
    std::shared_ptr<const cluster_net::RoutingView> view = cluster_->routing();
    AppendBulk(out, view == nullptr ? std::string() : view->wire.Serialize());
  } else if (strcmp(sub, "SETSLOTS") == 0) {
    if (cmd.args.size() != 3) {
      AppendWrongArity(out, "CLUSTER");
      return;
    }
    Status s = cluster_->InstallRouting(cmd.args[2].ToString());
    if (s.ok()) {
      AppendSimpleString(out, kOk);
    } else {
      AppendStatusError(out, s);
    }
  } else {
    AppendError(out, "ERR unknown CLUSTER subcommand");
  }
}

void CommandTable::ReplicaOf(const RespCommand& cmd, std::string* out) {
  if (cluster_ == nullptr) {
    AppendError(out, "ERR This instance has cluster support disabled");
    return;
  }
  if (EqualsUpper(cmd.args[1], "NO") &&
      EqualsUpper(cmd.args[2], "ONE")) {
    cluster_->StopReplication();  // Promotion: keep serving as a master.
    AppendSimpleString(out, kOk);
    return;
  }
  int64_t port = 0;
  if (!ParseArgInt(cmd.args[2], &port) || port <= 0 || port > 65535) {
    AppendError(out, "ERR invalid master port");
    return;
  }
  Status s = cluster_->StartReplicaOf(cmd.args[1].ToString(),
                                      static_cast<uint16_t>(port));
  if (s.ok()) {
    AppendSimpleString(out, kOk);
  } else {
    AppendStatusError(out, s);
  }
}

void CommandTable::ReplPull(const RespCommand& cmd, std::string* out) {
  if (cluster_ == nullptr) {
    AppendError(out, "ERR This instance has cluster support disabled");
    return;
  }
  int64_t from = 0, max_ops = 0;
  if (!ParseArgInt(cmd.args[2], &from) || from <= 0 ||
      !ParseArgInt(cmd.args[3], &max_ops) || max_ops <= 0) {
    AppendError(out, "ERR invalid REPLPULL arguments");
    return;
  }
  cluster_net::OpLog* log = cluster_->oplog();
  cluster_->NoteReplicaAck(cmd.args[1].ToString(),
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

void CommandTable::ReplSnapshot(const RespCommand& cmd, std::string* out) {
  if (cluster_ == nullptr) {
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
    Result<uint64_t> ttl = db_->cache()->Ttl(key);
    entries.push_back({std::move(key), std::move(value),
                       ttl.ok() ? *ttl : uint64_t{0}});
  }
  AppendArrayHeader(out, 2 + entries.size() * 3);
  AppendBulk(out, std::to_string(next));
  AppendInteger(out, static_cast<int64_t>(cluster_->oplog()->head_seq()));
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
void CommandTable::Wait(const RespCommand& cmd, std::string* out) {
  int64_t num_replicas = 0, timeout_ms = 0;
  if (!ParseArgInt(cmd.args[1], &num_replicas) || num_replicas < 0 ||
      !ParseArgInt(cmd.args[2], &timeout_ms) || timeout_ms < 0) {
    AppendError(out, "ERR invalid WAIT arguments");
    return;
  }
  if (cluster_ == nullptr) {
    AppendInteger(out, 0);
    return;
  }
  metrics::ScopedPerfStage wait_stage(metrics::PerfContext::kReplicaWait);
  const uint64_t target = cluster_->oplog()->head_seq();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  size_t acked = cluster_->CountReplicasAtLeast(target);
  while (acked < static_cast<size_t>(num_replicas) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    acked = cluster_->CountReplicasAtLeast(target);
  }
  AppendInteger(out, static_cast<int64_t>(acked));
}

}  // namespace server
}  // namespace tierbase
