#include "server/command.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstring>

#include "cluster_net/node_state.h"
#include "common/clock.h"
#include "common/mutex.h"

namespace tierbase {
namespace server {

namespace {

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

constexpr const char* kOk = "OK";

uint64_t NowMicros() { return Clock::Real()->NowMicros(); }

bool IsWrongType(const Status& s) {
  return s.IsInvalidArgument() &&
         s.message().find("wrong value type") != std::string::npos;
}

/// Calls fn(key) for each key position `flags` names in `cmd`, in order;
/// false as soon as fn does.
template <typename Fn>
bool ForEachKey(const RespCommand& cmd, uint8_t flags, Fn fn) {
  if ((flags & kFlagKey) && cmd.args.size() > 1 && !fn(cmd.args[1])) {
    return false;
  }
  if (flags & kFlagKeysAll) {
    for (size_t i = 1; i < cmd.args.size(); ++i) {
      if (!fn(cmd.args[i])) return false;
    }
  }
  if (flags & kFlagKeysPairs) {
    for (size_t i = 1; i < cmd.args.size(); i += 2) {
      if (!fn(cmd.args[i])) return false;
    }
  }
  return true;
}

/// Inside a train, MGET and MSET are the verbs whose name starts with M.
bool IsMultiKey(const RespCommand& cmd) {
  return cmd.args[0][0] == 'M' || cmd.args[0][0] == 'm';
}

/// The keys a train command names: every argument after the verb of a
/// read, every other one of a write (key, value pairs).
size_t TrainKeys(const RespCommand& cmd, bool read) {
  return read ? cmd.args.size() - 1 : (cmd.args.size() - 1) / 2;
}

}  // namespace

bool ParseArgInt(const Slice& arg, int64_t* out) {
  const char* end = arg.data() + arg.size();
  int64_t v = 0;
  auto [ptr, ec] = std::from_chars(arg.data(), end, v);
  if (ec != std::errc() || ptr != end) return false;
  *out = v;
  return true;
}

void AppendStatusError(std::string* out, const Status& s) {
  if (IsWrongType(s)) {
    AppendError(out,
                "WRONGTYPE Operation against a key holding the wrong kind "
                "of value");
    return;
  }
  // Robustness contract: Unavailable and Busy keep their own error classes
  // on the wire so clients can tell "retry elsewhere/later" from a hard
  // error.
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

void AppendOkOrError(std::string* out, const Status& s) {
  if (s.ok()) {
    AppendSimpleString(out, kOk);
  } else {
    AppendStatusError(out, s);
  }
}

void AppendValueOrNull(std::string* out, const Status& s,
                       const std::string& value) {
  if (s.ok()) {
    AppendBulk(out, value);
  } else if (s.IsNotFound()) {
    AppendNullBulk(out);
  } else {
    AppendStatusError(out, s);
  }
}

CommandTable::CommandTable(Backend backend) : backend_(std::move(backend)) {
  // Section registration order fixes the INFO section order; the front
  // end's sections follow these.
  if (backend_.engine != nullptr) {
    registry_.AddText("Server", "engine",
                      [this] { return backend_.engine->name(); });
  }
  registry_.AddText("Server", "telemetry",
                    [this] { return telemetry_ ? "on" : "off"; });
  commands_ = registry_.AddCounter("Stats", "total_commands_processed",
                                   "Commands executed");
  batches_ = registry_.AddCounter("Stats", "dispatch_batches",
                                  "Pipelined batches executed");
  coalesced_ = registry_.AddCounter(
      "Stats", "coalesced_commands",
      "Commands served through coalesced MultiGet/MultiSet trains");
  errors_ = registry_.AddCounter("Stats", "command_errors",
                                 "Commands answered with an error reply");
  // # Commandstats: one latency histogram per row (AddRow), recorded
  // dispatch -> reply, plus one for pre-table commands (PING, QUIT,
  // SHUTDOWN, COMMAND, PERF) and unknown names.
  other_hist_ = registry_.AddHistogram(
      "Commandstats", "cmd_other_latency_us",
      "Latency of pre-table and unknown commands, microseconds");
  registry_.AddCallback("Keyspace", "slowlog_len",
                        "Entries currently in the slow log",
                        metrics::MetricType::kGauge, [this] {
                          return static_cast<uint64_t>(slowlog_.Len());
                        });
  // # Workload: the observatory's live view of the traffic itself (miss-
  // ratio curve, hot keys, keyspace shape).
  analytics::RegisterWorkloadInstruments(&registry_, backend_.analytics);

  auto builtin = [this](CommandSpec spec,
                        void (CommandTable::*fn)(const RespCommand&,
                                                 std::string*)) {
    AddRow(spec, [this, fn](const RespCommand& cmd, std::string* out) {
      (this->*fn)(cmd, out);
    });
  };
  builtin({"INFO", 1, 2, 0}, &CommandTable::Info);
  builtin({"SLOWLOG", 2, 3, 0}, &CommandTable::SlowLogCmd);
  builtin({"LATENCY", 2, 3, 0}, &CommandTable::Latency);
  builtin({"METRICS", 1, 1, 0}, &CommandTable::Metrics);
  builtin({"ANALYTICS", 2, 3, 0}, &CommandTable::Analytics);
  builtin({"HOTKEYS", 1, 2, 0}, &CommandTable::HotKeys);
  builtin_rows_ = rows_.size();
}

void CommandTable::AddRow(const CommandSpec& spec, Handler handler) {
  metrics::LatencyHistogram* hist = registry_.AddHistogram(
      "Commandstats", "cmd_" + LowerName(spec.name) + "_latency_us",
      std::string(spec.name) + " latency, dispatch to reply, microseconds");
  // Front-end rows go ahead of the built-ins, so lookup finds the data
  // verbs first; earlier rows keep their indices.
  const size_t at = rows_.size() - builtin_rows_;
  if (strcmp(spec.name, "GET") == 0) {
    get_row_ = static_cast<int>(at);
  } else if (strcmp(spec.name, "SET") == 0) {
    set_row_ = static_cast<int>(at);
  } else if (strcmp(spec.name, "MGET") == 0) {
    mget_row_ = static_cast<int>(at);
  } else if (strcmp(spec.name, "MSET") == 0) {
    mset_row_ = static_cast<int>(at);
  }
  rows_.insert(rows_.begin() + at, Row{spec, std::move(handler), hist});
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

  size_t i = 0;
  while (i < cmds.size()) {
    // A run of reads (or of writes) that a pipelining client queued
    // back-to-back becomes one batched engine call.
    const Train kind = TrainOf(cmds[i]);
    size_t j = i + 1;
    if (kind != Train::kNone) {
      while (j < cmds.size() && TrainOf(cmds[j]) == kind) ++j;
    }
    const RespCommand* begin = cmds.data() + i;
    const RespCommand* end = cmds.data() + j;
    if (j - i >= 2 && TrainAdmissible(begin, end, kind)) {
      const uint64_t t0 = telemetry_ ? NowMicros() : 0;
      ExecuteTrain(begin, end, kind, out);
      if (telemetry_) {
        // Every command of the train observed the train's elapsed time.
        const uint64_t elapsed = NowMicros() - t0;
        const uint64_t multi =
            static_cast<uint64_t>(std::count_if(begin, end, IsMultiKey));
        const bool read = kind == Train::kRead;
        if (multi > 0) {
          RecordLatency(read ? mget_row_ : mset_row_, elapsed, multi);
        }
        if (multi < j - i) {
          RecordLatency(read ? get_row_ : set_row_, elapsed, j - i - multi);
        }
        if (slowlog_.ShouldLog(elapsed)) {
          RecordSlow(begin, end, read ? kFlagKeysAll : kFlagKeysPairs,
                     elapsed);
        }
      }
      coalesced_->Inc(j - i);
      i = j;
      continue;
    }
    ExecuteOne(cmds[i], out, close_connection, shutdown_server, perf);
    ++i;
  }

  if (pctx != nullptr) {
    pctx->AddBatch(NowMicros() - exec_start + upstream_micros, cmds.size());
  }
}

void CommandTable::RecordLatency(int row, uint64_t micros, uint64_t count) {
  (row >= 0 ? rows_[row].hist : other_hist_)->Record(micros, count);
}

void CommandTable::RecordSlow(const RespCommand* begin,
                              const RespCommand* end, uint8_t flags,
                              uint64_t micros) {
  std::vector<std::string> args;
  args.push_back(begin->args[0].ToString());
  size_t total_keys = 0;
  for (const RespCommand* cmd = begin; cmd != end; ++cmd) {
    ForEachKey(*cmd, flags, [&](const Slice& key) {
      ++total_keys;
      if (args.size() <= kSlowlogMaxKeys) args.push_back(key.ToString());
      return true;
    });
  }
  if (total_keys > kSlowlogMaxKeys) {
    args.push_back("... (" + std::to_string(total_keys - kSlowlogMaxKeys) +
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
  return ForEachKey(cmd, flags, [&](const Slice& key) {
    if (!checker.Misrouted(key)) return true;
    std::string moved;
    if (!cluster_->CheckMoved(key, &moved)) {
      moved = "MOVED 0 stale-route ?:0";  // Routing changed mid-check.
    }
    AppendError(out, moved);
    return false;
  });
}

CommandTable::Train CommandTable::TrainOf(const RespCommand& cmd) const {
  const size_t argc = cmd.args.size();
  if (backend_.engine == nullptr || argc < 2) return Train::kNone;
  const Slice& name = cmd.args[0];
  if (argc == 2 && get_row_ >= 0 && EqualsUpper(name, "GET")) {
    return Train::kRead;
  }
  if (argc == 3 && set_row_ >= 0 && EqualsUpper(name, "SET")) {
    return Train::kWrite;
  }
  if (mget_row_ >= 0 && EqualsUpper(name, "MGET")) return Train::kRead;
  if (argc % 2 == 1 && mset_row_ >= 0 && EqualsUpper(name, "MSET")) {
    return Train::kWrite;
  }
  return Train::kNone;
}

bool CommandTable::TrainAdmissible(const RespCommand* begin,
                                   const RespCommand* end, Train kind) {
  // A train with any inadmissible command falls back to per-command
  // dispatch, so each command gets its own -MOVED / -READONLY.
  if (cluster_ == nullptr) return true;
  if (kind == Train::kWrite && cluster_->is_replica()) return false;
  // One routing-snapshot fetch for the whole train, then lock-free per-key
  // checks.
  cluster_net::NodeClusterState::RouteChecker checker =
      cluster_->route_checker();
  const uint8_t flags = kind == Train::kRead ? kFlagKeysAll : kFlagKeysPairs;
  for (const RespCommand* cmd = begin; cmd != end; ++cmd) {
    if (!ForEachKey(*cmd, flags, [&](const Slice& key) {
          return !checker.Misrouted(key);
        })) {
      return false;
    }
  }
  return true;
}

void CommandTable::ExecuteTrain(const RespCommand* begin,
                                const RespCommand* end, Train kind,
                                std::string* out) {
  const bool read = kind == Train::kRead;
  size_t total = 0;
  for (const RespCommand* cmd = begin; cmd != end; ++cmd) {
    total += TrainKeys(*cmd, read);
  }
  std::vector<Slice> keys, values;
  keys.reserve(total);
  values.reserve(read ? 0 : total);
  for (const RespCommand* cmd = begin; cmd != end; ++cmd) {
    for (size_t i = 1; i < cmd->args.size(); i += read ? 1 : 2) {
      keys.push_back(cmd->args[i]);
      if (!read) values.push_back(cmd->args[i + 1]);
    }
  }
  std::vector<Status> statuses;
  std::vector<std::string> found;
  if (read) {
    backend_.engine->MultiGet(keys, &found, &statuses);
  } else {
    // Apply + oplog-append atomically so replicas see writes in apply
    // order (see NodeClusterState::write_order_mu).
    common::OptionalMutexLock order_lock(
        cluster_ != nullptr ? &cluster_->write_order_mu() : nullptr);
    backend_.engine->MultiSet(keys, values, &statuses);
    if (cluster_ != nullptr) {
      metrics::ScopedPerfStage oplog_stage(
          metrics::PerfContext::kOplogAppend);
      for (size_t k = 0; k < statuses.size(); ++k) {
        if (statuses[k].ok()) cluster_->RecordSet(keys[k], values[k], 0);
      }
    }
  }

  size_t at = 0;  // The command's first key in keys/statuses.
  for (const RespCommand* cmd = begin; cmd != end; ++cmd) {
    const size_t n = TrainKeys(*cmd, read);
    const Status* first = &statuses[at];
    const Status* last = first + n;
    const size_t before = out->size();
    if (read && !IsMultiKey(*cmd)) {
      AppendValueOrNull(out, *first, found[at]);
    } else if (read) {
      // MGET: null for a missing or wrong-type key (Redis), but any other
      // failure fails the command: an unreadable key must not pass for a
      // missing one.
      const Status* bad = std::find_if(first, last, [](const Status& s) {
        return !s.ok() && !s.IsNotFound() && !IsWrongType(s);
      });
      if (bad != last) {
        AppendStatusError(out, *bad);
      } else {
        AppendArrayHeader(out, n);
        for (size_t k = at; k < at + n; ++k) {
          if (statuses[k].ok()) {
            AppendBulk(out, found[k]);
          } else {
            AppendNullBulk(out);
          }
        }
      }
    } else {
      // SET/MSET: +OK, or the error of the command's first failing key.
      const Status* bad =
          std::find_if(first, last, [](const Status& s) { return !s.ok(); });
      AppendOkOrError(out, bad != last ? *bad : Status::OK());
    }
    if ((*out)[before] == '-') errors_->Inc();
    at += n;
  }
}

void CommandTable::ExecuteOne(const RespCommand& cmd, std::string* out,
                              bool* close_connection, bool* shutdown_server,
                              PerfState* perf) {
  int row = -1;
  if (!telemetry_) {
    ExecuteOneImpl(cmd, out, close_connection, shutdown_server, perf, &row);
    return;
  }
  const uint64_t t0 = NowMicros();
  ExecuteOneImpl(cmd, out, close_connection, shutdown_server, perf, &row);
  const uint64_t elapsed = NowMicros() - t0;
  RecordLatency(row, elapsed, 1);
  if (slowlog_.ShouldLog(elapsed) && !cmd.args.empty()) {
    RecordSlow(&cmd, &cmd + 1, row >= 0 ? rows_[row].spec.flags : 0,
               elapsed);
  }
}

void CommandTable::ExecuteOneImpl(const RespCommand& cmd, std::string* out,
                                  bool* close_connection,
                                  bool* shutdown_server, PerfState* perf,
                                  int* row) {
  *row = -1;
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
    // the backend (the node's write-back tier, WAL and storage) before
    // acking. On drain failure refuse to stop — data would be lost;
    // SHUTDOWN NOSAVE forces the exit.
    if (!nosave && backend_.engine != nullptr) {
      Status drain = backend_.engine->WaitIdle();
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

  for (size_t ri = 0; ri < rows_.size(); ++ri) {
    const Row& entry = rows_[ri];
    if (strcmp(name, entry.spec.name) != 0) continue;
    *row = static_cast<int>(ri);
    if (argc < entry.spec.min_argc ||
        (entry.spec.max_argc != 0 && argc > entry.spec.max_argc)) {
      AppendWrongArity(out, name);
      errors_->Inc();
      return;
    }
    if (!ClusterAdmits(cmd, entry.spec.flags, out)) {
      errors_->Inc();
      return;
    }
    if (!entry.handler) {
      // MGET/MSET: served from the engine as a train of one.
      const Train kind = TrainOf(cmd);
      if (kind == Train::kNone) {  // An MSET key without a value.
        AppendWrongArity(out, name);
        errors_->Inc();
        return;
      }
      ExecuteTrain(&cmd, &cmd + 1, kind, out);
      return;
    }
    entry.handler(cmd, out);
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
  analytics::WorkloadAnalytics* wa = backend_.analytics;
  if (wa == nullptr) {
    AppendError(out, "ERR analytics disabled (started with --no-analytics)");
    return;
  }
  if (EqualsUpper(cmd.args[1], "MRC")) {
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
  if (EqualsUpper(cmd.args[1], "RESET")) {
    wa->Reset();
    AppendSimpleString(out, kOk);
    return;
  }
  AppendError(out, "ERR unknown ANALYTICS subcommand, try MRC|RESET");
}

void CommandTable::HotKeys(const RespCommand& cmd, std::string* out) {
  analytics::WorkloadAnalytics* wa = backend_.analytics;
  if (wa == nullptr) {
    AppendError(out, "ERR analytics disabled (started with --no-analytics)");
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
  const Slice& sub = cmd.args[1];
  if (EqualsUpper(sub, "GET")) {
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
  if (EqualsUpper(sub, "RESET")) {
    slowlog_.Reset();
    AppendSimpleString(out, kOk);
    return;
  }
  if (EqualsUpper(sub, "LEN")) {
    AppendInteger(out, static_cast<int64_t>(slowlog_.Len()));
    return;
  }
  AppendError(out, "ERR unknown SLOWLOG subcommand, try GET|RESET|LEN");
}

void CommandTable::Latency(const RespCommand& cmd, std::string* out) {
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
  if (EqualsUpper(cmd.args[1], "HISTOGRAM")) {
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
  if (EqualsUpper(cmd.args[1], "RESET")) {
    for (auto& [key, hist] : hists) {
      (void)key;
      hist->Reset();
    }
    AppendInteger(out, static_cast<int64_t>(hists.size()));
    return;
  }
  AppendError(out, "ERR unknown LATENCY subcommand, try HISTOGRAM|RESET");
}

}  // namespace server
}  // namespace tierbase
