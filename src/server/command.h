// Command dispatch: the one RESP command surface of every TierBase front
// end — the data node (Server over TierBase), the cluster proxy and the
// coordinator all execute their batches through a CommandTable.
//
// The table owns what every front end shares:
//
//   * name lookup and arity checks, and the command_errors counter;
//   * the built-in verbs PING/QUIT/SHUTDOWN/COMMAND/PERF and
//     INFO/METRICS/SLOWLOG/LATENCY/ANALYTICS/HOTKEYS;
//   * telemetry: a LatencyHistogram per verb row (measured dispatch ->
//     reply), SLOWLOG entries redacted to key names, INFO / METRICS
//     rendered from the table's MetricsRegistry, and PERF ON|OFF|GET
//     driving the per-connection PerfContext (see common/perf_context.h;
//     the state travels in via PerfState because the table is shared
//     across executor threads and must stay stateless per request);
//   * read/write trains: a run of consecutive reads (GET k, MGET k...) in a
//     pipelined batch becomes one KvEngine::MultiGet on the backend
//     engine, and a run of consecutive writes (SET k v, MSET k v...) one
//     MultiSet, so a client that pipelines N commands pays one batched call
//     instead of N (on the proxy, one round trip per node). Replies stay
//     one per command, in command order. A lone MGET or MSET runs the same
//     code as a train of one: the table holds the only copy of their
//     semantics;
//   * on a cluster data node (set_cluster), -MOVED / -READONLY admission.
//
// A front end supplies only its verb rows ({name, arity, key/write flags,
// handler}) and the Backend its trains run on. The node's rows
// (AddNodeCommands, node_commands.cc) map the verbs onto TierBase; the
// proxy registers GET/SET/DEL/EXISTS over the cluster client, MGET/MSET
// without handlers (the trains serve them), and forwards the node's other
// single-key verbs; the coordinator registers CLUSTER.

#ifndef TIERBASE_SERVER_COMMAND_H_
#define TIERBASE_SERVER_COMMAND_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "analytics/workload_analytics.h"
#include "common/kv_engine.h"
#include "common/metrics.h"
#include "common/perf_context.h"
#include "server/resp.h"
#include "server/slowlog.h"

namespace tierbase {
class TierBase;

namespace cluster_net {
class NodeClusterState;
}  // namespace cluster_net

namespace server {

// CommandSpec::flags: which arguments are keys (for -MOVED ownership checks
// and SLOWLOG redaction: key positions are kept, value positions dropped)
// and whether the command mutates (for -READONLY on replicas).
constexpr uint8_t kFlagKey = 1;        // args[1] is a key.
constexpr uint8_t kFlagKeysAll = 2;    // args[1..] are keys.
constexpr uint8_t kFlagKeysPairs = 4;  // args[1,3,5..] are keys (MSET).
constexpr uint8_t kFlagWrite = 8;

/// One verb row without its handler. Arity is {min, max} inclusive
/// argument counts, command name included; max 0 = unbounded. Parity
/// constraints are checked in the handlers.
struct CommandSpec {
  const char* name;  // Uppercase, at most 15 characters.
  size_t min_argc;
  size_t max_argc;
  uint8_t flags;
};

/// Per-connection perf-tracing state, owned by the dispatcher (the Server
/// keeps one per connection) and handed to ExecuteBatch. Plain fields:
/// only one batch per connection is in flight, and consecutive batches are
/// ordered through the executor queue.
struct PerfState {
  bool enabled = false;
  metrics::PerfContext ctx;
};

/// Batch timing measured upstream of execution (event loop + dispatch
/// queue), attributed to the parse / queue_wait perf stages.
struct BatchTiming {
  uint64_t parse_micros = 0;
  /// Clock::Real()->NowMicros() when the dispatcher submitted the batch.
  uint64_t dispatched_at_micros = 0;
};

class CommandTable {
 public:
  /// Executes one command whose arity already matched its row.
  using Handler = std::function<void(const RespCommand& cmd, std::string* out)>;

  /// What a front end's table runs on. Pointers are not owned and must
  /// outlive the table.
  struct Backend {
    /// Read/write trains run on it as one MultiGet/MultiSet (nullptr: no
    /// trains, and no MGET/MSET rows); INFO reports its name() as
    /// `engine`; SHUTDOWN without NOSAVE runs its WaitIdle() first and
    /// refuses to stop when it fails.
    KvEngine* engine = nullptr;
    /// ANALYTICS, HOTKEYS and INFO "# Workload" read it; nullptr answers
    /// "analytics disabled".
    analytics::WorkloadAnalytics* analytics = nullptr;
  };

  explicit CommandTable(Backend backend);

  /// Adds a verb row and its `cmd_<name>_latency_us` histogram. Call before
  /// the server starts dispatching; names are unique per table. MGET and
  /// MSET rows take an empty handler: the table serves them from the
  /// backend engine, which must then be set.
  void AddRow(const CommandSpec& spec, Handler handler);

  /// Attaches cluster membership (not owned; must outlive the table).
  /// Enables -MOVED checks against the installed routing snapshot,
  /// -READONLY rejection of writes while a replica, and oplog recording of
  /// train writes; the node's rows read it through cluster(). Call before
  /// the server starts dispatching.
  void set_cluster(cluster_net::NodeClusterState* cluster) {
    cluster_ = cluster;
  }
  cluster_net::NodeClusterState* cluster() const { return cluster_; }

  /// Disables hot-path telemetry (per-command clocking, histogram
  /// recording, SLOWLOG). The registry still renders INFO/METRICS; the
  /// histograms just stay empty. (--no-telemetry)
  void set_telemetry_enabled(bool enabled) { telemetry_ = enabled; }
  bool telemetry_enabled() const { return telemetry_; }

  /// This table's instrument registry (INFO/METRICS source). The Server and
  /// the front end register their own instruments here.
  metrics::MetricsRegistry* registry() { return &registry_; }
  SlowLog* slowlog() { return &slowlog_; }

  /// Executes a pipelined batch, appending one reply per command to *out.
  /// Sets *close_connection for QUIT/SHUTDOWN (reply still sent first) and
  /// *shutdown_server for SHUTDOWN. `perf` (nullable) carries the
  /// connection's PERF state; `timing` (nullable) the upstream stage
  /// timings.
  void ExecuteBatch(const std::vector<RespCommand>& cmds, std::string* out,
                    bool* close_connection, bool* shutdown_server,
                    PerfState* perf = nullptr,
                    const BatchTiming* timing = nullptr);

  // Dispatch statistics (INFO "# Stats").
  uint64_t commands() const { return commands_->value(); }
  uint64_t batches() const { return batches_->value(); }
  /// Commands served through a coalesced MultiGet/MultiSet run (pipelined
  /// read/write trains, ≥ 2 commands per run).
  uint64_t coalesced_commands() const { return coalesced_->value(); }
  uint64_t errors() const { return errors_->value(); }

 private:
  struct Row {
    CommandSpec spec;
    Handler handler;
    metrics::LatencyHistogram* hist;
  };

  /// Times one command, records its row's histogram and the slow log,
  /// then delegates to ExecuteOneImpl.
  void ExecuteOne(const RespCommand& cmd, std::string* out,
                  bool* close_connection, bool* shutdown_server,
                  PerfState* perf);
  /// Dispatches without telemetry bookkeeping. Sets *row to the rows_
  /// index used, or -1 for pre-table commands (PING/QUIT/...).
  void ExecuteOneImpl(const RespCommand& cmd, std::string* out,
                      bool* close_connection, bool* shutdown_server,
                      PerfState* perf, int* row);

  // Built-in rows.
  void Info(const RespCommand& cmd, std::string* out);
  void Metrics(const RespCommand& cmd, std::string* out);
  void SlowLogCmd(const RespCommand& cmd, std::string* out);
  void Latency(const RespCommand& cmd, std::string* out);
  void Analytics(const RespCommand& cmd, std::string* out);
  void HotKeys(const RespCommand& cmd, std::string* out);

  /// Records one row's latency sample: `micros` observed by `count`
  /// commands (a coalesced train shares the train's elapsed time). `row`
  /// -1 = the pre-table/unknown family.
  void RecordLatency(int row, uint64_t micros, uint64_t count);
  /// Logs a slow command, or a slow train [begin, end) as one entry: the
  /// first command's name, then the keys `flags` names in each command
  /// (values are redacted).
  void RecordSlow(const RespCommand* begin, const RespCommand* end,
                  uint8_t flags, uint64_t micros);

  /// Cluster gate shared by every keyed row: emits -READONLY for writes on
  /// a replica and -MOVED for misrouted keys. Returns false when an error
  /// was emitted (the command must not execute).
  bool ClusterAdmits(const RespCommand& cmd, uint8_t flags, std::string* out);

  enum class Train { kNone, kRead, kWrite };
  /// The train `cmd` can ride: kRead for GET k and MGET k..., kWrite for
  /// SET k v and MSET k v..., kNone for anything else (other verbs, SET
  /// options, an MSET key without a value) or when the table has no
  /// engine or no such row.
  Train TrainOf(const RespCommand& cmd) const;
  /// True when every key of the train [begin, end) is owned here and, for
  /// writes, this node is no replica: the whole train may run as one call.
  bool TrainAdmissible(const RespCommand* begin, const RespCommand* end,
                       Train kind);
  /// Executes the train [begin, end) of one kind as one MultiGet or
  /// MultiSet and appends one reply per command.
  void ExecuteTrain(const RespCommand* begin, const RespCommand* end,
                    Train kind, std::string* out);

  Backend backend_;
  cluster_net::NodeClusterState* cluster_ = nullptr;
  bool telemetry_ = true;

  metrics::MetricsRegistry registry_;
  SlowLog slowlog_;

  // Dispatch counters (registry-owned; "# Stats").
  metrics::Counter* commands_ = nullptr;
  metrics::Counter* batches_ = nullptr;
  metrics::Counter* coalesced_ = nullptr;
  metrics::Counter* errors_ = nullptr;

  std::vector<Row> rows_;  // The front end's rows, then the built-ins.
  size_t builtin_rows_ = 0;
  // Pre-table and unknown commands ("cmd_other_latency_us").
  metrics::LatencyHistogram* other_hist_ = nullptr;
  // Rows the trains record into; -1 = no such row, and no train for it.
  int get_row_ = -1;
  int set_row_ = -1;
  int mget_row_ = -1;
  int mset_row_ = -1;
};

/// Adds TierBase's verb rows to `table` (node_commands.cc): strings, TTL,
/// rich types, SCAN/DBSIZE/FLUSHALL and the cluster/replication vocabulary,
/// plus the engine's INFO sections. `db` must outlive the table.
void AddNodeCommands(CommandTable* table, TierBase* db);

/// The node's rows without handlers, in table order (the proxy forwards
/// the single-key ones with the node's arity and key flags).
std::vector<CommandSpec> NodeCommandSpecs();

/// Appends a `-...` RESP error translated from a Status (WrongType maps to
/// -WRONGTYPE, Unavailable to -UNAVAILABLE, Busy to -BUSY, everything else
/// to -ERR <code>: <msg>).
void AppendStatusError(std::string* out, const Status& s);

/// +OK for an ok status, else the status as an error.
void AppendOkOrError(std::string* out, const Status& s);

/// GET-style reply: the value as a bulk string, NotFound as a null bulk,
/// any other status as an error.
void AppendValueOrNull(std::string* out, const Status& s,
                       const std::string& value);

/// Strict signed-integer parse of a RESP argument: optional '-', then
/// digits only (no whitespace, no '+', no trailing junk, no overflow).
bool ParseArgInt(const Slice& arg, int64_t* out);

}  // namespace server
}  // namespace tierbase

#endif  // TIERBASE_SERVER_COMMAND_H_
