#include "server/server.h"

#include "common/clock.h"

namespace tierbase {
namespace server {

Server::Server(TierBase* db, ServerOptions options)
    : Server(CommandTable::Backend{db, db->analytics()}, std::move(options)) {
  AddNodeCommands(&table_, db);
}

Server::Server(CommandTable::Backend backend, ServerOptions options)
    : options_(std::move(options)), table_(std::move(backend)) {
  // Server-level instruments join the table's registry so INFO/METRICS
  // render the whole process from one place. The callbacks null-check
  // loop_/executor_ because INFO can run between construction and Start().
  metrics::MetricsRegistry* reg = table_.registry();
  reg->AddText("Server", "tcp_port",
               [this] { return std::to_string(port()); });
  reg->AddText("Server", "thread_mode", [this] {
    switch (options_.executor.mode) {
      case threading::ThreadMode::kMulti:
        return "multi";
      case threading::ThreadMode::kElastic:
        return "elastic";
      default:
        return "single";
    }
  });
  auto poll = [reg](const char* key, const char* help, metrics::MetricType t,
                    std::function<uint64_t()> fn) {
    reg->AddCallback("Server", key, help, t, std::move(fn));
  };
  poll("active_threads", "Executor workers allowed to take tasks",
       metrics::MetricType::kGauge, [this] {
         return executor_ != nullptr
                    ? static_cast<uint64_t>(executor_->active_threads())
                    : 0;
       });
  poll("executor_scale_ups", "Elastic executor scale-up events",
       metrics::MetricType::kCounter,
       [this] { return executor_ != nullptr ? executor_->scale_ups() : 0; });
  poll("executor_scale_downs", "Elastic executor scale-down events",
       metrics::MetricType::kCounter,
       [this] { return executor_ != nullptr ? executor_->scale_downs() : 0; });
  poll("connected_clients", "Connections currently open",
       metrics::MetricType::kGauge,
       [this] { return loop_ != nullptr ? loop_->connections_active() : 0; });
  poll("total_connections_received", "Connections accepted since start",
       metrics::MetricType::kCounter, [this] {
         return loop_ != nullptr ? loop_->connections_accepted() : 0;
       });
  poll("dispatched_batches", "Pipeline batches handed to the executor",
       metrics::MetricType::kCounter,
       [this] { return loop_ != nullptr ? loop_->batches_dispatched() : 0; });
  poll("max_pipeline_batch", "Largest pipeline batch dispatched",
       metrics::MetricType::kGauge,
       [this] { return loop_ != nullptr ? loop_->max_batch_commands() : 0; });
  poll("protocol_errors", "Connections dropped for RESP protocol errors",
       metrics::MetricType::kCounter,
       [this] { return loop_ != nullptr ? loop_->protocol_errors() : 0; });

  // Multi-reactor shape: how many loops and the per-loop breakdown
  // (connection ownership, accept balance, wakeup traffic).
  poll("io_threads", "Event-loop shards serving connections",
       metrics::MetricType::kGauge, [this] {
         return loop_ != nullptr
                    ? static_cast<uint64_t>(loop_->io_threads())
                    : static_cast<uint64_t>(options_.net.io_threads);
       });
  poll("loop_wakeups", "Wakeup-channel fires across all loops",
       metrics::MetricType::kCounter,
       [this] { return loop_ != nullptr ? loop_->loop_wakeups() : 0; });
  reg->AddBlock("Server", [this](std::string* out) {
    if (loop_ == nullptr) return;
    for (size_t i = 0; i < loop_->shard_count(); ++i) {
      const IoShard* shard = loop_->shard(i);
      const std::string sfx = "_loop" + std::to_string(i);
      out->append("connected_clients" + sfx + ":" +
                  std::to_string(shard->connections_active()) + "\r\n");
      out->append("accepts" + sfx + ":" +
                  std::to_string(shard->connections_assigned()) + "\r\n");
      out->append("dispatched_batches" + sfx + ":" +
                  std::to_string(shard->batches_dispatched()) + "\r\n");
      out->append("loop_wakeups" + sfx + ":" +
                  std::to_string(shard->wakeups()) + "\r\n");
    }
  });

  auto guard = [reg](const char* key, const char* help, metrics::MetricType t,
                     std::function<uint64_t()> fn) {
    reg->AddCallback("Robustness", key, help, t, std::move(fn));
  };
  guard("max_connections", "Connection cap (0 = unlimited)",
        metrics::MetricType::kGauge, [this] {
          return static_cast<uint64_t>(options_.net.max_connections);
        });
  guard("max_out_buffer", "Per-connection reply buffer cap in bytes",
        metrics::MetricType::kGauge, [this] {
          return static_cast<uint64_t>(options_.net.max_out_buffer);
        });
  guard("max_dispatch_inflight", "Dispatch queue high watermark (0 = off)",
        metrics::MetricType::kGauge, [this] {
          return static_cast<uint64_t>(options_.net.max_dispatch_inflight);
        });
  guard("connections_rejected", "Connections refused at the cap",
        metrics::MetricType::kCounter, [this] {
          return loop_ != nullptr ? loop_->connections_rejected() : 0;
        });
  guard("slow_consumer_disconnects",
        "Connections dropped for unbounded reply backlog",
        metrics::MetricType::kCounter, [this] {
          return loop_ != nullptr ? loop_->slow_consumer_disconnects() : 0;
        });
  guard("busy_shed_commands", "Commands answered -BUSY under overload",
        metrics::MetricType::kCounter,
        [this] { return loop_ != nullptr ? loop_->busy_shed_commands() : 0; });
  guard("dispatch_inflight", "Batches dispatched and not yet completed",
        metrics::MetricType::kGauge,
        [this] { return loop_ != nullptr ? loop_->dispatch_inflight() : 0; });
}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (running_) return Status::InvalidArgument("server already running");
  executor_ =
      std::make_unique<threading::ElasticExecutor>(options_.executor);
  loop_ = std::make_unique<EventLoop>(
      options_.net, [this](std::shared_ptr<Connection> conn,
                           CommandBatch batch) {
        Dispatch(std::move(conn), std::move(batch));
      });
  Status s = loop_->Listen();
  if (!s.ok()) {
    loop_.reset();
    executor_->Shutdown();
    executor_.reset();
    return s;
  }
  loop_thread_ = std::thread([this] { loop_->Run(); });
  running_ = true;
  return Status::OK();
}

void Server::Dispatch(std::shared_ptr<Connection> conn, CommandBatch batch) {
  // The executor task owns the connection handle and the batch's raw
  // bytes; the parsed Slices stay valid for the task's lifetime.
  auto shared_batch =
      std::make_shared<CommandBatch>(std::move(batch));
  const uint64_t dispatched_at =
      table_.telemetry_enabled() ? Clock::Real()->NowMicros() : 0;
  executor_->Submit([this, conn = std::move(conn), shared_batch,
                     dispatched_at] {
    // The connection's PERF state rides in its dispatcher slot; batches
    // for one connection are serialized, so plain access is safe.
    if (conn->dispatcher_state == nullptr) {
      conn->dispatcher_state = std::make_shared<PerfState>();
    }
    auto* perf = static_cast<PerfState*>(conn->dispatcher_state.get());
    BatchTiming timing;
    timing.parse_micros = shared_batch->parse_micros;
    timing.dispatched_at_micros = dispatched_at;
    std::string out;
    bool close_connection = false;
    bool shutdown_server = false;
    table_.ExecuteBatch(shared_batch->cmds, &out, &close_connection,
                        &shutdown_server, perf, &timing);
    conn->CompleteBatch(std::move(out), close_connection, shutdown_server);
  });
}

void Server::Stop() {
  if (!running_) return;
  loop_->Stop();
  if (loop_thread_.joinable()) loop_thread_.join();
  // Executor after loop: queued batches may still complete (their output
  // is discarded against detached connections).
  executor_->Shutdown();
  running_ = false;
}

void Server::Wait() {
  if (loop_thread_.joinable()) loop_thread_.join();
}

}  // namespace server
}  // namespace tierbase
