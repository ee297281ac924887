// Server: the RESP front end host. Every TierBase front end — the data
// node, the cluster proxy and the coordinator — is one Server; they differ
// only in the verb rows of their CommandTable. Wires together
//
//   EventLoop  — accepts connections, parses pipelined RESP batches
//   CommandTable — executes a batch: the shared built-ins plus the front
//       end's rows (a node's are TierBase's, see AddNodeCommands)
//   threading::ElasticExecutor — runs the dispatch, so the paper's thread
//       modes (§4.4) govern a real network server: kSingle is the classic
//       one-event-loop-one-worker Redis shape, kMulti a fixed pool, and
//       kElastic scales workers with the dispatch queue depth.
//
// The event loop never executes a command itself: each batch is submitted
// to the executor and the loop keeps serving other connections; replies
// come back through Connection::CompleteBatch. Per-connection ordering is
// preserved (one batch in flight per connection), cross-connection
// parallelism is the executor's thread count.

#ifndef TIERBASE_SERVER_SERVER_H_
#define TIERBASE_SERVER_SERVER_H_

#include <memory>
#include <string>
#include <thread>

#include "core/tierbase.h"
#include "server/command.h"
#include "server/event_loop.h"
#include "threading/elastic_executor.h"

namespace tierbase {
namespace server {

struct ServerOptions {
  EventLoopOptions net;
  threading::ElasticOptions executor;  // Defaults to kElastic, 4 threads.
};

class Server {
 public:
  /// A data node: TierBase's rows; trains run on `db` and SHUTDOWN drains
  /// it. `db` is not owned and must outlive the server.
  Server(TierBase* db, ServerOptions options = {});
  /// Any other front end: the built-in verbs only, until the caller adds
  /// its rows through commands() before Start().
  Server(CommandTable::Backend backend, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the event-loop thread. After success the
  /// server is reachable on host():port().
  Status Start();

  /// Graceful stop: drains in-flight batches and pending replies, joins
  /// the loop thread, shuts the executor down. Idempotent; also invoked by
  /// the SHUTDOWN command and the destructor.
  void Stop();

  /// Blocks until the event loop exits (SHUTDOWN command or Stop()).
  void Wait();

  const std::string& host() const { return options_.net.host; }
  uint16_t port() const { return loop_ != nullptr ? loop_->port() : 0; }
  bool running() const { return running_; }

  EventLoop* loop() { return loop_.get(); }
  CommandTable* commands() { return &table_; }
  threading::ElasticExecutor* executor() { return executor_.get(); }

 private:
  void Dispatch(std::shared_ptr<Connection> conn, CommandBatch batch);

  ServerOptions options_;
  CommandTable table_;
  std::unique_ptr<threading::ElasticExecutor> executor_;
  std::unique_ptr<EventLoop> loop_;
  std::thread loop_thread_;
  bool running_ = false;
};

}  // namespace server
}  // namespace tierbase

#endif  // TIERBASE_SERVER_SERVER_H_
