// IoShard: one reactor of the multi-reactor network core. Each shard is a
// self-contained edge-triggered epoll event loop that OWNS a disjoint set
// of connections: their sockets, read buffers, reply queues and dispatch
// state live on the shard's thread and are never touched by
// another loop. The read → parse → dispatch → write path therefore takes
// no cross-loop lock; the only cross-thread seams are the per-connection
// completion slot (dispatcher threads finishing a batch), the pending-
// accept hand-off queue (the acceptor assigning a fresh socket), and the
// eventfd wakeup channel.
//
// Scatter output. Replies are queued as per-batch chunks (the exact
// strings CompleteBatch delivered, moved, never concatenated) and flushed
// with one sendmsg(iovec[]) per syscall: a connection with several
// pipelined batches pending writes them all in a single scatter write
// instead of copying them into one flat buffer first.
//
// Pipelining model (unchanged from the single-loop core): the shard parses
// every complete RESP command sitting in a connection's read buffer and
// hands them to the dispatcher as ONE batch; while that batch is in flight
// the loop keeps reading but does not dispatch again for that connection,
// so commands arriving during execution coalesce into the next batch.

#ifndef TIERBASE_SERVER_IO_SHARD_H_
#define TIERBASE_SERVER_IO_SHARD_H_

#include <sys/uio.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "server/resp.h"

namespace tierbase {
namespace server {

class EventLoop;
class IoShard;

/// How the acceptor spreads fresh connections over the loops.
enum class AcceptPolicy {
  kRoundRobin,        // Cheapest; even under uniform churn.
  kLeastConnections,  // Evens out long-lived-connection imbalance.
};

struct EventLoopOptions {
  std::string host = "127.0.0.1";
  /// 0 = kernel-assigned ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// listen(2) backlog (--tcp-backlog).
  int backlog = 128;
  /// A connection whose unparsed input exceeds this is dropped (a client
  /// streaming an over-long frame or garbage without newlines).
  size_t max_read_buffer = 64u << 20;
  /// Each loop wakes at least this often to evaluate shutdown deadlines.
  int poll_interval_ms = 100;
  /// After Stop()/SHUTDOWN, pending replies get this long to flush.
  uint64_t drain_deadline_micros = 2'000'000;

  // --- Multi-reactor shape (README "Serving over the network"). ---
  /// Number of event-loop shards. 1 = the classic single-reactor server.
  /// Clamped to [1, 64].
  int io_threads = 1;
  /// With io_threads > 1, give every loop its own SO_REUSEPORT listener
  /// (the kernel distributes accepts) instead of accept-distribute from
  /// loop 0.
  bool so_reuseport = false;
  /// Accept-distribute policy (ignored under so_reuseport).
  AcceptPolicy accept_policy = AcceptPolicy::kRoundRobin;

  // --- Overload protection (see README "Fault tolerance"). ---
  /// 0 = unlimited. GLOBAL cap across all loops: accepts past this many
  /// live connections are answered with "-ERR max clients reached" and
  /// closed instead of admitted.
  size_t max_connections = 0;
  /// PER CONNECTION: one whose pending replies exceed this is
  /// disconnected (a slow consumer must not buffer the server's memory
  /// without bound). Accounted by the owning loop.
  size_t max_out_buffer = 64u << 20;
  /// 0 = unlimited. PER LOOP: while this many dispatch batches are in
  /// flight on a loop, newly parsed commands on that loop are shed with
  /// "-BUSY" instead of queueing behind them.
  size_t max_dispatch_inflight = 0;
};

/// One parsed pipeline batch. Owns the raw request bytes; the command
/// Slices alias `raw`, so the batch can travel to another thread without
/// copying any argument.
struct CommandBatch {
  /// Heap array, not std::string: the Slices in `cmds` point into it and
  /// the batch is moved several times on its way to the executor. An
  /// SSO-small string (e.g. a lone PING, 14 bytes) would relocate its
  /// bytes on every move and leave the Slices dangling into dead stack
  /// frames; a unique_ptr's pointee never moves.
  std::unique_ptr<char[]> raw;
  std::vector<RespCommand> cmds;
  /// Loop-thread time spent parsing/packaging this batch (PERF kParse).
  uint64_t parse_micros = 0;
};

/// Per-connection reply queue: an ordered list of owned chunks (one per
/// completed batch or loop-side error reply) flushed with a single
/// scatter write per syscall. Loop-thread only.
class OutQueue {
 public:
  /// Takes ownership of `chunk`; tiny chunks merge into the tail so error
  /// floods do not degenerate into thousands of 30-byte iovecs.
  void Append(std::string&& chunk);
  bool empty() const { return bytes_ == 0; }
  size_t bytes() const { return bytes_; }
  /// Fills up to `max` iovecs with the pending spans; returns the count.
  size_t FillIov(struct iovec* iov, size_t max) const;
  /// Drops the first `n` bytes (a successful partial/complete write).
  void Consume(size_t n);
  void Clear();

 private:
  std::deque<std::string> chunks_;
  size_t head_off_ = 0;  // Bytes of chunks_.front() already written.
  size_t bytes_ = 0;
};

/// Per-connection state. The OWNING shard's thread handles the socket and
/// the buffers; dispatcher threads interact only through CompleteBatch().
class Connection {
 public:
  Connection(IoShard* shard, int fd, uint64_t id);

  uint64_t id() const { return id_; }

  /// Opaque per-connection slot for the dispatcher (the Server parks the
  /// connection's PERF tracing state here). Only dispatcher tasks touch
  /// it, and those are serialized by the one-batch-in-flight rule.
  std::shared_ptr<void> dispatcher_state;

  /// Delivers the replies for the in-flight batch. Safe from any thread,
  /// including after the peer (or the whole loop) has gone away — the
  /// output is then discarded. `close_after` closes the connection once
  /// the replies are flushed; `shutdown_server` additionally stops EVERY
  /// loop (SHUTDOWN command).
  void CompleteBatch(std::string&& output, bool close_after,
                     bool shutdown_server);

 private:
  friend class IoShard;

  IoShard* const shard_;
  const int fd_;
  const uint64_t id_;

  // --- Owning-loop state (no lock: single-threaded by ownership). ---
  std::string in_buf;    // Unparsed request bytes.
  OutQueue out;          // Reply chunks awaiting the scatter write.
  bool busy = false;     // A dispatch batch is in flight.
  bool closing = false;  // Close once `out` drains.
  uint32_t armed_events = 0;  // epoll interest mask registered.

  // --- Cross-thread completion slot. ---
  common::Mutex mu_;
  std::string done_output_ GUARDED_BY(mu_);
  bool done_ GUARDED_BY(mu_) = false;
  bool done_close_ GUARDED_BY(mu_) = false;
  bool detached_ GUARDED_BY(mu_) = false;  // Loop dropped the connection
                                           // (peer died).
};

class IoShard {
 public:
  IoShard(int index, const EventLoopOptions& options, EventLoop* parent);
  ~IoShard();

  IoShard(const IoShard&) = delete;
  IoShard& operator=(const IoShard&) = delete;

  int index() const { return index_; }

  /// Creates the epoll set and its eventfd wakeup channel.
  Status Open();
  /// Binds and listens on options.host:`port` (0 = ephemeral). With
  /// `reuseport`, sets SO_REUSEPORT before bind so sibling shards can
  /// share the port. After success listen_port() returns the bound port.
  Status OpenListener(uint16_t port, bool reuseport);
  uint16_t listen_port() const { return listen_port_; }
  bool has_listener() const { return listen_fd_ >= 0; }

  /// Runs until RequestStop() (then drains, bounded by the drain
  /// deadline). Call on the shard's dedicated thread.
  void Run();
  /// Requests a graceful stop; any thread. Idempotent.
  void RequestStop();
  /// Writes into the wakeup eventfd; any thread.
  void Notify();

  /// Hands a freshly accepted, already-admitted socket to this shard from
  /// another thread (the acceptor). The shard adopts it on its next cycle.
  void AdoptConnection(int fd);

  // Per-loop gauges (INFO "# Server" per-loop block, accept balance).
  uint64_t connections_assigned() const { return assigned_.load(); }
  uint64_t connections_active() const { return active_.load(); }
  uint64_t batches_dispatched() const { return batches_.load(); }
  uint64_t commands_dispatched() const { return commands_.load(); }
  uint64_t max_batch_commands() const { return max_batch_.load(); }
  uint64_t protocol_errors() const { return protocol_errors_.load(); }
  uint64_t connections_rejected() const { return rejected_.load(); }
  uint64_t slow_consumer_disconnects() const { return slow_consumer_.load(); }
  uint64_t busy_shed_commands() const { return busy_shed_.load(); }
  uint64_t dispatch_inflight() const { return inflight_.load(); }
  /// Times the loop was woken through the wakeup eventfd.
  uint64_t wakeups() const { return wakeups_.load(); }

 private:
  friend class Connection;

  /// True when stop was requested and either nothing is pending or the
  /// drain deadline passed; also closes the listener on first sight.
  bool StoppingAndDrained();
  void AcceptNew();
  void DrainPendingAccepts();
  /// Registers an admitted socket with this loop.
  void AddConnection(int fd);
  void HandleReadable(const std::shared_ptr<Connection>& conn);
  /// Scatter-writes the connection's pending reply chunks (sendmsg over
  /// the queue's iovecs) until drained or the socket would block.
  void HandleWritable(const std::shared_ptr<Connection>& conn);
  /// Parses conn->in_buf and dispatches one batch if the connection is
  /// idle. Returns false if the connection was torn down.
  bool TryDispatch(const std::shared_ptr<Connection>& conn);
  /// Collects completed batches (from the completion slots) into reply
  /// queues and re-dispatches buffered pipeline input.
  void DrainCompletions();
  void CloseConnection(const std::shared_ptr<Connection>& conn);
  void DrainWakeupChannel();
  bool ConnAlive(int fd, const std::shared_ptr<Connection>& conn) const;

  /// (Re-)arms the connection's interest mask — always EPOLLIN|EPOLLET,
  /// plus EPOLLOUT while replies are pending.
  void UpdateInterest(const std::shared_ptr<Connection>& conn);

  const int index_;
  const EventLoopOptions& options_;  // Owned by the parent EventLoop.
  EventLoop* const parent_;

  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int wake_fd_ = -1;  // eventfd.
  uint16_t listen_port_ = 0;
  uint64_t next_conn_id_ = 1;
  uint64_t stop_seen_at_ = 0;

  // Loop-thread-owned connection table: this shard's thread is the only
  // one that ever touches it (per-loop ownership).
  std::unordered_map<int, std::shared_ptr<Connection>> conns_;

  // Accept hand-off: the acceptor thread parks admitted sockets here.
  common::Mutex pending_mu_;
  std::vector<int> pending_accepts_ GUARDED_BY(pending_mu_);
  bool exited_ GUARDED_BY(pending_mu_) = false;  // Run() has returned.

  // Completion queue: connections whose batch finished (loop scans their
  // slots).
  common::Mutex completions_mu_;
  std::vector<std::weak_ptr<Connection>> completions_
      GUARDED_BY(completions_mu_);

  std::atomic<bool> stop_requested_{false};
  std::atomic<uint64_t> assigned_{0};  // Connections this loop was given.
  std::atomic<uint64_t> active_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> commands_{0};
  std::atomic<uint64_t> max_batch_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> rejected_{0};       // max_connections rejects here.
  std::atomic<uint64_t> slow_consumer_{0};  // Reply-queue cap disconnects.
  std::atomic<uint64_t> busy_shed_{0};      // Commands answered -BUSY.
  std::atomic<uint64_t> inflight_{0};       // Batches dispatched, not done.
  std::atomic<uint64_t> wakeups_{0};        // Wakeup-channel fires.
};

}  // namespace server
}  // namespace tierbase

#endif  // TIERBASE_SERVER_IO_SHARD_H_
