// The network front end's multi-reactor core. EventLoop is the facade over
// N IoShard reactors (io_shard.h): edge-triggered epoll loops, sized by
// EventLoopOptions::io_threads.
//
//                       ┌─ IoShard 0 ── owns conns {a, d, ...}
//   listener ─ accept ──┼─ IoShard 1 ── owns conns {b, e, ...}
//   (shard 0, or one    └─ IoShard 2 ── owns conns {c, f, ...}
//    SO_REUSEPORT
//    listener per shard)
//
// Accepts land on shard 0 (or on every shard under SO_REUSEPORT) and are
// distributed round-robin or least-connections; from then on a connection
// belongs to exactly one loop — its buffers, parser state and reply queue
// are touched only by that loop's thread, so the read → parse → dispatch →
// write path never takes a cross-loop lock. Batches still execute on the
// shared ElasticExecutor; completions come home to the owning loop through
// the per-connection completion slot plus an eventfd wakeup.
//
// With io_threads == 1 (the default) this is exactly the classic
// single-reactor server: one loop, one listener, identical semantics.
//
// Stop()/SHUTDOWN quiesces every loop: each shard stops accepting, drains
// its in-flight batches and pending replies (bounded by
// drain_deadline_micros), then Run() joins the shard threads and returns.

#ifndef TIERBASE_SERVER_EVENT_LOOP_H_
#define TIERBASE_SERVER_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "server/io_shard.h"

namespace tierbase {
namespace server {

class EventLoop {
 public:
  /// The dispatcher receives each parsed batch on the owning loop's thread
  /// and must (eventually, from any thread) call conn->CompleteBatch
  /// exactly once. With io_threads > 1 it runs concurrently on several
  /// loop threads, so it must be thread-safe.
  using Dispatcher =
      std::function<void(std::shared_ptr<Connection> conn, CommandBatch batch)>;

  EventLoop(EventLoopOptions options, Dispatcher dispatcher);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Creates the shards and binds the listener(s); after success port()
  /// returns the bound port (shared by every SO_REUSEPORT listener).
  Status Listen();
  uint16_t port() const { return port_; }

  /// Runs until Stop() (or a SHUTDOWN completion): shards 1..N-1 get
  /// dedicated threads, shard 0 runs on the calling thread. Returns after
  /// every shard drained and all sockets closed.
  void Run();

  /// Requests a graceful stop of EVERY loop: pending replies are flushed
  /// (bounded by drain_deadline_micros), then every socket closes. Any
  /// thread; async-signal-safe (atomic stores + wakeup-fd writes only).
  void Stop();

  /// Number of reactor shards actually running (after Listen()).
  int io_threads() const { return static_cast<int>(shards_.size()); }
  size_t shard_count() const { return shards_.size(); }
  /// Per-loop instruments (INFO per-loop block, tests). Valid after
  /// Listen(); index < shard_count().
  const IoShard* shard(size_t i) const { return shards_[i].get(); }

  // Gauges for INFO and tests — aggregated across all shards.
  uint64_t connections_accepted() const;
  uint64_t connections_active() const { return active_.load(); }
  uint64_t batches_dispatched() const;
  uint64_t commands_dispatched() const;
  /// Largest command count a single dispatch batch carried (pipelining
  /// depth actually achieved, max over shards).
  uint64_t max_batch_commands() const;
  uint64_t protocol_errors() const;
  uint64_t connections_rejected() const;
  uint64_t slow_consumer_disconnects() const;
  uint64_t busy_shed_commands() const;
  uint64_t dispatch_inflight() const;
  /// Total wakeup-channel fires across all loops (per-loop: shard(i)).
  uint64_t loop_wakeups() const;

 private:
  friend class Connection;
  friend class IoShard;

  // --- Services IoShard uses (all thread-safe). ---
  void DispatchBatch(const std::shared_ptr<Connection>& conn,
                     CommandBatch&& batch) {
    dispatcher_(conn, std::move(batch));
  }
  /// Global admission control (max_connections spans all loops). True =
  /// admitted; pair with ReleaseConnection().
  bool TryAdmitConnection();
  void ReleaseConnection();
  /// Picks the loop that will own a freshly accepted connection. Under
  /// SO_REUSEPORT the kernel already distributed the accept, so the
  /// accepting shard keeps it.
  IoShard* PickShard(IoShard* accepting);

  EventLoopOptions options_;
  Dispatcher dispatcher_;
  std::vector<std::unique_ptr<IoShard>> shards_;
  uint16_t port_ = 0;
  bool reuseport_ = false;  // Effective mode (requested AND supported).

  std::atomic<uint64_t> active_{0};   // Admitted, not yet closed. Global.
  std::atomic<uint64_t> rr_next_{0};  // Round-robin accept cursor.
};

}  // namespace server
}  // namespace tierbase

#endif  // TIERBASE_SERVER_EVENT_LOOP_H_
