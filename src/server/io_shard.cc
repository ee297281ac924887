#include "server/io_shard.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/clock.h"
#include "common/logging.h"
#include "common/thread_name.h"
#include "server/event_loop.h"

namespace tierbase {
namespace server {

namespace {

// Scatter-write width: enough that even a deeply pipelined connection's
// backlog goes out in one or two syscalls, well under IOV_MAX everywhere.
constexpr size_t kMaxIovPerWrite = 64;

Status SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError(std::string("fcntl: ") + strerror(errno));
  }
  return Status::OK();
}

void AppendErrorChunk(OutQueue* out, const std::string& msg) {
  std::string chunk;
  AppendError(&chunk, msg);
  out->Append(std::move(chunk));
}

}  // namespace

// --- OutQueue -------------------------------------------------------------

void OutQueue::Append(std::string&& chunk) {
  if (chunk.empty()) return;
  bytes_ += chunk.size();
  // Merge tiny chunks (error replies, "+OK") into the tail so a flood of
  // them does not degenerate into thousands of near-empty iovecs.
  constexpr size_t kMergeBelow = 1024;
  constexpr size_t kMergeTailCap = 4096;
  if (!chunks_.empty() && chunk.size() < kMergeBelow &&
      chunks_.back().size() + chunk.size() <= kMergeTailCap) {
    chunks_.back().append(chunk);
    return;
  }
  chunks_.push_back(std::move(chunk));
}

size_t OutQueue::FillIov(struct iovec* iov, size_t max) const {
  size_t n = 0;
  size_t off = head_off_;
  for (const std::string& chunk : chunks_) {
    if (n == max) break;
    iov[n].iov_base = const_cast<char*>(chunk.data()) + off;
    iov[n].iov_len = chunk.size() - off;
    ++n;
    off = 0;
  }
  return n;
}

void OutQueue::Consume(size_t n) {
  bytes_ -= n;
  while (n > 0) {
    const size_t avail = chunks_.front().size() - head_off_;
    if (n < avail) {
      head_off_ += n;
      return;
    }
    n -= avail;
    chunks_.pop_front();
    head_off_ = 0;
  }
}

void OutQueue::Clear() {
  chunks_.clear();
  head_off_ = 0;
  bytes_ = 0;
}

// --- Connection -----------------------------------------------------------

Connection::Connection(IoShard* shard, int fd, uint64_t id)
    : shard_(shard), fd_(fd), id_(id) {}

void Connection::CompleteBatch(std::string&& output, bool close_after,
                               bool shutdown_server) {
  {
    common::MutexLock lock(&mu_);
    if (detached_) return;  // Peer already gone; nobody will read this.
    done_output_ = std::move(output);
    done_close_ = close_after;
    done_ = true;
  }
  // The owning shard finds us through the completion list it registered at
  // dispatch time (IoShard::TryDispatch); just wake it.
  if (shutdown_server) shard_->parent_->Stop();  // Stops EVERY shard.
  shard_->Notify();
}

// --- IoShard --------------------------------------------------------------

IoShard::IoShard(int index, const EventLoopOptions& options, EventLoop* parent)
    : index_(index), options_(options), parent_(parent) {}

IoShard::~IoShard() {
  if (listen_fd_ >= 0) close(listen_fd_);
  if (wake_fd_ >= 0) close(wake_fd_);
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

Status IoShard::Open() {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return Status::IOError(std::string("epoll_create1: ") + strerror(errno));
  }
  // eventfd wakeup: one fd instead of a pipe pair, and a single 8-byte
  // read drains any number of queued notifications.
  wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    return Status::IOError(std::string("eventfd: ") + strerror(errno));
  }
  struct epoll_event ev;
  memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return Status::IOError(std::string("epoll_ctl: ") + strerror(errno));
  }
  return Status::OK();
}

Status IoShard::OpenListener(uint16_t port, bool reuseport) {
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + strerror(errno));
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (reuseport) {
#ifdef SO_REUSEPORT
    // Must be set before bind: the kernel groups same-port listeners into
    // one accept-distribution pool only if every bind carried the flag.
    if (setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) !=
        0) {
      return Status::IOError(std::string("SO_REUSEPORT: ") + strerror(errno));
    }
#else
    return Status::InvalidArgument("SO_REUSEPORT unsupported on this OS");
#endif
  }

  sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen host: " + options_.host);
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::IOError(std::string("bind: ") + strerror(errno));
  }
  if (listen(listen_fd_, options_.backlog) != 0) {
    return Status::IOError(std::string("listen: ") + strerror(errno));
  }
  TIERBASE_RETURN_IF_ERROR(SetNonBlocking(listen_fd_));

  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return Status::IOError(std::string("getsockname: ") + strerror(errno));
  }
  listen_port_ = ntohs(addr.sin_port);

  // Level-triggered on purpose: if one epoll_wait batch ends before the
  // backlog empties, the next cycle re-reports it — no accept starvation.
  struct epoll_event ev;
  memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    return Status::IOError(std::string("epoll_ctl: ") + strerror(errno));
  }
  return Status::OK();
}

void IoShard::RequestStop() {
  stop_requested_.store(true, std::memory_order_release);
  Notify();
}

void IoShard::Notify() {
  if (wake_fd_ < 0) return;
  uint64_t one = 1;
  ssize_t unused = write(wake_fd_, &one, sizeof(one));
  (void)unused;
}

void IoShard::DrainWakeupChannel() {
  wakeups_.fetch_add(1, std::memory_order_relaxed);
  uint64_t count = 0;
  ssize_t unused = read(wake_fd_, &count, sizeof(count));
  (void)unused;  // eventfd read resets the counter; one read drains all.
}

void IoShard::AdoptConnection(int fd) {
  {
    common::MutexLock lock(&pending_mu_);
    if (!exited_) {
      pending_accepts_.push_back(fd);
      fd = -1;
    }
  }
  if (fd >= 0) {
    // This loop already ran its teardown; nobody would ever adopt (or
    // close) the socket, and its client would wait forever.
    close(fd);
    parent_->ReleaseConnection();
    return;
  }
  Notify();
}

void IoShard::DrainPendingAccepts() {
  std::vector<int> pending;
  {
    common::MutexLock lock(&pending_mu_);
    if (pending_accepts_.empty()) return;
    pending.swap(pending_accepts_);
  }
  const bool stopping = stop_requested_.load(std::memory_order_acquire);
  for (int fd : pending) {
    if (stopping) {
      // Hand-off raced with shutdown; the connection was admitted but
      // never served — release its admission slot.
      close(fd);
      parent_->ReleaseConnection();
      continue;
    }
    AddConnection(fd);
  }
}

void IoShard::AddConnection(int fd) {
  const uint64_t id =
      (static_cast<uint64_t>(index_ + 1) << 48) | next_conn_id_++;
  auto conn = std::make_shared<Connection>(this, fd, id);
  struct epoll_event ev;
  memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN | EPOLLET;
  ev.data.fd = fd;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    TB_LOG_WARN("server: epoll add failed: %s", strerror(errno));
    close(fd);
    parent_->ReleaseConnection();
    return;
  }
  conn->armed_events = EPOLLIN | EPOLLET;
  conns_.emplace(fd, std::move(conn));
  assigned_.fetch_add(1, std::memory_order_relaxed);
  active_.fetch_add(1, std::memory_order_relaxed);
}

void IoShard::AcceptNew() {
  for (;;) {
    int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      TB_LOG_WARN("server: accept failed: %s", strerror(errno));
      return;
    }
    if (!parent_->TryAdmitConnection()) {
      // Overload guard: answer with a clean error instead of silently
      // dropping the handshake. The fresh fd is still blocking (accepted
      // sockets do not inherit the listener's O_NONBLOCK on Linux), so the
      // short write either completes or fails immediately — never EAGAIN.
      static const char kReject[] = "-ERR max clients reached\r\n";
      ssize_t unused = send(fd, kReject, sizeof(kReject) - 1, MSG_NOSIGNAL);
      (void)unused;
      close(fd);
      rejected_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (!SetNonBlocking(fd).ok()) {
      close(fd);
      parent_->ReleaseConnection();
      continue;
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    setsockopt(fd, SOL_SOCKET, SO_KEEPALIVE, &one, sizeof(one));
    IoShard* target = parent_->PickShard(this);
    if (target == this) {
      AddConnection(fd);
    } else {
      target->AdoptConnection(fd);
    }
  }
}

bool IoShard::ConnAlive(int fd, const std::shared_ptr<Connection>& conn) const {
  auto it = conns_.find(fd);
  return it != conns_.end() && it->second == conn;
}

void IoShard::CloseConnection(const std::shared_ptr<Connection>& conn) {
  {
    // Detach first so an in-flight CompleteBatch discards its output
    // instead of waking the loop for a dead socket.
    common::MutexLock lock(&conn->mu_);
    conn->detached_ = true;
  }
  if (conn->busy) {
    // The peer died with a batch still executing; its completion will be
    // discarded via detach, so release the dispatch-queue slot here.
    conn->busy = false;
    inflight_.fetch_sub(1, std::memory_order_relaxed);
  }
  // close() also removes the fd from the epoll set.
  close(conn->fd_);
  conns_.erase(conn->fd_);
  active_.fetch_sub(1, std::memory_order_relaxed);
  parent_->ReleaseConnection();
}

void IoShard::UpdateInterest(const std::shared_ptr<Connection>& conn) {
  uint32_t want = EPOLLIN | EPOLLET;
  if (!conn->out.empty()) want |= EPOLLOUT;
  if (want == conn->armed_events) return;
  struct epoll_event ev;
  memset(&ev, 0, sizeof(ev));
  ev.events = want;
  ev.data.fd = conn->fd_;
  // EPOLL_CTL_MOD re-arms the edge trigger: if the socket is already
  // writable when EPOLLOUT is added, an event fires — no lost edge.
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd_, &ev);
  conn->armed_events = want;
}

bool IoShard::TryDispatch(const std::shared_ptr<Connection>& conn) {
  if (conn->busy || conn->closing || conn->in_buf.empty()) return true;

  std::vector<RespCommand> cmds;
  size_t consumed = 0;
  std::string error;
  const uint64_t parse_start = Clock::Real()->NowMicros();
  ParseResult r = ParseRequests(conn->in_buf.data(), conn->in_buf.size(),
                                &cmds, &consumed, &error);
  if (r == ParseResult::kError) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    AppendErrorChunk(&conn->out, "ERR Protocol error: " + error);
    conn->closing = true;  // Flush the error, then hang up (Redis-style).
    conn->in_buf.clear();
    return true;
  }
  if (cmds.empty()) {
    // Still drop what the parser consumed (blank inline keepalives), or
    // an idle-but-chatty client's buffer would grow and re-parse forever.
    if (consumed > 0) conn->in_buf.erase(0, consumed);
    return true;
  }

  if (options_.max_dispatch_inflight > 0 &&
      inflight_.load(std::memory_order_relaxed) >=
          options_.max_dispatch_inflight) {
    // Load shedding: THIS loop's dispatch queue is at its high watermark,
    // so answer each parsed command with -BUSY instead of queueing behind
    // work the loop is already failing to keep up with. The connection
    // stays open; the client decides when to retry. (The watermark is per
    // loop: a flooded shard sheds while its siblings keep serving.)
    std::string shed;
    for (size_t i = 0; i < cmds.size(); ++i) {
      AppendError(&shed, "BUSY dispatch queue full, retry later");
    }
    conn->out.Append(std::move(shed));
    busy_shed_.fetch_add(cmds.size(), std::memory_order_relaxed);
    conn->in_buf.erase(0, consumed);
    return true;
  }

  // Package the batch: the raw bytes move with it so the argument Slices
  // survive the trip to the executor thread. (One buffer copy per batch;
  // no per-argument copies. The Slices are rebased onto the batch's heap
  // buffer, which stays put through every later move of the batch.)
  CommandBatch batch;
  const char* old_base = conn->in_buf.data();
  batch.raw = std::make_unique<char[]>(consumed);
  memcpy(batch.raw.get(), old_base, consumed);
  batch.cmds = std::move(cmds);
  for (RespCommand& cmd : batch.cmds) {
    for (Slice& arg : cmd.args) {
      arg = Slice(batch.raw.get() + (arg.data() - old_base), arg.size());
    }
  }
  conn->in_buf.erase(0, consumed);
  conn->busy = true;
  batch.parse_micros = Clock::Real()->NowMicros() - parse_start;

  batches_.fetch_add(1, std::memory_order_relaxed);
  commands_.fetch_add(batch.cmds.size(), std::memory_order_relaxed);
  uint64_t prev = max_batch_.load(std::memory_order_relaxed);
  while (batch.cmds.size() > prev &&
         !max_batch_.compare_exchange_weak(prev, batch.cmds.size())) {
  }

  // Register for completion pickup before handing off: CompleteBatch may
  // run before the dispatcher returns.
  {
    common::MutexLock lock(&completions_mu_);
    completions_.push_back(conn);
  }
  inflight_.fetch_add(1, std::memory_order_relaxed);
  parent_->DispatchBatch(conn, std::move(batch));
  return true;
}

void IoShard::DrainCompletions() {
  std::vector<std::weak_ptr<Connection>> ready;
  {
    common::MutexLock lock(&completions_mu_);
    ready.swap(completions_);
  }
  std::vector<std::weak_ptr<Connection>> still_pending;
  for (auto& weak : ready) {
    std::shared_ptr<Connection> conn = weak.lock();
    if (conn == nullptr) continue;
    bool done = false;
    {
      common::MutexLock lock(&conn->mu_);
      if (conn->done_) {
        // The reply chunk moves into the scatter-output queue untouched —
        // no concatenation copy; writev sends it from where it lands.
        conn->out.Append(std::move(conn->done_output_));
        conn->done_output_.clear();
        conn->done_ = false;
        if (conn->done_close_) conn->closing = true;
        done = true;
      }
    }
    if (!done) {
      still_pending.push_back(std::move(weak));
      continue;
    }
    // Identity check, not just fd presence: the fd number may have been
    // reused by a newly accepted connection after this one closed.
    if (!ConnAlive(conn->fd_, conn)) continue;  // Peer died.
    if (conn->busy) {
      // (CloseConnection releases the slot for peers that died mid-batch.)
      conn->busy = false;
      inflight_.fetch_sub(1, std::memory_order_relaxed);
    }
    if (options_.max_out_buffer > 0 &&
        conn->out.bytes() > options_.max_out_buffer) {
      // Slow-consumer guard: replies are piling up faster than the peer
      // drains them. Checked here — after the batch's output lands, before
      // any flush attempt — so the decision is deterministic regardless of
      // kernel buffer sizes. Accounted by the owning loop, race-free.
      slow_consumer_.fetch_add(1, std::memory_order_relaxed);
      CloseConnection(conn);
      continue;
    }
    HandleWritable(conn);  // Opportunistic flush without waiting for EPOLLOUT.
    if (ConnAlive(conn->fd_, conn) && !conn->closing) {
      TryDispatch(conn);  // Pipeline input buffered during execution.
      if (ConnAlive(conn->fd_, conn)) UpdateInterest(conn);
    }
  }
  if (!still_pending.empty()) {
    common::MutexLock lock(&completions_mu_);
    for (auto& weak : still_pending) completions_.push_back(std::move(weak));
  }
}

void IoShard::HandleReadable(const std::shared_ptr<Connection>& conn) {
  char chunk[16384];
  for (;;) {
    ssize_t n = recv(conn->fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      conn->in_buf.append(chunk, static_cast<size_t>(n));
      // Enforce the buffer cap here, not in TryDispatch: while a batch is
      // in flight dispatch is skipped, and that is exactly when a
      // flooding client could otherwise grow in_buf without bound.
      if (conn->in_buf.size() > options_.max_read_buffer) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        AppendErrorChunk(&conn->out, "ERR Protocol error: request too large");
        conn->closing = true;
        conn->in_buf.clear();
        HandleWritable(conn);
        return;
      }
      // Keep reading until EAGAIN: the edge-triggered backend only
      // re-reports a socket after NEW bytes arrive, so a short read is not
      // proof the buffer is empty.
      continue;
    }
    if (n == 0) {
      // Peer closed — possibly mid-frame, possibly mid-dispatch. Tear the
      // connection down; CompleteBatch output is discarded via detach.
      CloseConnection(conn);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConnection(conn);
    return;
  }
  TryDispatch(conn);
  if (ConnAlive(conn->fd_, conn)) UpdateInterest(conn);
}

void IoShard::HandleWritable(const std::shared_ptr<Connection>& conn) {
  while (!conn->out.empty()) {
    struct iovec iov[kMaxIovPerWrite];
    const size_t cnt = conn->out.FillIov(iov, kMaxIovPerWrite);
    struct msghdr msg;
    memset(&msg, 0, sizeof(msg));
    msg.msg_iov = iov;
    msg.msg_iovlen = cnt;
    // sendmsg == scatter writev over the reply chunks, with MSG_NOSIGNAL
    // (plain writev(2) would raise SIGPIPE on a dead peer).
    ssize_t n = sendmsg(conn->fd_, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out.Consume(static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      UpdateInterest(conn);  // Kernel buffer full; arm EPOLLOUT.
      return;
    }
    CloseConnection(conn);
    return;
  }
  if (conn->closing && !conn->busy) {
    CloseConnection(conn);
    return;
  }
  UpdateInterest(conn);  // Drained: disarm EPOLLOUT.
}

bool IoShard::StoppingAndDrained() {
  if (!stop_requested_.load(std::memory_order_acquire)) return false;
  if (stop_seen_at_ == 0) {
    stop_seen_at_ = Clock::Real()->NowMicros();
    // Stop accepting at the kernel level too: without the close a
    // handshake would still complete against the listen backlog and
    // clients would see a connection that nobody ever serves.
    if (listen_fd_ >= 0) {
      close(listen_fd_);
      listen_fd_ = -1;
    }
  }
  // Refuse hand-offs that raced with the stop request.
  DrainPendingAccepts();
  // Done when nothing is left to flush or execute, or on deadline.
  bool pending = false;
  for (const auto& [fd, conn] : conns_) {
    (void)fd;
    if (conn->busy || !conn->out.empty()) {
      pending = true;
      break;
    }
  }
  if (!pending) return true;
  return Clock::Real()->NowMicros() - stop_seen_at_ >
         options_.drain_deadline_micros;
}

void IoShard::Run() {
  SetCurrentThreadName("tb-reactor-" + std::to_string(index_));
  constexpr int kMaxEvents = 128;
  struct epoll_event events[kMaxEvents];

  for (;;) {
    if (StoppingAndDrained()) break;

    int rc = epoll_wait(epoll_fd_, events, kMaxEvents,
                        options_.poll_interval_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      TB_LOG_ERROR("server: epoll_wait failed: %s", strerror(errno));
      break;
    }

    const bool stopping = stop_requested_.load(std::memory_order_acquire);
    for (int i = 0; i < rc; ++i) {
      const int fd = events[i].data.fd;
      const uint32_t ev = events[i].events;
      if (fd == wake_fd_) {
        DrainWakeupChannel();
        continue;
      }
      if (fd == listen_fd_) {
        if (!stopping) AcceptNew();
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // Closed earlier this cycle.
      std::shared_ptr<Connection> conn = it->second;
      if (ev & EPOLLERR) {
        CloseConnection(conn);
        continue;
      }
      if (ev & EPOLLIN) {
        HandleReadable(conn);
        if (!ConnAlive(fd, conn)) continue;
      } else if (ev & EPOLLHUP) {
        // EPOLLHUP without readable data: nothing more will arrive.
        CloseConnection(conn);
        continue;
      }
      if (ev & EPOLLOUT) HandleWritable(conn);
      if (ConnAlive(fd, conn)) UpdateInterest(conn);
    }

    DrainPendingAccepts();
    DrainCompletions();
  }

  // Teardown: every remaining socket closes (in-flight completions
  // detach), and any last hand-offs are refused.
  while (!conns_.empty()) {
    CloseConnection(conns_.begin()->second);
  }
  std::vector<int> pending;
  {
    common::MutexLock lock(&pending_mu_);
    pending.swap(pending_accepts_);
    exited_ = true;  // Later hand-offs are refused by AdoptConnection.
  }
  for (int fd : pending) {
    close(fd);
    parent_->ReleaseConnection();
  }
}

}  // namespace server
}  // namespace tierbase
