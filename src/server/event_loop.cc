#include "server/event_loop.h"

#include <algorithm>
#include <thread>

namespace tierbase {
namespace server {

EventLoop::EventLoop(EventLoopOptions options, Dispatcher dispatcher)
    : options_(std::move(options)), dispatcher_(std::move(dispatcher)) {}

EventLoop::~EventLoop() = default;

Status EventLoop::Listen() {
  const int n = std::max(1, std::min(options_.io_threads, 64));
  options_.io_threads = n;
#ifdef SO_REUSEPORT
  reuseport_ = options_.so_reuseport && n > 1;
#else
  reuseport_ = false;
#endif

  shards_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<IoShard>(i, options_, this));
    TIERBASE_RETURN_IF_ERROR(shards_.back()->Open());
  }

  // Shard 0 binds first (possibly to an ephemeral port); under
  // SO_REUSEPORT the siblings then bind the SAME resolved port so the
  // kernel distributes accepts across all of them. Without reuseport only
  // shard 0 listens and distributes accepts itself.
  TIERBASE_RETURN_IF_ERROR(shards_[0]->OpenListener(options_.port, reuseport_));
  port_ = shards_[0]->listen_port();
  if (reuseport_) {
    for (int i = 1; i < n; ++i) {
      TIERBASE_RETURN_IF_ERROR(shards_[i]->OpenListener(port_, true));
    }
  }
  return Status::OK();
}

void EventLoop::Run() {
  if (shards_.empty()) return;
  std::vector<std::thread> threads;
  threads.reserve(shards_.size() - 1);
  for (size_t i = 1; i < shards_.size(); ++i) {
    threads.emplace_back([shard = shards_[i].get()] { shard->Run(); });
  }
  // Shard 0 (the acceptor in non-reuseport mode) runs on the caller's
  // thread, preserving the classic "Run() on a dedicated thread" shape.
  shards_[0]->Run();
  for (std::thread& t : threads) t.join();
}

void EventLoop::Stop() {
  for (const std::unique_ptr<IoShard>& shard : shards_) {
    shard->RequestStop();
  }
}

bool EventLoop::TryAdmitConnection() {
  if (options_.max_connections == 0) {
    active_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  uint64_t cur = active_.load(std::memory_order_relaxed);
  while (cur < options_.max_connections) {
    if (active_.compare_exchange_weak(cur, cur + 1,
                                      std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

void EventLoop::ReleaseConnection() {
  active_.fetch_sub(1, std::memory_order_relaxed);
}

IoShard* EventLoop::PickShard(IoShard* accepting) {
  if (reuseport_ || shards_.size() == 1) return accepting;
  if (options_.accept_policy == AcceptPolicy::kLeastConnections) {
    IoShard* best = shards_[0].get();
    uint64_t best_n = best->connections_active();
    for (size_t i = 1; i < shards_.size(); ++i) {
      const uint64_t n = shards_[i]->connections_active();
      if (n < best_n) {
        best = shards_[i].get();
        best_n = n;
      }
    }
    return best;
  }
  // Round-robin, starting at shard 0 so single-connection tests land on
  // the acceptor loop deterministically.
  const uint64_t k = rr_next_.fetch_add(1, std::memory_order_relaxed);
  return shards_[k % shards_.size()].get();
}

uint64_t EventLoop::connections_accepted() const {
  uint64_t sum = 0;
  for (const auto& s : shards_) sum += s->connections_assigned();
  return sum;
}

uint64_t EventLoop::batches_dispatched() const {
  uint64_t sum = 0;
  for (const auto& s : shards_) sum += s->batches_dispatched();
  return sum;
}

uint64_t EventLoop::commands_dispatched() const {
  uint64_t sum = 0;
  for (const auto& s : shards_) sum += s->commands_dispatched();
  return sum;
}

uint64_t EventLoop::max_batch_commands() const {
  uint64_t m = 0;
  for (const auto& s : shards_) m = std::max(m, s->max_batch_commands());
  return m;
}

uint64_t EventLoop::protocol_errors() const {
  uint64_t sum = 0;
  for (const auto& s : shards_) sum += s->protocol_errors();
  return sum;
}

uint64_t EventLoop::connections_rejected() const {
  uint64_t sum = 0;
  for (const auto& s : shards_) sum += s->connections_rejected();
  return sum;
}

uint64_t EventLoop::slow_consumer_disconnects() const {
  uint64_t sum = 0;
  for (const auto& s : shards_) sum += s->slow_consumer_disconnects();
  return sum;
}

uint64_t EventLoop::busy_shed_commands() const {
  uint64_t sum = 0;
  for (const auto& s : shards_) sum += s->busy_shed_commands();
  return sum;
}

uint64_t EventLoop::dispatch_inflight() const {
  uint64_t sum = 0;
  for (const auto& s : shards_) sum += s->dispatch_inflight();
  return sum;
}

uint64_t EventLoop::loop_wakeups() const {
  uint64_t sum = 0;
  for (const auto& s : shards_) sum += s->wakeups();
  return sum;
}

}  // namespace server
}  // namespace tierbase
