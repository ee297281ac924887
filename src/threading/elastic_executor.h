// Elastic threading (paper §4.4): a TierBase data node normally runs one
// event-loop thread per instance (best CPU efficiency, lowest performance
// cost). When the workload on the instance spikes, idle "RPC threads"
// pre-allocated inside the container are activated to boost throughput
// without external scaling; when the spike subsides the node reverts to
// single-threaded mode, releasing CPU back to co-located instances.
//
// This module models the mechanism directly: an MPMC command queue served
// by a parked pool. The constructor starts every worker once; worker i
// takes tasks only while i < desired_threads_, and the rest park on their
// own condvar. Scaling moves that gate, never creates a thread.
//   * kSingle:  1 worker, always active (Redis-like event loop).
//   * kMulti:   max_threads workers, all active (Memcached/Dragonfly-like).
//   * kElastic: max_threads workers, 1..max_threads active, set each
//               interval by a queue-depth controller (ScalePolicy::Step).

#ifndef TIERBASE_THREADING_ELASTIC_EXECUTOR_H_
#define TIERBASE_THREADING_ELASTIC_EXECUTOR_H_

#include <atomic>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace tierbase {
namespace threading {

enum class ThreadMode {
  kSingle,
  kMulti,
  kElastic,
};

struct ElasticOptions {
  ThreadMode mode = ThreadMode::kElastic;
  /// Container CPU budget: the max threads elastic/multi mode may use.
  int max_threads = 4;
  /// Queue depth that triggers scale-up when sustained.
  size_t scale_up_depth = 32;
  /// Queue depth under which an extra thread is parked.
  size_t scale_down_depth = 4;
  /// Controller evaluation period.
  uint64_t control_interval_micros = 20'000;  // 20 ms.
  /// Consecutive calm evaluations required to park a thread.
  int down_votes = 10;
};

/// The elastic controller's per-interval decision, apart from the executor
/// so tests can drive it with scripted samples.
class ScalePolicy {
 public:
  /// Consecutive hot intervals required to add a thread (debounces bursts).
  static constexpr int kUpVotes = 2;

  explicit ScalePolicy(const ElasticOptions& options, uint64_t completed = 0)
      : options_(options), last_completed_(completed) {}

  /// Takes an interval's closing queue depth and cumulative completion
  /// count and its active thread count; returns the next interval's count.
  int Step(size_t depth, uint64_t completed, int threads);

 private:
  const ElasticOptions options_;
  int up_votes_ = 0;
  int down_votes_ = 0;
  uint64_t last_completed_;
};

/// A unit of work; the executor runs it on one of its worker threads.
using Task = std::function<void()>;

class ElasticExecutor {
 public:
  /// Submit blocks when the queue holds this many tasks (backpressure).
  static constexpr size_t kMaxQueue = 65536;

  explicit ElasticExecutor(ElasticOptions options = {});
  ~ElasticExecutor();

  ElasticExecutor(const ElasticExecutor&) = delete;
  ElasticExecutor& operator=(const ElasticExecutor&) = delete;

  /// Enqueues a task; blocks if the queue is full (client backpressure).
  void Submit(Task task);

  /// Enqueues and waits for the task to finish (the synchronous RPC shape
  /// used by the benchmark clients; queueing delay is thus part of the
  /// observed latency, as it would be on a real server).
  void Execute(const Task& task);

  /// Drains the queue and joins all threads. Idempotent.
  void Shutdown();

  /// Workers allowed to take tasks (the rest are parked).
  int active_threads() const {
    common::MutexLock lock(&mu_);
    return desired_threads_;
  }
  size_t queue_depth() const {
    common::MutexLock lock(&mu_);
    return queue_.size();
  }
  uint64_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }
  /// Number of scale-up events (the elastic "boost" activations).
  uint64_t scale_ups() const { return scale_ups_.load(); }
  uint64_t scale_downs() const { return scale_downs_.load(); }

 private:
  // Lock ordering. `mu_` is the executor's only lock; it protects the
  // queue and the gate. It is NEVER held while a task runs, so every lock
  // a task takes (Execute()'s per-call completion mutex included) is
  // ordered AFTER mu_ and can never form a cycle with it.
  void WorkerLoop(int worker_id);
  void ControlLoop();

  ElasticOptions options_;

  mutable common::Mutex mu_;
  // Submit's Signal reaches only workers allowed to run the task.
  common::CondVar task_cv_{&mu_};     // Active workers wait for tasks.
  common::CondVar park_cv_{&mu_};     // Parked workers wait for the gate.
  common::CondVar space_cv_{&mu_};    // Producers wait for queue space.
  common::CondVar control_cv_{&mu_};  // The controller's interval timer.
  std::deque<Task> queue_ GUARDED_BY(mu_);
  bool shutdown_ GUARDED_BY(mu_) = false;
  int desired_threads_ GUARDED_BY(mu_) = 1;

  std::vector<std::thread> workers_;  // Fixed after construction.
  std::thread controller_;

  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> scale_ups_{0};
  std::atomic<uint64_t> scale_downs_{0};
};

}  // namespace threading
}  // namespace tierbase

#endif  // TIERBASE_THREADING_ELASTIC_EXECUTOR_H_
