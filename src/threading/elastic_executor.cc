#include "threading/elastic_executor.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "common/thread_name.h"

namespace tierbase {
namespace threading {

int ScalePolicy::Step(size_t depth, uint64_t completed, int threads) {
  // Stall detection: work is queued but nothing completed for a whole
  // control interval — every worker is blocked (a WAIT command polling for
  // replica acks, a slow storage flush). Activate a reserve thread even
  // though the queue is shallow, or the blocked worker starves the very
  // commands (e.g. REPLPULL) that would unblock it.
  const bool stalled = depth > 0 && completed == last_completed_;
  last_completed_ = completed;
  const bool hot = depth >= options_.scale_up_depth || stalled;
  const bool calm = !hot && depth <= options_.scale_down_depth;

  if (hot && threads < options_.max_threads) {
    down_votes_ = 0;
    if (++up_votes_ < kUpVotes) return threads;
    up_votes_ = 0;
    return threads + 1;
  }
  up_votes_ = 0;
  if (!calm || threads <= 1) {
    down_votes_ = 0;
    return threads;
  }
  if (++down_votes_ < options_.down_votes) return threads;
  down_votes_ = 0;
  return threads - 1;
}

ElasticExecutor::ElasticExecutor(ElasticOptions options)
    : options_(options) {
  options_.max_threads = std::max(1, options_.max_threads);
  const int workers =
      options_.mode == ThreadMode::kSingle ? 1 : options_.max_threads;
  desired_threads_ = options_.mode == ThreadMode::kMulti ? workers : 1;
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back(&ElasticExecutor::WorkerLoop, this, i);
  }
  if (options_.mode == ThreadMode::kElastic) {
    controller_ = std::thread(&ElasticExecutor::ControlLoop, this);
  }
}

ElasticExecutor::~ElasticExecutor() { Shutdown(); }

void ElasticExecutor::Submit(Task task) {
  common::MutexLock lock(&mu_);
  while (!shutdown_ && queue_.size() >= kMaxQueue) {
    space_cv_.Wait();
  }
  if (shutdown_) return;
  queue_.push_back(std::move(task));
  task_cv_.Signal();
}

void ElasticExecutor::Execute(const Task& task) {
  common::Mutex done_mu;
  common::CondVar done_cv(&done_mu);
  bool done = false;
  Submit([&] {
    task();
    // Notify while holding the lock: the waiter owns done_cv on its
    // stack, and may only destroy it once it re-acquires done_mu — which
    // this critical section delays until Signal has completed.
    common::MutexLock lock(&done_mu);
    done = true;
    done_cv.Signal();
  });
  common::MutexLock lock(&done_mu);
  while (!done) done_cv.Wait();
}

void ElasticExecutor::WorkerLoop(int worker_id) {
  SetCurrentThreadName("tb-exec-" + std::to_string(worker_id));
  while (true) {
    Task task;
    {
      common::MutexLock lock(&mu_);
      while (true) {
        const bool active = worker_id < desired_threads_;
        if (active && !queue_.empty()) break;
        // Active workers drain the queue before leaving; worker 0 is
        // always active, so parked workers may leave at once.
        if (shutdown_ && (!active || queue_.empty())) return;
        (active ? task_cv_ : park_cv_).Wait();
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      space_cv_.Signal();
    }
    task();
    completed_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ElasticExecutor::ControlLoop() {
  common::MutexLock lock(&mu_);
  ScalePolicy policy(options_, completed_.load(std::memory_order_relaxed));
  while (true) {
    // Shutdown signals control_cv_, so it never waits out an interval.
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::microseconds(options_.control_interval_micros);
    while (!shutdown_ && control_cv_.WaitUntil(deadline)) {
    }
    if (shutdown_) return;
    const int before = desired_threads_;
    desired_threads_ =
        policy.Step(queue_.size(), completed_.load(std::memory_order_relaxed),
                    desired_threads_);
    if (desired_threads_ > before) {
      scale_ups_.fetch_add(1, std::memory_order_relaxed);
      park_cv_.SignalAll();
    } else if (desired_threads_ < before) {
      scale_downs_.fetch_add(1, std::memory_order_relaxed);
      // Move newly parked workers off task_cv_, where they would swallow
      // Submit's Signal.
      task_cv_.SignalAll();
    }
  }
}

void ElasticExecutor::Shutdown() {
  {
    common::MutexLock lock(&mu_);
    if (shutdown_) return;
    shutdown_ = true;
    task_cv_.SignalAll();
    park_cv_.SignalAll();
    space_cv_.SignalAll();
    control_cv_.Signal();
  }
  if (controller_.joinable()) controller_.join();
  for (auto& w : workers_) w.join();
}

}  // namespace threading
}  // namespace tierbase
