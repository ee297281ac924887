// Tests for elastic threading (paper §4.4): single/multi/elastic modes,
// the controller's scripted decisions (ScalePolicy), scale-up under
// sustained load, scale-down when load subsides, and the synchronous
// Execute path.

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "threading/elastic_executor.h"

namespace tierbase {
namespace threading {
namespace {

TEST(ElasticExecutorTest, SingleModeRunsEverything) {
  ElasticOptions options;
  options.mode = ThreadMode::kSingle;
  ElasticExecutor executor(options);
  std::atomic<int> counter{0};
  for (int i = 0; i < 1000; ++i) {
    executor.Submit([&] { counter.fetch_add(1); });
  }
  executor.Shutdown();
  EXPECT_EQ(counter.load(), 1000);
  EXPECT_EQ(executor.completed(), 1000u);
}

TEST(ElasticExecutorTest, SingleModeStaysSingleThreaded) {
  ElasticOptions options;
  options.mode = ThreadMode::kSingle;
  ElasticExecutor executor(options);
  std::atomic<int> concurrent{0}, max_seen{0};
  for (int i = 0; i < 200; ++i) {
    executor.Submit([&] {
      int now = concurrent.fetch_add(1) + 1;
      int prev = max_seen.load();
      while (now > prev && !max_seen.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      concurrent.fetch_sub(1);
    });
  }
  executor.Shutdown();
  EXPECT_EQ(max_seen.load(), 1);
}

TEST(ElasticExecutorTest, MultiModeUsesAllThreads) {
  ElasticOptions options;
  options.mode = ThreadMode::kMulti;
  options.max_threads = 4;
  ElasticExecutor executor(options);
  std::atomic<int> concurrent{0}, max_seen{0};
  for (int i = 0; i < 400; ++i) {
    executor.Submit([&] {
      int now = concurrent.fetch_add(1) + 1;
      int prev = max_seen.load();
      while (now > prev && !max_seen.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      concurrent.fetch_sub(1);
    });
  }
  executor.Shutdown();
  EXPECT_GE(max_seen.load(), 2);
  EXPECT_LE(max_seen.load(), 4);
}

TEST(ElasticExecutorTest, ElasticScalesUpUnderLoad) {
  ElasticOptions options;
  options.mode = ThreadMode::kElastic;
  options.max_threads = 4;
  options.scale_up_depth = 16;
  options.control_interval_micros = 2000;
  ElasticExecutor executor(options);
  EXPECT_EQ(executor.active_threads(), 1);

  // Saturate: tasks arrive faster than one thread can drain.
  std::atomic<bool> stop{false};
  std::thread producer([&] {
    while (!stop.load()) {
      executor.Submit(
          [] { std::this_thread::sleep_for(std::chrono::microseconds(500)); });
    }
  });
  // Wait for the controller to add threads.
  for (int i = 0; i < 500 && executor.active_threads() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  int boosted = executor.active_threads();
  stop.store(true);
  producer.join();
  executor.Shutdown();
  EXPECT_GT(boosted, 1);
  EXPECT_GE(executor.scale_ups(), 1u);
}

TEST(ElasticExecutorTest, ElasticScalesBackDownWhenIdle) {
  ElasticOptions options;
  options.mode = ThreadMode::kElastic;
  options.max_threads = 4;
  options.scale_up_depth = 8;
  options.scale_down_depth = 2;
  options.control_interval_micros = 500;
  options.down_votes = 3;
  ElasticExecutor executor(options);

  // Burst to force scale-up.
  for (int i = 0; i < 2000; ++i) {
    executor.Submit(
        [] { std::this_thread::sleep_for(std::chrono::microseconds(200)); });
  }
  for (int i = 0; i < 500 && executor.active_threads() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(executor.active_threads(), 1);

  // Go idle; the controller should retire the extra threads.
  for (int i = 0; i < 1000 && executor.active_threads() > 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(executor.active_threads(), 1);
  EXPECT_GE(executor.scale_downs(), 1u);
  executor.Shutdown();
}

// --- ScalePolicy: the controller's per-interval step, scripted. --------
// Each sample is (queue depth, cumulative completions) at the end of one
// interval; completions advance unless a test scripts a stall.

ElasticOptions PolicyOptions() {
  ElasticOptions options;
  options.max_threads = 4;
  options.scale_up_depth = 8;
  options.scale_down_depth = 2;
  options.down_votes = 3;
  return options;
}

TEST(ScalePolicyTest, ScalesUpAfterExactlyTwoOverDepthIntervals) {
  static_assert(ScalePolicy::kUpVotes == 2, "script assumes two votes");
  ScalePolicy policy(PolicyOptions());
  uint64_t done = 0;
  EXPECT_EQ(policy.Step(8, done += 10, 1), 1);  // One vote: no change.
  EXPECT_EQ(policy.Step(5, done += 10, 1), 1);  // Neither hot nor calm.
  EXPECT_EQ(policy.Step(9, done += 10, 1), 1);  // Votes restart at one.
  EXPECT_EQ(policy.Step(9, done += 10, 1), 2);  // Second in a row: up.
  EXPECT_EQ(policy.Step(9, done += 10, 2), 2);  // A new count starts.
  EXPECT_EQ(policy.Step(9, done += 10, 2), 3);
}

TEST(ScalePolicyTest, StallAddsThreadBelowScaleUpDepth) {
  ScalePolicy policy(PolicyOptions(), /*completed=*/100);
  // Shallow queue, flat completions: every worker is blocked.
  EXPECT_EQ(policy.Step(1, 100, 1), 1);
  EXPECT_EQ(policy.Step(1, 100, 1), 2);
  // The same depth with completions moving is not a stall.
  EXPECT_EQ(policy.Step(1, 150, 2), 2);
  EXPECT_EQ(policy.Step(1, 200, 2), 2);
  // An idle pool (nothing queued, nothing completing) is not a stall.
  ScalePolicy idle(PolicyOptions(), 100);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(idle.Step(0, 100, 1), 1);
}

TEST(ScalePolicyTest, ScalesDownAfterCalmIntervalsAndOverDepthResets) {
  ScalePolicy policy(PolicyOptions());
  uint64_t done = 0;
  EXPECT_EQ(policy.Step(0, done += 10, 3), 3);
  EXPECT_EQ(policy.Step(2, done += 10, 3), 3);
  EXPECT_EQ(policy.Step(8, done += 10, 3), 3);  // Over depth: count resets.
  EXPECT_EQ(policy.Step(0, done += 10, 3), 3);
  EXPECT_EQ(policy.Step(0, done += 10, 3), 3);
  EXPECT_EQ(policy.Step(0, done += 10, 3), 2);  // Third calm in a row.
  EXPECT_EQ(policy.Step(0, done += 10, 2), 2);  // A new count starts.
  EXPECT_EQ(policy.Step(0, done += 10, 2), 2);
  EXPECT_EQ(policy.Step(0, done += 10, 2), 1);
}

TEST(ScalePolicyTest, StaysWithinOneAndMaxThreads) {
  ScalePolicy policy(PolicyOptions());
  uint64_t done = 0;
  for (int i = 0; i < 20; ++i) EXPECT_EQ(policy.Step(100, done += 1, 4), 4);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(policy.Step(1, done, 4), 4);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(policy.Step(0, done += 1, 1), 1);
  // Feed the step its own output through bursts, stalls and calm.
  const size_t depths[] = {100, 100, 100, 0, 3, 1, 1, 50, 0, 0, 0, 0};
  int threads = 1;
  for (int round = 0; round < 50; ++round) {
    for (size_t depth : depths) {
      if (round % 3 != 0) done += 1;  // Every third round stalls.
      threads = policy.Step(depth, done, threads);
      ASSERT_GE(threads, 1);
      ASSERT_LE(threads, 4);
    }
  }
}

TEST(ElasticExecutorTest, ShutdownDoesNotWaitOutControlInterval) {
  ElasticOptions options;
  options.mode = ThreadMode::kElastic;
  options.control_interval_micros = 5'000'000;
  ElasticExecutor executor(options);
  std::atomic<int> counter{0};
  for (int i = 0; i < 10; ++i) executor.Submit([&] { counter.fetch_add(1); });
  auto start = std::chrono::steady_clock::now();
  executor.Shutdown();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  EXPECT_EQ(counter.load(), 10);
}

TEST(ElasticExecutorTest, ParkedWorkersDoNotSwallowWakeups) {
  // One active worker and three parked ones: every Submit's wakeup must
  // reach the active worker, or Execute hangs.
  ElasticOptions options;
  options.mode = ThreadMode::kElastic;
  options.max_threads = 4;
  options.control_interval_micros = 60'000'000;  // The gate never moves.
  ElasticExecutor executor(options);
  ASSERT_EQ(executor.active_threads(), 1);
  std::atomic<bool> give_up{false};
  std::atomic<int> ran{0};
  std::promise<void> finished;
  std::thread caller([&] {
    for (int i = 0; i < 10'000 && !give_up.load(); ++i) {
      executor.Execute([&] { ran.fetch_add(1); });
    }
    finished.set_value();
  });
  auto done = finished.get_future();
  const bool hung =
      done.wait_for(std::chrono::seconds(30)) != std::future_status::ready;
  EXPECT_EQ(executor.active_threads(), 1);
  // Past the deadline, Shutdown's broadcast releases a stuck call, so a
  // lost wakeup fails the test instead of hanging it.
  give_up.store(true);
  executor.Shutdown();
  caller.join();
  EXPECT_FALSE(hung) << "Execute hung after " << ran.load() << " calls";
  EXPECT_EQ(ran.load(), 10'000);
}

TEST(ElasticExecutorTest, ExecuteIsSynchronous) {
  ElasticOptions options;
  options.mode = ThreadMode::kSingle;
  ElasticExecutor executor(options);
  int value = 0;
  executor.Execute([&] { value = 42; });
  EXPECT_EQ(value, 42);  // Visible immediately after Execute returns.
  executor.Shutdown();
}

TEST(ElasticExecutorTest, ExecuteFromManyClients) {
  ElasticOptions options;
  options.mode = ThreadMode::kElastic;
  options.max_threads = 4;
  options.control_interval_micros = 2000;
  ElasticExecutor executor(options);
  std::atomic<int> done{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 8; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        executor.Execute([&] { done.fetch_add(1); });
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(done.load(), 1600);
  executor.Shutdown();
}

TEST(ElasticExecutorTest, ShutdownIsIdempotentAndDrains) {
  ElasticExecutor executor;
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) executor.Submit([&] { counter.fetch_add(1); });
  executor.Shutdown();
  executor.Shutdown();  // Second call is a no-op.
  EXPECT_EQ(counter.load(), 100);
}

TEST(ElasticExecutorTest, DestructorShutsDown) {
  std::atomic<int> counter{0};
  {
    ElasticExecutor executor;
    for (int i = 0; i < 50; ++i) executor.Submit([&] { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ElasticExecutorTest, MultiModeThroughputExceedsSingle) {
  // The premise of Fig 9: multi-thread mode has higher peak throughput on
  // CPU-bound work. Use a busy-spin task so threads actually burn CPU.
  if (std::thread::hardware_concurrency() < 2) {
    GTEST_SKIP() << "needs >=2 CPUs for parallel speedup";
  }
  auto run = [](ThreadMode mode, int max_threads) {
    ElasticOptions options;
    options.mode = mode;
    options.max_threads = max_threads;
    ElasticExecutor executor(options);
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < 3000; ++i) {
      executor.Submit([] { BusySpinNanos(20000); });
    }
    executor.Shutdown();
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  auto single_ms = run(ThreadMode::kSingle, 1);
  auto multi_ms = run(ThreadMode::kMulti, 4);
  EXPECT_LT(multi_ms, single_ms);
}

}  // namespace
}  // namespace threading
}  // namespace tierbase

// Regression: Execute once raced the worker's notify_one against the
// waiter destroying the stack-allocated condition variable (TSAN-caught).
// Churn Execute from many clients through repeated scale-up/down cycles.
namespace tierbase {
namespace threading {
namespace {

TEST(ElasticExecutorTest, ExecuteChurnUnderElasticScaling) {
  ElasticOptions options;
  options.mode = ThreadMode::kElastic;
  options.max_threads = 4;
  options.scale_up_depth = 4;
  options.scale_down_depth = 1;
  options.control_interval_micros = 1000;
  options.down_votes = 2;
  ElasticExecutor executor(options);
  std::atomic<uint64_t> ops{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 8; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < 3000; ++i) {
        executor.Execute([&] { ops.fetch_add(1, std::memory_order_relaxed); });
        if (i % 500 == 499) {
          // Let the controller retire threads, then load again.
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ops.load(), 8u * 3000u);
  executor.Shutdown();
}

}  // namespace
}  // namespace threading
}  // namespace tierbase
