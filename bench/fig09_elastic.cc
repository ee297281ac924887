// Figure 9: elastic threading under a workload burst. A 12-second schedule
// (scaled down from the paper's 60 s): low offered load, then a burst at
// t=3 s for 6 s, then back to normal. Reported: per-second throughput for
// TierBase-s / TierBase-e / TierBase-m and Redis-s / Redis-m.

#include <atomic>
#include <thread>

#include "bench_common.h"
#include "common/clock.h"

namespace tierbase {
namespace bench {
namespace {

constexpr int kSeconds = 12;
constexpr int kBurstStart = 3;
constexpr int kBurstEnd = 9;
constexpr double kNormalQps = 30000;
constexpr int kClientThreads = 8;

// Drives `engine` on the burst schedule; returns per-second completed ops.
std::vector<double> RunSchedule(KvEngine* engine) {
  std::atomic<uint64_t> completed{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> burst{false};

  std::vector<std::thread> clients;
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      Random rng(1000 + t);
      workload::DatasetOptions dataset;
      uint64_t issued = 0;
      Stopwatch watch;
      bool was_burst = false;
      while (!stop.load(std::memory_order_relaxed)) {
        std::string key = workload::KeyFor(rng.Uniform(5000));
        std::string value;
        if (rng.Bernoulli(0.5)) {
          engine->Set(key, workload::MakeRecord(dataset, issued % 5000));
        } else {
          engine->Get(key, &value);
        }
        completed.fetch_add(1, std::memory_order_relaxed);
        ++issued;
        bool bursting = burst.load(std::memory_order_relaxed);
        if (was_burst && !bursting) {
          // Burst over: restart the pacing baseline, otherwise the surplus
          // issued during the burst would stall the throttle for minutes.
          issued = 0;
          watch = Stopwatch();
        }
        was_burst = bursting;
        if (!bursting) {
          // Throttle to the normal per-thread rate; during the burst run
          // unthrottled (the paper's "surge in client requests").
          double target = kNormalQps / kClientThreads;
          double expected = watch.ElapsedSeconds() * target;
          if (static_cast<double>(issued) > expected) {
            Clock::Real()->SleepMicros(static_cast<uint64_t>(
                1e6 * (issued - expected) / target));
          }
        }
      }
    });
  }

  std::vector<double> per_second;
  uint64_t last = 0;
  for (int s = 0; s < kSeconds; ++s) {
    burst.store(s >= kBurstStart && s < kBurstEnd);
    Clock::Real()->SleepMicros(1'000'000);
    uint64_t now = completed.load();
    per_second.push_back(static_cast<double>(now - last) / 1000.0);
    last = now;
  }
  stop.store(true);
  for (auto& t : clients) t.join();
  return per_second;
}

void Run() {
  using threading::ThreadMode;
  struct System {
    std::string name;
    std::function<std::unique_ptr<KvEngine>()> make;
  };
  std::vector<System> systems = {
      {"TierBase-s",
       [] { return MakeThreadedEngine(ThreadMode::kSingle, 1, "tb-s", 4); }},
      {"TierBase-e",
       [] { return MakeThreadedEngine(ThreadMode::kElastic, 4, "tb-e", 4); }},
      {"TierBase-m",
       [] { return MakeThreadedEngine(ThreadMode::kMulti, 4, "tb-m", 4); }},
      // Redis goes through the same executor substrate so the series are
      // comparable; its multi-thread mode models Redis 6's IO threads.
      {"Redis-s",
       [] {
         return WrapWithExecutor(baselines::MakeRedisLike(),
                                 ThreadMode::kSingle, 1, "redis-s");
       }},
      {"Redis-m",
       [] {
         return WrapWithExecutor(baselines::MakeRedisLike(),
                                 ThreadMode::kMulti, 4, "redis-m");
       }},
  };

  PrintHeader("Figure 9: throughput (kQPS) timeline under a burst");
  printf("%-12s", "t(s)");
  for (int s = 0; s < kSeconds; ++s) printf(" %6d", s);
  printf("   burst window: [%d, %d)\n", kBurstStart, kBurstEnd);

  for (const auto& system : systems) {
    auto engine = system.make();
    auto series = RunSchedule(engine.get());
    printf("%-12s", system.name.c_str());
    for (double kqps : series) printf(" %6.0f", kqps);
    auto* exec_engine = dynamic_cast<ExecutorEngine*>(engine.get());
    if (exec_engine != nullptr) {
      const auto* executor = exec_engine->executor();
      printf("   (scale-ups: %llu, scale-downs: %llu)",
             static_cast<unsigned long long>(executor->scale_ups()),
             static_cast<unsigned long long>(executor->scale_downs()));
    }
    printf("\n");
  }
  printf(
      "\nExpected shape (paper Fig 9): all systems serve the normal load;\n"
      "during the burst TierBase-s plateaus at its single-thread limit,\n"
      "TierBase-e climbs to TierBase-m's level after the controller adds\n"
      "threads, then returns to single-thread mode when the burst ends.\n");
}

}  // namespace
}  // namespace bench
}  // namespace tierbase

int main() {
  tierbase::bench::Run();
  return 0;
}
