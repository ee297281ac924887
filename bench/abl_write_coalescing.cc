// Ablation: write coalescing (§4.1.1). google-benchmark microbenchmark of
// the per-key coalescer with coalescing on vs off, under hot-key
// contention — the mechanism that lowers PC_miss for write-through.

#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>

#include "common/random.h"
#include "core/storage_adapter.h"
#include "core/write_through.h"

namespace tierbase {
namespace {

void BM_Coalescer(benchmark::State& state) {
  const bool coalesce = state.range(0) != 0;
  const int hot_keys = static_cast<int>(state.range(1));

  // Storage writes pay a fixed simulated remote latency (a 20us off-CPU wait
  // per call); the coalescer's value is collapsing redundant remote writes.
  MockStorageAdapter mock;
  RemoteStorageAdapter storage(&mock, /*rtt_micros=*/20);
  PerKeyCoalescer coalescer(&storage, coalesce);

  std::atomic<uint64_t> ops{0};
  for (auto _ : state) {
    state.PauseTiming();
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    state.ResumeTiming();
    for (int t = 0; t < 8; ++t) {
      writers.emplace_back([&, t] {
        Random rng(t);
        for (int i = 0; i < 500; ++i) {
          std::string key = "hot" + std::to_string(rng.Uniform(hot_keys));
          std::vector<Status> statuses;
          coalescer.WriteBatch({key}, {"value"}, false, &statuses);
          ops.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (auto& w : writers) w.join();
    (void)stop;
  }
  const uint64_t storage_writes = storage.counters().writes;
  state.counters["ops"] = static_cast<double>(ops.load());
  state.counters["storage_writes"] = static_cast<double>(storage_writes);
  state.counters["coalesced_frac"] =
      ops.load() == 0 ? 0.0
                      : 1.0 - static_cast<double>(storage_writes) /
                                  static_cast<double>(ops.load());
}

BENCHMARK(BM_Coalescer)
    ->ArgsProduct({{0, 1}, {1, 16, 256}})
    ->ArgNames({"coalesce", "hot_keys"})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

}  // namespace
}  // namespace tierbase

BENCHMARK_MAIN();
