// Capital Reconciliation (paper §6.5 case 2): a 1:1 read:write risk-
// control workload with strong temporal skew — recent records are hot,
// the long tail is read occasionally. The cost-effective answer is
// cache-storage disaggregation: a small cache tier in front of the LSM
// storage tier with write-back batching.
//
// The example runs the trace against write-through and write-back tiered
// configurations, reports hit ratios and storage-tier call reductions, and
// solves for the optimal cache ratio with the Theorem-5.1 machinery.

#include <cstdio>

#include "common/env.h"
#include "core/storage_adapter.h"
#include "core/tierbase.h"
#include "costmodel/mrc.h"
#include "costmodel/tiered.h"
#include "workload/trace.h"

using namespace tierbase;

namespace {

struct TieredRun {
  double throughput = 0;
  double hit_ratio = 0;
  uint64_t storage_writes = 0;
  uint64_t storage_batch_calls = 0;
};

TieredRun RunPolicy(CachingPolicy policy, const workload::Trace& trace,
                    const std::string& dir, size_t cache_budget) {
  lsm::LsmOptions lsm_options;
  lsm_options.dir = dir;
  auto storage = LsmStorageAdapter::Open(lsm_options);
  // The storage tier is disaggregated: every call pays an RPC round trip.
  RemoteStorageAdapter remote(storage->get(), /*rtt_micros=*/100);

  TierBaseOptions options;
  options.policy = policy;
  options.cache.memory_budget = cache_budget;
  options.cache.shards = 4;
  // Keep the dirty set well under the cache budget ("Managing Dirty
  // Data", §4.1.2): the dirty buffer's value copies sit outside it.
  options.write_back.flush_threshold = 256;
  options.write_back.max_dirty = 512;
  options.write_back.max_batch = 256;
  auto db = TierBase::Open(options, &remote);

  // Preload so reads of old keys hit the storage tier, not NotFound.
  for (uint64_t i = 0; i < trace.key_space; ++i) {
    (*db)->Set(workload::KeyFor(i),
               workload::MakeRecord(trace.dataset, i));
  }
  (*db)->WaitIdle();
  auto before = remote.counters();

  auto result = workload::ReplayTrace(db->get(), trace, /*threads=*/4);
  (*db)->WaitIdle();
  auto after = remote.counters();

  TieredRun run;
  run.throughput = result.throughput;
  run.hit_ratio = (*db)->hit_ratio();
  run.storage_writes = after.writes - before.writes;
  run.storage_batch_calls = after.batch_calls - before.batch_calls;
  return run;
}

}  // namespace

int main() {
  std::string dir = env::MakeTempDir("tb_reconciliation");

  workload::SynthesizeOptions trace_options;
  trace_options.profile = workload::TraceProfile::kReconciliation;
  trace_options.num_ops = 60000;
  trace_options.key_space = 15000;
  trace_options.dataset.kind = workload::DatasetKind::kKv2;
  trace_options.dataset.num_records = 15000;
  workload::Trace trace = workload::SynthesizeTrace(trace_options);
  printf("trace: %zu ops, read fraction %.2f (target 1:1)\n",
         trace.ops.size(), trace.ReadFraction());

  // Cache sized to ~10%% of the data: the paper reports ~80%% hit rate
  // with only the hottest slice cached, thanks to temporal skew.
  const size_t cache_budget = 15000 * 200 / 10;

  TieredRun wt = RunPolicy(CachingPolicy::kWriteThrough, trace,
                           dir + "/wt", cache_budget);
  TieredRun wb = RunPolicy(CachingPolicy::kWriteBack, trace, dir + "/wb",
                           cache_budget);

  printf("\n%-14s %14s %10s %16s %14s\n", "policy", "throughput", "hits",
         "storage writes", "batch calls");
  printf("%-14s %14.0f %9.0f%% %16llu %14llu\n", "write-through",
         wt.throughput, wt.hit_ratio * 100,
         static_cast<unsigned long long>(wt.storage_writes),
         static_cast<unsigned long long>(wt.storage_batch_calls));
  printf("%-14s %14.0f %9.0f%% %16llu %14llu\n", "write-back", wb.throughput,
         wb.hit_ratio * 100, static_cast<unsigned long long>(wb.storage_writes),
         static_cast<unsigned long long>(wb.storage_batch_calls));
  printf("\nwrite-back speedup over write-through: %.2fx\n",
         wb.throughput / wt.throughput);

  // --- Optimal cache ratio from the measured miss-ratio curve. ---
  costmodel::MissRatioCurve mrc = costmodel::MissRatioCurve::FromTrace(trace);
  // Illustrative per-unit costs for this workload's posture: DRAM for the
  // full dataset is very expensive, the storage tier is cheap on space but
  // would need many instances to serve all traffic, and the miss penalty
  // is modest thanks to batched fetching.
  costmodel::TieredCostInputs inputs;
  inputs.pc_cache = 0.5;   // Serving everything from cache, one instance.
  inputs.pc_miss = 1.0;    // Extra cost if every request missed.
  inputs.sc_cache = 12.0;  // Caching ALL data (expensive DRAM).
  inputs.pc_storage = 4.0;
  inputs.sc_storage = 0.8;
  double cr_star = costmodel::OptimalCacheRatio(inputs, mrc);
  printf("\nmeasured MRC: MR(5%%)=%.2f MR(10%%)=%.2f MR(25%%)=%.2f\n",
         mrc.MissRatio(0.05), mrc.MissRatio(0.10), mrc.MissRatio(0.25));
  printf("optimal cache ratio CR* = %.3f; tiered beats single-tier: %s\n",
         cr_star,
         costmodel::TieredBeatsSingleTier(inputs, cr_star,
                                          mrc.MissRatio(cr_star))
             ? "yes"
             : "no");

  env::RemoveDirRecursive(dir);
  return 0;
}
