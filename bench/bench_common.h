// Shared support for the paper-reproduction bench binaries: engine
// factories for every system configuration in §6, an executor-fronted
// engine for the threading-mode experiments, and table printers that
// emit the same rows/series the paper's figures report.

#ifndef TIERBASE_BENCH_BENCH_COMMON_H_
#define TIERBASE_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/baselines.h"
#include "cache/hash_engine.h"
#include "common/env.h"
#include "common/kv_engine.h"
#include "compression/compressor.h"
#include "core/storage_adapter.h"
#include "core/tierbase.h"
#include "costmodel/cost_model.h"
#include "costmodel/evaluator.h"
#include "pmem/pmem_allocator.h"
#include "pmem/pmem_device.h"
#include "threading/elastic_executor.h"
#include "workload/dataset.h"
#include "workload/trace.h"
#include "workload/ycsb.h"

namespace tierbase {
namespace bench {

// Scratch directory management for LSM-backed configurations.
class ScratchDir {
 public:
  ScratchDir() : path_(env::MakeTempDir("tb_bench")) {}
  ~ScratchDir() { env::RemoveDirRecursive(path_); }
  std::string Sub(const std::string& name) const { return path_ + "/" + name; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

inline lsm::LsmOptions BenchLsmOptions(const std::string& dir) {
  lsm::LsmOptions options;
  options.dir = dir;
  // Small fixed buffers so the storage tier's constant DRAM overhead stays
  // negligible next to the (scaled-down) bench payloads; otherwise the
  // evaluator's expansion-factor extrapolation overstates tiered SC.
  options.memtable_bytes = 512 << 10;
  options.block_cache_bytes = 1 << 20;
  options.target_file_bytes = 1 << 20;
  return options;
}

// ---------------------------------------------------------------------------
// Executor-fronted engine: routes every operation through an
// ElasticExecutor so the threading mode (single / multi / elastic) governs
// throughput, as in Figs 7 and 9.
// ---------------------------------------------------------------------------

class ExecutorEngine : public KvEngine {
 public:
  ExecutorEngine(std::unique_ptr<KvEngine> inner,
                 threading::ElasticOptions executor_options,
                 std::string name)
      : inner_(std::move(inner)),
        executor_(executor_options),
        name_(std::move(name)) {}

  std::string name() const override { return name_; }

  Status Set(const Slice& key, const Slice& value) override {
    Status s;
    std::string k = key.ToString(), v = value.ToString();
    executor_.Execute([&] { s = inner_->Set(k, v); });
    return s;
  }
  Status Get(const Slice& key, std::string* value) override {
    Status s;
    std::string k = key.ToString();
    executor_.Execute([&] { s = inner_->Get(k, value); });
    return s;
  }
  Status Delete(const Slice& key) override {
    Status s;
    std::string k = key.ToString();
    executor_.Execute([&] { s = inner_->Delete(k); });
    return s;
  }
  void MultiGet(const std::vector<Slice>& keys,
                std::vector<std::string>* values,
                std::vector<Status>* statuses) override {
    executor_.Execute([&] { inner_->MultiGet(keys, values, statuses); });
  }
  void MultiSet(const std::vector<Slice>& keys,
                const std::vector<Slice>& values,
                std::vector<Status>* statuses) override {
    executor_.Execute([&] { inner_->MultiSet(keys, values, statuses); });
  }
  UsageStats GetUsage() const override { return inner_->GetUsage(); }
  Status WaitIdle() override { return inner_->WaitIdle(); }

  threading::ElasticExecutor* executor() { return &executor_; }

 private:
  std::unique_ptr<KvEngine> inner_;
  threading::ElasticExecutor executor_;
  std::string name_;
};

inline std::unique_ptr<ExecutorEngine> WrapWithExecutor(
    std::unique_ptr<KvEngine> inner, threading::ThreadMode mode,
    int max_threads, const std::string& name) {
  threading::ElasticOptions exec;
  exec.mode = mode;
  exec.max_threads = max_threads;
  // Synchronous clients bound the queue depth by the client count, so the
  // boost trigger must sit below it.
  exec.scale_up_depth = 4;
  exec.scale_down_depth = 1;
  exec.control_interval_micros = 5'000;
  exec.down_votes = 40;
  return std::make_unique<ExecutorEngine>(std::move(inner), exec, name);
}

inline std::unique_ptr<ExecutorEngine> MakeThreadedEngine(
    threading::ThreadMode mode, int max_threads, const std::string& name,
    size_t shards = 0) {
  cache::HashEngineOptions cache_options;
  cache_options.shards =
      shards != 0 ? static_cast<int>(shards)
                  : (mode == threading::ThreadMode::kSingle ? 1 : max_threads);
  return WrapWithExecutor(std::make_unique<cache::HashEngine>(cache_options),
                          mode, max_threads, name);
}

// ---------------------------------------------------------------------------
// OwnedEngine: forwards to an inner engine while owning its dependencies
// (compressor, PMem device/allocator, storage adapter), so a factory can
// return one self-contained KvEngine.
// ---------------------------------------------------------------------------

class OwnedEngine : public KvEngine {
 public:
  OwnedEngine(std::unique_ptr<KvEngine> inner,
              std::vector<std::shared_ptr<void>> deps)
      : deps_(std::move(deps)), inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  Status Set(const Slice& key, const Slice& value) override {
    return inner_->Set(key, value);
  }
  Status Get(const Slice& key, std::string* value) override {
    return inner_->Get(key, value);
  }
  Status Delete(const Slice& key) override { return inner_->Delete(key); }
  void MultiGet(const std::vector<Slice>& keys,
                std::vector<std::string>* values,
                std::vector<Status>* statuses) override {
    inner_->MultiGet(keys, values, statuses);
  }
  void MultiSet(const std::vector<Slice>& keys,
                const std::vector<Slice>& values,
                std::vector<Status>* statuses) override {
    inner_->MultiSet(keys, values, statuses);
  }
  UsageStats GetUsage() const override { return inner_->GetUsage(); }
  Status WaitIdle() override { return inner_->WaitIdle(); }
  KvEngine* inner() { return inner_.get(); }

 private:
  // deps_ declared first so it outlives inner_ during destruction (the
  // engine may touch its compressor / PMem allocator in its destructor).
  std::vector<std::shared_ptr<void>> deps_;
  std::unique_ptr<KvEngine> inner_;
};

// ---------------------------------------------------------------------------
// Tiered TierBase over an owned LSM storage adapter. GetUsage merges the
// storage tier's footprint into the instance accounting (the adapter is
// disaggregated in production; in the per-instance cost model its space is
// charged against the instance's disk budget).
// ---------------------------------------------------------------------------

class TieredTierBase : public KvEngine {
 public:
  TieredTierBase(std::unique_ptr<TierBase> db,
                 std::unique_ptr<RemoteStorageAdapter> remote,
                 std::unique_ptr<LsmStorageAdapter> storage, std::string name)
      : storage_(std::move(storage)), remote_(std::move(remote)),
        db_(std::move(db)), name_(std::move(name)) {}

  std::string name() const override { return name_; }
  Status Set(const Slice& key, const Slice& value) override {
    return db_->Set(key, value);
  }
  Status Get(const Slice& key, std::string* value) override {
    return db_->Get(key, value);
  }
  Status Delete(const Slice& key) override { return db_->Delete(key); }
  void MultiGet(const std::vector<Slice>& keys,
                std::vector<std::string>* values,
                std::vector<Status>* statuses) override {
    db_->MultiGet(keys, values, statuses);
  }
  void MultiSet(const std::vector<Slice>& keys,
                const std::vector<Slice>& values,
                std::vector<Status>* statuses) override {
    db_->MultiSet(keys, values, statuses);
  }
  UsageStats GetUsage() const override {
    UsageStats usage = db_->GetUsage();
    UsageStats storage = storage_->GetUsage();
    usage.memory_bytes += storage.memory_bytes;
    usage.disk_bytes += storage.disk_bytes;
    return usage;
  }
  Status WaitIdle() override { return db_->WaitIdle(); }
  TierBase* db() { return db_.get(); }

 private:
  // storage_/remote_ declared before db_: TierBase's destructor flushes
  // dirty write-back data into the adapter, so the adapters must die last.
  std::unique_ptr<LsmStorageAdapter> storage_;
  std::unique_ptr<RemoteStorageAdapter> remote_;
  std::unique_ptr<TierBase> db_;
  std::string name_;
};

/// Builds a tiered TierBase (write-through or write-back) whose cache
/// budget is sized to 1/cache_ratio_x of `payload_bytes` — the paper's
/// "NX" cache-ratio notation (wb-5X = cache holds 1/5 of the data).
/// RPC round trip to the disaggregated storage tier. Chosen at the low end
/// of intra-datacenter KV-service latency so the batching mechanisms'
/// relative gains — not the absolute RTT — drive the results.
constexpr uint64_t kStorageRttMicros = 100;

inline std::unique_ptr<TieredTierBase> MakeTieredTierBase(
    CachingPolicy policy, const std::string& dir, double payload_bytes,
    double cache_ratio_x, const std::string& name,
    uint64_t rtt_micros = kStorageRttMicros) {
  auto storage = LsmStorageAdapter::Open(BenchLsmOptions(dir));
  auto remote =
      std::make_unique<RemoteStorageAdapter>(storage->get(), rtt_micros);
  TierBaseOptions options;
  options.policy = policy;
  options.cache.memory_budget = static_cast<size_t>(
      cache_ratio_x > 0 ? payload_bytes / cache_ratio_x : 0);
  options.cache.shards = 4;  // The replays drive several client threads.
  // Keep the dirty set small relative to the (ratio-bounded) cache: the
  // dirty buffer's value copies sit outside the cache budget. Batches stay
  // large enough to amortize the RTT ("Managing Dirty Data", §4.1.2).
  options.write_back.flush_threshold = 256;
  options.write_back.max_batch = 256;
  options.write_back.max_dirty = 2048;
  auto db = TierBase::Open(options, remote.get());
  return std::make_unique<TieredTierBase>(std::move(db.value()),
                                          std::move(remote),
                                          std::move(storage.value()), name);
}

// ---------------------------------------------------------------------------
// Pre-trained compressors over a dataset sample.
// ---------------------------------------------------------------------------

inline std::unique_ptr<Compressor> TrainedCompressor(
    CompressorType type, const workload::DatasetOptions& dataset,
    const CompressorOptions& options = CompressorOptions()) {
  auto compressor = CreateCompressor(type, options);
  workload::DatasetOptions sample = dataset;
  sample.num_records = std::min<size_t>(dataset.num_records, 500);
  auto records = workload::MakeDataset(sample);
  compressor->Train(records);
  return compressor;
}

// ---------------------------------------------------------------------------
// Simulated PMem device shared by PMem configurations.
// ---------------------------------------------------------------------------

inline std::unique_ptr<PmemDevice> MakePmem(size_t capacity = 256 << 20) {
  PmemOptions options;
  options.capacity = capacity;
  options.inject_latency = true;
  auto device = PmemDevice::Create(options);
  return std::move(device.value());
}

// ---------------------------------------------------------------------------
// Synthetic YCSB-mix trace (read fraction + Zipfian popularity) for the
// cost evaluations of Figs 10-11.
// ---------------------------------------------------------------------------

inline workload::Trace MakeMixTrace(double read_fraction, uint64_t num_ops,
                                    uint64_t key_space,
                                    const workload::DatasetOptions& dataset,
                                    uint64_t seed = 99) {
  workload::Trace trace;
  trace.key_space = key_space;
  trace.dataset = dataset;
  trace.ops.reserve(num_ops);
  Random rng(seed);
  ScrambledZipfianGenerator zipf(key_space, ZipfianGenerator::kDefaultTheta,
                                 seed + 1);
  for (uint64_t i = 0; i < num_ops; ++i) {
    workload::TraceOp op;
    op.type = rng.Bernoulli(read_fraction) ? workload::OpType::kRead
                                           : workload::OpType::kUpdate;
    op.key_index = zipf.Next();
    trace.ops.push_back(op);
  }
  return trace;
}

// ---------------------------------------------------------------------------
// Process warm-up: the first engine measured in a fresh process pays for
// allocator arena growth and page faults (observed 3-5x on the first
// run). Exercise a throwaway engine before taking any measurement.
// ---------------------------------------------------------------------------

inline void WarmUpProcess() {
  cache::HashEngineOptions options;
  options.shards = 4;
  cache::HashEngine engine(options);
  workload::YcsbOptions workload = workload::WorkloadA();
  workload.record_count = 20000;
  workload.operation_count = 20000;
  workload::RunnerOptions runner;
  runner.threads = 8;
  workload::RunLoadPhase(&engine, workload, runner);
  workload::RunPhase(&engine, workload, runner);
}

// ---------------------------------------------------------------------------
// Table printing.
// ---------------------------------------------------------------------------

inline void PrintHeader(const std::string& title) {
  printf("\n=== %s ===\n", title.c_str());
}

struct PerfRow {
  std::string system;
  std::string phase;
  double kqps = 0;
  double p99_us = 0;
};

inline void PrintPerfTable(const std::string& title,
                           const std::vector<PerfRow>& rows) {
  PrintHeader(title);
  printf("%-24s %-10s %12s %12s\n", "system", "phase", "kQPS", "p99(us)");
  for (const auto& r : rows) {
    printf("%-24s %-10s %12.1f %12.0f\n", r.system.c_str(), r.phase.c_str(),
           r.kqps, r.p99_us);
  }
}

struct CostRow {
  std::string system;
  double pc = 0;      // cost(QPS) in the figures' axes.
  double sc = 0;      // cost(GB).
  double cost = 0;    // max(pc, sc).
};

inline void PrintCostTable(const std::string& title,
                           const std::vector<CostRow>& rows) {
  PrintHeader(title);
  printf("%-24s %12s %12s %12s\n", "system", "PC", "SC", "Cost");
  for (const auto& r : rows) {
    printf("%-24s %12.3f %12.3f %12.3f\n", r.system.c_str(), r.pc, r.sc,
           r.cost);
  }
}

inline CostRow ToCostRow(const costmodel::EvaluationResult& result) {
  return CostRow{result.config_name, result.cost.pc, result.cost.sc,
                 result.cost.cost};
}

inline PerfRow ToPerfRow(const std::string& system, const std::string& phase,
                         const workload::RunResult& result) {
  return PerfRow{system, phase, result.throughput / 1000.0,
                 static_cast<double>(result.latency.Percentile(0.99))};
}

}  // namespace bench
}  // namespace tierbase

#endif  // TIERBASE_BENCH_BENCH_COMMON_H_
