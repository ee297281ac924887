// Tests for workload generation: YCSB-style op mixes and runner, dataset
// generators (Cities/KV1/KV2), trace synthesis to the paper's case-study
// statistics, trace file I/O, and replay.

#include <algorithm>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cache/hash_engine.h"
#include "common/env.h"
#include "common/slice.h"
#include "workload/dataset.h"
#include "workload/recorder.h"
#include "workload/trace.h"
#include "workload/ycsb.h"

namespace tierbase {
namespace workload {
namespace {

// --- Keys. ---

TEST(YcsbTest, KeysAreFixedWidthAndUnique) {
  std::set<std::string> keys;
  size_t width = KeyFor(0).size();
  for (uint64_t i = 0; i < 1000; ++i) {
    std::string key = KeyFor(i);
    EXPECT_EQ(key.size(), width);
    EXPECT_TRUE(keys.insert(key).second);
  }
  EXPECT_TRUE(Slice(KeyFor(7)).starts_with("user"));
}

// --- Generator mixes. ---

TEST(YcsbTest, WorkloadAMixesHalfUpdates) {
  YcsbOptions options = WorkloadA();
  options.record_count = 1000;
  YcsbGenerator gen(options);
  int updates = 0, reads = 0;
  for (int i = 0; i < 20000; ++i) {
    Op op = gen.Next();
    ASSERT_LT(op.key_index, 1000u);
    if (op.type == OpType::kUpdate) ++updates;
    if (op.type == OpType::kRead) ++reads;
  }
  EXPECT_NEAR(updates / 20000.0, 0.5, 0.02);
  EXPECT_NEAR(reads / 20000.0, 0.5, 0.02);
}

TEST(YcsbTest, WorkloadBIsReadHeavy) {
  YcsbOptions options = WorkloadB();
  options.record_count = 1000;
  YcsbGenerator gen(options);
  int updates = 0;
  for (int i = 0; i < 20000; ++i) {
    if (gen.Next().type == OpType::kUpdate) ++updates;
  }
  EXPECT_NEAR(updates / 20000.0, 0.05, 0.01);
}

TEST(YcsbTest, WorkloadCIsReadOnly) {
  YcsbOptions options = WorkloadC();
  options.record_count = 100;
  YcsbGenerator gen(options);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(gen.Next().type, OpType::kRead);
  }
}

TEST(YcsbTest, ZipfianDistributionIsSkewed) {
  YcsbOptions options = WorkloadB();
  options.record_count = 10000;
  options.distribution = Distribution::kZipfian;
  YcsbGenerator gen(options);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 50000; ++i) ++counts[gen.Next().key_index];
  // Far fewer distinct keys touched than uniform would touch.
  EXPECT_LT(counts.size(), 9000u);
  int max_count = 0;
  for (const auto& [k, c] : counts) max_count = std::max(max_count, c);
  EXPECT_GT(max_count, 500);  // Uniform expectation is 5.
}

TEST(YcsbTest, UniformDistributionIsFlat) {
  YcsbOptions options = WorkloadB();
  options.record_count = 100;
  options.distribution = Distribution::kUniform;
  YcsbGenerator gen(options);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 100000; ++i) ++counts[gen.Next().key_index];
  for (const auto& [k, c] : counts) {
    EXPECT_GT(c, 500);
    EXPECT_LT(c, 2000);  // Expected 1000.
  }
}

TEST(YcsbTest, InsertsExtendKeySpace) {
  YcsbOptions options;
  options.update_proportion = 0.0;
  options.insert_proportion = 1.0;
  options.record_count = 100;
  YcsbGenerator gen(options);
  std::set<uint64_t> inserted;
  for (int i = 0; i < 500; ++i) {
    Op op = gen.Next();
    ASSERT_EQ(op.type, OpType::kInsert);
    EXPECT_GE(op.key_index, 100u);  // Fresh keys after the initial load.
    EXPECT_TRUE(inserted.insert(op.key_index).second);
  }
}

TEST(YcsbTest, DeterministicPerSeed) {
  YcsbOptions options = WorkloadA();
  options.record_count = 1000;
  YcsbGenerator a(options), b(options);
  for (int i = 0; i < 1000; ++i) {
    Op oa = a.Next(), ob = b.Next();
    ASSERT_EQ(oa.type, ob.type);
    ASSERT_EQ(oa.key_index, ob.key_index);
  }
  YcsbGenerator c(options, /*thread_seed=*/1);
  bool differs = false;
  YcsbGenerator d(options);
  for (int i = 0; i < 100; ++i) {
    if (c.Next().key_index != d.Next().key_index) differs = true;
  }
  EXPECT_TRUE(differs);
}

// --- Datasets. ---

TEST(DatasetTest, DeterministicGeneration) {
  DatasetOptions options;
  options.kind = DatasetKind::kCities;
  options.num_records = 10;
  EXPECT_EQ(MakeRecord(options, 3), MakeRecord(options, 3));
  options.seed = 43;
  EXPECT_NE(MakeRecord(options, 3),
            MakeRecord(DatasetOptions{DatasetKind::kCities, 10, 160, 42}, 3));
}

TEST(DatasetTest, MeanSizeRoughlyHonored) {
  for (DatasetKind kind :
       {DatasetKind::kCities, DatasetKind::kKv1, DatasetKind::kKv2}) {
    DatasetOptions options;
    options.kind = kind;
    options.num_records = 500;
    options.mean_record_bytes = 200;
    auto records = MakeDataset(options);
    double total = 0;
    for (const auto& r : records) total += r.size();
    double mean = total / records.size();
    EXPECT_GT(mean, 100) << DatasetKindName(kind);
    EXPECT_LT(mean, 400) << DatasetKindName(kind);
  }
}

TEST(DatasetTest, CitiesLookLikeTsvRows) {
  DatasetOptions options;
  options.kind = DatasetKind::kCities;
  options.num_records = 20;
  for (const auto& record : MakeDataset(options)) {
    // Geonames-like: multiple tab-separated fields.
    EXPECT_GE(std::count(record.begin(), record.end(), '\t'), 4) << record;
  }
}

TEST(DatasetTest, KvDatasetsShareTemplates) {
  DatasetOptions options;
  options.kind = DatasetKind::kKv2;
  options.num_records = 50;
  auto records = MakeDataset(options);
  // Records share key=value structure: '=' and ',' separators recur.
  for (const auto& record : records) {
    EXPECT_NE(record.find('='), std::string::npos);
  }
}

TEST(DatasetTest, RandomIsIncompressibleControl) {
  DatasetOptions options;
  options.kind = DatasetKind::kRandom;
  options.num_records = 10;
  auto records = MakeDataset(options);
  // Random records differ wildly (no shared prefix structure).
  EXPECT_NE(records[0], records[1]);
}

// --- Runner. ---

TEST(RunnerTest, LoadPhaseInsertsAll) {
  cache::HashEngine engine;
  YcsbOptions options = WorkloadA();
  options.record_count = 2000;
  RunnerOptions runner;
  runner.threads = 4;
  RunResult result = RunLoadPhase(&engine, options, runner);
  EXPECT_EQ(result.ops, 2000u);
  EXPECT_EQ(result.errors, 0u);
  EXPECT_EQ(engine.GetUsage().keys, 2000u);
  EXPECT_GT(result.throughput, 0);
  EXPECT_GT(result.latency.Count(), 0u);
}

TEST(RunnerTest, RunPhaseExecutesMix) {
  cache::HashEngine engine;
  YcsbOptions options = WorkloadB();
  options.record_count = 1000;
  options.operation_count = 5000;
  RunnerOptions runner;
  RunLoadPhase(&engine, options, runner);
  RunResult result = RunPhase(&engine, options, runner);
  EXPECT_EQ(result.ops, 5000u);
  EXPECT_EQ(result.errors, 0u);
  EXPECT_EQ(result.not_found, 0u);  // All keys were loaded.
}

TEST(RunnerTest, ThrottledRunApproximatesTargetQps) {
  cache::HashEngine engine;
  YcsbOptions options = WorkloadC();
  options.record_count = 100;
  options.operation_count = 2000;
  RunnerOptions runner;
  RunnerOptions load_runner;
  RunLoadPhase(&engine, options, load_runner);
  runner.target_qps = 10000;
  RunResult result = RunPhase(&engine, options, runner);
  // 2000 ops at 10k qps ≈ 0.2s.
  EXPECT_NEAR(result.throughput, 10000, 4000);
}

TEST(RunnerTest, BatchModeHonorsTargetQps) {
  cache::HashEngine engine;
  YcsbOptions options = WorkloadC();
  options.record_count = 100;
  options.operation_count = 2000;
  RunnerOptions load_runner;
  RunLoadPhase(&engine, options, load_runner);
  RunnerOptions runner;
  runner.batch_size = 20;
  runner.target_qps = 10000;
  RunResult result = RunPhase(&engine, options, runner);
  // Unthrottled this engine does millions of ops/sec; throttled batches
  // (100 batches at 500 batches/sec) must land near the target.
  EXPECT_NEAR(result.throughput, 10000, 4000);
}

TEST(RunnerTest, RunPhaseWithClosure) {
  YcsbOptions options = WorkloadA();
  options.record_count = 100;
  options.operation_count = 1000;
  RunnerOptions runner;
  runner.threads = 2;
  std::atomic<uint64_t> executed{0};
  RunResult result = RunPhaseWith(
      options, runner,
      [&](const Op&, const std::string&, const std::string&) {
        executed.fetch_add(1);
        return Status::OK();
      });
  EXPECT_EQ(executed.load(), 1000u);
  EXPECT_EQ(result.ops, 1000u);
}

// --- Traces. ---

TEST(TraceTest, UserInfoProfileIsReadHeavy) {
  SynthesizeOptions options;
  options.profile = TraceProfile::kUserInfo;
  options.num_ops = 50000;
  options.key_space = 5000;
  Trace trace = SynthesizeTrace(options);
  EXPECT_EQ(trace.ops.size(), 50000u);
  // §6.5 case 1: ~32 reads per write → read fraction ≈ 0.97.
  EXPECT_GT(trace.ReadFraction(), 0.94);
  EXPECT_LT(trace.ReadFraction(), 0.995);
}

TEST(TraceTest, ReconciliationProfileIsBalanced) {
  SynthesizeOptions options;
  options.profile = TraceProfile::kReconciliation;
  options.num_ops = 50000;
  options.key_space = 5000;
  Trace trace = SynthesizeTrace(options);
  // §6.5 case 2: read:write close to 1:1.
  EXPECT_NEAR(trace.ReadFraction(), 0.5, 0.05);
}

TEST(TraceTest, ReconciliationHasTemporalSkew) {
  SynthesizeOptions options;
  options.profile = TraceProfile::kReconciliation;
  options.num_ops = 40000;
  options.key_space = 4000;
  Trace trace = SynthesizeTrace(options);
  // Reads cluster near recent writes: measure mean distance between a read
  // and the most recent write of the same key.
  std::map<uint64_t, size_t> last_write;
  std::vector<size_t> read_gaps;
  for (size_t i = 0; i < trace.ops.size(); ++i) {
    const TraceOp& op = trace.ops[i];
    if (op.type == OpType::kRead) {
      auto it = last_write.find(op.key_index);
      if (it != last_write.end()) read_gaps.push_back(i - it->second);
    } else {
      last_write[op.key_index] = i;
    }
  }
  ASSERT_GT(read_gaps.size(), 1000u);
  double mean_gap = 0;
  for (size_t gap : read_gaps) mean_gap += gap;
  mean_gap /= read_gaps.size();
  // Recent data is hot: mean gap far below the trace length.
  EXPECT_LT(mean_gap, trace.ops.size() / 4.0);
}

TEST(TraceTest, FileRoundTrip) {
  SynthesizeOptions options;
  options.num_ops = 5000;
  options.key_space = 500;
  Trace trace = SynthesizeTrace(options);
  std::string dir = env::MakeTempDir("tb_trace_test");
  std::string path = dir + "/trace.bin";
  ASSERT_TRUE(WriteTrace(trace, path).ok());
  auto loaded = ReadTrace(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->ops.size(), trace.ops.size());
  EXPECT_EQ(loaded->key_space, trace.key_space);
  for (size_t i = 0; i < trace.ops.size(); i += 97) {
    EXPECT_EQ(loaded->ops[i].type, trace.ops[i].type);
    EXPECT_EQ(loaded->ops[i].key_index, trace.ops[i].key_index);
  }
  env::RemoveDirRecursive(dir);
}

TEST(TraceTest, CorruptTraceFileRejected) {
  std::string dir = env::MakeTempDir("tb_trace_bad");
  std::string path = dir + "/bad.bin";
  ASSERT_TRUE(env::WriteStringToFileSync(path, "not a trace file").ok());
  EXPECT_FALSE(ReadTrace(path).ok());
  env::RemoveDirRecursive(dir);
}

TEST(TraceTest, ReplayAppliesOps) {
  cache::HashEngine engine;
  SynthesizeOptions options;
  options.profile = TraceProfile::kReconciliation;
  options.num_ops = 10000;
  options.key_space = 1000;
  Trace trace = SynthesizeTrace(options);
  RunResult result = ReplayTrace(&engine, trace, /*threads=*/2);
  EXPECT_EQ(result.ops, 10000u);
  EXPECT_EQ(result.errors, 0u);
  EXPECT_GT(engine.GetUsage().keys, 0u);
}

TEST(TraceTest, AverageReuseDistanceReflectsSkew) {
  SynthesizeOptions skewed;
  skewed.profile = TraceProfile::kUserInfo;
  skewed.num_ops = 30000;
  skewed.key_space = 3000;
  skewed.zipfian_theta = 0.99;
  double skewed_reuse = AverageReuseDistanceOps(SynthesizeTrace(skewed));

  SynthesizeOptions flat = skewed;
  flat.zipfian_theta = 0.2;  // Much flatter popularity.
  double flat_reuse = AverageReuseDistanceOps(SynthesizeTrace(flat));

  EXPECT_GT(skewed_reuse, 0);
  // Flatter access → longer average interval between re-accesses.
  EXPECT_GT(flat_reuse, skewed_reuse);
}

}  // namespace
}  // namespace workload
}  // namespace tierbase

// --- Replay-order regression. ---

namespace tierbase {
namespace workload {
namespace {

// Engine that records the trace positions at which keys arrive. Used to
// verify the shared-cursor dispatch keeps concurrent replay close to the
// trace's temporal order (round-robin pre-partition did not).
class OrderProbeEngine : public KvEngine {
 public:
  std::string name() const override { return "order-probe"; }
  Status Set(const Slice& key, const Slice&) override { return Record(key); }
  Status Get(const Slice& key, std::string* value) override {
    value->clear();
    return Record(key);
  }
  Status Delete(const Slice& key) override { return Record(key); }
  UsageStats GetUsage() const override { return {}; }

  std::vector<std::string> observed() {
    std::lock_guard<std::mutex> lock(mu_);
    return order_;
  }

 private:
  Status Record(const Slice& key) {
    std::lock_guard<std::mutex> lock(mu_);
    order_.push_back(key.ToString());
    return Status::OK();
  }
  std::mutex mu_;
  std::vector<std::string> order_;
};

TEST(TraceTest, ConcurrentReplayPreservesApproximateOrder) {
  // A trace whose keys are its own positions, so observed order can be
  // compared against trace order directly.
  constexpr int kThreads = 8;
  Trace trace;
  trace.key_space = 20000;
  for (uint64_t i = 0; i < 20000; ++i) {
    trace.ops.push_back({OpType::kUpdate, i});
  }
  OrderProbeEngine probe;
  ReplayTrace(&probe, trace, kThreads);
  auto observed = probe.observed();
  ASSERT_EQ(observed.size(), trace.ops.size());
  // The shared cursor hands out ops in trace order and each thread holds
  // at most one claimed op. When op i is observed, ops 0..i-1 are all
  // claimed and at most kThreads-1 of them are still in flight on other
  // threads, so op i lands at position >= i - (kThreads - 1) on any core
  // count. Pre-partitioned round-robin dispatch breaks this by thousands.
  std::vector<int> seen(trace.ops.size(), 0);
  uint64_t max_lead = 0;  // Largest intended - pos.
  for (size_t pos = 0; pos < observed.size(); ++pos) {
    // Keys encode their intended position.
    uint64_t intended = 0;
    for (char c : observed[pos]) {
      if (c >= '0' && c <= '9') intended = intended * 10 + (c - '0');
    }
    ASSERT_LT(intended, trace.ops.size());
    ++seen[intended];
    if (intended > pos) max_lead = std::max<uint64_t>(max_lead, intended - pos);
  }
  EXPECT_LE(max_lead, static_cast<uint64_t>(kThreads - 1));
  // Every op replayed exactly once.
  EXPECT_EQ(std::count(seen.begin(), seen.end(), 1),
            static_cast<std::ptrdiff_t>(seen.size()));
}

}  // namespace
}  // namespace workload
}  // namespace tierbase

// --- RecordingEngine (step 1 of the §5.3 framework). ---

namespace tierbase {
namespace workload {
namespace {

TEST(RecorderTest, RecordsOpsAndInternsKeys) {
  cache::HashEngine inner;
  RecordingEngine recorder(&inner);
  ASSERT_TRUE(recorder.Set("alpha", "1").ok());
  std::string value;
  ASSERT_TRUE(recorder.Get("alpha", &value).ok());
  EXPECT_EQ(value, "1");
  ASSERT_TRUE(recorder.Set("beta", "2").ok());
  ASSERT_TRUE(recorder.Delete("alpha").ok());
  EXPECT_EQ(recorder.recorded_ops(), 4u);

  DatasetOptions dataset;
  Trace trace = recorder.ToTrace(dataset);
  ASSERT_EQ(trace.ops.size(), 4u);
  EXPECT_EQ(trace.key_space, 2u);
  EXPECT_EQ(trace.ops[0].type, OpType::kUpdate);
  EXPECT_EQ(trace.ops[0].key_index, 0u);   // "alpha" interned first.
  EXPECT_EQ(trace.ops[1].type, OpType::kRead);
  EXPECT_EQ(trace.ops[1].key_index, 0u);
  EXPECT_EQ(trace.ops[2].key_index, 1u);   // "beta".
  EXPECT_EQ(trace.ops[3].type, OpType::kDelete);
  auto keys = recorder.Keys();
  EXPECT_EQ(keys, (std::vector<std::string>{"alpha", "beta"}));
}

TEST(RecorderTest, RecordedTraceRoundTripsThroughFile) {
  cache::HashEngine inner;
  RecordingEngine recorder(&inner);
  Random rng(42);
  for (int i = 0; i < 2000; ++i) {
    std::string key = "k" + std::to_string(rng.Uniform(100));
    if (rng.Bernoulli(0.6)) {
      recorder.Set(key, "v");
    } else {
      std::string value;
      recorder.Get(key, &value);
    }
  }
  DatasetOptions dataset;
  Trace trace = recorder.ToTrace(dataset);
  std::string dir = env::MakeTempDir("tb_recorder");
  ASSERT_TRUE(WriteTrace(trace, dir + "/rec.bin").ok());
  auto loaded = ReadTrace(dir + "/rec.bin");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->ops.size(), trace.ops.size());
  EXPECT_EQ(loaded->key_space, trace.key_space);
  // The recorded trace replays cleanly against a fresh engine.
  cache::HashEngine target;
  RunResult result = ReplayTrace(&target, *loaded, 2);
  EXPECT_EQ(result.errors, 0u);
  env::RemoveDirRecursive(dir);
}

TEST(RecorderTest, ConcurrentRecordingIsSafe) {
  cache::HashEngine inner;
  RecordingEngine recorder(&inner);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::string value;
      for (int i = 0; i < 1000; ++i) {
        recorder.Set("key" + std::to_string((t * 1000 + i) % 50), "v");
        recorder.Get("key" + std::to_string(i % 50), &value);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(recorder.recorded_ops(), 8000u);
  DatasetOptions dataset;
  EXPECT_EQ(recorder.ToTrace(dataset).key_space, 50u);
}

TEST(YcsbTest, BatchModeDrivesMultiOpsAndMatchesSingleOpResults) {
  cache::HashEngineOptions cache_options;
  cache_options.shards = 4;
  cache::HashEngine engine(cache_options);

  YcsbOptions workload = WorkloadB();
  workload.record_count = 2000;
  workload.operation_count = 8000;

  RunnerOptions batched;
  batched.threads = 2;
  batched.batch_size = 16;
  RunResult load = RunLoadPhase(&engine, workload, batched);
  EXPECT_EQ(load.ops, workload.record_count);
  EXPECT_EQ(load.errors, 0u);
  EXPECT_EQ(engine.GetUsage().keys, workload.record_count);
  EXPECT_GT(engine.multi_batches(), 0u);  // The real batch path ran.

  uint64_t batches_before_run = engine.multi_batches();
  RunResult run = RunPhase(&engine, workload, batched);
  EXPECT_EQ(run.ops, workload.operation_count);
  EXPECT_EQ(run.errors, 0u);
  EXPECT_EQ(run.not_found, 0u);  // Every key was loaded.
  EXPECT_GT(engine.multi_batches(), batches_before_run);
  EXPECT_GT(run.throughput, 0.0);
  EXPECT_GT(run.latency.Count(), 0u);

  // The batched runner visits the same loaded key space: a fresh engine
  // driven with batch_size == 1 agrees on the not-found count.
  cache::HashEngine single_engine(cache_options);
  RunnerOptions single;
  single.threads = 2;
  RunResult single_load = RunLoadPhase(&single_engine, workload, single);
  EXPECT_EQ(single_load.errors, 0u);
  RunResult single_run = RunPhase(&single_engine, workload, single);
  EXPECT_EQ(single_run.not_found, run.not_found);
  EXPECT_EQ(single_run.errors, 0u);
}

}  // namespace
}  // namespace workload
}  // namespace tierbase
