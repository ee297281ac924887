// bench_hotpath: repeatable cache-tier hot-path benchmark. Measures
// single-thread Get/Set throughput plus batched MultiGet/MultiSet over the
// §6-style uniform and Zipfian key-popularity configurations (16B keys,
// 100B values), for both the bare HashEngine (1 and 8 shards) and the full
// TierBase cache-only stack. Latency percentiles come from a separate
// nanosecond-timed sampling pass so the throughput loop stays untimed.
// A footprint row, hash_engine_rss_bytes_per_key, reports the resident
// memory a 4-shard HashEngine spends per key on the repo benchmark's
// cache-hot shape (11 B keys, 64-256 B values).
//
// Emits machine-readable JSON (stdout, or --json <path>); refresh the
// committed baseline with:
//
//   build/bench_hotpath --json after.json   # then merge into
//                                           # BENCH_hotpath.json "after"
//
// Flags: --smoke (tiny op counts, CI bit-rot guard), --json <path>,
//        --records N, --ops N, --analytics (attach a WorkloadAnalytics at
//        default sampling to every engine — the workload-observatory
//        overhead A/B; see BENCH_hotpath.json notes_analytics).

#include <malloc.h>
#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/hash.h"
#include "common/histogram.h"
#include "common/random.h"

namespace tierbase {
namespace bench {
namespace {

constexpr size_t kBatch = 32;  // MultiGet/MultiSet ops per call.
constexpr uint64_t kFootprintKeys = 500000;  // cache-hot's key count.

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string BenchKey(uint64_t i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "k%015llu", static_cast<unsigned long long>(i));
  return buf;  // 16 bytes.
}

struct Row {
  std::string engine;
  int shards = 1;
  std::string dist;
  std::string op;
  double mops = 0;
  double p50_us = 0;
  double p99_us = 0;
};

struct Workload {
  uint64_t records;
  uint64_t ops;
  std::vector<std::string> keys;
  std::vector<uint32_t> uniform;  // Pre-drawn key indices per op.
  std::vector<uint32_t> zipfian;

  const std::vector<uint32_t>& order(const std::string& dist) const {
    return dist == "zipfian" ? zipfian : uniform;
  }
};

Workload MakeWorkload(uint64_t records, uint64_t ops) {
  Workload w;
  w.records = records;
  w.ops = ops;
  w.keys.reserve(records);
  for (uint64_t i = 0; i < records; ++i) w.keys.push_back(BenchKey(i));
  w.uniform.resize(ops);
  w.zipfian.resize(ops);
  Random rng(42);
  ScrambledZipfianGenerator zipf(records, ZipfianGenerator::kDefaultTheta,
                                 43);
  for (uint64_t i = 0; i < ops; ++i) {
    w.uniform[i] = static_cast<uint32_t>(rng.Uniform(records));
    w.zipfian[i] = static_cast<uint32_t>(zipf.Next());
  }
  return w;
}

// Runs one (engine, distribution) configuration: load, then time each op
// kind. The latency pass samples at most `lat_ops` operations (or batches)
// with per-call nanosecond timing.
void RunConfig(KvEngine* engine, const std::string& engine_name, int shards,
               const std::string& dist, const Workload& w,
               std::vector<Row>* rows) {
  const std::string value(100, 'v');
  const std::vector<uint32_t>& order = w.order(dist);
  const uint64_t lat_ops = std::min<uint64_t>(w.ops / 10 + 1, 100000);

  {  // Load.
    std::vector<Slice> ks, vs;
    std::vector<Status> statuses;
    for (uint64_t i = 0; i < w.records; i += kBatch) {
      ks.clear();
      vs.clear();
      for (uint64_t j = i; j < std::min(w.records, i + kBatch); ++j) {
        ks.push_back(w.keys[j]);
        vs.push_back(value);
      }
      engine->MultiSet(ks, vs, &statuses);
    }
  }

  auto add_row = [&](const std::string& op, double seconds, uint64_t ops,
                     const Histogram& lat) {
    Row r;
    r.engine = engine_name;
    r.shards = shards;
    r.dist = dist;
    r.op = op;
    r.mops = seconds > 0 ? static_cast<double>(ops) / seconds / 1e6 : 0;
    r.p50_us = static_cast<double>(lat.Percentile(0.50)) / 1000.0;
    r.p99_us = static_cast<double>(lat.Percentile(0.99)) / 1000.0;
    rows->push_back(r);
  };

  std::string out;

  {  // Get.
    Stopwatch watch;
    for (uint64_t i = 0; i < w.ops; ++i) {
      engine->Get(w.keys[order[i]], &out);
    }
    double seconds = watch.ElapsedSeconds();
    Histogram lat;
    for (uint64_t i = 0; i < lat_ops; ++i) {
      uint64_t t0 = NowNanos();
      engine->Get(w.keys[order[i]], &out);
      lat.Add(NowNanos() - t0);
    }
    add_row("get", seconds, w.ops, lat);
  }

  {  // Set (overwrite).
    Stopwatch watch;
    for (uint64_t i = 0; i < w.ops; ++i) {
      engine->Set(w.keys[order[i]], value);
    }
    double seconds = watch.ElapsedSeconds();
    Histogram lat;
    for (uint64_t i = 0; i < lat_ops; ++i) {
      uint64_t t0 = NowNanos();
      engine->Set(w.keys[order[i]], value);
      lat.Add(NowNanos() - t0);
    }
    add_row("set", seconds, w.ops, lat);
  }

  {  // MultiGet, kBatch keys per call.
    std::vector<Slice> ks;
    std::vector<std::string> values;
    std::vector<Status> statuses;
    auto fill_batch = [&](uint64_t start) {
      ks.clear();
      for (uint64_t j = start; j < std::min(w.ops, start + kBatch); ++j) {
        ks.push_back(w.keys[order[j]]);
      }
    };
    Stopwatch watch;
    for (uint64_t i = 0; i < w.ops; i += kBatch) {
      fill_batch(i);
      engine->MultiGet(ks, &values, &statuses);
    }
    double seconds = watch.ElapsedSeconds();
    Histogram lat;  // Per-batch latency.
    for (uint64_t i = 0; i < lat_ops; i += kBatch) {
      fill_batch(i);
      uint64_t t0 = NowNanos();
      engine->MultiGet(ks, &values, &statuses);
      lat.Add(NowNanos() - t0);
    }
    add_row("multiget", seconds, w.ops, lat);
  }

  {  // MultiSet, kBatch pairs per call.
    std::vector<Slice> ks, vs;
    std::vector<Status> statuses;
    auto fill_batch = [&](uint64_t start) {
      ks.clear();
      vs.clear();
      for (uint64_t j = start; j < std::min(w.ops, start + kBatch); ++j) {
        ks.push_back(w.keys[order[j]]);
        vs.push_back(value);
      }
    };
    Stopwatch watch;
    for (uint64_t i = 0; i < w.ops; i += kBatch) {
      fill_batch(i);
      engine->MultiSet(ks, vs, &statuses);
    }
    double seconds = watch.ElapsedSeconds();
    Histogram lat;
    for (uint64_t i = 0; i < lat_ops; i += kBatch) {
      fill_batch(i);
      uint64_t t0 = NowNanos();
      engine->MultiSet(ks, vs, &statuses);
      lat.Add(NowNanos() - t0);
    }
    add_row("multiset", seconds, w.ops, lat);
  }
}

struct Footprint {
  uint64_t keys = 0;
  double user_bytes_per_key = 0;
  double rss_bytes_per_key = 0;
};

uint64_t ResidentBytes() {
  unsigned long long size = 0, resident = 0;
  FILE* f = fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  if (fscanf(f, "%llu %llu", &size, &resident) != 2) resident = 0;
  fclose(f);
  return resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

// Loads `keys` keys of the cache-hot shape ("tb:%08u", values of 64-256 B
// whose length depends only on the key) into a 4-shard HashEngine and
// returns the resident-memory delta per key. Both readings follow
// malloc_trim, so freed heap does not count.
Footprint MeasureFootprint(uint64_t keys) {
  Footprint fp;
  fp.keys = keys;
  cache::HashEngineOptions options;
  options.shards = 4;
  cache::HashEngine engine(options);
  malloc_trim(0);
  const uint64_t before = ResidentBytes();
  uint64_t user_bytes = 0;
  char key[16];
  std::string value;
  for (uint64_t i = 0; i < keys; ++i) {
    const int n = snprintf(key, sizeof(key), "tb:%08llu",
                           static_cast<unsigned long long>(i));
    const Slice k(key, static_cast<size_t>(n));
    value.assign(64 + Hash64(k) % 193, 'v');
    engine.Set(k, value);
    user_bytes += k.size() + value.size();
  }
  value = std::string();
  malloc_trim(0);
  const uint64_t after = ResidentBytes();
  fp.user_bytes_per_key =
      static_cast<double>(user_bytes) / static_cast<double>(keys);
  fp.rss_bytes_per_key = after > before ? static_cast<double>(after - before) /
                                              static_cast<double>(keys)
                                        : 0;
  return fp;
}

void EmitJson(FILE* f, const Workload& w, const std::vector<Row>& rows,
              const Footprint& fp) {
  fprintf(f, "{\n");
  fprintf(f, "  \"bench\": \"hotpath\",\n");
  fprintf(f, "  \"key_bytes\": 16,\n");
  fprintf(f, "  \"value_bytes\": 100,\n");
  fprintf(f, "  \"records\": %" PRIu64 ",\n", w.records);
  fprintf(f, "  \"ops\": %" PRIu64 ",\n", w.ops);
  fprintf(f, "  \"multi_batch\": %zu,\n", kBatch);
  fprintf(f, "  \"footprint_keys\": %" PRIu64 ",\n", fp.keys);
  fprintf(f, "  \"footprint_user_bytes_per_key\": %.1f,\n",
          fp.user_bytes_per_key);
  fprintf(f, "  \"hash_engine_rss_bytes_per_key\": %.1f,\n",
          fp.rss_bytes_per_key);
  fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    fprintf(f,
            "    {\"engine\": \"%s\", \"shards\": %d, \"dist\": \"%s\", "
            "\"op\": \"%s\", \"mops\": %.3f, \"p50_us\": %.2f, "
            "\"p99_us\": %.2f}%s\n",
            r.engine.c_str(), r.shards, r.dist.c_str(), r.op.c_str(),
            r.mops, r.p50_us, r.p99_us,
            i + 1 < rows.size() ? "," : "");
  }
  fprintf(f, "  ]\n}\n");
}

int Main(int argc, char** argv) {
  uint64_t records = 200000;
  uint64_t ops = 2000000;
  uint64_t footprint_keys = kFootprintKeys;
  std::string json_path;
  bool with_analytics = false;
  uint32_t mrc_rate = 0, hot_rate = 0;  // 0 = library default.
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--smoke") == 0) {
      records = 5000;
      ops = 20000;
      footprint_keys = 20000;
    } else if (strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (strcmp(argv[i], "--records") == 0 && i + 1 < argc) {
      records = strtoull(argv[++i], nullptr, 10);
    } else if (strcmp(argv[i], "--ops") == 0 && i + 1 < argc) {
      ops = strtoull(argv[++i], nullptr, 10);
    } else if (strcmp(argv[i], "--analytics") == 0) {
      with_analytics = true;
    } else if (strcmp(argv[i], "--mrc-rate") == 0 && i + 1 < argc) {
      mrc_rate = strtoul(argv[++i], nullptr, 10);
    } else if (strcmp(argv[i], "--hot-rate") == 0 && i + 1 < argc) {
      hot_rate = strtoul(argv[++i], nullptr, 10);
    } else {
      fprintf(stderr,
              "usage: %s [--smoke] [--json path] [--records N] [--ops N] "
              "[--analytics] [--mrc-rate N] [--hot-rate N]\n",
              argv[0]);
      return 2;
    }
  }

  WarmUpProcess();
  const Footprint fp = MeasureFootprint(footprint_keys);
  Workload w = MakeWorkload(records, ops);
  std::vector<Row> rows;

  // --analytics A/B: same default sampling a production server runs with
  // unless --mrc-rate/--hot-rate override it (for cost apportioning).
  analytics::WorkloadAnalyticsOptions aopts;
  if (mrc_rate != 0) aopts.mrc_sample_rate = mrc_rate;
  if (hot_rate != 0) aopts.hotkey_sample_rate = hot_rate;

  for (int shards : {1, 8}) {
    cache::HashEngineOptions options;
    options.shards = shards;
    std::unique_ptr<analytics::WorkloadAnalytics> wa;
    if (with_analytics) {
      aopts.shards = shards;
      wa = std::make_unique<analytics::WorkloadAnalytics>(aopts);
      options.analytics = wa.get();
    }
    cache::HashEngine engine(options);
    for (const char* dist : {"uniform", "zipfian"}) {
      RunConfig(&engine, "hash", shards, dist, w, &rows);
    }
  }

  {  // Full stack, cache-only policy (the paper's Redis-comparison mode).
    TierBaseOptions options;
    options.policy = CachingPolicy::kCacheOnly;
    options.cache.shards = 1;
    options.analytics.enabled = with_analytics;
    if (mrc_rate != 0) options.analytics.mrc_sample_rate = mrc_rate;
    if (hot_rate != 0) options.analytics.hotkey_sample_rate = hot_rate;
    auto db = TierBase::Open(options, nullptr);
    if (!db.ok()) {
      fprintf(stderr, "tierbase open failed: %s\n",
              db.status().ToString().c_str());
      return 1;
    }
    RunConfig(db->get(), "tierbase-cache-only", 1, "uniform", w, &rows);
  }

  PrintHeader("hot-path throughput (single thread)");
  printf("%-22s %6s %-8s %-9s %10s %9s %9s\n", "engine", "shards", "dist",
         "op", "Mops", "p50(us)", "p99(us)");
  for (const Row& r : rows) {
    printf("%-22s %6d %-8s %-9s %10.3f %9.2f %9.2f\n", r.engine.c_str(),
           r.shards, r.dist.c_str(), r.op.c_str(), r.mops, r.p50_us,
           r.p99_us);
  }
  printf("\nhash_engine_rss_bytes_per_key %.1f (%" PRIu64
         " keys, %.1f user bytes/key, ratio %.2f)\n",
         fp.rss_bytes_per_key, fp.keys, fp.user_bytes_per_key,
         fp.user_bytes_per_key > 0
             ? fp.rss_bytes_per_key / fp.user_bytes_per_key
             : 0);

  if (!json_path.empty()) {
    FILE* f = fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    EmitJson(f, w, rows, fp);
    fclose(f);
    printf("\nJSON written to %s\n", json_path.c_str());
  } else {
    EmitJson(stdout, w, rows, fp);
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace tierbase

int main(int argc, char** argv) { return tierbase::bench::Main(argc, argv); }
