// tbb_rungs: the direct-call rungs of the traced run. Replays the
// workload's stream, single-threaded and in process, into
//
//   cache  HashEngine::Get/Set at the workload's cache budget
//   core   TierBase::Get/Set under the workload's policy, with the same
//          RemoteStorageAdapter round trip in front of an LsmStorageAdapter
//
// and prints the mean nanoseconds per GET and per SET of each rung. Each
// rung preloads the keyspace at version 0 outside the timed window and
// replays for --seconds. Subtracting the cache rung from the core rung
// gives the tiering overhead without any network in the way.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "common.h"
#include "common/env.h"
#include "tierbase/tierbase.h"

using namespace tierbase;

namespace {

struct Args {
  uint64_t seed = 1, keys = 1000;
  tbbench::ValueShape shape;
  double theta = 0.99, set_fraction = 0.1, seconds = 1;
  std::string policy = "cache-only", dir;
  size_t memory_budget = 0, memtable_bytes = 0, block_cache_bytes = 0;
};

struct RungResult {
  double get_ns = 0, set_ns = 0;
  uint64_t gets = 0, sets = 0, wrong = 0;
};

// Preloads every key at version 0 in batches, then replays the stream.
// A GET must return the key's latest version; `may_evict` also accepts a
// miss (a bare cache below the keyspace's size drops keys for good).
RungResult Replay(KvEngine* engine, const Args& a,
                  const std::vector<tbbench::Op>& ops, bool may_evict) {
  std::string value;
  std::vector<std::string> keys, values;
  for (uint32_t k = 0; k < a.keys; ++k) {
    keys.push_back(tbbench::KeyName(k));
    tbbench::MakeValue(k, 0, a.shape.BytesFor(k), &value);
    values.push_back(value);
    if (keys.size() == 256 || k + 1 == a.keys) {
      std::vector<Slice> ks(keys.begin(), keys.end()), vs(values.begin(), values.end());
      std::vector<Status> st;
      engine->MultiSet(ks, vs, &st);
      for (const Status& s : st) {
        if (!s.ok()) {
          fprintf(stderr, "tbb_rungs: preload failed: %s\n", s.ToString().c_str());
          exit(1);
        }
      }
      keys.clear();
      values.clear();
    }
  }
  std::vector<uint32_t> version(a.keys, 0);
  RungResult r;
  double get_total = 0, set_total = 0;
  int64_t end = tbbench::NowNanos() + static_cast<int64_t>(a.seconds * 1e9);
  std::string key, got;
  for (size_t i = 0; tbbench::NowNanos() < end; ++i) {
    const tbbench::Op& op = ops[i % ops.size()];
    key = tbbench::KeyName(op.key);
    if (op.is_set) {
      tbbench::MakeValue(op.key, ++version[op.key], a.shape.BytesFor(op.key), &value);
      int64_t t0 = tbbench::NowNanos();
      Status s = engine->Set(key, value);
      set_total += static_cast<double>(tbbench::NowNanos() - t0);
      r.sets++;
      if (!s.ok()) r.wrong++;
    } else {
      int64_t t0 = tbbench::NowNanos();
      Status s = engine->Get(key, &got);
      get_total += static_cast<double>(tbbench::NowNanos() - t0);
      r.gets++;
      if (s.ok()) {
        uint32_t v = version[op.key];
        if (tbbench::CheckValue(got.data(), got.size(), op.key,
                                a.shape.BytesFor(op.key), v, v) !=
            tbbench::Verdict::kOk) {
          r.wrong++;
        }
      } else if (!(s.IsNotFound() && may_evict)) {
        r.wrong++;
      }
    }
  }
  r.get_ns = r.gets ? get_total / r.gets : 0;
  r.set_ns = r.sets ? set_total / r.sets : 0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string f = argv[i];
    const char* v = argv[i + 1];
    if (f == "--seed") a.seed = strtoull(v, nullptr, 10);
    else if (f == "--keys") a.keys = strtoull(v, nullptr, 10);
    else if (f == "--value-min") a.shape.min_bytes = strtoull(v, nullptr, 10);
    else if (f == "--value-max") a.shape.max_bytes = strtoull(v, nullptr, 10);
    else if (f == "--theta") a.theta = atof(v);
    else if (f == "--set-fraction") a.set_fraction = atof(v);
    else if (f == "--seconds") a.seconds = atof(v);
    else if (f == "--policy") a.policy = v;
    else if (f == "--dir") a.dir = v;
    else if (f == "--memory-budget") a.memory_budget = strtoull(v, nullptr, 10);
    else if (f == "--memtable-bytes") a.memtable_bytes = strtoull(v, nullptr, 10);
    else if (f == "--block-cache-bytes") a.block_cache_bytes = strtoull(v, nullptr, 10);
    else {
      fprintf(stderr, "tbb_rungs: unknown flag %s\n", f.c_str());
      return 2;
    }
  }
  std::vector<tbbench::Op> ops =
      tbbench::MakeStream(a.seed, a.keys, a.theta, a.set_fraction, 1u << 20);

  cache::HashEngineOptions cache_options;
  cache_options.shards = 4;
  cache_options.memory_budget = a.memory_budget;
  RungResult cache_r;
  {
    cache::HashEngine engine(cache_options);
    cache_r = Replay(&engine, a, ops, a.memory_budget > 0);
  }

  TierBaseOptions options;
  options.cache = cache_options;
  std::unique_ptr<LsmStorageAdapter> lsm;
  std::unique_ptr<RemoteStorageAdapter> remote;
  if (a.policy == "write-through" || a.policy == "write-back") {
    options.policy = a.policy == "write-through" ? CachingPolicy::kWriteThrough
                                                 : CachingPolicy::kWriteBack;
    lsm::LsmOptions lsm_options;
    lsm_options.dir = a.dir + "/storage";
    if (a.memtable_bytes > 0) lsm_options.memtable_bytes = a.memtable_bytes;
    if (a.block_cache_bytes > 0) lsm_options.block_cache_bytes = a.block_cache_bytes;
    if (!env::CreateDirIfMissing(a.dir).ok()) return 1;
    auto opened = LsmStorageAdapter::Open(lsm_options);
    if (!opened.ok()) {
      fprintf(stderr, "tbb_rungs: %s\n", opened.status().ToString().c_str());
      return 1;
    }
    lsm = std::move(*opened);
    remote = std::make_unique<RemoteStorageAdapter>(lsm.get(),
                                                    tbbench::kStorageRttMicros);
  }
  RungResult core_r;
  {
    auto db = TierBase::Open(options, remote.get());
    if (!db.ok()) {
      fprintf(stderr, "tbb_rungs: %s\n", db.status().ToString().c_str());
      return 1;
    }
    core_r = Replay(db->get(), a, ops, false);
  }
  printf("{\"cache.get_ns\": %.3f, \"cache.set_ns\": %.3f, "
         "\"core.get_ns\": %.3f, \"core.set_ns\": %.3f, "
         "\"cache.ops\": %llu, \"core.ops\": %llu, \"wrong\": %llu}\n",
         cache_r.get_ns, cache_r.set_ns, core_r.get_ns, core_r.set_ns,
         (unsigned long long)(cache_r.gets + cache_r.sets),
         (unsigned long long)(core_r.gets + core_r.sets),
         (unsigned long long)(cache_r.wrong + core_r.wrong));
  return 0;
}
