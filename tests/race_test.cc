// Race-stress suite: hammers every cross-thread seam in the system with
// small, timed workloads. The suite is designed to run under
// ThreadSanitizer (cmake -DTIERBASE_SANITIZE=thread); each test is also a
// functional regression test, so the suite stays in the tier-1 run even
// without TSan. Every scenario targets one specific seam:
//
//   * cache eviction vs cross-shard MultiGet/MultiSet batches
//   * the write-back FlusherLoop vs foreground Set/FlushAll
//   * write-back TierBase: cache eviction vs the flusher vs reads served
//     from the dirty buffer
//   * write-back updates vs the flush batch in flight that views them
//   * write-through updates delegated to a leader vs its drain
//   * ElasticExecutor controller scale-up vs concurrent Submit/Execute
//   * the server event loop vs a SHUTDOWN drain under client load
//   * multi-reactor accept-distribute (cross-loop connection hand-off)
//     vs a racing SHUTDOWN
//   * cross-loop metrics snapshots (INFO render + per-shard gauges) vs
//     serving traffic on every loop
//   * oplog appends vs concurrent REPLPULL-style range reads
//   * the circuit breaker state machine vs concurrent callers
//   * the lock-striped latency histogram vs snapshot/reset readers
//
// Iteration counts are sized so the whole suite finishes well under a
// minute even at TSan's slowdown on one core.

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analytics/workload_analytics.h"
#include "cache/hash_engine.h"
#include "cluster_net/oplog.h"
#include "common/hash.h"
#include "common/circuit_breaker.h"
#include "common/clock.h"
#include "common/histogram.h"
#include "common/metrics.h"
#include "common/random.h"
#include "core/storage_adapter.h"
#include "core/tierbase.h"
#include "core/write_back.h"
#include "core/write_through.h"
#include "server/client.h"
#include "server/server.h"
#include "threading/elastic_executor.h"

namespace tierbase {
namespace {

std::string Key(int t, int i) {
  return "k" + std::to_string(t) + "_" + std::to_string(i);
}

// The seed of a seeded race test: TIERBASE_RACE_SEED when set, else
// `fallback`. Printed, so a failure replays.
uint64_t RaceSeed(const char* test, uint64_t fallback) {
  uint64_t seed = fallback;
  if (const char* env = std::getenv("TIERBASE_RACE_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  std::printf("%s seed %" PRIu64 "\n", test, seed);
  return seed;
}

// --- Seam 1: cross-shard Multi ops vs eviction. -------------------------

TEST(RaceTest, CacheMultiOpsVsEviction) {
  cache::HashEngineOptions opt;
  opt.shards = 4;
  opt.memory_budget = 64 << 10;  // Small enough that writers evict.
  cache::HashEngine engine(opt);

  constexpr int kWriters = 2;
  constexpr int kRounds = 200;
  constexpr int kBatch = 16;
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&engine, t] {
      std::string value(256, 'v');
      for (int r = 0; r < kRounds; ++r) {
        std::vector<std::string> key_strs;
        for (int i = 0; i < kBatch; ++i) key_strs.push_back(Key(t, i + r));
        std::vector<Slice> keys(key_strs.begin(), key_strs.end());
        std::vector<Slice> values(kBatch, Slice(value));
        std::vector<Status> statuses;
        engine.MultiSet(keys, values, &statuses);
        std::vector<std::string> out;
        engine.MultiGet(keys, &out, &statuses);
      }
    });
  }
  // A reader sweeping stats and scanning while the writers churn the LRU.
  threads.emplace_back([&engine, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)engine.GetUsage();
      (void)engine.lru_touches();
      std::vector<std::string> keys;
      (void)engine.Scan(0, 64, &keys);
      (void)engine.SweepExpired();
    }
  });

  for (int t = 0; t < kWriters; ++t) threads[t].join();
  stop.store(true, std::memory_order_release);
  threads.back().join();

  EXPECT_GT(engine.evictions(), 0u);
  // Budget is enforced (per shard) at all times.
  EXPECT_LE(engine.GetUsage().memory_bytes, opt.memory_budget + (16 << 10));
}

// --- Seam 2: write-back flusher vs foreground writes and FlushAll. ------

TEST(RaceTest, WriteBackFlusherVsForeground) {
  // A slow storage tier keeps flushed batches in the dirty set long enough
  // for re-dirtied keys to merge even when the flusher has a core of its
  // own and would otherwise keep up with the writers.
  MockStorageAdapter::Options storage_opt;
  storage_opt.latency_micros = 50;
  MockStorageAdapter storage(storage_opt);
  WriteBackOptions opt;
  opt.flush_threshold = 8;
  opt.flush_interval_micros = 500;
  opt.max_batch = 16;
  opt.max_dirty = 64;  // Small: exercises backpressure blocking too.
  WriteBackManager wb(&storage, opt);

  constexpr int kWriters = 2;
  constexpr int kOps = 400;
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&wb, t] {
      for (int i = 0; i < kOps; ++i) {
        std::string k = Key(t, i % 50);  // Re-dirty keys: merge path.
        ASSERT_TRUE(wb.MarkDirty({k}, {"v" + std::to_string(i)}, false).ok());
        // An immediate second update merges unless a whole flush cycle
        // (including its storage latency) slipped in between, so merges
        // happen however fast the flusher drains relative to the writers.
        ASSERT_TRUE(wb.MarkDirty({k}, {"w" + std::to_string(i)}, false).ok());
        std::vector<bool> found, deletes;
        std::vector<std::string> values;
        wb.GetDirty({k}, &found, &values, &deletes);
      }
    });
  }
  // FlushAll racing the interval-driven flusher and the writers.
  threads.emplace_back([&wb] {
    for (int i = 0; i < 20; ++i) ASSERT_TRUE(wb.FlushAll().ok());
  });
  for (auto& th : threads) th.join();

  ASSERT_TRUE(wb.FlushAll().ok());
  EXPECT_EQ(wb.dirty_count(), 0u);
  EXPECT_TRUE(wb.flush_error().ok());
  // Every distinct key reached storage.
  EXPECT_EQ(storage.size(), static_cast<size_t>(kWriters * 50));
  // Re-dirtying merged at least some updates into pending entries.
  EXPECT_GT(wb.GetStats().merged_updates, 0u);
}

// --- Seam 2b: write-back TierBase: eviction vs flush vs dirty reads. ----

// A tiny cache evicts dirty entries while the flusher drains them, so a
// read is served by the cache, the dirty buffer or storage depending on
// the interleaving. Each writer owns its keys and reads every write back
// at once, through Get or MultiGet: read-your-write must always hold.
// Replay a failure with TIERBASE_RACE_SEED=<printed seed>.
TEST(RaceTest, WriteBackEvictionVsFlushVsReads) {
  uint64_t seed = 20261018;
  if (const char* env = std::getenv("TIERBASE_RACE_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  std::printf("WriteBackEvictionVsFlushVsReads seed %" PRIu64 "\n", seed);
  SCOPED_TRACE("seed " + std::to_string(seed));

  MockStorageAdapter::Options storage_opt;
  storage_opt.latency_micros = 20;
  MockStorageAdapter storage(storage_opt);
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteBack;
  options.cache.shards = 4;
  options.cache.memory_budget = 16 << 10;  // ~40 entries: writers evict.
  options.write_back.flush_interval_micros = 500;
  options.write_back.flush_threshold = 16;
  options.write_back.max_batch = 32;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());
  TierBase* tb = db->get();

  constexpr int kWriters = 3;
  constexpr int kRounds = 300;
  constexpr int kKeys = 64;  // Per writer.
  std::vector<std::vector<std::string>> last(
      kWriters, std::vector<std::string>(kKeys));
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([tb, t, seed, &last] {
      Random rnd(seed + t);
      for (int r = 0; r < kRounds; ++r) {
        const size_t n = rnd.Uniform(2) == 0 ? 1 : 2 + rnd.Uniform(7);
        const size_t first = rnd.Uniform(kKeys);
        std::vector<std::string> key_strs, value_strs;
        for (size_t i = 0; i < n; ++i) {
          const size_t k = (first + i) % kKeys;
          key_strs.push_back(Key(t, static_cast<int>(k)));
          value_strs.push_back(std::to_string(r) + "/" + std::to_string(i) +
                               std::string(rnd.Uniform(400), 'v'));
          last[t][k] = value_strs.back();
        }
        std::vector<Slice> keys(key_strs.begin(), key_strs.end());
        std::vector<Slice> values(value_strs.begin(), value_strs.end());
        if (n == 1) {
          ASSERT_TRUE(tb->Set(keys[0], values[0]).ok());
          std::string got;
          ASSERT_TRUE(tb->Get(keys[0], &got).ok()) << key_strs[0];
          ASSERT_EQ(got, value_strs[0]) << key_strs[0];
          continue;
        }
        std::vector<Status> statuses;
        tb->MultiSet(keys, values, &statuses);
        for (const Status& s : statuses) ASSERT_TRUE(s.ok()) << s.ToString();
        std::vector<std::string> got;
        tb->MultiGet(keys, &got, &statuses);
        for (size_t i = 0; i < n; ++i) {
          ASSERT_TRUE(statuses[i].ok()) << key_strs[i];
          ASSERT_EQ(got[i], value_strs[i]) << key_strs[i];
        }
      }
    });
  }
  // Stats snapshots and whole-buffer flushes racing the writers.
  threads.emplace_back([tb, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)tb->GetStats();
      ASSERT_TRUE(tb->WaitIdle().ok());
    }
  });
  for (int t = 0; t < kWriters; ++t) threads[t].join();
  stop.store(true, std::memory_order_release);
  threads.back().join();

  ASSERT_TRUE(tb->WaitIdle().ok());
  const TierBase::Stats stats = tb->GetStats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.write_back.flush_batches, 0u);
  EXPECT_EQ(stats.write_back_dirty, 0u);
  // The last write to every key reached storage.
  for (int t = 0; t < kWriters; ++t) {
    for (int k = 0; k < kKeys; ++k) {
      if (last[t][k].empty()) continue;
      std::string stored;
      ASSERT_TRUE(storage.Read(Key(t, k), &stored).ok()) << Key(t, k);
      EXPECT_EQ(stored, last[t][k]) << Key(t, k);
    }
  }
}

// --- Seam 2c: write-back updates vs the flush batch in flight. ----------

// Holds every WriteBatch at a gate until the test releases it, so a flush
// stays in flight while writers update the keys it carries.
class GatedWriteStorage : public MockStorageAdapter {
 public:
  Status WriteBatch(const std::vector<BatchOp>& ops) override {
    {
      common::MutexLock lock(&gate_mu_);
      const uint64_t mine = ++arrived_;
      gate_cv_.SignalAll();
      while (!open_ && released_ < mine) gate_cv_.Wait();
    }
    return MockStorageAdapter::WriteBatch(ops);
  }

  /// Waits up to `micros` for a batch to be held; true if one is.
  bool AwaitHeld(uint64_t micros) {
    common::MutexLock lock(&gate_mu_);
    if (arrived_ == released_) gate_cv_.WaitFor(micros);
    return arrived_ > released_;
  }
  /// Lets the oldest held batch through.
  void ReleaseOne() {
    common::MutexLock lock(&gate_mu_);
    ++released_;
    gate_cv_.SignalAll();
  }
  /// Lets every batch through from now on.
  void Open() {
    common::MutexLock lock(&gate_mu_);
    open_ = true;
    gate_cv_.SignalAll();
  }

 private:
  common::Mutex gate_mu_;
  common::CondVar gate_cv_{&gate_mu_};
  uint64_t arrived_ GUARDED_BY(gate_mu_) = 0;
  uint64_t released_ GUARDED_BY(gate_mu_) = 0;
  bool open_ GUARDED_BY(gate_mu_) = false;
};

// A flush batch views its dirty entries, so an update to a key whose
// flush is on the wire must not touch the entry being written. Writers
// update and delete their own keys while a releaser holds each flush at
// the gate for a seeded pause; after each update the writer reads the key
// back, from the dirty buffer or, once flushed, from storage, and must see
// its newest update. At the end every key's newest update is in storage.
TEST(RaceTest, WriteBackUpdatesWhileFlushInFlight) {
  const uint64_t seed = RaceSeed("WriteBackUpdatesWhileFlushInFlight", 2510);
  SCOPED_TRACE("seed " + std::to_string(seed));

  GatedWriteStorage storage;
  WriteBackOptions opt;
  opt.flush_threshold = 1;
  opt.flush_interval_micros = 200;
  opt.max_batch = 64;  // Every dirty key rides in the batch on the wire.
  WriteBackManager wb(&storage, opt);

  constexpr int kWriters = 3;
  constexpr int kKeys = 8;  // Per writer.
  constexpr int kRounds = 2000;
  std::atomic<bool> stop{false};
  std::thread releaser([&storage, &stop, seed] {
    Random rnd(seed ^ 0x9e3779b97f4a7c15ULL);
    while (!stop.load(std::memory_order_acquire)) {
      if (!storage.AwaitHeld(1000)) continue;
      std::this_thread::sleep_for(std::chrono::microseconds(rnd.Uniform(300)));
      storage.ReleaseOne();
    }
  });

  // newest[t][k]: the newest update to Key(t, k); deleted marks a delete.
  struct Update {
    bool written = false;
    bool deleted = false;
    std::string value;
  };
  std::vector<std::vector<Update>> newest(kWriters,
                                          std::vector<Update>(kKeys));
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&wb, &storage, &newest, t, seed] {
      Random rnd(seed + t);
      for (int r = 0; r < kRounds; ++r) {
        const int k = static_cast<int>(rnd.Uniform(kKeys));
        const std::string key = Key(t, k);
        Update& u = newest[t][k];
        u.written = true;
        u.deleted = rnd.Uniform(8) == 0;
        u.value = u.deleted ? std::string()
                            : std::to_string(r) + "/" +
                                  std::string(rnd.Uniform(300), 'v');
        ASSERT_TRUE(wb.MarkDirty({key}, {u.value}, u.deleted).ok());

        std::vector<bool> found, deletes;
        std::vector<std::string> values;
        wb.GetDirty({key}, &found, &values, &deletes);
        if (found[0]) {
          ASSERT_EQ(deletes[0], u.deleted) << key;
          if (!u.deleted) {
            ASSERT_EQ(values[0], u.value) << key;
          }
          continue;
        }
        // Flushed already: storage holds it.
        std::string stored;
        const Status s = storage.Read(key, &stored);
        if (u.deleted) {
          ASSERT_TRUE(s.IsNotFound()) << key;
        } else {
          ASSERT_TRUE(s.ok()) << key;
          ASSERT_EQ(stored, u.value) << key;
        }
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  storage.Open();
  releaser.join();

  ASSERT_TRUE(wb.FlushAll().ok());
  EXPECT_EQ(wb.dirty_count(), 0u);
  EXPECT_GT(wb.GetStats().merged_updates, 0u);
  for (int t = 0; t < kWriters; ++t) {
    for (int k = 0; k < kKeys; ++k) {
      const Update& u = newest[t][k];
      if (!u.written) continue;
      std::string stored;
      const Status s = storage.Read(Key(t, k), &stored);
      if (u.deleted) {
        EXPECT_TRUE(s.IsNotFound()) << Key(t, k);
      } else {
        ASSERT_TRUE(s.ok()) << Key(t, k);
        EXPECT_EQ(stored, u.value) << Key(t, k);
      }
    }
  }
}

// --- Seam 2d: write-through delegated updates vs the leader's drain. ----

// Keeps, per key, every value written to it in write order, and pauses
// each WriteBatch for a seeded few microseconds first so that writers to
// the same key queue behind the one on the wire.
class OrderLogStorage : public MockStorageAdapter {
 public:
  explicit OrderLogStorage(uint64_t seed) : rnd_(seed) {}

  Status WriteBatch(const std::vector<BatchOp>& ops) override {
    uint64_t pause;
    {
      common::MutexLock lock(&log_mu_);
      pause = rnd_.Uniform(150);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(pause));
    {
      common::MutexLock lock(&log_mu_);
      for (const BatchOp& op : ops) {
        log_[op.key.ToString()].push_back(op.value.ToString());
      }
    }
    return MockStorageAdapter::WriteBatch(ops);
  }

  std::vector<std::string> Log(const std::string& key) const {
    common::MutexLock lock(&log_mu_);
    auto it = log_.find(key);
    return it == log_.end() ? std::vector<std::string>() : it->second;
  }

 private:
  mutable common::Mutex log_mu_;
  Random rnd_ GUARDED_BY(log_mu_);
  std::map<std::string, std::vector<std::string>> log_ GUARDED_BY(log_mu_);
};

// Writers share a few keys, so most updates find a leader in flight and
// are delegated to its drain, which writes them after the leader's batch.
// Each value names its writer and its op. Checked: each acknowledged update
// is covered by a storage write made after it was submitted (its own value,
// or another writer's newer one); per key, each writer's values reach
// storage in the order it wrote them, and none twice; and every key ends
// on some writer's last value.
TEST(RaceTest, WriteThroughDelegationKeepsPerKeyOrder) {
  const uint64_t seed = RaceSeed("WriteThroughDelegationKeepsPerKeyOrder",
                                 2511);
  SCOPED_TRACE("seed " + std::to_string(seed));

  OrderLogStorage storage(seed);
  PerKeyCoalescer coalescer(&storage);
  constexpr int kWriters = 4;
  constexpr int kOps = 150;
  constexpr int kKeys = 3;
  auto key_name = [](int k) { return "shared" + std::to_string(k); };
  auto value_of = [](int t, int i) {
    return std::to_string(t) + "/" + std::to_string(i);
  };

  std::vector<std::vector<std::string>> last(kWriters,
                                             std::vector<std::string>(kKeys));
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      Random rnd(seed + t);
      for (int i = 0; i < kOps; ++i) {
        const int n = 1 + static_cast<int>(rnd.Uniform(kKeys));
        const int first = static_cast<int>(rnd.Uniform(kKeys));
        const std::string value = value_of(t, i);
        std::vector<std::string> key_strs;
        std::vector<size_t> before;
        for (int j = 0; j < n; ++j) {
          key_strs.push_back(key_name((first + j) % kKeys));
          before.push_back(storage.Log(key_strs.back()).size());
          last[t][(first + j) % kKeys] = value;
        }
        std::vector<Slice> keys(key_strs.begin(), key_strs.end());
        std::vector<Slice> values(keys.size(), Slice(value));
        std::vector<Status> statuses;
        coalescer.WriteBatch(keys, values, /*is_delete=*/false, &statuses);
        for (int j = 0; j < n; ++j) {
          ASSERT_TRUE(statuses[j].ok()) << statuses[j].ToString();
          const std::vector<std::string> log = storage.Log(key_strs[j]);
          const std::string own_prefix = std::to_string(t) + "/";
          bool covered = false;
          for (size_t p = before[j]; p < log.size() && !covered; ++p) {
            covered = log[p] == value || log[p].rfind(own_prefix, 0) != 0;
          }
          ASSERT_TRUE(covered) << key_strs[j] << " " << value;
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  const PerKeyCoalescer::Stats stats = coalescer.GetStats();
  EXPECT_LT(stats.storage_writes, stats.submitted);  // Some were delegated.
  for (int k = 0; k < kKeys; ++k) {
    const std::vector<std::string> log = storage.Log(key_name(k));
    ASSERT_FALSE(log.empty());
    std::vector<int> last_op(kWriters, -1);
    for (const std::string& v : log) {
      const size_t slash = v.find('/');
      ASSERT_NE(slash, std::string::npos) << v;
      const int t = std::stoi(v.substr(0, slash));
      const int i = std::stoi(v.substr(slash + 1));
      ASSERT_GT(i, last_op[t]) << key_name(k) << ": " << v;
      last_op[t] = i;
    }
    std::string stored;
    ASSERT_TRUE(storage.Read(key_name(k), &stored).ok());
    EXPECT_EQ(stored, log.back());
    bool is_a_last_value = false;
    for (int t = 0; t < kWriters; ++t) is_a_last_value |= stored == last[t][k];
    EXPECT_TRUE(is_a_last_value) << key_name(k) << " ends on " << stored;
  }
}

// --- Seam 3: ElasticExecutor scale-up vs Submit/Execute. ----------------

TEST(RaceTest, ExecutorScaleUpVsSubmit) {
  threading::ElasticOptions opt;
  opt.mode = threading::ThreadMode::kElastic;
  opt.max_threads = 4;
  opt.scale_up_depth = 4;
  opt.control_interval_micros = 500;  // Fast controller: lots of churn.
  opt.down_votes = 2;
  auto executor = std::make_unique<threading::ElasticExecutor>(opt);

  constexpr int kSubmitters = 3;
  constexpr int kTasks = 500;
  std::atomic<int> done{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&executor, &done] {
      for (int i = 0; i < kTasks; ++i) {
        if (i % 16 == 0) {
          executor->Execute([&done] { done.fetch_add(1); });
        } else {
          executor->Submit([&done] { done.fetch_add(1); });
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  // Shutdown drains the queue: every submitted task ran exactly once.
  executor->Shutdown();
  EXPECT_EQ(done.load(), kSubmitters * kTasks);
}

// --- Seam 5: server event loop vs SHUTDOWN drain under load. ------------

TEST(RaceTest, ServerShutdownDrainUnderLoad) {
  TierBaseOptions db_opt;
  db_opt.policy = CachingPolicy::kCacheOnly;
  db_opt.cache.shards = 4;
  auto db = TierBase::Open(db_opt, nullptr);
  ASSERT_TRUE(db.ok());

  server::ServerOptions srv_opt;
  srv_opt.executor.mode = threading::ThreadMode::kElastic;
  srv_opt.executor.max_threads = 3;
  srv_opt.executor.control_interval_micros = 1'000;
  server::Server srv(db.value().get(), srv_opt);
  ASSERT_TRUE(srv.Start().ok());
  const uint16_t port = srv.port();

  constexpr int kClients = 3;
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([port, t] {
      server::Client c;
      if (!c.Connect("127.0.0.1", port).ok()) return;
      for (int i = 0; i < 150; ++i) {
        // Pipeline a small burst; replies may die mid-drain once SHUTDOWN
        // lands — IO errors are expected, data races are not.
        for (int j = 0; j < 4; ++j) {
          c.Append({"SET", Key(t, i * 4 + j), "v"});
        }
        if (!c.Flush().ok()) return;
        server::RespValue reply;
        for (int j = 0; j < 4; ++j) {
          if (!c.ReadReply(&reply).ok()) return;
        }
      }
    });
  }
  // Let the clients build up traffic, then shut down through the command
  // path (exercises the drain deadline against in-flight batches).
  std::thread shutdowner([port] {
    server::Client c;
    if (!c.Connect("127.0.0.1", port).ok()) return;
    server::RespValue reply;
    (void)c.Call({"SHUTDOWN"}, &reply);
  });
  srv.Wait();
  for (auto& th : clients) th.join();
  shutdowner.join();
  srv.Stop();
  SUCCEED();  // The assertion is "no race / no deadlock / clean exit".
}

// --- Seam 5b: accept-distribute hand-off vs SHUTDOWN. -------------------
//
// The multi-reactor acceptor parks fresh sockets in a sibling loop's
// pending-accept queue; a racing SHUTDOWN must either adopt or cleanly
// refuse every handed-off fd (no leak, no double close, no race on the
// admission gauge).

TEST(RaceTest, AcceptDistributeVsShutdown) {
  TierBaseOptions db_opt;
  db_opt.policy = CachingPolicy::kCacheOnly;
  auto db = TierBase::Open(db_opt, nullptr);
  ASSERT_TRUE(db.ok());

  server::ServerOptions srv_opt;
  srv_opt.net.io_threads = 3;
  srv_opt.executor.mode = threading::ThreadMode::kElastic;
  srv_opt.executor.max_threads = 2;
  server::Server srv(db.value().get(), srv_opt);
  ASSERT_TRUE(srv.Start().ok());
  const uint16_t port = srv.port();

  // Connection churn: every accept crosses the loop hand-off seam.
  std::atomic<bool> stop{false};
  std::vector<std::thread> churners;
  for (int t = 0; t < 3; ++t) {
    churners.emplace_back([port, &stop] {
      while (!stop.load(std::memory_order_acquire)) {
        server::Client c;
        if (!c.Connect("127.0.0.1", port).ok()) return;  // Stopped.
        server::RespValue reply;
        if (!c.Call({"PING"}, &reply).ok()) return;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread shutdowner([port] {
    server::Client c;
    if (!c.Connect("127.0.0.1", port).ok()) return;
    server::RespValue reply;
    (void)c.Call({"SHUTDOWN"}, &reply);
  });
  srv.Wait();
  stop.store(true, std::memory_order_release);
  for (auto& th : churners) th.join();
  shutdowner.join();
  srv.Stop();
  // Clean exit and a settled admission gauge: every handed-off fd was
  // either adopted-then-closed or refused-and-released.
  EXPECT_EQ(0u, srv.loop()->connections_active());
}

// --- Seam 5c: cross-loop metrics snapshots vs serving traffic. ----------
//
// INFO/METRICS render per-loop gauges from every shard while all loops are
// serving; the snapshot path must never tear or race against the loops'
// relaxed counter updates.

TEST(RaceTest, CrossLoopMetricsSnapshotsVsTraffic) {
  TierBaseOptions db_opt;
  db_opt.policy = CachingPolicy::kCacheOnly;
  db_opt.cache.shards = 4;
  auto db = TierBase::Open(db_opt, nullptr);
  ASSERT_TRUE(db.ok());

  server::ServerOptions srv_opt;
  srv_opt.net.io_threads = 4;
  srv_opt.executor.mode = threading::ThreadMode::kElastic;
  srv_opt.executor.max_threads = 2;
  server::Server srv(db.value().get(), srv_opt);
  ASSERT_TRUE(srv.Start().ok());
  const uint16_t port = srv.port();

  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([port, t, &stop] {
      server::Client c;
      if (!c.Connect("127.0.0.1", port).ok()) return;
      server::RespValue reply;
      int i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        if (!c.Call({"SET", Key(t, i++ & 255), "v"}, &reply).ok()) return;
      }
    });
  }
  // Snapshot reader: aggregated EventLoop getters, per-shard gauges, and
  // the full INFO render (which walks the per-loop block) in a tight loop.
  std::thread reader([&srv, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      server::EventLoop* loop = srv.loop();
      uint64_t sum = loop->batches_dispatched() + loop->loop_wakeups() +
                     loop->connections_accepted();
      for (size_t s = 0; s < loop->shard_count(); ++s) {
        sum += loop->shard(s)->connections_active() +
               loop->shard(s)->wakeups();
      }
      std::string info;
      srv.commands()->registry()->RenderInfo(&info);
      ASSERT_NE(std::string::npos, info.find("connected_clients_loop3"));
      (void)sum;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  stop.store(true, std::memory_order_release);
  for (auto& th : clients) th.join();
  reader.join();
  EXPECT_GE(srv.loop()->commands_dispatched(), 4u);
  srv.Stop();
}

// --- Seam 6: oplog appends vs REPLPULL-style range reads. ---------------

TEST(RaceTest, OplogAppendVsRangeReads) {
  cluster_net::OpLog oplog(128);  // Bounded ring: readers race the bound.
  // A first pull starts retention, as a replica's first REPLPULL does;
  // without it the appenders could finish before the reader's first Read
  // and the ring would never fill.
  std::vector<cluster_net::ReplOp> primed;
  ASSERT_TRUE(oplog.Read(1, 64, &primed));

  constexpr int kAppenders = 2;
  constexpr int kOps = 500;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kAppenders; ++t) {
    threads.emplace_back([&oplog, t] {
      for (int i = 0; i < kOps; ++i) {
        oplog.Append(cluster_net::ReplOp::Type::kSet, Key(t, i), "v", 0);
      }
    });
  }
  threads.emplace_back([&oplog, &stop] {
    uint64_t from = 1;
    while (!stop.load(std::memory_order_acquire)) {
      std::vector<cluster_net::ReplOp> ops;
      if (!oplog.Read(from, 64, &ops)) {
        from = oplog.min_seq();  // Fell off the ring: "full resync".
        continue;
      }
      uint64_t prev = from - 1;
      for (const auto& op : ops) {
        ASSERT_GT(op.seq, prev);  // Strictly increasing within a pull.
        prev = op.seq;
      }
      if (!ops.empty()) from = ops.back().seq + 1;
    }
  });
  for (int t = 0; t < kAppenders; ++t) threads[t].join();
  stop.store(true, std::memory_order_release);
  threads.back().join();

  EXPECT_EQ(oplog.head_seq(), static_cast<uint64_t>(kAppenders * kOps));
  EXPECT_GE(oplog.min_seq(), oplog.head_seq() - 128 + 1);
}

// --- Seam 7: circuit breaker state machine under concurrent callers. ----

TEST(RaceTest, CircuitBreakerConcurrentCallers) {
  // NetClusterClient and the proxy share per-node breakers across their
  // dispatch threads: Allow / RecordSuccess / RecordFailure race freely,
  // and the half-open gate must admit exactly one probe per cooldown.
  ManualClock clock;
  common::CircuitBreakerOptions options;
  options.failure_threshold = 3;
  options.open_duration_micros = 10;
  options.clock = &clock;
  common::CircuitBreaker breaker(options);

  constexpr int kThreads = 4;
  constexpr int kRounds = 2000;
  std::atomic<uint64_t> allowed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&breaker, &clock, &allowed, t] {
      for (int i = 0; i < kRounds; ++i) {
        if (breaker.Allow()) {
          allowed.fetch_add(1, std::memory_order_relaxed);
          // Mixed outcomes keep the machine cycling through every state.
          if ((t + i) % 3 == 0) {
            breaker.RecordFailure();
          } else {
            breaker.RecordSuccess();
          }
        }
        // Advancing time from every thread races cooldown expiry against
        // concurrent Allow calls (the half-open transition).
        if (i % 16 == 0) clock.Advance(5);
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_GT(allowed.load(), 0u);
  // Counters stayed coherent and the machine landed in a legal state.
  (void)breaker.trips();
  (void)breaker.fast_fails();
  std::string name = breaker.state_name();
  EXPECT_TRUE(name == "closed" || name == "open" || name == "half_open");
}

// --- Seam 8: lock-striped latency histogram vs snapshot readers. --------

TEST(RaceTest, LatencyHistogramRecordVsSnapshot) {
  // Every command on every executor thread records into the same striped
  // histogram while INFO / METRICS / LATENCY renders fold the stripes
  // into a snapshot. Writers must never lose a sample and readers must
  // only ever observe coherent (count, sum, max) triples.
  metrics::LatencyHistogram hist;

  constexpr int kWriters = 4;
  constexpr int kRecordsPerWriter = 20000;
  static constexpr uint64_t kMaxValue = 1 << 20;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&hist, t] {
      for (int i = 0; i < kRecordsPerWriter; ++i) {
        // Deterministic spread over the bucket range, including the
        // weighted path the coalesced trains use.
        // Never zero, so a one-sample snapshot still has a nonzero sum.
        const uint64_t v = (static_cast<uint64_t>(i) * 2654435761u +
                            static_cast<uint64_t>(t)) %
                               (kMaxValue - 1) +
                           1;
        if (i % 64 == 0) {
          hist.Record(v, 2);
        } else {
          hist.Record(v);
        }
      }
    });
  }
  std::thread reader([&hist, &stop] {
    uint64_t last_count = 0;
    while (!stop.load(std::memory_order_acquire)) {
      Histogram snap = hist.Snapshot();
      // Counts are monotone across snapshots, and each snapshot is
      // internally coherent: a non-empty one has sum and max set.
      EXPECT_GE(snap.Count(), last_count);
      last_count = snap.Count();
      if (snap.Count() > 0) {
        EXPECT_GT(snap.Sum(), 0u);
        EXPECT_LT(snap.Max(), kMaxValue);
      }
      hist.Reset();  // Exercised under writers too: Reset must not tear.
      last_count = 0;
    }
  });
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  // After the final reset-free window, one more deterministic pass: with
  // no concurrent Reset, nothing may be lost.
  hist.Reset();
  std::vector<std::thread> verify;
  for (int t = 0; t < kWriters; ++t) {
    verify.emplace_back([&hist] {
      for (int i = 0; i < kRecordsPerWriter; ++i) hist.Record(7);
    });
  }
  for (auto& t : verify) t.join();
  Histogram snap = hist.Snapshot();
  EXPECT_EQ(static_cast<uint64_t>(kWriters) * kRecordsPerWriter,
            snap.Count());
  EXPECT_EQ(static_cast<uint64_t>(kWriters) * kRecordsPerWriter * 7,
            snap.Sum());
  EXPECT_EQ(7u, snap.Max());
}

TEST(RaceTest, WorkloadAnalyticsRecordVsSnapshotAndReset) {
  // The workload observatory records on every server thread while
  // INFO/METRICS/ANALYTICS/HOTKEYS snapshot it and ANALYTICS RESET wipes
  // it, all concurrently. Nothing may tear, deadlock, or crash; snapshot
  // invariants (non-increasing curve, count coherence) must hold even
  // mid-reset.
  analytics::WorkloadAnalyticsOptions options;
  options.mrc_sample_rate = 2;   // Spatial filter exercised but most keys in.
  options.hotkey_sample_rate = 2;  // Temporal filter on.
  options.decay_interval = 4096;   // Force decays during the run.
  options.shards = 4;
  analytics::WorkloadAnalytics wa(options);

  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 50000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&wa, t] {
      char key[32];
      for (int i = 0; i < kOpsPerWriter; ++i) {
        // Skewed: half the traffic on 8 hot keys, the rest spread wide.
        const int k = (i % 2 == 0) ? i % 8 : i % 4096;
        snprintf(key, sizeof(key), "w%dk%d", t, k);
        const Slice s(key);
        const uint64_t hash = Hash64(s.data(), s.size());
        if (i % 4 == 0) {
          wa.RecordWrite(s, hash, /*value_bytes=*/100,
                         /*ttl_micros=*/1'000'000);
        } else {
          wa.RecordRead(s, hash);
        }
      }
    });
  }
  std::thread reader([&wa, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      analytics::MrcSnapshot mrc = wa.Mrc();
      double last = 1.0;
      for (const analytics::MrcPoint& p : mrc.points) {
        EXPECT_LE(p.miss_ratio, last + 1e-9);
        last = p.miss_ratio;
      }
      for (int s = 0; s < wa.shards(); ++s) wa.Mrc(s);
      std::vector<analytics::HotKey> top = wa.TopKeys(10);
      for (size_t i = 1; i < top.size(); ++i) {
        EXPECT_GE(top[i - 1].count, top[i].count);
      }
      wa.tracked_keys();
      wa.total_accesses();
    }
  });
  std::thread resetter([&wa, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      wa.Reset();
      std::this_thread::yield();
    }
  });
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  resetter.join();

  // Quiescent pass: with no concurrent reset, a hot key must surface and
  // the curve must account for every access it saw.
  wa.Reset();
  const Slice hot("hot");
  const uint64_t hot_hash = Hash64(hot.data(), hot.size());
  for (int i = 0; i < 1000; ++i) wa.RecordRead(hot, hot_hash);
  // The total counter flushes at the temporal-gate cadence (rate 2 here),
  // so up to one gate window per thread may still be pending.
  EXPECT_GE(wa.total_accesses(), 998u);
  EXPECT_LE(wa.total_accesses(), 1000u);
  std::vector<analytics::HotKey> top = wa.TopKeys(1);
  ASSERT_EQ(1u, top.size());
  EXPECT_EQ("hot", top[0].key);
}

}  // namespace
}  // namespace tierbase
