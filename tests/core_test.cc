// Tests for the TierBase core: caching policies (cache-only, WAL, WAL-PMem,
// write-through, write-back), the write-through coalescer, the write-back
// manager (merging, backpressure, flush), deferred fetching, and crash
// recovery of the cache tier.

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/env.h"
#include "core/deferred_fetch.h"
#include "core/options.h"
#include "core/storage_adapter.h"
#include "core/tierbase.h"
#include "core/write_back.h"
#include "core/write_through.h"

namespace tierbase {
namespace {

class TierBaseTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = env::MakeTempDir("tb_core_test"); }
  void TearDown() override { env::RemoveDirRecursive(dir_); }
  std::string dir_;
};

// --- Cache-only mode. ---

TEST_F(TierBaseTest, CacheOnlyBasicOps) {
  TierBaseOptions options;
  auto db = TierBase::Open(options, nullptr);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Set("k", "v").ok());
  std::string value;
  ASSERT_TRUE((*db)->Get("k", &value).ok());
  EXPECT_EQ(value, "v");
  ASSERT_TRUE((*db)->Delete("k").ok());
  EXPECT_TRUE((*db)->Get("k", &value).IsNotFound());
}

TEST_F(TierBaseTest, TieredPolicyRequiresStorage) {
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteThrough;
  auto db = TierBase::Open(options, nullptr);
  EXPECT_FALSE(db.ok());
}

TEST_F(TierBaseTest, SetExExpires) {
  TierBaseOptions options;
  ManualClock clock;
  options.cache.clock = &clock;
  auto db = TierBase::Open(options, nullptr);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->SetEx("k", "v", 1000).ok());
  std::string value;
  ASSERT_TRUE((*db)->Get("k", &value).ok());
  clock.Advance(1500);
  EXPECT_TRUE((*db)->Get("k", &value).IsNotFound());
}

TEST_F(TierBaseTest, CasInCacheOnlyMode) {
  TierBaseOptions options;
  auto db = TierBase::Open(options, nullptr);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Set("k", "a").ok());
  ASSERT_TRUE((*db)->Cas("k", "a", "b").ok());
  EXPECT_TRUE((*db)->Cas("k", "a", "c").IsAborted());
  std::string value;
  ASSERT_TRUE((*db)->Get("k", &value).ok());
  EXPECT_EQ(value, "b");
}

// --- WAL persistence (Fig 8 "WAL"). ---

TEST_F(TierBaseTest, WalFileRecoversAfterRestart) {
  TierBaseOptions options;
  options.policy = CachingPolicy::kWalFile;
  options.wal_dir = dir_;
  {
    auto db = TierBase::Open(options, nullptr);
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(
          (*db)->Set("key" + std::to_string(i), "val" + std::to_string(i))
              .ok());
    }
    ASSERT_TRUE((*db)->Delete("key7").ok());
    ASSERT_TRUE((*db)->WaitIdle().ok());
  }
  auto db = TierBase::Open(options, nullptr);
  ASSERT_TRUE(db.ok());
  std::string value;
  ASSERT_TRUE((*db)->Get("key42", &value).ok());
  EXPECT_EQ(value, "val42");
  EXPECT_TRUE((*db)->Get("key7", &value).IsNotFound());
}

TEST_F(TierBaseTest, WalPmemRecoversViaBackingFile) {
  PmemOptions pmem_options;
  pmem_options.capacity = 4 << 20;
  pmem_options.inject_latency = false;
  pmem_options.backing_file = dir_ + "/pmem.img";

  TierBaseOptions options;
  options.policy = CachingPolicy::kWalPmem;
  options.wal_dir = dir_;
  {
    auto device = PmemDevice::Create(pmem_options);
    ASSERT_TRUE(device.ok());
    options.wal_pmem_device = device->get();
    auto db = TierBase::Open(options, nullptr);
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE((*db)->Set("pk" + std::to_string(i), "pv").ok());
    }
    ASSERT_TRUE((*db)->WaitIdle().ok());
  }
  auto device = PmemDevice::Create(pmem_options);
  ASSERT_TRUE(device.ok());
  options.wal_pmem_device = device->get();
  auto db = TierBase::Open(options, nullptr);
  ASSERT_TRUE(db.ok());
  std::string value;
  ASSERT_TRUE((*db)->Get("pk99", &value).ok());
  EXPECT_EQ(value, "pv");
}

// --- Write-through (paper §4.1.1). ---

TEST_F(TierBaseTest, WriteThroughReachesStorageSynchronously) {
  MockStorageAdapter storage;
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteThrough;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Set("k", "v").ok());
  // The Set already returned: storage must hold the value.
  std::string value;
  ASSERT_TRUE(storage.Read("k", &value).ok());
  EXPECT_EQ(value, "v");
}

TEST_F(TierBaseTest, WriteThroughMissPopulatesCache) {
  MockStorageAdapter storage;
  ASSERT_TRUE(storage.Write("cold", "from-storage").ok());
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteThrough;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());
  std::string value;
  ASSERT_TRUE((*db)->Get("cold", &value).ok());
  EXPECT_EQ(value, "from-storage");
  auto stats = (*db)->GetStats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.storage_populates, 1u);
  // Second read is a cache hit: storage not consulted again.
  uint64_t reads_before = storage.counters().reads;
  ASSERT_TRUE((*db)->Get("cold", &value).ok());
  EXPECT_EQ(storage.counters().reads, reads_before);
}

TEST_F(TierBaseTest, WriteThroughStorageFailureInvalidatesCache) {
  MockStorageAdapter::Options mock_options;
  mock_options.fail_every = 2;  // Second write fails.
  MockStorageAdapter storage(mock_options);
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteThrough;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Set("k", "v1").ok());
  Status s = (*db)->Set("k", "v2");  // Storage write fails.
  EXPECT_FALSE(s.ok());
  // Consistency: the cache must not serve the unpersisted v2. The entry is
  // invalidated; the next read refetches v1 from storage.
  std::string value;
  Status read = (*db)->Get("k", &value);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(value, "v1");
}

TEST_F(TierBaseTest, WriteThroughDeletePropagates) {
  MockStorageAdapter storage;
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteThrough;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Set("k", "v").ok());
  ASSERT_TRUE((*db)->Delete("k").ok());
  std::string value;
  EXPECT_TRUE(storage.Read("k", &value).IsNotFound());
  EXPECT_TRUE((*db)->Get("k", &value).IsNotFound());
}

TEST_F(TierBaseTest, WriteThroughCasFetchesMissingKey) {
  MockStorageAdapter storage;
  ASSERT_TRUE(storage.Write("k", "stored").ok());
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteThrough;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());
  // Key is not cached; CAS must fetch it before comparing.
  ASSERT_TRUE((*db)->Cas("k", "stored", "updated").ok());
  std::string value;
  ASSERT_TRUE(storage.Read("k", &value).ok());
  EXPECT_EQ(value, "updated");
}

// --- PerKeyCoalescer unit behaviour. ---

TEST(PerKeyCoalescerTest, AllWritersObserveSuccess) {
  MockStorageAdapter storage;
  PerKeyCoalescer coalescer(&storage, /*coalesce=*/true);
  std::vector<Status> statuses;
  coalescer.WriteBatch({"k"}, {"v"}, /*is_delete=*/false, &statuses);
  ASSERT_TRUE(statuses[0].ok());
  EXPECT_EQ(storage.counters().writes, 1u);
  auto stats = coalescer.GetStats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.storage_writes, 1u);
}

TEST(PerKeyCoalescerTest, ConcurrentWritesSameKeyCoalesce) {
  MockStorageAdapter inner;
  RemoteStorageAdapter storage(&inner, /*rtt_micros=*/2'000);
  PerKeyCoalescer coalescer(&storage, /*coalesce=*/true);
  constexpr int kThreads = 8, kWritesPerThread = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kWritesPerThread; ++i) {
        std::string value = std::to_string(t * 100 + i);
        std::vector<Status> statuses;
        coalescer.WriteBatch({"hotkey"}, {value}, false, &statuses);
        ASSERT_TRUE(statuses[0].ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  auto stats = coalescer.GetStats();
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kThreads) * kWritesPerThread);
  // The whole point: far fewer storage writes than submissions.
  EXPECT_LT(stats.storage_writes, stats.submitted);
}

TEST(PerKeyCoalescerTest, ErrorsPropagateToWaiters) {
  MockStorageAdapter::Options mock_options;
  mock_options.fail_every = 1;  // Storage down.
  MockStorageAdapter storage(mock_options);
  PerKeyCoalescer coalescer(&storage, true);
  std::vector<Status> statuses;
  coalescer.WriteBatch({"k"}, {"v"}, false, &statuses);
  EXPECT_TRUE(statuses[0].IsIOError());
}

TEST(PerKeyCoalescerTest, DisabledCoalescingWritesEveryUpdate) {
  MockStorageAdapter storage;
  PerKeyCoalescer coalescer(&storage, /*coalesce=*/false);
  for (int i = 0; i < 20; ++i) {
    std::string value = std::to_string(i);
    std::vector<Status> statuses;
    coalescer.WriteBatch({"k"}, {value}, false, &statuses);
    ASSERT_TRUE(statuses[0].ok());
  }
  EXPECT_EQ(storage.counters().writes, 20u);
}

// --- Write-back (paper §4.1.2). ---

TEST_F(TierBaseTest, WriteBackDefersAndFlushes) {
  MockStorageAdapter storage;
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteBack;
  options.write_back.flush_interval_micros = 5'000;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Set("k", "v").ok());
  // Deferred write: will reach storage once flushed.
  ASSERT_TRUE((*db)->WaitIdle().ok());
  std::string value;
  ASSERT_TRUE(storage.Read("k", &value).ok());
  EXPECT_EQ(value, "v");
}

TEST_F(TierBaseTest, WriteBackReadsSeeUnflushedWrites) {
  MockStorageAdapter storage;
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteBack;
  options.write_back.flush_interval_micros = 60'000'000;  // Don't auto-flush.
  options.write_back.flush_threshold = 1 << 30;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Set("k", "dirty-value").ok());
  std::string value;
  ASSERT_TRUE((*db)->Get("k", &value).ok());
  EXPECT_EQ(value, "dirty-value");
}

// Regression: FlushAll once only nudged flush_cv_, whose predicate ignored
// the request — with a long interval and a huge threshold the flusher went
// straight back to sleep and FlushAll (and thus WaitIdle and the
// destructor) spun forever.
TEST_F(TierBaseTest, WriteBackWaitIdleFlushesDespiteIdleFlusher) {
  MockStorageAdapter storage;
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteBack;
  options.write_back.flush_interval_micros = 60'000'000;  // Never on its own.
  options.write_back.flush_threshold = 1 << 30;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Set("k", "must-flush").ok());
  ASSERT_TRUE((*db)->WaitIdle().ok());
  std::string value;
  ASSERT_TRUE(storage.Read("k", &value).ok());
  EXPECT_EQ(value, "must-flush");
}

TEST_F(TierBaseTest, WriteBackMergesUpdatesToSameKey) {
  MockStorageAdapter storage;
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteBack;
  options.write_back.flush_interval_micros = 100'000;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*db)->Set("hot", "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE((*db)->WaitIdle().ok());
  std::string value;
  ASSERT_TRUE(storage.Read("hot", &value).ok());
  EXPECT_EQ(value, "v99");  // Latest wins.
  auto stats = (*db)->GetStats();
  EXPECT_GT(stats.write_back.merged_updates, 0u);
  // Storage saw far fewer individual writes than 100.
  EXPECT_LT(storage.counters().writes, 100u);
}

TEST_F(TierBaseTest, WriteBackUpdateOnMissingKeyFetchesFirst) {
  MockStorageAdapter storage;
  ASSERT_TRUE(storage.Write("k", "original").ok());
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteBack;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());
  // CAS on a key not in cache: §4.1.2's deferred cache-fetch path.
  ASSERT_TRUE((*db)->Cas("k", "original", "updated").ok());
  ASSERT_TRUE((*db)->WaitIdle().ok());
  std::string value;
  ASSERT_TRUE(storage.Read("k", &value).ok());
  EXPECT_EQ(value, "updated");
}

TEST_F(TierBaseTest, WriteBackFlushAllOnShutdownNoDataLoss) {
  MockStorageAdapter storage;
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteBack;
  options.write_back.flush_interval_micros = 60'000'000;
  options.write_back.flush_threshold = 1 << 30;
  {
    auto db = TierBase::Open(options, &storage);
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE((*db)->Set("key" + std::to_string(i), "v").ok());
    }
    // Destructor must flush dirty data.
  }
  EXPECT_EQ(storage.size(), 50u);
}

// A storage tier whose first WriteBatch waits until Release(), so a test
// can fill the dirty set while a flush is on the wire.
class HeldFirstWriteStorage : public MockStorageAdapter {
 public:
  Status WriteBatch(const std::vector<BatchOp>& ops) override {
    {
      common::MutexLock lock(&mu_);
      while (!released_) cv_.Wait();
    }
    return MockStorageAdapter::WriteBatch(ops);
  }
  void Release() {
    common::MutexLock lock(&mu_);
    released_ = true;
    cv_.SignalAll();
  }

 private:
  common::Mutex mu_;
  common::CondVar cv_{&mu_};
  bool released_ GUARDED_BY(mu_) = false;
};

TEST(WriteBackManagerTest, BackpressureBlocksThenRecovers) {
  HeldFirstWriteStorage storage;
  WriteBackOptions options;
  options.max_dirty = 16;
  options.flush_threshold = 8;
  options.flush_interval_micros = 1'000;
  options.max_batch = 8;
  WriteBackManager manager(&storage, options);
  // The first flush holds until a writer has waited on backpressure (or
  // 10 s pass, which turns a hang into a failure), so the writers cannot
  // outrun it by timing alone.
  std::thread releaser([&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (manager.GetStats().backpressure_waits == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    storage.Release();
  });
  // Push far beyond max_dirty; backpressure must engage but all writes land.
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        manager.MarkDirty({"key" + std::to_string(i)}, {"v"}, false).ok());
  }
  releaser.join();
  ASSERT_TRUE(manager.FlushAll().ok());
  EXPECT_EQ(storage.size(), 500u);
  auto stats = manager.GetStats();
  EXPECT_GT(stats.backpressure_waits, 0u);
  EXPECT_GT(stats.flush_batches, 0u);
}

TEST(WriteBackManagerTest, DirtyStateVisible) {
  MockStorageAdapter storage;
  WriteBackOptions options;
  options.flush_interval_micros = 60'000'000;
  options.flush_threshold = 1 << 30;
  WriteBackManager manager(&storage, options);
  ASSERT_TRUE(manager.MarkDirty({"k"}, {"v"}, false).ok());
  std::vector<bool> found, deletes;
  std::vector<std::string> values;
  manager.GetDirty({"k", "clean"}, &found, &values, &deletes);
  EXPECT_TRUE(found[0]);
  EXPECT_EQ(values[0], "v");
  EXPECT_FALSE(deletes[0]);
  EXPECT_FALSE(found[1]);
  ASSERT_TRUE(manager.FlushAll().ok());
  manager.GetDirty({"k"}, &found, &values, &deletes);
  EXPECT_FALSE(found[0]);
  EXPECT_EQ(manager.dirty_count(), 0u);
}

TEST(WriteBackManagerTest, DeletesFlushAsTombstones) {
  MockStorageAdapter storage;
  ASSERT_TRUE(storage.Write("k", "v").ok());
  WriteBackOptions options;
  WriteBackManager manager(&storage, options);
  ASSERT_TRUE(manager.MarkDirty({"k"}, {""}, true).ok());
  ASSERT_TRUE(manager.FlushAll().ok());
  std::string value;
  EXPECT_TRUE(storage.Read("k", &value).IsNotFound());
}

TEST(WriteBackManagerTest, BatchesReduceRemoteCalls) {
  MockStorageAdapter storage;
  WriteBackOptions options;
  options.flush_interval_micros = 60'000'000;
  options.flush_threshold = 1 << 30;
  options.max_batch = 64;
  WriteBackManager manager(&storage, options);
  for (int i = 0; i < 256; ++i) {
    ASSERT_TRUE(
        manager.MarkDirty({"key" + std::to_string(i)}, {"v"}, false).ok());
  }
  ASSERT_TRUE(manager.FlushAll().ok());
  // 256 ops in >= 4 batches but far fewer than 256 remote calls.
  EXPECT_LE(storage.counters().batch_calls, 16u);
  EXPECT_EQ(storage.size(), 256u);
}

// A storage tier that records the keys of every WriteBatch, in order.
class RecordingStorage : public MockStorageAdapter {
 public:
  Status WriteBatch(const std::vector<BatchOp>& ops) override {
    {
      common::MutexLock lock(&record_mu_);
      batches_.emplace_back();
      for (const BatchOp& op : ops) {
        batches_.back().push_back(op.key.ToString());
      }
    }
    return MockStorageAdapter::WriteBatch(ops);
  }

  std::vector<std::vector<std::string>> batches() const {
    common::MutexLock lock(&record_mu_);
    return batches_;
  }

 private:
  mutable common::Mutex record_mu_;
  std::vector<std::vector<std::string>> batches_ GUARDED_BY(record_mu_);
};

// The flusher drains the dirty set oldest update first, so no entry
// waits behind ones dirtied after it.
TEST(WriteBackManagerTest, FlushesOldestFirst) {
  RecordingStorage storage;
  WriteBackOptions options;  // Defaults: max_batch 256, threshold 1024.
  options.flush_interval_micros = 60'000'000;
  WriteBackManager manager(&storage, options);
  std::vector<std::string> key_strs;
  for (int i = 0; i < 1280; ++i) key_strs.push_back("k" + std::to_string(i));
  std::vector<Slice> keys(key_strs.begin(), key_strs.end());
  std::vector<Slice> values(keys.size(), Slice("v"));
  ASSERT_TRUE(manager.MarkDirty(keys, values, false).ok());
  // Re-dirtied after k1279: it must flush after k1279, whether or not its
  // first update was already flushed or in flight.
  ASSERT_TRUE(manager.MarkDirty({"k1000"}, {"v2"}, false).ok());
  ASSERT_TRUE(manager.FlushAll().ok());

  const auto batches = storage.batches();
  ASSERT_FALSE(batches.empty());
  EXPECT_EQ(batches[0], std::vector<std::string>(key_strs.begin(),
                                                 key_strs.begin() + 256));
  std::vector<std::string> order, expected;
  for (const auto& batch : batches) {
    for (const std::string& key : batch) {
      if (key != "k1000") order.push_back(key);
    }
  }
  for (const std::string& key : key_strs) {
    if (key != "k1000") expected.push_back(key);
  }
  EXPECT_EQ(order, expected);
  EXPECT_EQ(batches.back().back(), "k1000");
  std::string value;
  ASSERT_TRUE(storage.Read("k1000", &value).ok());
  EXPECT_EQ(value, "v2");
}

// Regression (crash-safety audit): flush_error_ used to latch forever —
// the flusher thread exited on the first storage failure and every later
// MarkDirty bounced. One transient failure must now be retried with
// backoff, the manager must drain on its own, and the error must clear.
TEST(WriteBackManagerTest, TransientFlushFailureRetriesAndClears) {
  MockStorageAdapter::Options mock_options;
  mock_options.fail_first = 1;  // First storage batch fails, then heals.
  MockStorageAdapter storage(mock_options);
  WriteBackOptions options;
  options.flush_threshold = 1;  // Flush eagerly.
  options.flush_interval_micros = 1'000;
  options.retry_backoff_micros = 500;
  options.retry_backoff_max_micros = 2'000;
  WriteBackManager manager(&storage, options);
  ASSERT_TRUE(manager.MarkDirty({"k"}, {"v"}, false).ok());

  // The manager must drain without any outside nudge beyond FlushAll.
  ASSERT_TRUE(manager.FlushAll().ok());
  EXPECT_EQ(manager.dirty_count(), 0u);
  std::string value;
  ASSERT_TRUE(storage.Read("k", &value).ok());
  EXPECT_EQ(value, "v");

  auto stats = manager.GetStats();
  EXPECT_GE(stats.flush_failures, 1u);
  EXPECT_GE(stats.flush_retries, 1u);
  EXPECT_TRUE(manager.flush_error().ok());  // Cleared on success.

  // Writes flow again after the error cleared.
  ASSERT_TRUE(manager.MarkDirty({"k2"}, {"v2"}, false).ok());
  ASSERT_TRUE(manager.FlushAll().ok());
  EXPECT_EQ(storage.size(), 2u);
}

// A storage tier that stays down must not hang FlushAll or the destructor:
// after max_flush_failures consecutive failures both give up and surface
// the error, leaving the entries dirty.
TEST(WriteBackManagerTest, PersistentFlushFailureSurfacesBounded) {
  MockStorageAdapter::Options mock_options;
  mock_options.fail_every = 1;  // Every write fails.
  MockStorageAdapter storage(mock_options);
  WriteBackOptions options;
  options.flush_threshold = 1;
  options.flush_interval_micros = 500;
  options.retry_backoff_micros = 100;
  options.retry_backoff_max_micros = 500;
  options.max_flush_failures = 4;
  {
    WriteBackManager manager(&storage, options);
    ASSERT_TRUE(manager.MarkDirty({"k"}, {"v"}, false).ok());
    Status s = manager.FlushAll();
    EXPECT_TRUE(s.IsIOError()) << s.ToString();
    EXPECT_EQ(manager.dirty_count(), 1u);  // Entry stays dirty, not lost.
    EXPECT_FALSE(manager.flush_error().ok());
    // Destructor must terminate despite the un-flushable entry.
  }
  EXPECT_EQ(storage.size(), 0u);
}

// --- DeferredFetcher. ---

TEST(DeferredFetcherTest, FetchesFromStorage) {
  MockStorageAdapter storage;
  ASSERT_TRUE(storage.Write("k", "v").ok());
  DeferredFetcher fetcher(&storage);
  std::vector<std::string> values;
  std::vector<Status> statuses;
  fetcher.FetchMany({"k"}, &values, &statuses);
  ASSERT_TRUE(statuses[0].ok());
  EXPECT_EQ(values[0], "v");
  fetcher.FetchMany({"missing"}, &values, &statuses);
  EXPECT_TRUE(statuses[0].IsNotFound());
}

TEST(DeferredFetcherTest, ConcurrentMissesShareBatches) {
  MockStorageAdapter::Options mock_options;
  mock_options.latency_micros = 500;  // Make batching worthwhile & likely.
  MockStorageAdapter storage(mock_options);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(storage.Write("key" + std::to_string(i), "v").ok());
  }
  DeferredFetcher fetcher(&storage);

  std::vector<std::thread> threads;
  std::atomic<int> ok_count{0};
  for (int t = 0; t < 16; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 4; ++i) {
        std::vector<std::string> values;
        std::vector<Status> statuses;
        fetcher.FetchMany({"key" + std::to_string(t * 4 + i)}, &values,
                          &statuses);
        if (statuses[0].ok()) ok_count.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_count.load(), 64);
  auto stats = fetcher.GetStats();
  EXPECT_EQ(stats.fetches, 64u);
  // Batching happened: fewer storage calls than fetches.
  EXPECT_LT(stats.batch_calls, 64u);
}

TEST(DeferredFetcherTest, BatchFetchReportsEveryKeyFromOneRead) {
  MockStorageAdapter storage;
  ASSERT_TRUE(storage.Write("k", "v").ok());
  DeferredFetcher fetcher(&storage);
  std::vector<std::string> values;
  std::vector<Status> statuses;
  fetcher.FetchMany({"k", "missing", "k"}, &values, &statuses);
  ASSERT_TRUE(statuses[0].ok());
  EXPECT_EQ(values[0], "v");
  EXPECT_TRUE(statuses[1].IsNotFound());
  ASSERT_TRUE(statuses[2].ok());
  EXPECT_EQ(values[2], "v");
  EXPECT_EQ(storage.counters().batch_calls, 1u);  // One MultiRead.
  auto stats = fetcher.GetStats();
  EXPECT_EQ(stats.fetches, 3u);
  EXPECT_EQ(stats.shared, 1u);  // The repeated key rode along.
}

// --- Hit-ratio accounting. ---

TEST_F(TierBaseTest, HitRatioTracksCacheEffectiveness) {
  MockStorageAdapter storage;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(storage.Write("key" + std::to_string(i), "v").ok());
  }
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteThrough;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());
  std::string value;
  // First pass: all misses (populate). Second pass: all hits.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*db)->Get("key" + std::to_string(i), &value).ok());
  }
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*db)->Get("key" + std::to_string(i), &value).ok());
  }
  EXPECT_NEAR((*db)->hit_ratio(), 0.5, 0.01);
  auto stats = (*db)->GetStats();
  EXPECT_EQ(stats.gets, 200u);
  EXPECT_EQ(stats.cache_hits, 100u);
  EXPECT_EQ(stats.cache_misses, 100u);
}

// --- Cache budget integration: tiered mode evicts but storage retains. ---

TEST_F(TierBaseTest, EvictionIsSafeUnderWriteThrough) {
  MockStorageAdapter storage;
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteThrough;
  options.cache.memory_budget = 32 * 1024;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        (*db)->Set("key" + std::to_string(i), std::string(300, 'e')).ok());
  }
  EXPECT_GT((*db)->cache()->evictions(), 0u);
  // Every key remains readable (through storage on cache miss).
  std::string value;
  for (int i = 0; i < 500; i += 50) {
    ASSERT_TRUE((*db)->Get("key" + std::to_string(i), &value).ok()) << i;
    EXPECT_EQ(value.size(), 300u);
  }
}

// The cache evicts dirty entries freely: before any flush, every
// acknowledged write still reads back, from the dirty buffer when the cache
// no longer holds it, and after the flush every key is in storage.
TEST_F(TierBaseTest, EvictionIsSafeUnderWriteBack) {
  MockStorageAdapter storage;
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteBack;
  options.cache.memory_budget = 32 * 1024;
  options.write_back.flush_interval_micros = 60'000'000;
  options.write_back.flush_threshold = 1 << 30;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());
  auto value_of = [](int i) { return std::string(300, 'a' + i % 26); };
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE((*db)->Set("key" + std::to_string(i), value_of(i)).ok());
  }
  EXPECT_GT((*db)->cache()->evictions(), 0u);
  EXPECT_EQ(storage.size(), 0u);
  std::string value;
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE((*db)->Get("key" + std::to_string(i), &value).ok()) << i;
    EXPECT_EQ(value, value_of(i)) << i;
  }
  ASSERT_TRUE((*db)->WaitIdle().ok());
  EXPECT_EQ(storage.size(), 500u);
  for (int i = 0; i < 500; i += 25) {
    ASSERT_TRUE((*db)->Get("key" + std::to_string(i), &value).ok()) << i;
    EXPECT_EQ(value, value_of(i)) << i;
  }
}

// A value larger than a cache shard's whole budget cannot be cached, but
// storage (or the write-back dirty buffer) takes it: the write answers
// storage's OK and reads serve the full value, not an older cached copy.
TEST_F(TierBaseTest, TieredWriteLargerThanShardBudgetSucceeds) {
  for (CachingPolicy policy :
       {CachingPolicy::kWriteThrough, CachingPolicy::kWriteBack}) {
    SCOPED_TRACE(CachingPolicyName(policy));
    MockStorageAdapter storage;
    TierBaseOptions options;
    options.policy = policy;
    options.cache.memory_budget = 32 * 1024;
    auto db = TierBase::Open(options, &storage);
    ASSERT_TRUE(db.ok());
    const std::string big(100 * 1024, 'b');

    ASSERT_TRUE((*db)->Set("k", "small").ok());
    Status s = (*db)->Set("k", big);
    EXPECT_TRUE(s.ok()) << s.ToString();
    std::vector<Status> statuses;
    (*db)->MultiSet({"a", "m"}, {"a1", big}, &statuses);
    EXPECT_TRUE(statuses[0].ok()) << statuses[0].ToString();
    EXPECT_TRUE(statuses[1].ok()) << statuses[1].ToString();

    std::string value;
    ASSERT_TRUE((*db)->Get("k", &value).ok());
    EXPECT_EQ(value, big);
    ASSERT_TRUE((*db)->Get("m", &value).ok());
    EXPECT_EQ(value, big);
    ASSERT_TRUE((*db)->Get("a", &value).ok());
    EXPECT_EQ(value, "a1");
    ASSERT_TRUE((*db)->WaitIdle().ok());
    ASSERT_TRUE(storage.Read("k", &value).ok());
    EXPECT_EQ(value, big);
    ASSERT_TRUE(storage.Read("m", &value).ok());
    EXPECT_EQ(value, big);
  }
}

// A sequential preload four times the cache's size, past max_dirty (8192),
// under the default flush settings: backpressure, flushes and evictions
// all run, and every key reaches storage.
TEST_F(TierBaseTest, WriteBackPreloadLargerThanCacheReachesStorage) {
  MockStorageAdapter storage;
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteBack;
  options.cache.memory_budget = 1024 * 1024;  // ~11k entries of 89 bytes.
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());
  constexpr int kKeys = 48'000;
  char key[16];
  for (int i = 0; i < kKeys; ++i) {
    std::snprintf(key, sizeof(key), "key%06d", i);
    ASSERT_TRUE((*db)->Set(key, std::string(16, 'v')).ok()) << i;
  }
  ASSERT_TRUE((*db)->WaitIdle().ok());
  EXPECT_EQ(storage.size(), static_cast<size_t>(kKeys));
  EXPECT_GT((*db)->GetStats().evictions, static_cast<uint64_t>(kKeys) / 2);
}

}  // namespace
}  // namespace tierbase

// --- RemoteStorageAdapter: the disaggregated-RPC cost model. ---

namespace tierbase {
namespace {

TEST(RemoteStorageAdapterTest, ForwardsAndCounts) {
  MockStorageAdapter inner;
  RemoteStorageAdapter remote(&inner, /*rtt_micros=*/0);
  ASSERT_TRUE(remote.Write("k", "v").ok());
  std::string value;
  ASSERT_TRUE(remote.Read("k", &value).ok());
  EXPECT_EQ(value, "v");
  std::vector<StorageAdapter::BatchOp> batch = {{"a", "1", false},
                                                {"b", "2", false}};
  ASSERT_TRUE(remote.WriteBatch(batch).ok());
  auto counters = remote.counters();
  EXPECT_EQ(counters.writes, 3u);       // 1 single + 2 batched.
  EXPECT_EQ(counters.batch_calls, 1u);  // One round trip for the batch.
  ASSERT_TRUE(remote.Delete("k").ok());
  EXPECT_TRUE(remote.Read("k", &value).IsNotFound());
}

TEST(RemoteStorageAdapterTest, BatchPaysOneRoundTrip) {
  MockStorageAdapter inner;
  RemoteStorageAdapter remote(&inner, /*rtt_micros=*/300);
  // 64 individual writes vs one 64-op batch: the batch must be close to
  // 64x cheaper in wall time.
  std::vector<std::string> keys;  // A BatchOp views its key.
  for (int i = 0; i < 64; ++i) keys.push_back("b" + std::to_string(i));
  std::vector<StorageAdapter::BatchOp> batch;
  for (const std::string& key : keys) batch.push_back({key, "v", false});
  Stopwatch batch_timer;
  ASSERT_TRUE(remote.WriteBatch(batch).ok());
  double batch_secs = batch_timer.ElapsedSeconds();

  Stopwatch single_timer;
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(remote.Write("s" + std::to_string(i), "v").ok());
  }
  double single_secs = single_timer.ElapsedSeconds();
  EXPECT_GT(single_secs, batch_secs * 10);
}

// The modelled round trip is a wait, not compute: every call lasts at
// least rtt_micros on the steady clock, and the thread is off CPU for
// nearly all of it.
TEST(RemoteStorageAdapterTest, RoundTripBlocksOffCpu) {
  MockStorageAdapter inner;
  constexpr uint64_t kRttMicros = 2000;
  RemoteStorageAdapter remote(&inner, kRttMicros);
  auto thread_cpu_nanos = [] {
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
  };
  const int64_t cpu_start = thread_cpu_nanos();
  const auto wall_start = std::chrono::steady_clock::now();
  for (int i = 0; i < 20; ++i) {
    const auto call_start = std::chrono::steady_clock::now();
    ASSERT_TRUE(remote.Write("k" + std::to_string(i), "v").ok());
    const auto elapsed = std::chrono::steady_clock::now() - call_start;
    EXPECT_GE(elapsed, std::chrono::microseconds(kRttMicros)) << "call " << i;
  }
  const int64_t wall_nanos =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count();
  const int64_t cpu_nanos = thread_cpu_nanos() - cpu_start;
  EXPECT_LT(cpu_nanos, wall_nanos / 10)
      << "thread CPU " << cpu_nanos << " ns over " << wall_nanos
      << " ns of wall time";
}

TEST(RemoteStorageAdapterTest, MultiReadSharesRoundTrip) {
  MockStorageAdapter inner;
  ASSERT_TRUE(inner.Write("a", "1").ok());
  ASSERT_TRUE(inner.Write("b", "2").ok());
  RemoteStorageAdapter remote(&inner, 0);
  std::vector<std::string> values;
  std::vector<bool> found;
  ASSERT_TRUE(remote.MultiRead({"a", "b", "missing"}, &values, &found).ok());
  ASSERT_EQ(found.size(), 3u);
  EXPECT_TRUE(found[0]);
  EXPECT_TRUE(found[1]);
  EXPECT_FALSE(found[2]);
  EXPECT_EQ(values[1], "2");
}

// --- Differential property test across every caching policy. ---

struct PolicyParam {
  CachingPolicy policy;
  const char* name;
};

class PolicyDifferentialTest : public ::testing::TestWithParam<PolicyParam> {};

TEST_P(PolicyDifferentialTest, MatchesModelUnderRandomOps) {
  const CachingPolicy policy = GetParam().policy;
  std::string dir = env::MakeTempDir("tb_policy_diff");

  PmemOptions pmem_options;
  pmem_options.capacity = 8 << 20;
  pmem_options.inject_latency = false;
  auto device = PmemDevice::Create(pmem_options);
  ASSERT_TRUE(device.ok());

  MockStorageAdapter storage;
  TierBaseOptions options;
  options.policy = policy;
  options.wal_dir = dir;
  options.wal_pmem_device = device->get();
  options.write_back.flush_interval_micros = 5'000;

  bool tiered = policy == CachingPolicy::kWriteThrough ||
                policy == CachingPolicy::kWriteBack;
  auto db = TierBase::Open(options, tiered ? &storage : nullptr);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  Random rng(2024);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 4000; ++i) {
    std::string key = "key" + std::to_string(rng.Uniform(300));
    int action = static_cast<int>(rng.Uniform(10));
    if (action < 6) {
      std::string value = "v" + std::to_string(i);
      ASSERT_TRUE((*db)->Set(key, value).ok());
      model[key] = value;
    } else if (action < 8) {
      (*db)->Delete(key);
      model.erase(key);
    } else {
      std::string value;
      Status s = (*db)->Get(key, &value);
      auto it = model.find(key);
      if (it == model.end()) {
        ASSERT_TRUE(s.IsNotFound()) << GetParam().name << " " << key;
      } else {
        ASSERT_TRUE(s.ok()) << GetParam().name << " " << key;
        ASSERT_EQ(value, it->second) << GetParam().name << " " << key;
      }
    }
  }
  ASSERT_TRUE((*db)->WaitIdle().ok());
  for (const auto& [key, expected] : model) {
    std::string value;
    ASSERT_TRUE((*db)->Get(key, &value).ok()) << GetParam().name << " " << key;
    ASSERT_EQ(value, expected) << GetParam().name << " " << key;
  }
  db.value().reset();
  env::RemoveDirRecursive(dir);
}

// MultiGet/MultiSet must agree with the single-op model under every
// caching policy, including mixed hit/miss/dirty batches.
TEST_P(PolicyDifferentialTest, MultiOpsMatchModel) {
  const CachingPolicy policy = GetParam().policy;
  std::string dir = env::MakeTempDir("tb_policy_multi");

  PmemOptions pmem_options;
  pmem_options.capacity = 8 << 20;
  pmem_options.inject_latency = false;
  auto device = PmemDevice::Create(pmem_options);
  ASSERT_TRUE(device.ok());

  MockStorageAdapter storage;
  TierBaseOptions options;
  options.policy = policy;
  options.cache.shards = 4;
  options.wal_dir = dir;
  options.wal_pmem_device = device->get();
  options.write_back.flush_interval_micros = 5'000;

  bool tiered = policy == CachingPolicy::kWriteThrough ||
                policy == CachingPolicy::kWriteBack;
  auto db = TierBase::Open(options, tiered ? &storage : nullptr);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  Random rng(77);
  std::map<std::string, std::string> model;
  for (int round = 0; round < 60; ++round) {
    std::vector<std::string> key_strs, value_strs;
    for (int i = 0; i < 16; ++i) {
      key_strs.push_back("key" + std::to_string(rng.Uniform(200)));
      value_strs.push_back("v" + std::to_string(round) + "-" +
                           std::to_string(i));
    }
    std::vector<Slice> keys(key_strs.begin(), key_strs.end());
    if (round % 3 != 0) {
      std::vector<Slice> values(value_strs.begin(), value_strs.end());
      std::vector<Status> statuses;
      (*db)->MultiSet(keys, values, &statuses);
      for (size_t i = 0; i < keys.size(); ++i) {
        ASSERT_TRUE(statuses[i].ok())
            << GetParam().name << " " << key_strs[i] << " "
            << statuses[i].ToString();
        model[key_strs[i]] = value_strs[i];
      }
      // Exercise single-op Delete between batches.
      if (round % 6 == 1 && !model.empty()) {
        std::string victim = model.begin()->first;
        (*db)->Delete(victim);
        model.erase(victim);
      }
    } else {
      key_strs.push_back("never-written-" + std::to_string(round));
      keys.assign(key_strs.begin(), key_strs.end());
      std::vector<std::string> out;
      std::vector<Status> statuses;
      (*db)->MultiGet(keys, &out, &statuses);
      for (size_t i = 0; i < keys.size(); ++i) {
        auto it = model.find(key_strs[i]);
        if (it == model.end()) {
          ASSERT_TRUE(statuses[i].IsNotFound())
              << GetParam().name << " " << key_strs[i] << " "
              << statuses[i].ToString();
        } else {
          ASSERT_TRUE(statuses[i].ok())
              << GetParam().name << " " << key_strs[i] << " "
              << statuses[i].ToString();
          ASSERT_EQ(out[i], it->second) << GetParam().name;
        }
      }
    }
  }
  ASSERT_TRUE((*db)->WaitIdle().ok());
  for (const auto& [key, expected] : model) {
    std::string value;
    ASSERT_TRUE((*db)->Get(key, &value).ok()) << GetParam().name << " " << key;
    ASSERT_EQ(value, expected) << GetParam().name << " " << key;
  }
  db.value().reset();
  env::RemoveDirRecursive(dir);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyDifferentialTest,
    ::testing::Values(PolicyParam{CachingPolicy::kCacheOnly, "cache_only"},
                      PolicyParam{CachingPolicy::kWalFile, "wal_file"},
                      PolicyParam{CachingPolicy::kWalPmem, "wal_pmem"},
                      PolicyParam{CachingPolicy::kWriteThrough,
                                  "write_through"},
                      PolicyParam{CachingPolicy::kWriteBack, "write_back"}),
    [](const ::testing::TestParamInfo<PolicyParam>& info) {
      return std::string(info.param.name);
    });

// --- Batched-path plumbing details. ---

TEST(TierBaseMultiOpsTest, WriteThroughMultiSetCoalescesToOneStorageCall) {
  MockStorageAdapter storage;
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteThrough;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());

  std::vector<std::string> key_strs, value_strs;
  for (int i = 0; i < 32; ++i) {
    key_strs.push_back("wt" + std::to_string(i));
    value_strs.push_back("v" + std::to_string(i));
  }
  // Duplicate key inside the batch: the later value must win after
  // intra-batch coalescing.
  key_strs.push_back("wt0");
  value_strs.push_back("v0-final");
  std::vector<Slice> keys(key_strs.begin(), key_strs.end());
  std::vector<Slice> values(value_strs.begin(), value_strs.end());
  std::vector<Status> statuses;
  (*db)->MultiSet(keys, values, &statuses);
  for (const Status& s : statuses) ASSERT_TRUE(s.ok()) << s.ToString();

  auto counters = storage.counters();
  EXPECT_EQ(counters.batch_calls, 1u);  // One remote call for the batch.
  EXPECT_EQ(counters.writes, 32u);      // 32 distinct keys; dup coalesced.

  auto stats = (*db)->GetStats();
  EXPECT_EQ(stats.write_through.batch_calls, 1u);
  EXPECT_EQ(stats.write_through.submitted, 33u);
  EXPECT_EQ(stats.write_through.storage_writes, 32u);  // Dup coalesced.

  std::string value;
  ASSERT_TRUE(storage.Read("wt0", &value).ok());
  EXPECT_EQ(value, "v0-final");
  ASSERT_TRUE((*db)->Get("wt0", &value).ok());
  EXPECT_EQ(value, "v0-final");
}

TEST(TierBaseMultiOpsTest, WriteBackMultiSetMarksBatchDirty) {
  MockStorageAdapter storage;
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteBack;
  options.write_back.flush_threshold = 1000;           // No early flush.
  options.write_back.flush_interval_micros = 10'000'000;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());

  std::vector<std::string> key_strs, value_strs;
  for (int i = 0; i < 20; ++i) {
    key_strs.push_back("wb" + std::to_string(i));
    value_strs.push_back("v" + std::to_string(i));
  }
  std::vector<Slice> keys(key_strs.begin(), key_strs.end());
  std::vector<Slice> values(value_strs.begin(), value_strs.end());
  std::vector<Status> statuses;
  (*db)->MultiSet(keys, values, &statuses);
  for (const Status& s : statuses) ASSERT_TRUE(s.ok());

  // Every key is dirty (accounted) and storage untouched until the flush.
  auto stats = (*db)->GetStats();
  EXPECT_EQ(stats.write_back.updates, 20u);
  EXPECT_EQ(storage.size(), 0u);

  // MultiGet serves the batch from the cache tier (no storage reads).
  std::vector<std::string> out;
  (*db)->MultiGet(keys, &out, &statuses);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(statuses[i].ok());
    EXPECT_EQ(out[i], value_strs[i]);
  }
  EXPECT_EQ(storage.counters().reads, 0u);

  ASSERT_TRUE((*db)->WaitIdle().ok());
  EXPECT_EQ(storage.size(), 20u);
  auto flushed = (*db)->GetStats().write_back;
  EXPECT_EQ(flushed.flushed_ops, 20u);
}

TEST(TierBaseMultiOpsTest, WriteBackMultiGetServesDirtyAfterEviction) {
  MockStorageAdapter storage;
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteBack;
  options.cache.memory_budget = 4 * 1024;  // Tiny: forces OutOfSpace.
  options.write_back.flush_threshold = 100000;
  options.write_back.flush_interval_micros = 10'000'000;
  options.write_back.max_dirty = 100000;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());

  // Far more dirty data than the cache holds: the overflow lives only in
  // the dirty buffer, and MultiGet must still return every value.
  std::vector<std::string> key_strs, value_strs;
  for (int i = 0; i < 60; ++i) {
    key_strs.push_back("spill" + std::to_string(i));
    value_strs.push_back(std::string(200, 'a' + (i % 26)));
  }
  std::vector<Slice> keys(key_strs.begin(), key_strs.end());
  std::vector<Slice> values(value_strs.begin(), value_strs.end());
  std::vector<Status> statuses;
  (*db)->MultiSet(keys, values, &statuses);
  for (const Status& s : statuses) ASSERT_TRUE(s.ok()) << s.ToString();

  std::vector<std::string> out;
  (*db)->MultiGet(keys, &out, &statuses);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(statuses[i].ok()) << key_strs[i];
    EXPECT_EQ(out[i], value_strs[i]);
  }
  EXPECT_EQ(storage.counters().reads, 0u);  // Dirty buffer, not storage.
}

TEST(TierBaseMultiOpsTest, MultiGetMissesFetchInOneBatchAndPopulate) {
  MockStorageAdapter storage;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        storage.Write("cold" + std::to_string(i), "s" + std::to_string(i))
            .ok());
  }
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteThrough;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());

  std::vector<std::string> key_strs;
  for (int i = 0; i < 40; ++i) key_strs.push_back("cold" + std::to_string(i));
  key_strs.push_back("missing-everywhere");
  std::vector<Slice> keys(key_strs.begin(), key_strs.end());
  std::vector<std::string> out;
  std::vector<Status> statuses;
  (*db)->MultiGet(keys, &out, &statuses);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(statuses[static_cast<size_t>(i)].ok());
    EXPECT_EQ(out[static_cast<size_t>(i)], "s" + std::to_string(i));
  }
  EXPECT_TRUE(statuses[40].IsNotFound());
  // All 41 misses were served by one batched MultiRead round trip.
  EXPECT_EQ(storage.counters().batch_calls, 1u);

  // The fetched values were batch-populated: a second MultiGet is all
  // cache hits with no further storage traffic.
  auto batch_calls_before = storage.counters().batch_calls;
  (*db)->MultiGet(keys, &out, &statuses);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(statuses[static_cast<size_t>(i)].ok());
  }
  EXPECT_GE((*db)->GetStats().storage_populates, 40u);
  // Only the still-missing key goes back to storage.
  EXPECT_LE(storage.counters().batch_calls, batch_calls_before + 1);
}

// --- Single-key ops are batches of one. ---

// A storage tier whose MultiReads each stop at a gate until the test opens
// it, so a test can hold a read on the wire and count what queues behind
// it.
class GatedStorage : public MockStorageAdapter {
 public:
  Status MultiRead(const std::vector<std::string>& keys,
                   std::vector<std::string>* values,
                   std::vector<bool>* found) override {
    {
      common::MutexLock lock(&gate_mu_);
      reads_.push_back(keys);
      const size_t mine = reads_.size();
      gate_cv_.SignalAll();
      while (opened_ < mine) gate_cv_.Wait();
    }
    return MockStorageAdapter::MultiRead(keys, values, found);
  }

  /// The sorted keys of the n-th MultiRead once it has reached the gate,
  /// or nothing if it has not within 10 s (the bound only turns a hang
  /// into a failure).
  std::vector<std::string> AwaitRead(size_t n) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    common::MutexLock lock(&gate_mu_);
    while (reads_.size() < n) {
      if (!gate_cv_.WaitUntil(deadline) && reads_.size() < n) return {};
    }
    std::vector<std::string> keys = reads_[n - 1];
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  /// Lets the oldest held MultiRead through.
  void Open() {
    common::MutexLock lock(&gate_mu_);
    ++opened_;
    gate_cv_.SignalAll();
  }

 private:
  common::Mutex gate_mu_;
  common::CondVar gate_cv_{&gate_mu_};
  std::vector<std::vector<std::string>> reads_ GUARDED_BY(gate_mu_);
  size_t opened_ GUARDED_BY(gate_mu_) = 0;
};

// Spins until `done()` holds or 10 s pass; the bound only turns a hang into
// a failure.
template <typename Pred>
bool Eventually(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

// The deferred-fetch window is the MultiRead in flight, not a timer.
TEST(TierBaseBatchOfOneTest, InFlightReadIsTheFetchWindow) {
  using Keys = std::vector<std::string>;
  GatedStorage storage;
  for (const char* key : {"a", "b", "c", "d", "e", "f"}) {
    ASSERT_TRUE(storage.Write(key, "v").ok());
  }
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteThrough;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());
  TierBase* tb = db->get();
  auto fetch_stats = [tb] { return tb->GetStats().deferred_fetch; };
  auto get = [tb](const char* key) {
    std::string value;
    EXPECT_TRUE(tb->Get(key, &value).ok()) << key;
    EXPECT_EQ(value, "v") << key;
  };

  // (b) A lone miss with nothing in flight reaches the storage tier while
  // it is still the only miss there is.
  std::atomic<bool> leader_returned{false};
  std::thread leader([&] {
    get("c");
    leader_returned = true;
  });
  EXPECT_EQ(storage.AwaitRead(1), Keys{"c"});

  // (c) Lone misses arriving while that read is held at the gate queue
  // behind it...
  std::vector<std::thread> followers;
  for (const char* key : {"d", "e", "f"}) followers.emplace_back(get, key);
  EXPECT_TRUE(Eventually([&] { return fetch_stats().fetches == 4; }));
  storage.Open();
  // ...and all share the next MultiRead.
  EXPECT_EQ(storage.AwaitRead(2), (Keys{"d", "e", "f"}));

  // (d) The first read's leader returns while the second is still gated:
  // one of the followers leads it.
  EXPECT_TRUE(Eventually([&] { return leader_returned.load(); }));
  EXPECT_EQ(fetch_stats().batch_calls, 1u);
  storage.Open();
  leader.join();
  for (auto& t : followers) t.join();
  EXPECT_EQ(fetch_stats().fetches, 4u);
  EXPECT_EQ(fetch_stats().batch_calls, 2u);

  // (a) A multi-key miss issues its MultiRead at once, with every key.
  std::thread multi([tb] {
    std::vector<std::string> out;
    std::vector<Status> statuses;
    tb->MultiGet({"a", "b"}, &out, &statuses);
    EXPECT_TRUE(statuses[0].ok());
    EXPECT_TRUE(statuses[1].ok());
  });
  EXPECT_EQ(storage.AwaitRead(3), (Keys{"a", "b"}));
  storage.Open();
  multi.join();
  EXPECT_EQ(fetch_stats().batch_calls, 3u);
  EXPECT_EQ((*db)->GetStats().cache_misses, 6u);
}

TEST(TierBaseBatchOfOneTest, CasFetchesMissingKey) {
  for (CachingPolicy policy :
       {CachingPolicy::kWriteThrough, CachingPolicy::kWriteBack}) {
    SCOPED_TRACE(CachingPolicyName(policy));
    MockStorageAdapter storage;
    ASSERT_TRUE(storage.Write("k", "stored").ok());
    TierBaseOptions options;
    options.policy = policy;
    auto db = TierBase::Open(options, &storage);
    ASSERT_TRUE(db.ok());

    // "k" is not cached: CAS must still fetch it into the cache, because
    // the comparison runs against the cached copy.
    ASSERT_TRUE((*db)->Cas("k", "stored", "updated").ok());
    EXPECT_TRUE((*db)->Cas("k", "stored", "again").IsAborted());
    EXPECT_TRUE((*db)->Cas("absent", "x", "y").IsAborted());
    std::string value;
    ASSERT_TRUE((*db)->Get("k", &value).ok());
    EXPECT_EQ(value, "updated");
    ASSERT_TRUE((*db)->WaitIdle().ok());
    ASSERT_TRUE(storage.Read("k", &value).ok());
    EXPECT_EQ(value, "updated");
    EXPECT_EQ((*db)->GetStats().storage_populates, 0u);
  }
}

TEST(TierBaseBatchOfOneTest, WriteThroughSingleKeyWritesAreOneOpBatches) {
  MockStorageAdapter storage;
  ASSERT_TRUE(storage.Write("k", "v").ok());
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteThrough;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());

  // MockStorageAdapter's Write/Delete count writes but no batch call.
  auto before = storage.counters();
  ASSERT_TRUE((*db)->Delete("k").ok());
  auto after = storage.counters();
  EXPECT_EQ(after.batch_calls - before.batch_calls, 1u);
  EXPECT_EQ(after.writes - before.writes, 1u);
  std::string value;
  EXPECT_TRUE(storage.Read("k", &value).IsNotFound());  // The tombstone.
  EXPECT_TRUE((*db)->Get("k", &value).IsNotFound());

  before = storage.counters();
  ASSERT_TRUE((*db)->Set("n", "v").ok());
  after = storage.counters();
  EXPECT_EQ(after.batch_calls - before.batch_calls, 1u);
  EXPECT_EQ(after.writes - before.writes, 1u);
}

// A write-back update the dirty set rejects (sticky flush error) must not
// linger in the cache: it would serve until evicted, then reads would
// revert to the older value.
TEST(TierBaseBatchOfOneTest, WriteBackRejectedWriteIsNotReadable) {
  MockStorageAdapter::Options mock_options;
  mock_options.fail_every = 1;  // Every storage write fails.
  MockStorageAdapter storage(mock_options);
  TierBaseOptions options;
  options.policy = CachingPolicy::kWriteBack;
  options.write_back.flush_threshold = 1;
  options.write_back.flush_interval_micros = 1'000;
  options.write_back.retry_backoff_micros = 100;
  options.write_back.retry_backoff_max_micros = 1'000;
  options.write_back.max_flush_failures = 2;
  auto db = TierBase::Open(options, &storage);
  ASSERT_TRUE(db.ok());

  ASSERT_TRUE((*db)->Set("k", "v1").ok());
  for (int i = 0; i < 5000; ++i) {
    if ((*db)->GetStats().write_back.flush_failures > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT((*db)->GetStats().write_back.flush_failures, 0u);

  EXPECT_TRUE((*db)->Set("k", "v2").IsIOError());
  std::string value;
  ASSERT_TRUE((*db)->Get("k", &value).ok());
  EXPECT_EQ(value, "v1");  // The dirty buffer's value, not the rejected v2.

  std::vector<Status> statuses;
  (*db)->MultiSet({"a", "k"}, {"a1", "v3"}, &statuses);
  EXPECT_TRUE(statuses[0].IsIOError());
  EXPECT_TRUE(statuses[1].IsIOError());
  EXPECT_TRUE((*db)->Get("a", &value).IsNotFound());
  ASSERT_TRUE((*db)->Get("k", &value).ok());
  EXPECT_EQ(value, "v1");

  EXPECT_TRUE((*db)->Cas("k", "v1", "v4").IsIOError());
  ASSERT_TRUE((*db)->Get("k", &value).ok());
  EXPECT_EQ(value, "v1");
}

}  // namespace
}  // namespace tierbase
