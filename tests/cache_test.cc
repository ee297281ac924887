// Tests for the cache-tier hash engine: strings, TTL, CAS, rich data
// types, LRU eviction under a memory budget, the eviction filter used by
// write-back, value compression, and DRAM/PMem split placement.

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cache/hash_engine.h"
#include "common/clock.h"
#include "compression/compressor.h"
#include "pmem/pmem_allocator.h"
#include "pmem/pmem_device.h"
#include "workload/dataset.h"

namespace tierbase {
namespace cache {
namespace {

// --- Strings. ---

TEST(HashEngineTest, SetGetDelete) {
  HashEngine engine;
  ASSERT_TRUE(engine.Set("k", "v").ok());
  std::string value;
  ASSERT_TRUE(engine.Get("k", &value).ok());
  EXPECT_EQ(value, "v");
  EXPECT_TRUE(engine.Exists("k"));
  ASSERT_TRUE(engine.Delete("k").ok());
  EXPECT_TRUE(engine.Get("k", &value).IsNotFound());
  EXPECT_FALSE(engine.Exists("k"));
}

TEST(HashEngineTest, DeleteMissingIsNotFound) {
  HashEngine engine;
  EXPECT_TRUE(engine.Delete("missing").IsNotFound());
}

TEST(HashEngineTest, OverwriteUpdatesValueAndUsage) {
  HashEngine engine;
  ASSERT_TRUE(engine.Set("k", std::string(1000, 'a')).ok());
  uint64_t big = engine.GetUsage().memory_bytes;
  ASSERT_TRUE(engine.Set("k", "tiny").ok());
  std::string value;
  ASSERT_TRUE(engine.Get("k", &value).ok());
  EXPECT_EQ(value, "tiny");
  EXPECT_LT(engine.GetUsage().memory_bytes, big);
  EXPECT_EQ(engine.GetUsage().keys, 1u);
}

TEST(HashEngineTest, EmptyValueAndBinaryData) {
  HashEngine engine;
  ASSERT_TRUE(engine.Set("empty", "").ok());
  std::string binary("\x00\x01\xff\x7f", 4);
  ASSERT_TRUE(engine.Set("bin", binary).ok());
  std::string value;
  ASSERT_TRUE(engine.Get("empty", &value).ok());
  EXPECT_TRUE(value.empty());
  ASSERT_TRUE(engine.Get("bin", &value).ok());
  EXPECT_EQ(value, binary);
}

// --- TTL. ---

TEST(HashEngineTest, TtlExpiresLazily) {
  ManualClock clock;
  HashEngineOptions options;
  options.clock = &clock;
  HashEngine engine(options);
  ASSERT_TRUE(engine.SetEx("k", "v", 1000).ok());
  std::string value;
  ASSERT_TRUE(engine.Get("k", &value).ok());
  clock.Advance(999);
  ASSERT_TRUE(engine.Get("k", &value).ok());
  clock.Advance(2);
  EXPECT_TRUE(engine.Get("k", &value).IsNotFound());
  EXPECT_GE(engine.expirations(), 1u);
}

// Delete sees what Get and Exists see: a key whose TTL has passed is gone,
// even before a lookup or a sweep has dropped its entry.
TEST(HashEngineTest, DeleteOfExpiredKeyIsNotFound) {
  ManualClock clock;
  HashEngineOptions options;
  options.clock = &clock;
  HashEngine engine(options);
  ASSERT_TRUE(engine.SetEx("k", "v", 1000).ok());
  clock.Advance(1000);
  EXPECT_TRUE(engine.Delete("k").IsNotFound());
  EXPECT_EQ(engine.expirations(), 1u);
  EXPECT_EQ(engine.GetUsage().keys, 0u);
  EXPECT_EQ(engine.GetUsage().memory_bytes, 0u);
  EXPECT_TRUE(engine.Delete("k").IsNotFound());
  EXPECT_EQ(engine.expirations(), 1u);
}

TEST(HashEngineTest, TtlQueryAndUpdate) {
  ManualClock clock;
  HashEngineOptions options;
  options.clock = &clock;
  HashEngine engine(options);
  ASSERT_TRUE(engine.Set("k", "v").ok());
  auto ttl = engine.Ttl("k");
  ASSERT_TRUE(ttl.ok());
  EXPECT_EQ(*ttl, 0u);  // No expiry.
  ASSERT_TRUE(engine.Expire("k", 5000).ok());
  clock.Advance(1000);
  ttl = engine.Ttl("k");
  ASSERT_TRUE(ttl.ok());
  EXPECT_EQ(*ttl, 4000u);
  EXPECT_TRUE(engine.Ttl("missing").status().IsNotFound());
}

TEST(HashEngineTest, SetClearsPreviousTtl) {
  ManualClock clock;
  HashEngineOptions options;
  options.clock = &clock;
  HashEngine engine(options);
  ASSERT_TRUE(engine.SetEx("k", "v1", 100).ok());
  ASSERT_TRUE(engine.Set("k", "v2").ok());  // Plain SET removes TTL.
  clock.Advance(1000);
  std::string value;
  ASSERT_TRUE(engine.Get("k", &value).ok());
  EXPECT_EQ(value, "v2");
}

TEST(HashEngineTest, SweepExpiredRemovesEagerly) {
  ManualClock clock;
  HashEngineOptions options;
  options.clock = &clock;
  HashEngine engine(options);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine.SetEx("k" + std::to_string(i), "v", 100).ok());
  }
  ASSERT_TRUE(engine.Set("keeper", "v").ok());
  clock.Advance(200);
  EXPECT_EQ(engine.SweepExpired(), 10u);
  EXPECT_EQ(engine.GetUsage().keys, 1u);
}

TEST(HashEngineTest, TtlNearTheDeadlineIsPositiveOrNotFound) {
  // Every clock read moves time 2 us, so a Ttl that read the clock twice
  // could see the deadline pass between its reads. Even and odd TTLs land
  // the deadline on and between the clock's steps.
  for (const uint64_t ttl_micros : {40u, 41u}) {
    SteppingClock clock(1000, 2);
    HashEngineOptions options;
    options.clock = &clock;
    HashEngine engine(options);
    ASSERT_TRUE(engine.SetEx("k", "v", ttl_micros).ok());
    // 0 would read as "no expiry" and a wrapped value as nearly forever.
    int reads = 0;
    for (;; ++reads) {
      Result<uint64_t> ttl = engine.Ttl("k");
      if (!ttl.ok()) {
        EXPECT_TRUE(ttl.status().IsNotFound());
        break;
      }
      EXPECT_GT(*ttl, 0u) << "ttl " << ttl_micros << ", read " << reads;
      EXPECT_LE(*ttl, ttl_micros) << "ttl " << ttl_micros << ", read "
                                  << reads;
      ASSERT_LT(reads, 100);
    }
    EXPECT_GT(reads, 0);
  }
}

// --- CAS. ---

TEST(HashEngineTest, CasSucceedsOnMatch) {
  HashEngine engine;
  ASSERT_TRUE(engine.Set("k", "old").ok());
  ASSERT_TRUE(engine.Cas("k", "old", "new").ok());
  std::string value;
  ASSERT_TRUE(engine.Get("k", &value).ok());
  EXPECT_EQ(value, "new");
}

TEST(HashEngineTest, CasAbortsOnMismatch) {
  HashEngine engine;
  ASSERT_TRUE(engine.Set("k", "actual").ok());
  EXPECT_TRUE(engine.Cas("k", "expected", "new").IsAborted());
  std::string value;
  ASSERT_TRUE(engine.Get("k", &value).ok());
  EXPECT_EQ(value, "actual");
}

TEST(HashEngineTest, CasOnMissingKey) {
  HashEngine engine;
  EXPECT_FALSE(engine.Cas("missing", "x", "new").ok());
  // allow_create with empty expected creates the key.
  ASSERT_TRUE(engine.Cas("missing", "", "created", true).ok());
  std::string value;
  ASSERT_TRUE(engine.Get("missing", &value).ok());
  EXPECT_EQ(value, "created");
}

// --- Lists. ---

TEST(HashEngineTest, ListPushPopBothEnds) {
  HashEngine engine;
  ASSERT_TRUE(engine.RPush("l", "b").ok());
  ASSERT_TRUE(engine.RPush("l", "c").ok());
  ASSERT_TRUE(engine.LPush("l", "a").ok());
  auto len = engine.LLen("l");
  ASSERT_TRUE(len.ok());
  EXPECT_EQ(*len, 3u);
  std::string value;
  ASSERT_TRUE(engine.LPop("l", &value).ok());
  EXPECT_EQ(value, "a");
  ASSERT_TRUE(engine.RPop("l", &value).ok());
  EXPECT_EQ(value, "c");
}

TEST(HashEngineTest, ListRangeWithNegativeIndexes) {
  HashEngine engine;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(engine.RPush("l", std::to_string(i)).ok());
  }
  std::vector<std::string> out;
  ASSERT_TRUE(engine.LRange("l", 1, 3, &out).ok());
  EXPECT_EQ(out, (std::vector<std::string>{"1", "2", "3"}));
  out.clear();
  ASSERT_TRUE(engine.LRange("l", -2, -1, &out).ok());
  EXPECT_EQ(out, (std::vector<std::string>{"3", "4"}));
}

TEST(HashEngineTest, PopEmptyListNotFound) {
  HashEngine engine;
  std::string value;
  EXPECT_FALSE(engine.LPop("nope", &value).ok());
}

TEST(HashEngineTest, WrongTypeRejected) {
  HashEngine engine;
  ASSERT_TRUE(engine.Set("str", "v").ok());
  EXPECT_TRUE(engine.LPush("str", "x").IsInvalidArgument());
  ASSERT_TRUE(engine.RPush("list", "x").ok());
  std::string value;
  EXPECT_TRUE(engine.Get("list", &value).IsInvalidArgument());
}

// --- Hashes. ---

TEST(HashEngineTest, HashFieldOperations) {
  HashEngine engine;
  ASSERT_TRUE(engine.HSet("h", "f1", "v1").ok());
  ASSERT_TRUE(engine.HSet("h", "f2", "v2").ok());
  ASSERT_TRUE(engine.HSet("h", "f1", "v1b").ok());  // Overwrite.
  auto len = engine.HLen("h");
  ASSERT_TRUE(len.ok());
  EXPECT_EQ(*len, 2u);
  std::string value;
  ASSERT_TRUE(engine.HGet("h", "f1", &value).ok());
  EXPECT_EQ(value, "v1b");
  ASSERT_TRUE(engine.HDel("h", "f1").ok());
  EXPECT_FALSE(engine.HGet("h", "f1", &value).ok());

  std::vector<std::pair<std::string, std::string>> all;
  ASSERT_TRUE(engine.HGetAll("h", &all).ok());
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].first, "f2");
}

// --- Sets. ---

TEST(HashEngineTest, SetMembership) {
  HashEngine engine;
  ASSERT_TRUE(engine.SAdd("s", "a").ok());
  ASSERT_TRUE(engine.SAdd("s", "b").ok());
  ASSERT_TRUE(engine.SAdd("s", "a").ok());  // Duplicate is a no-op.
  auto card = engine.SCard("s");
  ASSERT_TRUE(card.ok());
  EXPECT_EQ(*card, 2u);
  auto member = engine.SIsMember("s", "a");
  ASSERT_TRUE(member.ok());
  EXPECT_TRUE(*member);
  ASSERT_TRUE(engine.SRem("s", "a").ok());
  member = engine.SIsMember("s", "a");
  ASSERT_TRUE(member.ok());
  EXPECT_FALSE(*member);
}

// --- Sorted sets. ---

TEST(HashEngineTest, ZsetScoreAndRange) {
  HashEngine engine;
  ASSERT_TRUE(engine.ZAdd("z", 3.0, "c").ok());
  ASSERT_TRUE(engine.ZAdd("z", 1.0, "a").ok());
  ASSERT_TRUE(engine.ZAdd("z", 2.0, "b").ok());
  auto score = engine.ZScore("z", "b");
  ASSERT_TRUE(score.ok());
  EXPECT_DOUBLE_EQ(*score, 2.0);
  std::vector<std::string> out;
  ASSERT_TRUE(engine.ZRangeByScore("z", 1.5, 3.0, &out).ok());
  EXPECT_EQ(out, (std::vector<std::string>{"b", "c"}));
}

TEST(HashEngineTest, ZrangeByRank) {
  HashEngine engine;
  ASSERT_TRUE(engine.ZAdd("z", 3.0, "c").ok());
  ASSERT_TRUE(engine.ZAdd("z", 1.0, "a").ok());
  ASSERT_TRUE(engine.ZAdd("z", 2.0, "b").ok());

  std::vector<std::pair<std::string, double>> out;
  ASSERT_TRUE(engine.ZRange("z", 0, -1, &out).ok());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].first, "a");
  EXPECT_DOUBLE_EQ(out[0].second, 1.0);
  EXPECT_EQ(out[2].first, "c");

  // Negative ranks count from the end; stop is inclusive and clamped.
  ASSERT_TRUE(engine.ZRange("z", -2, -1, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].first, "b");
  ASSERT_TRUE(engine.ZRange("z", 1, 100, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].first, "b");

  // Empty results: inverted range, range past the end, missing key.
  ASSERT_TRUE(engine.ZRange("z", 2, 1, &out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(engine.ZRange("z", 5, 9, &out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(engine.ZRange("nosuch", 0, -1, &out).ok());
  EXPECT_TRUE(out.empty());

  // Wrong type surfaces InvalidArgument, like the other zset ops.
  ASSERT_TRUE(engine.Set("str", "v").ok());
  EXPECT_TRUE(engine.ZRange("str", 0, -1, &out).IsInvalidArgument());
}

TEST(HashEngineTest, ZsetRescoreMovesMember) {
  HashEngine engine;
  ASSERT_TRUE(engine.ZAdd("z", 1.0, "m").ok());
  ASSERT_TRUE(engine.ZAdd("z", 9.0, "m").ok());
  auto card = engine.ZCard("z");
  ASSERT_TRUE(card.ok());
  EXPECT_EQ(*card, 1u);
  std::vector<std::string> out;
  ASSERT_TRUE(engine.ZRangeByScore("z", 0.0, 2.0, &out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(engine.ZRangeByScore("z", 8.0, 10.0, &out).ok());
  EXPECT_EQ(out, (std::vector<std::string>{"m"}));
}

// --- LRU eviction. ---

TEST(HashEngineTest, EvictsLruUnderBudget) {
  HashEngineOptions options;
  options.memory_budget = 64 * 1024;
  HashEngine engine(options);
  // Insert well past the budget.
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        engine.Set("key" + std::to_string(i), std::string(500, 'v')).ok());
  }
  EXPECT_GT(engine.evictions(), 0u);
  EXPECT_LE(engine.GetUsage().memory_bytes, 64 * 1024u);
  // Newest keys are resident, oldest are gone.
  std::string value;
  EXPECT_TRUE(engine.Get("key499", &value).ok());
  EXPECT_TRUE(engine.Get("key0", &value).IsNotFound());
}

TEST(HashEngineTest, GetRefreshesLruOrder) {
  HashEngineOptions options;
  options.memory_budget = 32 * 1024;
  HashEngine engine(options);
  ASSERT_TRUE(engine.Set("hot", std::string(500, 'h')).ok());
  std::string value;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        engine.Set("cold" + std::to_string(i), std::string(500, 'c')).ok());
    ASSERT_TRUE(engine.Get("hot", &value).ok()) << "iteration " << i;
  }
  // "hot" survived 200 inserts worth of eviction pressure.
  EXPECT_TRUE(engine.Get("hot", &value).ok());
}

TEST(HashEngineTest, NoEvictionPolicyReturnsOutOfSpace) {
  HashEngineOptions options;
  options.memory_budget = 8 * 1024;
  options.eviction = EvictionPolicy::kNoEviction;
  HashEngine engine(options);
  Status s;
  int inserted = 0;
  for (int i = 0; i < 1000; ++i) {
    s = engine.Set("key" + std::to_string(i), std::string(200, 'v'));
    if (!s.ok()) break;
    ++inserted;
  }
  EXPECT_TRUE(s.IsOutOfSpace());
  EXPECT_GT(inserted, 5);
}

TEST(HashEngineTest, EvictionFilterPinsDirtyKeys) {
  HashEngineOptions options;
  options.memory_budget = 32 * 1024;
  HashEngine engine(options);
  engine.SetEvictionFilter(
      [](const Slice& key) { return !key.starts_with("dirty"); });
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        engine.Set("dirty" + std::to_string(i), std::string(500, 'd')).ok());
  }
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(
        engine.Set("clean" + std::to_string(i), std::string(500, 'c')).ok());
  }
  std::string value;
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(engine.Get("dirty" + std::to_string(i), &value).ok()) << i;
  }
  // The ten pins sit at the LRU tail, so every eviction walk counts all
  // ten before it reaches a clean entry.
  EXPECT_GT(engine.evictions(), 0u);
  EXPECT_GE(engine.eviction_pinned_skips(), 10u);
  EXPECT_EQ(engine.eviction_pinned_skips() % 10, 0u);
}

// Regression: charging an entry's new size could evict the entry itself
// (its map node freed mid-charge — an ASan heap-use-after-free) once the
// LRU march, skipping pinned keys, reached the only evictable entry: the
// one being stored. Now the charged key is protected; an unaffordable
// store drops the entry with accounting intact instead of corrupting it.
TEST(HashEngineTest, ChargingNeverEvictsTheEntryBeingStored) {
  HashEngineOptions options;
  options.shards = 1;
  options.memory_budget = 4 * 1024;
  HashEngine engine(options);
  ASSERT_TRUE(engine.Set("grow", "small").ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(engine.Set("pin" + std::to_string(i), "small").ok());
  }
  size_t charged_before = engine.GetUsage().memory_bytes;
  // Pin everything except the key being grown, then grow it past the
  // budget: eviction must skip the pins AND the entry being charged.
  engine.SetEvictionFilter(
      [](const Slice& key) { return key == Slice("grow"); });
  Status s = engine.Set("grow", std::string(8 * 1024, 'x'));
  EXPECT_TRUE(s.IsOutOfSpace()) << s.ToString();
  // The unaffordable entry was dropped, not left half-charged.
  std::string value;
  EXPECT_TRUE(engine.Get("grow", &value).IsNotFound());
  size_t grow_charge = charged_before / 9;  // All nine entries equal-sized.
  EXPECT_EQ(engine.GetUsage().memory_bytes, charged_before - grow_charge);
}

TEST(HashEngineTest, ClearDropsEverything) {
  HashEngine engine;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine.Set("key" + std::to_string(i), "v").ok());
  }
  engine.Clear();
  EXPECT_EQ(engine.GetUsage().keys, 0u);
  std::string value;
  EXPECT_TRUE(engine.Get("key0", &value).IsNotFound());
}

// --- Sharding. ---

TEST(HashEngineTest, ShardedEngineBehavesIdentically) {
  HashEngineOptions options;
  options.shards = 8;
  HashEngine engine(options);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(
        engine.Set("key" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  std::string value;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(engine.Get("key" + std::to_string(i), &value).ok());
    ASSERT_EQ(value, "v" + std::to_string(i));
  }
  EXPECT_EQ(engine.GetUsage().keys, 1000u);
}

TEST(HashEngineTest, ShardedBudgetStillEnforced) {
  HashEngineOptions options;
  options.shards = 4;
  options.memory_budget = 64 * 1024;
  HashEngine engine(options);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(
        engine.Set("key" + std::to_string(i), std::string(300, 'v')).ok());
  }
  EXPECT_LE(engine.GetUsage().memory_bytes, 80 * 1024u);  // Per-shard slack.
}

// --- Compression integration. ---

TEST(HashEngineTest, CompressedValuesRoundTrip) {
  workload::DatasetOptions dataset;
  dataset.kind = workload::DatasetKind::kKv1;
  dataset.num_records = 200;
  auto samples = workload::MakeDataset(dataset);

  auto compressor = CreateCompressor(CompressorType::kZliteDict);
  ASSERT_TRUE(compressor->Train(samples).ok());

  HashEngineOptions options;
  options.compressor = compressor.get();
  options.compress_min_bytes = 16;
  HashEngine engine(options);

  for (size_t i = 0; i < samples.size(); ++i) {
    ASSERT_TRUE(engine.Set("key" + std::to_string(i), samples[i]).ok());
  }
  std::string value;
  for (size_t i = 0; i < samples.size(); ++i) {
    ASSERT_TRUE(engine.Get("key" + std::to_string(i), &value).ok());
    ASSERT_EQ(value, samples[i]);
  }
}

TEST(HashEngineTest, CompressionShrinksMemoryFootprint) {
  workload::DatasetOptions dataset;
  dataset.kind = workload::DatasetKind::kKv2;
  dataset.num_records = 500;
  auto samples = workload::MakeDataset(dataset);

  auto compressor = CreateCompressor(CompressorType::kPbc);
  ASSERT_TRUE(compressor->Train(samples).ok());

  HashEngine raw_engine;
  HashEngineOptions copts;
  copts.compressor = compressor.get();
  copts.compress_min_bytes = 16;
  HashEngine compressed_engine(copts);

  for (size_t i = 0; i < samples.size(); ++i) {
    std::string key = "key" + std::to_string(i);
    ASSERT_TRUE(raw_engine.Set(key, samples[i]).ok());
    ASSERT_TRUE(compressed_engine.Set(key, samples[i]).ok());
  }
  EXPECT_LT(compressed_engine.GetUsage().memory_bytes,
            raw_engine.GetUsage().memory_bytes * 3 / 4);
}

TEST(HashEngineTest, SmallValuesSkipCompression) {
  auto compressor = CreateCompressor(CompressorType::kZlite);
  HashEngineOptions options;
  options.compressor = compressor.get();
  options.compress_min_bytes = 64;
  HashEngine engine(options);
  ASSERT_TRUE(engine.Set("k", "small").ok());
  std::string value;
  ASSERT_TRUE(engine.Get("k", &value).ok());
  EXPECT_EQ(value, "small");
}

// --- PMem placement. ---

TEST(HashEngineTest, LargeValuesPlacedInPmem) {
  PmemOptions pmem_options;
  pmem_options.capacity = 8 << 20;
  pmem_options.inject_latency = false;
  auto device = PmemDevice::Create(pmem_options);
  ASSERT_TRUE(device.ok());
  PmemAllocator allocator(device->get(), 0, 8 << 20);

  HashEngineOptions options;
  options.pmem = &allocator;
  options.pmem_value_threshold = 64;
  HashEngine engine(options);

  ASSERT_TRUE(engine.Set("small", "tiny value").ok());
  ASSERT_TRUE(engine.Set("large", std::string(1000, 'L')).ok());

  UsageStats usage = engine.GetUsage();
  EXPECT_GT(usage.pmem_bytes, 500u);       // Large value lives in PMem.
  std::string value;
  ASSERT_TRUE(engine.Get("large", &value).ok());
  EXPECT_EQ(value, std::string(1000, 'L'));
  ASSERT_TRUE(engine.Get("small", &value).ok());
  EXPECT_EQ(value, "tiny value");
}

TEST(HashEngineTest, PmemFreedOnDeleteAndOverwrite) {
  PmemOptions pmem_options;
  pmem_options.capacity = 8 << 20;
  pmem_options.inject_latency = false;
  auto device = PmemDevice::Create(pmem_options);
  ASSERT_TRUE(device.ok());
  PmemAllocator allocator(device->get(), 0, 8 << 20);

  HashEngineOptions options;
  options.pmem = &allocator;
  options.pmem_value_threshold = 64;
  HashEngine engine(options);

  ASSERT_TRUE(engine.Set("a", std::string(5000, 'a')).ok());
  uint64_t with_a = allocator.bytes_in_use();
  EXPECT_GT(with_a, 0u);
  ASSERT_TRUE(engine.Set("a", "now small").ok());  // Moves back to DRAM.
  EXPECT_LT(allocator.bytes_in_use(), with_a);
  ASSERT_TRUE(engine.Set("b", std::string(5000, 'b')).ok());
  uint64_t with_b = allocator.bytes_in_use();
  ASSERT_TRUE(engine.Delete("b").ok());
  EXPECT_LT(allocator.bytes_in_use(), with_b);
}

TEST(HashEngineTest, PmemWithCompressionComposes) {
  workload::DatasetOptions dataset;
  dataset.kind = workload::DatasetKind::kCities;
  dataset.num_records = 100;
  dataset.mean_record_bytes = 400;
  auto samples = workload::MakeDataset(dataset);
  auto compressor = CreateCompressor(CompressorType::kZliteDict);
  ASSERT_TRUE(compressor->Train(samples).ok());

  PmemOptions pmem_options;
  pmem_options.capacity = 8 << 20;
  pmem_options.inject_latency = false;
  auto device = PmemDevice::Create(pmem_options);
  ASSERT_TRUE(device.ok());
  PmemAllocator allocator(device->get(), 0, 8 << 20);

  HashEngineOptions options;
  options.compressor = compressor.get();
  options.compress_min_bytes = 32;
  options.pmem = &allocator;
  options.pmem_value_threshold = 64;
  HashEngine engine(options);

  for (size_t i = 0; i < samples.size(); ++i) {
    ASSERT_TRUE(engine.Set("key" + std::to_string(i), samples[i]).ok());
  }
  std::string value;
  for (size_t i = 0; i < samples.size(); ++i) {
    ASSERT_TRUE(engine.Get("key" + std::to_string(i), &value).ok());
    ASSERT_EQ(value, samples[i]);
  }
}

// --- Batched MultiGet / MultiSet. ---

TEST(HashEngineTest, MultiSetMultiGetCrossShard) {
  HashEngineOptions options;
  options.shards = 8;
  HashEngine engine(options);

  std::vector<std::string> key_strs, value_strs;
  for (int i = 0; i < 100; ++i) {
    key_strs.push_back("mk" + std::to_string(i));
    value_strs.push_back("mv" + std::to_string(i));
  }
  std::vector<Slice> keys(key_strs.begin(), key_strs.end());
  std::vector<Slice> values(value_strs.begin(), value_strs.end());
  std::vector<Status> statuses;
  engine.MultiSet(keys, values, &statuses);
  ASSERT_EQ(statuses.size(), keys.size());
  for (const Status& s : statuses) ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(engine.GetUsage().keys, 100u);

  // Mix present and missing keys in one batch.
  key_strs.push_back("absent");
  keys.assign(key_strs.begin(), key_strs.end());
  std::vector<std::string> out;
  engine.MultiGet(keys, &out, &statuses);
  ASSERT_EQ(out.size(), 101u);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(statuses[static_cast<size_t>(i)].ok());
    EXPECT_EQ(out[static_cast<size_t>(i)], value_strs[static_cast<size_t>(i)]);
  }
  EXPECT_TRUE(statuses[100].IsNotFound());
}

TEST(HashEngineTest, MultiGetReportsExpiredMembersAsNotFound) {
  ManualClock clock;
  HashEngineOptions options;
  options.clock = &clock;
  options.shards = 4;
  HashEngine engine(options);
  ASSERT_TRUE(engine.SetEx("short", "v1", 100).ok());
  ASSERT_TRUE(engine.SetEx("long", "v2", 10000).ok());
  ASSERT_TRUE(engine.Set("forever", "v3").ok());
  clock.Advance(500);

  std::vector<Slice> keys = {"short", "long", "forever"};
  std::vector<std::string> out;
  std::vector<Status> statuses;
  engine.MultiGet(keys, &out, &statuses);
  EXPECT_TRUE(statuses[0].IsNotFound());  // Expired mid-batch.
  ASSERT_TRUE(statuses[1].ok());
  EXPECT_EQ(out[1], "v2");
  ASSERT_TRUE(statuses[2].ok());
  EXPECT_EQ(out[2], "v3");
  EXPECT_GE(engine.expirations(), 1u);
}

TEST(HashEngineTest, MultiOpsTakeEachShardLockAtMostOncePerBatch) {
  HashEngineOptions options;
  options.shards = 4;
  HashEngine engine(options);

  std::vector<std::string> key_strs;
  for (int i = 0; i < 64; ++i) key_strs.push_back("k" + std::to_string(i));
  std::vector<Slice> keys(key_strs.begin(), key_strs.end());
  std::vector<Slice> values(keys.size(), Slice("v"));
  std::vector<Status> statuses;

  engine.MultiSet(keys, values, &statuses);
  uint64_t locks_after_set = engine.multi_shard_locks();
  EXPECT_EQ(engine.multi_batches(), 1u);
  EXPECT_LE(locks_after_set, 4u);  // ≤ one acquisition per shard.

  std::vector<std::string> out;
  engine.MultiGet(keys, &out, &statuses);
  EXPECT_EQ(engine.multi_batches(), 2u);
  EXPECT_LE(engine.multi_shard_locks() - locks_after_set, 4u);
}

TEST(HashEngineTest, MultiSetReportsPerKeyWrongTypeRecovery) {
  HashEngine engine;
  ASSERT_TRUE(engine.RPush("list", "x").ok());
  std::vector<Slice> keys = {"list", "str"};
  std::vector<Slice> values = {"v1", "v2"};
  std::vector<Status> statuses;
  // Redis SET semantics: a complex-typed key is overwritten.
  engine.MultiSet(keys, values, &statuses);
  ASSERT_TRUE(statuses[0].ok());
  ASSERT_TRUE(statuses[1].ok());
  std::string out;
  ASSERT_TRUE(engine.Get("list", &out).ok());
  EXPECT_EQ(out, "v1");

  // MultiGet against a complex key reports the type error per key only.
  ASSERT_TRUE(engine.RPush("l2", "x").ok());
  keys = {"l2", "str"};
  std::vector<std::string> outs;
  engine.MultiGet(keys, &outs, &statuses);
  EXPECT_TRUE(statuses[0].IsInvalidArgument());
  EXPECT_TRUE(statuses[1].ok());
}

// Regression for the zero-allocation hot path: with no memory budget there
// is no eviction, so reads must not maintain LRU recency (the lookup's
// only side effect would have been the list splice — and before the
// intrusive-LRU rewrite, a per-call key allocation).
TEST(HashEngineTest, GetLeavesLruUntouchedWhenUnbudgeted) {
  HashEngine unbudgeted;
  ASSERT_TRUE(unbudgeted.Set("a", "1").ok());
  ASSERT_TRUE(unbudgeted.Set("b", "2").ok());
  std::string out;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(unbudgeted.Get("a", &out).ok());
    ASSERT_TRUE(unbudgeted.Get("b", &out).ok());
  }
  EXPECT_EQ(unbudgeted.lru_touches(), 0u);

  // With a budget the same access pattern must reorder the LRU.
  HashEngineOptions options;
  options.memory_budget = 1 << 20;
  HashEngine budgeted(options);
  ASSERT_TRUE(budgeted.Set("a", "1").ok());
  ASSERT_TRUE(budgeted.Set("b", "2").ok());
  ASSERT_TRUE(budgeted.Get("a", &out).ok());  // "a" is behind "b".
  EXPECT_GT(budgeted.lru_touches(), 0u);
}

TEST(HashEngineTest, ShardCountRoundsUpToPowerOfTwo) {
  HashEngineOptions options;
  options.shards = 6;  // Rounds to 8.
  options.memory_budget = 80 * 1024;
  HashEngine engine(options);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        engine.Set("key" + std::to_string(i), std::string(100, 'v')).ok());
  }
  std::string out;
  int found = 0;
  for (int i = 0; i < 500; ++i) {
    if (engine.Get("key" + std::to_string(i), &out).ok()) ++found;
  }
  EXPECT_GT(found, 0);
  EXPECT_LE(engine.GetUsage().memory_bytes, 80 * 1024u);
}

// The incremental complex-bytes tracking must agree with a full walk:
// usage returns to its baseline after add/remove cycles across every
// complex type, and rescoring a zset member is charge-neutral.
TEST(HashEngineTest, ComplexChargeTracksIncrementally) {
  HashEngine engine;

  ASSERT_TRUE(engine.RPush("l", "elem").ok());
  uint64_t one_elem = engine.GetUsage().memory_bytes;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(engine.RPush("l", "padding-" + std::to_string(i)).ok());
  }
  std::string out;
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(engine.RPop("l", &out).ok());
  EXPECT_EQ(engine.GetUsage().memory_bytes, one_elem);

  ASSERT_TRUE(engine.HSet("h", "f", "v").ok());
  uint64_t one_field = engine.GetUsage().memory_bytes;
  ASSERT_TRUE(engine.HSet("h", "f2", "second").ok());
  ASSERT_TRUE(engine.HSet("h", "f2", "overwritten-longer").ok());
  ASSERT_TRUE(engine.HDel("h", "f2").ok());
  EXPECT_EQ(engine.GetUsage().memory_bytes, one_field);

  ASSERT_TRUE(engine.ZAdd("z", 1.0, "m").ok());
  uint64_t one_member = engine.GetUsage().memory_bytes;
  ASSERT_TRUE(engine.ZAdd("z", 9.0, "m").ok());  // Rescore: no new bytes.
  EXPECT_EQ(engine.GetUsage().memory_bytes, one_member);

  ASSERT_TRUE(engine.SAdd("s", "m").ok());
  uint64_t with_set = engine.GetUsage().memory_bytes;
  ASSERT_TRUE(engine.SAdd("s", "m").ok());  // Duplicate: no new bytes.
  EXPECT_EQ(engine.GetUsage().memory_bytes, with_set);
  ASSERT_TRUE(engine.SAdd("s", "m2").ok());
  ASSERT_TRUE(engine.SRem("s", "m2").ok());
  EXPECT_EQ(engine.GetUsage().memory_bytes, with_set);
}

TEST(HashEngineTest, EvictionFilterSwapsWithoutStallingEviction) {
  HashEngineOptions options;
  options.shards = 1;
  options.memory_budget = 32 * 1024;
  HashEngine engine(options);
  // Swap the filter concurrently with eviction-heavy writes; the eviction
  // path reads the filter through an atomic shared_ptr, so this must be
  // race-free (verified under TSan/ASan CI) and never deadlock.
  std::atomic<bool> stop{false};
  std::thread swapper([&] {
    int flip = 0;
    while (!stop.load()) {
      if (++flip % 2 == 0) {
        engine.SetEvictionFilter(
            [](const Slice& key) { return !key.starts_with("pin"); });
      } else {
        engine.SetEvictionFilter(nullptr);
      }
    }
  });
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(
        engine.Set("key" + std::to_string(i), std::string(400, 'x')).ok());
  }
  stop.store(true);
  swapper.join();
  EXPECT_GT(engine.evictions(), 0u);
  EXPECT_LE(engine.GetUsage().memory_bytes, 32 * 1024u);
}

// --- Single-block nodes: overwrites that change the payload size. ---

// Budget charge of one DRAM string entry: node overhead + key + value.
size_t StringCharge(const std::string& key, size_t value_bytes) {
  return 64 + key.size() + value_bytes;
}

// Eviction order (LRU first) of `keys`, read off by inserting fillers that
// each force exactly one eviction of an equal-charge entry.
std::vector<std::string> EvictionOrder(HashEngine* engine,
                                       const std::vector<std::string>& keys,
                                       size_t value_bytes) {
  std::vector<std::string> order;
  for (size_t i = 0; i < keys.size(); ++i) {
    // Same key length as keys[i] so each filler displaces one entry.
    const std::string filler = "f" + std::to_string(i);
    EXPECT_TRUE(engine->Set(filler, std::string(value_bytes, 'f')).ok());
    for (const std::string& k : keys) {
      if (std::find(order.begin(), order.end(), k) == order.end() &&
          !engine->Exists(k)) {
        order.push_back(k);
      }
    }
    EXPECT_EQ(order.size(), i + 1) << "filler " << i;
  }
  return order;
}

TEST(HashEngineTest, ResizeKeepsLruOrder) {
  const std::vector<std::string> keys = {"k0", "k1", "k2", "k3",
                                         "k4", "k5", "k6", "k7"};
  constexpr size_t kValue = 16;
  constexpr size_t kGrowth = 4000;
  HashEngineOptions options;
  options.shards = 1;
  options.memory_budget = keys.size() * StringCharge("k0", kValue) + kGrowth;
  HashEngine engine(options);
  for (const std::string& k : keys) {
    ASSERT_TRUE(engine.Set(k, std::string(kValue, 'v')).ok());
  }
  // Grow and shrink k3, then k0 (the LRU tail): large size changes move
  // the node. Each Set also refreshes the key, as any overwrite does.
  for (const char* k : {"k3", "k0"}) {
    ASSERT_TRUE(engine.Set(k, std::string(kValue + kGrowth, 'g')).ok());
    ASSERT_TRUE(engine.Set(k, std::string(kValue, 's')).ok());
  }
  EXPECT_EQ(engine.evictions(), 0u);
  EXPECT_EQ(engine.GetUsage().memory_bytes,
            keys.size() * StringCharge("k0", kValue));

  // Fill the headroom with one entry so the next inserts each evict one.
  ASSERT_TRUE(engine.Set("pad", std::string(kGrowth - 64 - 3, 'p')).ok());
  EXPECT_EQ(engine.GetUsage().memory_bytes, options.memory_budget);
  EXPECT_EQ(EvictionOrder(&engine, keys, kValue),
            (std::vector<std::string>{"k1", "k2", "k4", "k5", "k6", "k7",
                                      "k3", "k0"}));
}

TEST(HashEngineTest, UsageEqualsSumOfChargesAfterResizesAndDeletes) {
  HashEngineOptions options;
  options.shards = 4;
  HashEngine engine(options);
  std::map<std::string, size_t> model;  // key -> value bytes.
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 300; ++i) {
      const std::string key = "key" + std::to_string(i);
      if ((i + round) % 7 == 0) {
        Status s = engine.Delete(key);
        EXPECT_EQ(s.ok(), model.erase(key) == 1) << key;
        continue;
      }
      // Sizes shift every round: grows, shrinks and same-size rewrites.
      const size_t bytes = static_cast<size_t>((i * 37 + round * 101) % 500);
      ASSERT_TRUE(engine.Set(key, std::string(bytes, 'a' + round)).ok());
      model[key] = bytes;
    }
    size_t expected = 0;
    for (const auto& [key, bytes] : model) {
      expected += StringCharge(key, bytes);
    }
    ASSERT_EQ(engine.GetUsage().memory_bytes, expected) << "round " << round;
    ASSERT_EQ(engine.GetUsage().keys, model.size());
  }
}

TEST(HashEngineTest, ResizedKeysStayReachable) {
  ManualClock clock(1000);
  HashEngineOptions options;
  options.shards = 1;  // Long hash chains and many table grows.
  options.clock = &clock;
  HashEngine engine(options);
  constexpr int kKeys = 3000;
  auto value_for = [](int i, int round) {
    return std::string(static_cast<size_t>((i * 13 + round * 211) % 700),
                       static_cast<char>('a' + (i + round) % 26));
  };
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < kKeys; ++i) {
      const std::string key = "key" + std::to_string(i);
      // Odd keys carry a TTL, so the sweep below walks resized nodes.
      const uint64_t ttl = i % 2 == 1 ? 1000 : 0;
      ASSERT_TRUE(engine.SetEx(key, value_for(i, round), ttl).ok());
    }
  }
  std::string value;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(engine.Get("key" + std::to_string(i), &value).ok()) << i;
    ASSERT_EQ(value, value_for(i, 3)) << i;
  }
  std::vector<std::string> scanned;
  uint64_t cursor = 0;
  do {
    cursor = engine.Scan(cursor, 100, &scanned);
  } while (cursor != 0);
  std::sort(scanned.begin(), scanned.end());
  scanned.erase(std::unique(scanned.begin(), scanned.end()), scanned.end());
  EXPECT_EQ(scanned.size(), static_cast<size_t>(kKeys));

  clock.Advance(2000);
  EXPECT_EQ(engine.SweepExpired(), static_cast<size_t>(kKeys / 2));
  for (int i = 0; i < kKeys; ++i) {
    const Status s = engine.Get("key" + std::to_string(i), &value);
    EXPECT_EQ(s.ok(), i % 2 == 0) << i;
  }
  EXPECT_EQ(engine.GetUsage().keys, static_cast<size_t>(kKeys / 2));
}

TEST(HashEngineTest, StringAndComplexOverwritesSurviveResize) {
  HashEngine engine;
  ASSERT_TRUE(engine.Set("k", std::string(300, 's')).ok());
  const uint64_t as_string = engine.GetUsage().memory_bytes;
  // A list takes the key over (SET's reverse is WRONGTYPE), then SET
  // takes it back with a differently sized string.
  ASSERT_TRUE(engine.Delete("k").ok());
  ASSERT_TRUE(engine.RPush("k", "a").ok());
  ASSERT_TRUE(engine.RPush("k", "b").ok());
  EXPECT_TRUE(engine.Set("k", "x").ok());
  std::string value;
  ASSERT_TRUE(engine.Get("k", &value).ok());
  EXPECT_EQ(value, "x");
  EXPECT_TRUE(engine.LLen("k").status().IsInvalidArgument());
  ASSERT_TRUE(engine.Set("k", std::string(300, 's')).ok());
  EXPECT_EQ(engine.GetUsage().memory_bytes, as_string);

  ASSERT_TRUE(engine.HSet("h", "f", "v").ok());
  ASSERT_TRUE(engine.Set("h", std::string(1000, 'h')).ok());
  ASSERT_TRUE(engine.Get("h", &value).ok());
  EXPECT_EQ(value, std::string(1000, 'h'));
  ASSERT_TRUE(engine.Delete("h").ok());
  ASSERT_TRUE(engine.ZAdd("h", 2.5, "m").ok());
  EXPECT_EQ(engine.ZScore("h", "m").value(), 2.5);
  EXPECT_EQ(engine.GetUsage().keys, 2u);
}

TEST(HashEngineTest, PmemAndCompressedValuesSurviveResize) {
  workload::DatasetOptions dataset;
  dataset.kind = workload::DatasetKind::kKv1;
  dataset.num_records = 200;
  auto samples = workload::MakeDataset(dataset);
  auto compressor = CreateCompressor(CompressorType::kZliteDict);
  ASSERT_TRUE(compressor->Train(samples).ok());

  PmemOptions pmem_options;
  pmem_options.capacity = 8 << 20;
  pmem_options.inject_latency = false;
  auto device = PmemDevice::Create(pmem_options);
  ASSERT_TRUE(device.ok());
  PmemAllocator allocator(device->get(), 0, 8 << 20);

  HashEngineOptions options;
  options.compressor = compressor.get();
  options.compress_min_bytes = 16;
  options.pmem = &allocator;
  options.pmem_value_threshold = 256;
  HashEngine engine(options);

  // Incompressible bytes stay raw; many samples compress but stay large.
  std::string noise(3000, '\0');
  uint64_t x = 88172645463325252ull;
  for (char& c : noise) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    c = static_cast<char>(x);
  }
  std::string many_samples;
  for (const std::string& sample : samples) many_samples += sample;

  // Cycle one key through DRAM raw, DRAM compressed, PMem raw and PMem
  // compressed payloads of different sizes; every read returns the
  // latest value.
  const std::vector<std::string> values = {
      "tiny", samples[0], noise,        samples[1], "t",
      many_samples, samples[2], noise.substr(0, 1000)};
  std::string value;
  for (const std::string& v : values) {
    ASSERT_TRUE(engine.Set("k", v).ok());
    ASSERT_TRUE(engine.Get("k", &value).ok());
    ASSERT_EQ(value, v);
    ASSERT_TRUE(engine.Cas("k", v, v + "!").ok());
    ASSERT_TRUE(engine.Get("k", &value).ok());
    ASSERT_EQ(value, v + "!");
  }
  ASSERT_TRUE(engine.Set("k", noise).ok());
  EXPECT_EQ(engine.GetUsage().pmem_bytes, noise.size());
  EXPECT_EQ(engine.GetUsage().memory_bytes, 64 + 1u);  // Handle uncharged.
  ASSERT_TRUE(engine.Set("k", many_samples).ok());
  EXPECT_GT(engine.GetUsage().pmem_bytes, 0u);
  EXPECT_LT(engine.GetUsage().pmem_bytes, many_samples.size());
  ASSERT_TRUE(engine.Get("k", &value).ok());
  EXPECT_EQ(value, many_samples);
  ASSERT_TRUE(engine.Set("k", "small again").ok());
  EXPECT_EQ(allocator.bytes_in_use(), 0u);
  EXPECT_EQ(engine.GetUsage().pmem_bytes, 0u);
  ASSERT_TRUE(engine.Delete("k").ok());
  EXPECT_EQ(engine.GetUsage().memory_bytes, 0u);
}

// The node layout changed, the budget charge did not: this sequence's
// usage was recorded from the two-allocation Entry layout it replaced.
TEST(HashEngineTest, ChargeMatchesPreviousLayout) {
  HashEngineOptions options;
  options.shards = 4;
  options.memory_budget = 48 * 1024;
  HashEngine engine(options);
  std::string out;
  for (int i = 0; i < 4000; ++i) {
    const std::string key = "key" + std::to_string(i % 400);
    switch (i % 9) {
      case 0:
      case 1:
      case 2:
        engine.Set(key, std::string(static_cast<size_t>(i * 7 % 300), 'v'));
        break;
      case 3:
        engine.Get(key, &out);
        break;
      case 4:
        engine.Delete(key);
        break;
      case 5:
        engine.RPush("list" + std::to_string(i % 13), key);
        break;
      case 6:
        engine.HSet("hash" + std::to_string(i % 11), key, out);
        break;
      case 7:
        engine.ZAdd("zset" + std::to_string(i % 5), i, key);
        break;
      case 8:
        engine.Cas(key, "", std::string(static_cast<size_t>(i % 90), 'c'),
                   /*allow_create=*/true);
        break;
    }
  }
  const UsageStats usage = engine.GetUsage();
  EXPECT_EQ(usage.memory_bytes, 48449u);
  EXPECT_EQ(usage.keys, 86u);
  EXPECT_EQ(engine.evictions(), 2067u);
}


// --- Randomized differential test against a std::map model. ---

// splitmix64: a generator fixed by its seed on every standard library, so
// a printed seed replays the same operation stream anywhere.
class ModelRng {
 public:
  explicit ModelRng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  size_t Uniform(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

// What the engine should hold under one key.
struct ModelValue {
  ValueKind kind = ValueKind::kString;
  std::string str;
  std::deque<std::string> list;
  std::map<std::string, std::string> hash;
  std::map<std::string, double> zset;
  uint64_t expire_at = 0;  // Clock micros; 0 = never.
};

// HashEngine's semantics over a std::map. An expired key stays until an
// operation that checks expiry on the way in touches it, or a sweep, as
// the engine's lazy expiry keeps it; Expire and Ttl see it as missing
// without dropping it. The engine's eviction filter reports evicted keys.
struct EngineModel {
  explicit EngineModel(const Clock* clock) : clock(clock) {}

  bool Expired(const ModelValue& v) const {
    return v.expire_at != 0 && clock->NowMicros() >= v.expire_at;
  }
  // A lookup that drops the key if it has expired.
  ModelValue* Lookup(const std::string& key) {
    auto it = keys.find(key);
    if (it == keys.end()) return nullptr;
    if (Expired(it->second)) {
      keys.erase(it);
      return nullptr;
    }
    return &it->second;
  }
  // The live value under `key`, dropping nothing.
  ModelValue* Peek(const std::string& key) {
    auto it = keys.find(key);
    return it == keys.end() || Expired(it->second) ? nullptr : &it->second;
  }
  // Lookup for a typed operation: NotFound, InvalidArgument on a wrong
  // type, else OK with *out set.
  Code Typed(const std::string& key, ValueKind kind, ModelValue** out) {
    *out = Lookup(key);
    if (*out == nullptr) return Code::kNotFound;
    return (*out)->kind == kind ? Code::kOk : Code::kInvalidArgument;
  }
  // As Typed, creating an empty value of `kind` when the key is missing.
  Code Create(const std::string& key, ValueKind kind, ModelValue** out) {
    Code c = Typed(key, kind, out);
    if (c == Code::kNotFound) {
      *out = &keys[key];
      (*out)->kind = kind;
      c = Code::kOk;
    }
    return c;
  }
  void SetString(const std::string& key, const std::string& value,
                 uint64_t ttl_micros) {
    ModelValue& v = keys[key] = ModelValue();
    v.str = value;
    v.expire_at = ttl_micros == 0 ? 0 : clock->NowMicros() + ttl_micros;
  }

  const Clock* clock;
  std::map<std::string, ModelValue> keys;
};

// Memory usage and evictions after every 1000 operations of the default
// seed. Recorded from the engine whose Entry header held the hash, the
// expiry deadline and the charge: the budget charge is unchanged.
const std::vector<std::pair<uint64_t, uint64_t>> kModelCheckpoints = {
    {23538, 134},  {24268, 349},  {24228, 648},  {23888, 845},
    {23019, 1105}, {23435, 1332}, {23729, 1583}, {23466, 1801},
    {23416, 2041}, {23936, 2272}, {22241, 2513}, {23740, 2744},
    {23342, 3013}, {23051, 3282}, {23496, 3515}, {23781, 3699}};

constexpr uint64_t kModelDefaultSeed = 20240521;

// Runs `num_ops` random operations on a 4-shard engine under eviction
// pressure, checking every result against EngineModel, and appends
// (memory_bytes, evictions) after every 1000 operations to `checkpoints`.
void RunAgainstModel(uint64_t seed, int num_ops,
                     std::vector<std::pair<uint64_t, uint64_t>>* checkpoints) {
  workload::DatasetOptions dataset;
  dataset.kind = workload::DatasetKind::kKv1;
  dataset.num_records = 200;
  const std::vector<std::string> samples = workload::MakeDataset(dataset);
  auto compressor = CreateCompressor(CompressorType::kZliteDict);
  ASSERT_TRUE(compressor->Train(samples).ok());
  PmemOptions pmem_options;
  pmem_options.capacity = 8 << 20;
  pmem_options.inject_latency = false;
  auto device = PmemDevice::Create(pmem_options);
  ASSERT_TRUE(device.ok());
  PmemAllocator allocator(device->get(), 0, 8 << 20);

  ManualClock clock(1000);
  HashEngineOptions options;
  options.shards = 4;
  options.memory_budget = 24 * 1024;
  options.clock = &clock;
  options.compressor = compressor.get();
  options.compress_min_bytes = 32;
  options.pmem = &allocator;
  options.pmem_value_threshold = 256;
  HashEngine engine(options);
  std::vector<std::string> evicted;
  engine.SetEvictionFilter([&evicted](const Slice& key) {
    evicted.push_back(key.ToString());
    return true;
  });

  EngineModel model(&clock);
  ModelRng rng(seed);
  auto random_key = [&rng] {
    return "key" + std::to_string(rng.Uniform(400));
  };
  auto random_value = [&rng, &samples] {
    switch (rng.Uniform(3)) {
      case 0:  // Short and uniform: stays raw in DRAM.
        return std::string(rng.Uniform(64), static_cast<char>(
                                                'a' + rng.Uniform(26)));
      case 1: {  // Dataset records: compress, and the large ones go to PMem.
        std::string v;
        for (size_t n = 1 + rng.Uniform(3); n > 0; --n) {
          v += samples[rng.Uniform(samples.size())];
        }
        return v;
      }
      default: {  // Incompressible; 256 bytes and up go to PMem.
        std::string v(rng.Uniform(600), '\0');
        for (char& c : v) c = static_cast<char>(rng.Next());
        return v;
      }
    }
  };
  auto element = [&rng] { return "e" + std::to_string(rng.Uniform(40)); };

  std::string value;
  for (int op = 1; op <= num_ops; ++op) {
    const std::string key = random_key();
    const std::string where = "op " + std::to_string(op) + " key " + key;
    ModelValue* m = nullptr;
    // A mutation the budget cannot hold drops the key; the model follows.
    auto mutated = [&](const Status& s, Code expected) {
      if (s.IsOutOfSpace()) {
        model.keys.erase(key);
        return;
      }
      EXPECT_EQ(s.code(), expected) << where << ": " << s.ToString();
    };
    const size_t kind = rng.Uniform(100);
    if (kind < 20) {  // Set.
      const std::string v = random_value();
      model.Lookup(key);
      model.SetString(key, v, 0);
      mutated(engine.Set(key, v), Code::kOk);
    } else if (kind < 28) {  // SetEx.
      const std::string v = random_value();
      const uint64_t ttl = 1 + rng.Uniform(5000);
      model.Lookup(key);
      model.SetString(key, v, ttl);
      mutated(engine.SetEx(key, v, ttl), Code::kOk);
    } else if (kind < 40) {  // Get.
      const Code c = model.Typed(key, ValueKind::kString, &m);
      const Status s = engine.Get(key, &value);
      ASSERT_EQ(s.code(), c) << where;
      if (c == Code::kOk) {
        ASSERT_EQ(value, m->str) << where;
      }
    } else if (kind < 44) {  // Delete.
      const bool present = model.Lookup(key) != nullptr;
      model.keys.erase(key);
      ASSERT_EQ(engine.Delete(key).code(),
                present ? Code::kOk : Code::kNotFound)
          << where;
    } else if (kind < 48) {  // Expire, sometimes clearing the TTL.
      const uint64_t ttl = rng.Uniform(4) == 0 ? 0 : 1 + rng.Uniform(5000);
      m = model.Peek(key);
      if (m != nullptr) {
        m->expire_at = ttl == 0 ? 0 : clock.NowMicros() + ttl;
      }
      ASSERT_EQ(engine.Expire(key, ttl).code(),
                m != nullptr ? Code::kOk : Code::kNotFound)
          << where;
    } else if (kind < 53) {  // Ttl.
      m = model.Peek(key);
      const Result<uint64_t> ttl = engine.Ttl(key);
      ASSERT_EQ(ttl.ok(), m != nullptr) << where;
      if (m != nullptr) {
        ASSERT_EQ(*ttl, m->expire_at == 0 ? 0
                                          : m->expire_at - clock.NowMicros())
            << where;
      }
    } else if (kind < 56) {  // Exists.
      ASSERT_EQ(engine.Exists(key), model.Lookup(key) != nullptr) << where;
    } else if (kind < 60) {
      // MultiSet of new keys. The engine sets a batch shard by shard, so
      // the model could not tell whether an existing key in it was evicted
      // before or after its own set.
      std::vector<std::string> batch_keys;
      for (std::string k = key; batch_keys.size() < 7; k = random_key()) {
        if (model.keys.count(k) == 0 &&
            std::find(batch_keys.begin(), batch_keys.end(), k) ==
                batch_keys.end()) {
          batch_keys.push_back(k);
        }
        if (rng.Uniform(3) == 0) break;
      }
      std::vector<std::string> batch_values;
      for (const std::string& k : batch_keys) {
        batch_values.push_back(random_value());
        model.SetString(k, batch_values.back(), 0);
      }
      std::vector<Slice> ks(batch_keys.begin(), batch_keys.end());
      std::vector<Slice> vs(batch_values.begin(), batch_values.end());
      std::vector<Status> statuses;
      engine.MultiSet(ks, vs, &statuses);
      for (size_t i = 0; i < statuses.size(); ++i) {
        if (statuses[i].IsOutOfSpace()) model.keys.erase(batch_keys[i]);
        else EXPECT_TRUE(statuses[i].ok()) << where << " batch " << i;
      }
    } else if (kind < 64) {  // MultiGet, duplicates allowed.
      std::vector<std::string> batch_keys = {key};
      for (size_t n = rng.Uniform(8); n > 0; --n) {
        batch_keys.push_back(random_key());
      }
      std::vector<Slice> ks(batch_keys.begin(), batch_keys.end());
      std::vector<std::string> values;
      std::vector<Status> statuses;
      engine.MultiGet(ks, &values, &statuses);
      for (size_t i = 0; i < batch_keys.size(); ++i) {
        const Code c = model.Typed(batch_keys[i], ValueKind::kString, &m);
        ASSERT_EQ(statuses[i].code(), c) << where << " batch " << i;
        if (c == Code::kOk) {
          ASSERT_EQ(values[i], m->str) << where;
        }
      }
    } else if (kind < 72) {
      // Cas; half of them swap the current value for one of a different
      // size, which moves the node and keeps its TTL.
      const Code c = model.Typed(key, ValueKind::kString, &m);
      std::string expected;
      if (c == Code::kOk && rng.Uniform(4) != 0) expected = m->str;
      else if (rng.Uniform(2) == 0) expected = random_value();
      const bool allow_create = rng.Uniform(2) == 0;
      const std::string v = random_value();
      Code want = c;
      if (c == Code::kNotFound) {
        want = allow_create && expected.empty() ? Code::kOk : Code::kAborted;
        if (want == Code::kOk) model.SetString(key, v, 0);
      } else if (c == Code::kOk) {
        want = m->str == expected ? Code::kOk : Code::kAborted;
        if (want == Code::kOk) m->str = v;
      }
      mutated(engine.Cas(key, expected, v, allow_create), want);
    } else if (kind < 78) {  // Lists.
      const std::string e = element();
      switch (rng.Uniform(6)) {
        case 0: {
          const Code c = model.Create(key, ValueKind::kList, &m);
          if (c == Code::kOk) m->list.push_front(e);
          mutated(engine.LPush(key, e), c);
          break;
        }
        case 1: {
          const Code c = model.Create(key, ValueKind::kList, &m);
          if (c == Code::kOk) m->list.push_back(e);
          mutated(engine.RPush(key, e), c);
          break;
        }
        case 2:
        case 3: {
          const bool left = rng.Uniform(2) == 0;
          Code c = model.Typed(key, ValueKind::kList, &m);
          std::string want;
          if (c == Code::kOk && m->list.empty()) c = Code::kNotFound;
          if (c == Code::kOk) {
            want = left ? m->list.front() : m->list.back();
            if (left) m->list.pop_front();
            else m->list.pop_back();
          }
          const Status s = left ? engine.LPop(key, &value)
                                : engine.RPop(key, &value);
          ASSERT_EQ(s.code(), c) << where;
          if (c == Code::kOk) {
            ASSERT_EQ(value, want) << where;
          }
          break;
        }
        case 4: {
          const Code c = model.Typed(key, ValueKind::kList, &m);
          std::vector<std::string> got;
          const Status s = engine.LRange(key, 0, -1, &got);
          ASSERT_EQ(s.code(), c == Code::kNotFound ? Code::kOk : c) << where;
          if (c == Code::kOk) {
            ASSERT_EQ(got, std::vector<std::string>(m->list.begin(),
                                                    m->list.end()))
                << where;
          }
          break;
        }
        default: {
          const Code c = model.Typed(key, ValueKind::kList, &m);
          const Result<uint64_t> len = engine.LLen(key);
          ASSERT_EQ(len.status().code(), c == Code::kNotFound ? Code::kOk : c)
              << where;
          if (len.ok()) {
            ASSERT_EQ(*len, c == Code::kOk ? m->list.size() : 0u);
          }
          break;
        }
      }
    } else if (kind < 84) {  // Hashes.
      const std::string field = element();
      switch (rng.Uniform(4)) {
        case 0:
        case 1: {
          const std::string v = random_value().substr(0, 40);
          const Code c = model.Create(key, ValueKind::kHash, &m);
          if (c == Code::kOk) m->hash[field] = v;
          mutated(engine.HSet(key, field, v), c);
          break;
        }
        case 2: {
          Code c = model.Typed(key, ValueKind::kHash, &m);
          if (c == Code::kOk && m->hash.count(field) == 0) c = Code::kNotFound;
          const Status s = engine.HGet(key, field, &value);
          ASSERT_EQ(s.code(), c) << where;
          if (c == Code::kOk) {
            ASSERT_EQ(value, m->hash[field]) << where;
          }
          break;
        }
        default: {
          Code c = model.Typed(key, ValueKind::kHash, &m);
          if (c == Code::kOk && m->hash.erase(field) == 0) c = Code::kNotFound;
          mutated(engine.HDel(key, field), c);
          break;
        }
      }
    } else if (kind < 90) {  // Sorted sets.
      const std::string member = element();
      switch (rng.Uniform(4)) {
        case 0:
        case 1: {
          const double score = static_cast<double>(rng.Uniform(10));
          const Code c = model.Create(key, ValueKind::kZSet, &m);
          if (c == Code::kOk) m->zset[member] = score;
          mutated(engine.ZAdd(key, score, member), c);
          break;
        }
        case 2: {
          Code c = model.Typed(key, ValueKind::kZSet, &m);
          if (c == Code::kOk && m->zset.count(member) == 0) {
            c = Code::kNotFound;
          }
          const Result<double> score = engine.ZScore(key, member);
          ASSERT_EQ(score.status().code(), c) << where;
          if (c == Code::kOk) {
            ASSERT_EQ(*score, m->zset[member]) << where;
          }
          break;
        }
        default: {
          const Code c = model.Typed(key, ValueKind::kZSet, &m);
          std::vector<std::pair<std::string, double>> got;
          const Status s = engine.ZRange(key, 0, -1, &got);
          ASSERT_EQ(s.code(), c == Code::kNotFound ? Code::kOk : c) << where;
          std::vector<std::pair<double, std::string>> want;
          if (c == Code::kOk) {
            for (const auto& [mem, sc] : m->zset) want.emplace_back(sc, mem);
          }
          std::sort(want.begin(), want.end());
          ASSERT_EQ(got.size(), want.size()) << where;
          for (size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i].first, want[i].second) << where;
            ASSERT_EQ(got[i].second, want[i].first) << where;
          }
          break;
        }
      }
    } else if (kind < 93) {  // SweepExpired.
      size_t expired = 0;
      for (auto it = model.keys.begin(); it != model.keys.end();) {
        if (model.Expired(it->second)) {
          it = model.keys.erase(it);
          ++expired;
        } else {
          ++it;
        }
      }
      ASSERT_EQ(engine.SweepExpired(), expired) << where;
    } else {
      clock.Advance(rng.Uniform(1500));
    }
    for (const std::string& k : evicted) model.keys.erase(k);
    evicted.clear();

    if (op % 1000 == 0) {
      const UsageStats usage = engine.GetUsage();
      ASSERT_EQ(usage.keys, model.keys.size()) << where;
      std::vector<std::string> scanned;
      uint64_t cursor = 0;
      do {
        cursor = engine.Scan(cursor, 64, &scanned);
      } while (cursor != 0);
      std::sort(scanned.begin(), scanned.end());
      std::vector<std::string> live;
      for (const auto& [k, v] : model.keys) {
        if (!model.Expired(v)) live.push_back(k);
      }
      EXPECT_EQ(scanned, live) << where;
      checkpoints->emplace_back(usage.memory_bytes, engine.evictions());
    }
  }
}

// Replay a failure with TIERBASE_MODEL_SEED=<printed seed>. Other seeds
// check every result against the model but not the recorded usage.
TEST(HashEngineTest, MatchesModelUnderRandomOps) {
  uint64_t seed = kModelDefaultSeed;
  if (const char* env = std::getenv("TIERBASE_MODEL_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  std::printf("MatchesModelUnderRandomOps seed %" PRIu64 "\n", seed);
  SCOPED_TRACE("seed " + std::to_string(seed));
  std::vector<std::pair<uint64_t, uint64_t>> checkpoints;
  RunAgainstModel(seed, 16000, &checkpoints);
  if (seed == kModelDefaultSeed) {
    EXPECT_EQ(checkpoints, kModelCheckpoints);
  }
}

}  // namespace
}  // namespace cache
}  // namespace tierbase
