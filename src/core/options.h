// TierBase configuration. A "storage configuration s" in the cost model is
// exactly one instance of these options; the cost optimization framework
// (§5.3) iterates over candidate TierBaseOptions and measures each.

#ifndef TIERBASE_CORE_OPTIONS_H_
#define TIERBASE_CORE_OPTIONS_H_

#include <cstdint>
#include <string>

#include "analytics/workload_analytics.h"
#include "cache/hash_engine.h"
#include "compression/compressor.h"

namespace tierbase {

/// How the cache tier synchronizes with the storage tier (paper §4.1), or
/// persists on its own (§4.3 WAL modes, measured in Fig 8).
enum class CachingPolicy {
  kCacheOnly,      // Pure in-memory cache; no durability.
  kWalFile,        // Cache + append-only WAL on disk, interval sync ("WAL").
  kWalPmem,        // Cache + WAL on a PMem ring buffer ("WAL-PMem").
  kWriteThrough,   // Tiered; storage updated synchronously ("wt").
  kWriteBack,      // Tiered; storage updated in deferred batches ("wb").
};

const char* CachingPolicyName(CachingPolicy policy);

struct WriteBackOptions {
  /// Dirty-entry count that triggers an early flush.
  size_t flush_threshold = 1024;
  /// Maximum interval between batch flushes.
  uint64_t flush_interval_micros = 50'000;
  /// Maximum ops per storage batch.
  size_t max_batch = 256;
  /// Backpressure: writers block when this many entries are dirty.
  size_t max_dirty = 8192;
  /// Failed flushes are retried with exponential backoff starting here
  /// and capped at the max; the flush error clears on the first success.
  uint64_t retry_backoff_micros = 1'000;
  uint64_t retry_backoff_max_micros = 500'000;
  /// After this many consecutive flush failures, FlushAll and shutdown
  /// stop waiting for the storage tier to heal and surface the error
  /// (entries stay dirty; the flusher keeps retrying until shutdown).
  size_t max_flush_failures = 16;
};

struct TierBaseOptions {
  /// Picks the durable step every write batch (a lone SET included) takes
  /// before or after its cache install.
  CachingPolicy policy = CachingPolicy::kCacheOnly;

  /// Cache-tier engine configuration (budget, shards, compressor, PMem).
  cache::HashEngineOptions cache;

  /// Directory for WAL files (kWalFile/kWalPmem backing log).
  std::string wal_dir;
  /// fsync the log at most once per interval; 0 syncs every append, and a
  /// write batch (a whole MSET) is one append.
  uint64_t wal_sync_interval_micros = 1'000'000;
  /// PMem device for kWalPmem's ring buffer (not owned).
  PmemDevice* wal_pmem_device = nullptr;

  WriteBackOptions write_back;

  /// Workload observatory (live MRC, hot keys, keyspace shape). When
  /// enabled, TierBase owns a WorkloadAnalytics wired into the cache
  /// engine's hot path; analytics.shards == 0 inherits cache.shards.
  /// Disabled ( --no-analytics ) costs literally nothing: the engine's
  /// sink pointer stays null.
  analytics::WorkloadAnalyticsOptions analytics;
};

}  // namespace tierbase

#endif  // TIERBASE_CORE_OPTIONS_H_
