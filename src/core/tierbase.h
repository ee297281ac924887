// TierBase: the paper's primary contribution — a tiered key-value store
// that synchronizes data between a fast cache tier (hash engine over
// DRAM/PMem) and a capacity-oriented storage tier (LSM engine behind a
// pluggable adapter), under a configurable caching policy:
//
//   kCacheOnly     pure in-memory store (Redis/Memcached comparison mode)
//   kWalFile       cache + append-only WAL on disk   (Fig 8 "WAL")
//   kWalPmem       cache + WAL on PMem ring buffer   (Fig 8 "WAL-PMem")
//   kWriteThrough  tiered, synchronous storage update (Fig 8 "wt")
//   kWriteBack     tiered, deferred batched storage update (Fig 8 "wb")
//
// Write-through uses per-key write queues and write coalescing (§4.1.1);
// write-back uses dirty tracking with batched merged flushes, backpressure,
// and deferred cache-fetching (§4.1.2). Each mechanism has one, batched,
// implementation: a single-key miss is a batch of one, and every write (a
// lone SET, SETEX or DEL included) is one batch through one private Write,
// whose durable step, Persist, holds each policy's rule once; CAS shares
// Persist. The dual-replica configuration of §6.4 is the networked
// cluster's job (src/cluster_net/: OpLog replication to a replica node). Value
// compression (§4.2) and PMem placement (§4.3) are configured through the
// embedded cache engine options.

#ifndef TIERBASE_CORE_TIERBASE_H_
#define TIERBASE_CORE_TIERBASE_H_

#include <atomic>
#include <memory>
#include <string>

#include "cache/hash_engine.h"
#include "core/deferred_fetch.h"
#include "core/options.h"
#include "core/storage_adapter.h"
#include "core/write_back.h"
#include "core/write_through.h"
#include "lsm/wal.h"
#include "pmem/ring_buffer.h"

namespace tierbase {

class TierBase : public KvEngine {
 public:
  /// `storage` is required for tiered policies (kWriteThrough/kWriteBack)
  /// and ignored otherwise; not owned.
  static Result<std::unique_ptr<TierBase>> Open(const TierBaseOptions& options,
                                                StorageAdapter* storage);
  ~TierBase() override;

  std::string name() const override;

  // --- KvEngine. ---
  Status Set(const Slice& key, const Slice& value) override;
  Status Get(const Slice& key, std::string* value) override;
  Status Delete(const Slice& key) override;
  /// Batched reads: one cache MultiGet, then (tiered policies) one dirty-
  /// buffer pass and one batched storage MultiRead for the misses, with a
  /// single batched cache populate.
  void MultiGet(const std::vector<Slice>& keys,
                std::vector<std::string>* values,
                std::vector<Status>* statuses) override;
  /// Batched writes under every caching policy: one cache MultiSet, with
  /// the whole batch logged in one WAL append (kWalFile), coalesced into
  /// one storage call (write-through) or marked dirty under one dirty-set
  /// lock (write-back). Set, SetEx and Delete are batches of one.
  void MultiSet(const std::vector<Slice>& keys,
                const std::vector<Slice>& values,
                std::vector<Status>* statuses) override;
  UsageStats GetUsage() const override;
  Status WaitIdle() override;

  // --- Extensions. ---
  Status SetEx(const Slice& key, const Slice& value, uint64_t ttl_micros);
  /// True if a read would find the key: the cache, then (tiered modes)
  /// the write-back dirty buffer, where a pending delete reads as absent,
  /// then storage. Populates nothing.
  bool Exists(const Slice& key);
  /// Compare-and-set; in tiered modes a cache miss triggers a (deferred)
  /// fetch before comparing, per §4.1.2's update-on-missing-key path. The
  /// accepted value then goes through Persist; when a WAL policy rejects
  /// it, the cache is put back to what the log holds.
  Status Cas(const Slice& key, const Slice& expected, const Slice& value,
             bool allow_create = false);

  /// The cache-tier engine (rich data-type ops are reachable here; they are
  /// cache-tier-only in this reproduction).
  cache::HashEngine* cache() { return cache_.get(); }
  StorageAdapter* storage() { return storage_; }
  /// The workload observatory (live MRC / hot keys / keyspace shape), or
  /// null when options.analytics.enabled is false.
  analytics::WorkloadAnalytics* analytics() { return analytics_.get(); }
  const analytics::WorkloadAnalytics* analytics() const {
    return analytics_.get();
  }

  /// Aggregated snapshot across the whole instance: the engine's own op
  /// counters plus the cache tier's eviction/recency/batching gauges and
  /// footprint, so one call yields everything the server's INFO reply
  /// (and any external monitoring) needs.
  struct Stats {
    uint64_t gets = 0;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;     // Misses that consulted storage.
    uint64_t sets = 0;
    uint64_t storage_populates = 0;
    // Cache-tier aggregates (from the embedded HashEngine).
    uint64_t evictions = 0;
    uint64_t expirations = 0;
    uint64_t lru_touches = 0;
    uint64_t multi_shard_locks = 0;  // Shard locks taken by batch ops.
    uint64_t multi_batches = 0;      // MultiGet/MultiSet calls served.
    uint64_t bytes_cached = 0;       // DRAM charged to cached entries.
    uint64_t pmem_bytes = 0;         // Simulated-PMem value bytes.
    uint64_t keys_cached = 0;
    // Persistence / crash-recovery audit trail of the wal/wal-pmem log
    // (records counts the PMem ring's replayed records too).
    lsm::WalRecoveryStats wal;
    // Same, for the storage tier's own WAL (tiered policies: the only WAL
    // in play).
    lsm::WalRecoveryStats storage_wal;
    uint64_t write_back_dirty = 0;      // Unflushed dirty entries right now.
    std::string flush_error;            // Last write-back flush error; empty
                                        // when healthy (cleared on success).
    PerKeyCoalescer::Stats write_through;
    WriteBackManager::Stats write_back;
    DeferredFetcher::Stats deferred_fetch;
  };
  Stats GetStats() const;

  double hit_ratio() const {
    uint64_t h = stats_hits_.load(), m = stats_misses_.load();
    return h + m == 0 ? 0.0 : static_cast<double>(h) / (h + m);
  }

 private:
  TierBase(const TierBaseOptions& options, StorageAdapter* storage);

  Status Init();
  Status RecoverFromWal();
  /// The one write path: keys[i] = values[i] with one TTL for the batch,
  /// or deletes of every key when `is_delete`. Persist runs first and the
  /// cache takes only what it accepted, except a write-back set, which
  /// installs first (§4.1.2). Under cache-only and the WAL policies an op
  /// whose install fails answers the cache's error (a delete of a missing
  /// key answers NotFound), and a WAL policy logs a tombstone for it;
  /// under the tiered policies every op answers storage's status, and a
  /// value the cache cannot take is skipped. The batch is n keys (and
  /// values) whose n statuses come in OK, so a lone op is a batch of one
  /// on the caller's stack.
  void Write(const Slice* keys, const Slice* values, size_t n,
             uint64_t ttl_micros, bool is_delete, Status* statuses);
  /// The durable step of a write batch (tombstones when `is_delete`), and
  /// the only write-path switch over the policy: nothing (cache-only), one
  /// WAL append (kWalFile) or one ring append per op (kWalPmem), one
  /// coalescer batch (write-through), one MarkDirty (write-back). Sets the
  /// status of every op it handles; statuses come in OK. Under the tiered
  /// policies the cache copy of every rejected op is dropped, so reads
  /// never serve a write its caller saw fail.
  void Persist(const Slice* keys, const Slice* values, size_t n,
               bool is_delete, Status* statuses);
  /// The tiered miss path for `keys`, which all missed the cache: one
  /// dirty-buffer lookup (write-back), one FetchMany for the rest and,
  /// when `populate`, one cache MultiSet of the fetched values. Fills
  /// values[i]/statuses[i] per key and returns how many keys the dirty
  /// buffer served; hit/miss accounting is the caller's.
  uint64_t ReadMisses(const std::vector<Slice>& keys, bool populate,
                      std::vector<std::string>* values,
                      std::vector<Status>* statuses);
  bool tiered() const {
    return options_.policy == CachingPolicy::kWriteThrough ||
           options_.policy == CachingPolicy::kWriteBack;
  }

  TierBaseOptions options_;
  StorageAdapter* storage_;

  // Created before cache_ (the engine records into it) and therefore
  // destroyed after it.
  std::unique_ptr<analytics::WorkloadAnalytics> analytics_;
  std::unique_ptr<cache::HashEngine> cache_;
  std::unique_ptr<PerKeyCoalescer> write_through_;
  std::unique_ptr<WriteBackManager> write_back_;
  std::unique_ptr<DeferredFetcher> fetcher_;

  // WAL persistence modes.
  std::unique_ptr<lsm::WalWriter> wal_;
  std::unique_ptr<PmemRingBuffer> wal_ring_;

  // Written once during Init (single-threaded), read by GetStats.
  lsm::WalRecoveryStats wal_recovery_;

  std::atomic<uint64_t> stats_gets_{0};
  std::atomic<uint64_t> stats_hits_{0};
  std::atomic<uint64_t> stats_misses_{0};
  std::atomic<uint64_t> stats_sets_{0};
  std::atomic<uint64_t> stats_populates_{0};
};

}  // namespace tierbase

#endif  // TIERBASE_CORE_TIERBASE_H_
