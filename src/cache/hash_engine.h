// HashEngine: TierBase's cache-tier storage engine (paper §3, "the cache
// instances implement hash tables for efficient key-value storage").
//
// Features exercised by the paper's evaluation:
//   * Redis-compatible data model: strings plus lists, hashes, sets and
//     sorted sets; CAS (compare-and-set) on strings; TTL expiry.
//   * LRU eviction against a configurable memory budget.
//   * Value compression hook (§4.2): string values above a threshold are
//     stored compressed with the configured pre-trained compressor.
//   * DRAM/PMem split placement (§4.3): keys and index metadata always stay
//     in DRAM; string values >= pmem_value_threshold move to the simulated
//     persistent-memory device through a PmemAllocator.
//
// Hot-path design (one allocation per entry, none per lookup):
//   * Each key is hashed exactly once per operation; the 64-bit hash picks
//     the shard (power-of-two count, topmost bits) and probes the shard's
//     table (low bits + bucket mask) without rehashing. Nodes do not store
//     the hash: a chain probe compares key length, then key bytes, and
//     only a table grow or an eviction recomputes it from the node's key.
//   * Every entry is a single malloc block (LevelDB LRUHandle idiom): a
//     34-byte header holding the hash-chain link, the LRU prev/next
//     pointers, key and payload lengths, kind and flags, followed by the
//     key bytes and then the payload. The payload is the (possibly
//     compressed) string value, the 12-byte PMem handle for a value placed
//     in PMem, or the ComplexValue pointer of a list/hash/set/zset. The
//     shard index is an intrusive chained hash table over these nodes, so
//     lookups compare against a Slice with no temporary std::string and
//     the LRU needs no separate list nodes.
//   * The budget charge is derived, not stored: kEntryOverhead (64) plus
//     the key, plus the DRAM payload of a string or the element bytes of a
//     complex value. A mutation computes the old charge before it changes
//     the node.
//   * Expiry deadlines live in a per-shard side map keyed by node, and a
//     flag bit marks the nodes that have one (Redis keeps an `expires`
//     dict for the same reason): a key with no TTL pays no header bytes
//     for expiry and its lookups never read the map.
//   * A string overwrite whose stored payload keeps its size rewrites the
//     bytes in place. A size change reallocs the node: when the block
//     moves, the new address is spliced into the old node's hash-chain
//     slot, LRU position and expiry-map key, so recency order and TTL
//     survive and callers carry on with the returned pointer. Nothing else
//     moves a node.
//   * A removed node's block stays with its shard as a spare, and the
//     next insert reallocs it: evicting to make room for a new key costs
//     no malloc/free pair.
//   * When memory_budget == 0 no eviction can occur, so Get/Set skip LRU
//     reordering entirely (observable through lru_touches()).
//   * MultiGet/MultiSet group keys by shard and take each shard mutex at
//     most once per batch.
//
// Thread model: the engine is sharded; shard count 1 gives the
// single-threaded event-loop behaviour, higher counts support the
// multi-thread / elastic modes with per-shard mutexes. The requested shard
// count is rounded up to the next power of two.

#ifndef TIERBASE_CACHE_HASH_ENGINE_H_
#define TIERBASE_CACHE_HASH_ENGINE_H_

#include <atomic>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/kv_engine.h"
#include "common/mutex.h"
#include "compression/compressor.h"
#include "pmem/pmem_allocator.h"

namespace tierbase {

namespace analytics {
class WorkloadAnalytics;
}  // namespace analytics

namespace cache {

enum class ValueKind : uint8_t {
  kString = 0,
  kList = 1,
  kHash = 2,
  kSet = 3,
  kZSet = 4,
};

enum class EvictionPolicy {
  kNoEviction,  // Set fails with OutOfSpace when over budget.
  kLru,         // Evict least-recently-used entries.
};

struct HashEngineOptions {
  /// DRAM budget; 0 = unlimited.
  size_t memory_budget = 0;
  EvictionPolicy eviction = EvictionPolicy::kLru;
  /// Rounded up to the next power of two.
  int shards = 1;
  Clock* clock = Clock::Real();

  /// Value compression (null = store raw). Not owned.
  Compressor* compressor = nullptr;
  size_t compress_min_bytes = 32;

  /// PMem placement (null = DRAM only). Not owned.
  PmemAllocator* pmem = nullptr;
  size_t pmem_value_threshold = 64;

  /// Workload-analytics sink (null = no recording). Not owned. The engine
  /// reports Get/Set/MultiGet/MultiSet accesses with the already-computed
  /// key hash, outside any shard lock. Deletes and rich-type ops are not
  /// recorded — the observatory watches the string hot path the cost
  /// model reasons about.
  analytics::WorkloadAnalytics* analytics = nullptr;
};

class HashEngine : public KvEngine {
 public:
  explicit HashEngine(HashEngineOptions options = {});
  ~HashEngine() override;

  std::string name() const override { return "hash-engine"; }

  // --- Strings (KvEngine interface + extensions). ---
  Status Set(const Slice& key, const Slice& value) override;
  Status Get(const Slice& key, std::string* value) override;
  Status Delete(const Slice& key) override;
  /// Batched ops: keys grouped per shard, each shard mutex taken at most
  /// once per call (multi_shard_locks() counts the acquisitions).
  void MultiGet(const std::vector<Slice>& keys,
                std::vector<std::string>* values,
                std::vector<Status>* statuses) override;
  void MultiSet(const std::vector<Slice>& keys,
                const std::vector<Slice>& values,
                std::vector<Status>* statuses) override {
    statuses->resize(keys.size());
    MultiSet(keys.data(), values.data(), keys.size(), 0, statuses->data());
  }
  /// MultiSet of n keys with one TTL for the whole batch (microseconds
  /// from now; 0 = no expiry). Fills statuses[0..n). A batch of one is a
  /// plain SetEx: it counts in neither multi_batches() nor
  /// multi_shard_locks().
  void MultiSet(const Slice* keys, const Slice* values, size_t n,
                uint64_t ttl_micros, Status* statuses);
  /// Set with TTL (microseconds from now; 0 = no expiry).
  Status SetEx(const Slice& key, const Slice& value, uint64_t ttl_micros);
  /// Compare-and-set: succeeds iff the current value equals `expected`
  /// (missing key matches empty `expected` only when allow_create).
  /// Returns Aborted on mismatch.
  Status Cas(const Slice& key, const Slice& expected, const Slice& value,
             bool allow_create = false);
  bool Exists(const Slice& key);

  // --- TTL. ---
  Status Expire(const Slice& key, uint64_t ttl_micros);
  /// Remaining TTL in micros; NotFound if absent or expired; 0 if no
  /// expiry set. A key with a TTL never reads 0: its deadline counts as
  /// expired.
  Result<uint64_t> Ttl(const Slice& key);

  // --- Lists. ---
  Status LPush(const Slice& key, const Slice& value);
  Status RPush(const Slice& key, const Slice& value);
  Status LPop(const Slice& key, std::string* value);
  Status RPop(const Slice& key, std::string* value);
  Result<uint64_t> LLen(const Slice& key);
  Status LRange(const Slice& key, int64_t start, int64_t stop,
                std::vector<std::string>* out);

  // --- Hashes. ---
  Status HSet(const Slice& key, const Slice& field, const Slice& value);
  Status HGet(const Slice& key, const Slice& field, std::string* value);
  Status HDel(const Slice& key, const Slice& field);
  Result<uint64_t> HLen(const Slice& key);
  Status HGetAll(const Slice& key,
                 std::vector<std::pair<std::string, std::string>>* out);

  // --- Sets. ---
  Status SAdd(const Slice& key, const Slice& member);
  Status SRem(const Slice& key, const Slice& member);
  Result<bool> SIsMember(const Slice& key, const Slice& member);
  Result<uint64_t> SCard(const Slice& key);

  // --- Sorted sets. ---
  Status ZAdd(const Slice& key, double score, const Slice& member);
  Result<double> ZScore(const Slice& key, const Slice& member);
  Status ZRangeByScore(const Slice& key, double min_score, double max_score,
                       std::vector<std::string>* out);
  /// Rank-based range over the score order (Redis ZRANGE semantics:
  /// negative indices count from the end, `stop` is inclusive). A missing
  /// key yields an empty result.
  Status ZRange(const Slice& key, int64_t start, int64_t stop,
                std::vector<std::pair<std::string, double>>* out);
  Result<uint64_t> ZCard(const Slice& key);

  // --- Introspection / control. ---
  UsageStats GetUsage() const override;
  uint64_t evictions() const { return evictions_.load(); }
  uint64_t expirations() const { return expirations_.load(); }
  /// LRU reorderings performed. Stays zero while memory_budget == 0: with
  /// no eviction possible the hot path skips recency maintenance (and the
  /// allocation-free lookup leaves no other per-op side effects).
  uint64_t lru_touches() const;
  /// Shard mutex acquisitions made by MultiGet/MultiSet (at most one per
  /// shard per batch) and the number of batch calls served.
  uint64_t multi_shard_locks() const { return multi_shard_locks_.load(); }
  uint64_t multi_batches() const { return multi_batches_.load(); }

  /// Removes expired entries eagerly (normally lazy). Returns # removed.
  size_t SweepExpired();

  /// Cursor-based key iteration (SCAN / full-resync snapshots / key
  /// migration). Starts at cursor 0; appends at least `count` live keys
  /// (modulo expiry) and returns the cursor to resume from, or 0 when the
  /// keyspace is exhausted. Guarantees match Redis SCAN loosely: keys
  /// present for the whole scan are returned at least once; keys mutated
  /// concurrently with a bucket rehash may be missed or duplicated.
  uint64_t Scan(uint64_t cursor, size_t count, std::vector<std::string>* keys);

  /// Drops everything (tests, reload).
  void Clear();

 private:
  struct ComplexValue {
    std::deque<std::string> list;
    std::unordered_map<std::string, std::string> hash;
    std::set<std::string> set;
    std::unordered_map<std::string, double> zscores;
    std::set<std::pair<double, std::string>> zordered;
    /// Element bytes, maintained incrementally by the mutating ops so
    /// EntryCharge never re-walks the containers.
    size_t bytes = 0;

    size_t MemoryBytes() const { return sizeof(ComplexValue) + bytes; }
  };

  /// One cache entry, allocated as a single block: this header, then
  /// key_len key bytes, then payload_len payload bytes (see the hot-path
  /// notes at the top of this file). The hash chain (next_hash) and the
  /// intrusive LRU list (lru_prev/lru_next) link nodes directly. The
  /// header holds neither the key's hash, nor its charge (EntryCharge
  /// derives it), nor its expiry deadline (Shard::expiry, when kHasExpiry
  /// is set).
  struct Entry {
    static constexpr uint8_t kCompressed = 1;  // Stored bytes are packed.
    static constexpr uint8_t kInPmem = 2;      // Payload is a PMem handle.
    static constexpr uint8_t kHasExpiry = 4;   // Deadline in Shard::expiry.

    Entry* next_hash;
    Entry* lru_prev;
    Entry* lru_next;
    uint32_t key_len;
    uint32_t payload_len;
    ValueKind kind;
    uint8_t flags;
    char data[1];  // Key bytes, then payload; the block extends past it.

    /// Block size for a node with the given key and payload lengths.
    static size_t AllocSize(size_t key_len, size_t payload_len);

    Slice key() const { return Slice(data, key_len); }
    char* payload() { return data + key_len; }
    const char* payload() const { return data + key_len; }
    /// The stored string bytes (kString without kInPmem).
    Slice value() const { return Slice(payload(), payload_len); }
    ComplexValue* complex() const;
    void GetPmem(PmemPtr* ptr, uint32_t* size) const;
  };

  /// Chained hash table over Entry nodes (LevelDB HandleTable idiom):
  /// power-of-two bucket count, probe by the caller's precomputed hash,
  /// then key length and bytes.
  struct Table {
    std::vector<Entry*> buckets;
    size_t size = 0;

    Table() : buckets(kInitialBuckets, nullptr) {}

    /// The slot pointing at the node for `key`, or the null slot ending
    /// its chain.
    Entry** FindPointer(const Slice& key, uint64_t hash) {
      Entry** ptr = &buckets[hash & (buckets.size() - 1)];
      while (*ptr != nullptr && (*ptr)->key() != key) {
        ptr = &(*ptr)->next_hash;
      }
      return ptr;
    }
    Entry* Find(const Slice& key, uint64_t hash) {
      return *FindPointer(key, hash);
    }
    /// Inserts a node whose key, hashing to `hash`, is known to be absent.
    void Insert(Entry* e, uint64_t hash);
    /// Unlinks (does not free) the node; returns it, or null if absent.
    Entry* Remove(const Slice& key, uint64_t hash);

   private:
    static constexpr size_t kInitialBuckets = 16;
    void Grow();
  };

  using ExpiryMap = std::unordered_map<const Entry*, uint64_t>;

  struct Shard {
    mutable common::Mutex mu;
    Table table GUARDED_BY(mu);
    Entry* lru_head GUARDED_BY(mu) = nullptr;  // Most recently used.
    Entry* lru_tail GUARDED_BY(mu) = nullptr;  // Eviction candidate.
    size_t charged GUARDED_BY(mu) = 0;
    uint64_t lru_touches GUARDED_BY(mu) = 0;
    // The last freed node's block. An insert that follows an eviction
    // reallocs it in place of a free + malloc pair; blocks above malloc's
    // per-thread cache size (about 1 KiB) otherwise pay the arena lock
    // twice per insert.
    void* spare GUARDED_BY(mu) = nullptr;
    // Expiry deadlines (clock micros) of the nodes flagged kHasExpiry.
    ExpiryMap expiry GUARDED_BY(mu);
  };

  size_t ShardIndex(uint64_t hash) const {
    // The topmost log2(shards) bits select the shard so they stay
    // decorrelated from the table's bucket index (low bits). Shift 64 is
    // the single-shard case (shifting by the full width would be UB).
    return shard_shift_ == 64 ? 0 : (hash >> shard_shift_);
  }
  Shard& ShardFor(uint64_t hash) { return *shards_[ShardIndex(hash)]; }

  static void LruPushFront(Shard& shard, Entry* e)
      EXCLUSIVE_LOCKS_REQUIRED(shard.mu);
  static void LruUnlink(Shard& shard, Entry* e)
      EXCLUSIVE_LOCKS_REQUIRED(shard.mu);

  /// Allocates an unlinked node holding `key`, with room for a
  /// `payload_len`-byte payload, reusing the shard's spare block if any.
  static Entry* NewEntryLocked(Shard& shard, const Slice& key, ValueKind kind,
                               size_t payload_len)
      EXCLUSIVE_LOCKS_REQUIRED(shard.mu);
  /// Frees the ComplexValue the node owns and keeps the block as the
  /// shard's spare, or frees it when there already is one (PMem is the
  /// caller's).
  static void FreeEntryLocked(Shard& shard, Entry* e)
      EXCLUSIVE_LOCKS_REQUIRED(shard.mu);

  /// All Locked helpers require the shard mutex (checked statically via
  /// the `shard.mu` capability expression on the reference parameter).
  /// The node's expiry deadline in clock micros, or 0 for none.
  static uint64_t ExpireAtLocked(const Shard& shard, const Entry& e)
      EXCLUSIVE_LOCKS_REQUIRED(shard.mu);
  /// Sets (expire_at > 0) or clears (0) the node's expiry deadline.
  static void SetExpiryLocked(Shard& shard, Entry* e, uint64_t expire_at)
      EXCLUSIVE_LOCKS_REQUIRED(shard.mu);
  bool IsExpiredLocked(const Shard& shard, const Entry& e) const
      EXCLUSIVE_LOCKS_REQUIRED(shard.mu);
  /// Gives the node a `payload_len`-byte payload (contents unspecified),
  /// keeping its key, header, hash-chain slot, LRU position and expiry.
  /// Returns the node's address, which changes when the block moves.
  /// `hash` is Hash64 of the node's key.
  static Entry* ResizeLocked(Shard& shard, Entry* e, uint64_t hash,
                             size_t payload_len)
      EXCLUSIVE_LOCKS_REQUIRED(shard.mu);
  void FreePmemLocked(Entry* e);
  /// Unlinks and frees the node; `hash` is Hash64 of its key.
  void RemoveEntryLocked(Shard& shard, Entry* e, uint64_t hash)
      EXCLUSIVE_LOCKS_REQUIRED(shard.mu);
  void TouchLocked(Shard& shard, Entry* e)
      EXCLUSIVE_LOCKS_REQUIRED(shard.mu);
  /// Moves the shard's charge for the mutated node from `old_charge`, its
  /// EntryCharge before the mutation, to its EntryCharge now, evicting to
  /// make room. On failure the node is removed.
  Status ChargeLocked(Shard& shard, Entry* e, uint64_t hash,
                      size_t old_charge) EXCLUSIVE_LOCKS_REQUIRED(shard.mu);
  /// Evicts from the LRU tail until `needed` more bytes fit. `protect`,
  /// when non-null, names an entry that must survive (the one being
  /// charged). OutOfSpace means only `protect` is left and it still does
  /// not fit.
  Status EvictLocked(Shard& shard, size_t needed,
                     const Entry* protect = nullptr)
      EXCLUSIVE_LOCKS_REQUIRED(shard.mu);
  /// DRAM bytes the node charges to the budget.
  static size_t EntryCharge(const Entry& e);

  /// Returns the live entry for `key` (any kind), or null; an expired
  /// entry is removed on the way.
  Entry* LookupLocked(Shard& shard, const Slice& key, uint64_t hash)
      EXCLUSIVE_LOCKS_REQUIRED(shard.mu);
  /// Returns the entry if present & live, creating when `create` with the
  /// given complex kind (strings are created by StoreStringLocked).
  /// WrongType → InvalidArgument. `hash` is Hash64(key).
  Status FindLocked(Shard& shard, const Slice& key, uint64_t hash,
                    ValueKind kind, bool create, Entry** out)
      EXCLUSIVE_LOCKS_REQUIRED(shard.mu);
  /// Full string-set path (create/overwrite + TTL + store), shared by
  /// SetEx and MultiSet.
  Status SetLocked(Shard& shard, const Slice& key, uint64_t hash,
                   const Slice& value, uint64_t ttl_micros)
      EXCLUSIVE_LOCKS_REQUIRED(shard.mu);
  /// Get path under the shard lock, shared by Get and MultiGet.
  Status GetLocked(Shard& shard, const Slice& key, uint64_t hash,
                   std::string* value) EXCLUSIVE_LOCKS_REQUIRED(shard.mu);

  /// Materializes a string entry's value (decompress / PMem fetch).
  Status LoadStringLocked(const Entry& e, std::string* out) const;
  /// Stores a string value (compress / PMem placement) into `*e`, a live
  /// string entry for `key`, or into a new entry when `*e` is null. On
  /// success `*e` is the node now holding the value, which moves when the
  /// payload size changes; on failure the entry is gone.
  Status StoreStringLocked(Shard& shard, const Slice& key, uint64_t hash,
                           Entry** e, const Slice& value)
      EXCLUSIVE_LOCKS_REQUIRED(shard.mu);

  /// Computes hashes and a per-shard grouping of [0, n) so Multi ops can
  /// visit each shard once. Returns, via `order`, the indices sorted by
  /// shard; `shard_begin[s]..shard_begin[s+1]` delimits shard s's range.
  void GroupByShard(const Slice* keys, size_t n,
                    std::vector<uint64_t>* hashes,
                    std::vector<uint32_t>* order,
                    std::vector<uint32_t>* shard_begin) const;

  HashEngineOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  int shard_shift_ = 64;  // 64 - log2(shard count).
  size_t per_shard_budget_ = 0;

  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> expirations_{0};
  std::atomic<uint64_t> pmem_bytes_{0};
  std::atomic<uint64_t> multi_shard_locks_{0};
  std::atomic<uint64_t> multi_batches_{0};
};

}  // namespace cache
}  // namespace tierbase

#endif  // TIERBASE_CACHE_HASH_ENGINE_H_
