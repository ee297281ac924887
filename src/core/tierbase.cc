#include "core/tierbase.h"

#include <algorithm>
#include <limits>
#include <map>

#include "common/env.h"
#include "common/perf_context.h"

namespace tierbase {

const char* CachingPolicyName(CachingPolicy policy) {
  switch (policy) {
    case CachingPolicy::kCacheOnly: return "cache-only";
    case CachingPolicy::kWalFile: return "wal";
    case CachingPolicy::kWalPmem: return "wal-pmem";
    case CachingPolicy::kWriteThrough: return "write-through";
    case CachingPolicy::kWriteBack: return "write-back";
  }
  return "?";
}

TierBase::TierBase(const TierBaseOptions& options, StorageAdapter* storage)
    : options_(options), storage_(storage) {}

TierBase::~TierBase() {
  // Flush write-back state before tearing anything down.
  if (write_back_ != nullptr) write_back_->FlushAll();
}

std::string TierBase::name() const {
  return std::string("tierbase-") + CachingPolicyName(options_.policy);
}

Result<std::unique_ptr<TierBase>> TierBase::Open(
    const TierBaseOptions& options, StorageAdapter* storage) {
  if ((options.policy == CachingPolicy::kWriteThrough ||
       options.policy == CachingPolicy::kWriteBack) &&
      storage == nullptr) {
    return Status::InvalidArgument("tierbase: tiered policy needs storage");
  }
  if (options.policy == CachingPolicy::kWalPmem &&
      options.wal_pmem_device == nullptr) {
    return Status::InvalidArgument("tierbase: WAL-PMem needs a pmem device");
  }
  if ((options.policy == CachingPolicy::kWalFile ||
       options.policy == CachingPolicy::kWalPmem) &&
      options.wal_dir.empty()) {
    return Status::InvalidArgument("tierbase: WAL policy needs wal_dir");
  }
  std::unique_ptr<TierBase> tb(new TierBase(options, storage));
  Status s = tb->Init();
  if (!s.ok()) return s;
  return tb;
}

Status TierBase::Init() {
  if (options_.analytics.enabled) {
    analytics::WorkloadAnalyticsOptions aopts = options_.analytics;
    if (aopts.shards == 0) aopts.shards = options_.cache.shards;
    analytics_ = std::make_unique<analytics::WorkloadAnalytics>(aopts);
    options_.cache.analytics = analytics_.get();
  }
  cache_ = std::make_unique<cache::HashEngine>(options_.cache);

  switch (options_.policy) {
    case CachingPolicy::kCacheOnly:
      break;

    case CachingPolicy::kWalFile:
    case CachingPolicy::kWalPmem: {
      TIERBASE_RETURN_IF_ERROR(env::CreateDirIfMissing(options_.wal_dir));
      if (options_.policy == CachingPolicy::kWalPmem) {
        auto ring = PmemRingBuffer::Open(options_.wal_pmem_device);
        if (!ring.ok()) return ring.status();
        wal_ring_ = std::move(*ring);
      }
      TIERBASE_RETURN_IF_ERROR(RecoverFromWal());
      break;
    }

    case CachingPolicy::kWriteThrough: {
      write_through_ = std::make_unique<PerKeyCoalescer>(storage_);
      break;
    }

    case CachingPolicy::kWriteBack: {
      // The cache may evict a dirty entry: the dirty buffer keeps its own
      // copy until the flush (§4.1.2 reliability), and ReadMisses reads it.
      write_back_ = std::make_unique<WriteBackManager>(
          storage_, options_.write_back);
      break;
    }
  }
  if (tiered()) fetcher_ = std::make_unique<DeferredFetcher>(storage_);
  return Status::OK();
}

Status TierBase::RecoverFromWal() {
  const std::string wal_path = options_.wal_dir + "/tierbase.wal";
  const std::string compact_path = wal_path + ".compact";
  // A leftover .compact is a crash mid-compaction (before the rename):
  // unreferenced and possibly incomplete — discard it.
  TIERBASE_RETURN_IF_ERROR(env::RemoveFile(compact_path));

  // Fold the surviving history straight into its live state (last writer
  // wins; deletes cancel earlier sets): backing file first (older), then
  // the PMem ring (newest).
  std::map<std::string, std::string> live;
  auto fold = [&live](const Slice& rec) -> Status {
    bool is_delete;
    Slice key, value;
    if (!lsm::DecodeWalMutation(rec, &is_delete, &key, &value)) {
      // The CRC passed but the payload doesn't parse: writer-side damage,
      // not a torn write. Refuse to guess.
      return Status::Corruption("tierbase wal: undecodable record payload");
    }
    if (is_delete) {
      live.erase(key.ToString());
    } else {
      live[key.ToString()] = value.ToString();
    }
    return Status::OK();
  };

  // A torn tail here is recoverable: the torn suffix never made it to a
  // sync, and the compaction rewrite below drops it for good.
  if (env::FileExists(wal_path)) {
    TIERBASE_RETURN_IF_ERROR(lsm::ReplayWal(wal_path, /*torn_tail_ok=*/true,
                                            fold, &wal_recovery_));
  }
  size_t ring_resident = 0;
  if (wal_ring_ != nullptr) {
    // Non-destructive: the ring's durable head only advances once the
    // compacted log below is durable. A destructive drain here would
    // leave these acknowledged records in memory only, and a crash (or a
    // failed compaction write) mid-recovery would lose them for good.
    std::vector<std::string> ring_records;
    TIERBASE_RETURN_IF_ERROR(
        wal_ring_->Peek(std::numeric_limits<size_t>::max(), &ring_records));
    ring_resident = ring_records.size();
    for (const auto& rec : ring_records) {
      TIERBASE_RETURN_IF_ERROR(fold(rec));
      ++wal_recovery_.records_replayed;
    }
  }

  // Compact the log: write the live records to a temp file, sync it, then
  // atomically replace the old log. A crash before the rename keeps the
  // old log (and the ring contents), after it the compacted one — synced
  // data survives either way. (The previous startup-rewrite scheme
  // truncated the log in place and re-appended un-synced, so a crash
  // right after a reboot lost every previously acknowledged record.)
  lsm::WalOptions wal_options;
  wal_options.sync_interval_micros = options_.wal_sync_interval_micros;
  {
    auto compact = lsm::WalWriter::Open(compact_path, wal_options);
    if (!compact.ok()) return compact.status();
    // Framed in place a few hundred records per append, so the framing
    // buffer never holds the whole log.
    std::vector<lsm::WalMutation> chunk;
    for (const auto& [key, value] : live) {
      chunk.push_back({key, value, /*is_delete=*/false});
      if (chunk.size() == 256) {
        TIERBASE_RETURN_IF_ERROR((*compact)->AddMutations(chunk));
        chunk.clear();
      }
    }
    TIERBASE_RETURN_IF_ERROR((*compact)->AddMutations(chunk));
    TIERBASE_RETURN_IF_ERROR((*compact)->Sync());
  }
  TIERBASE_RETURN_IF_ERROR(env::RenameFile(compact_path, wal_path));
  // The ring records are now durable in the compacted log; retire them.
  if (wal_ring_ != nullptr && ring_resident > 0) {
    TIERBASE_RETURN_IF_ERROR(wal_ring_->Discard(ring_resident));
  }

  // Populate the cache from the folded live state.
  for (const auto& [key, value] : live) {
    TIERBASE_RETURN_IF_ERROR(cache_->Set(key, value));
  }

  // Continue appending to the compacted log (never O_TRUNC).
  auto wal = lsm::WalWriter::Open(wal_path, wal_options, /*append=*/true);
  if (!wal.ok()) return wal.status();
  wal_ = std::move(*wal);
  return Status::OK();
}

Status TierBase::Set(const Slice& key, const Slice& value) {
  return SetEx(key, value, 0);
}

Status TierBase::SetEx(const Slice& key, const Slice& value,
                       uint64_t ttl_micros) {
  Status status;
  Write(&key, &value, 1, ttl_micros, /*is_delete=*/false, &status);
  return status;
}

void TierBase::MultiSet(const std::vector<Slice>& keys,
                        const std::vector<Slice>& values,
                        std::vector<Status>* statuses) {
  statuses->assign(keys.size(), Status::OK());
  Write(keys.data(), values.data(), keys.size(), 0, /*is_delete=*/false,
        statuses->data());
}

Status TierBase::Delete(const Slice& key) {
  const Slice no_value;
  Status status;
  Write(&key, &no_value, 1, 0, /*is_delete=*/true, &status);
  return status;
}

void TierBase::Write(const Slice* keys, const Slice* values, size_t n,
                     uint64_t ttl_micros, bool is_delete, Status* statuses) {
  if (!is_delete) stats_sets_.fetch_add(n, std::memory_order_relaxed);
  if (n == 0) return;

  // §4.1.2: write-back updates the cache at once and defers the storage
  // write. Every other write reaches the cache only once Persist accepted
  // it (§4.1.1 holds a write-through update until storage acknowledges).
  const bool install_first =
      options_.policy == CachingPolicy::kWriteBack && !is_delete;
  if (!install_first) Persist(keys, values, n, is_delete, statuses);

  if (is_delete) {
    for (size_t i = 0; i < n; ++i) {
      if (!statuses[i].ok()) continue;
      Status s = cache_->Delete(keys[i]);
      if (!tiered()) statuses[i] = s;  // NotFound for a missing key.
    }
    return;
  }

  // Install the batch as it came, its statuses in place, or a copy of the
  // ops Persist accepted.
  std::vector<uint32_t> failed;  // Ops the cache could not take.
  if (std::all_of(statuses, statuses + n,
                  [](const Status& s) { return s.ok(); })) {
    cache_->MultiSet(keys, values, n, ttl_micros, statuses);
    for (size_t i = 0; i < n; ++i) {
      if (!statuses[i].ok()) failed.push_back(static_cast<uint32_t>(i));
    }
  } else {
    std::vector<Slice> ok_keys, ok_values;
    std::vector<uint32_t> ok_index;
    for (size_t i = 0; i < n; ++i) {
      if (!statuses[i].ok()) continue;
      ok_keys.push_back(keys[i]);
      ok_values.push_back(values[i]);
      ok_index.push_back(static_cast<uint32_t>(i));
    }
    std::vector<Status> installed(ok_keys.size());
    cache_->MultiSet(ok_keys.data(), ok_values.data(), ok_keys.size(),
                     ttl_micros, installed.data());
    for (size_t m = 0; m < installed.size(); ++m) {
      if (installed[m].ok()) continue;
      statuses[ok_index[m]] = installed[m];
      failed.push_back(ok_index[m]);
    }
  }

  // A value the cache cannot take (one larger than a shard's budget, or
  // any once kNoEviction's budget is spent) keeps no cached copy. Under a
  // tiered policy the dirty buffer or storage serves it, so the op answers
  // storage's status. Otherwise the op fails, and a tombstone takes it out
  // of the log, so a restart brings back neither it nor its old value.
  std::vector<Slice> tombstones;
  for (uint32_t i : failed) {
    cache_->Delete(keys[i]);
    if (tiered()) {
      statuses[i] = Status::OK();
    } else {
      tombstones.push_back(keys[i]);
    }
  }
  if (!tombstones.empty()) {
    const std::vector<Slice> no_values(tombstones.size());
    std::vector<Status> logged(tombstones.size());
    Persist(tombstones.data(), no_values.data(), tombstones.size(),
            /*is_delete=*/true, logged.data());
  }

  if (install_first) Persist(keys, values, n, is_delete, statuses);
}

void TierBase::Persist(const Slice* keys, const Slice* values, size_t n,
                       bool is_delete, Status* statuses) {
  switch (options_.policy) {
    case CachingPolicy::kCacheOnly:
      return;

    case CachingPolicy::kWalFile: {
      metrics::ScopedPerfStage wal_stage(metrics::PerfContext::kWalAppend);
      std::vector<lsm::WalMutation> ops;
      ops.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        ops.push_back({keys[i], values[i], is_delete});
      }
      std::fill_n(statuses, n, wal_->AddMutations(ops));
      return;
    }

    case CachingPolicy::kWalPmem: {
      // Durable on the ring per record; batch-moved to the file when the
      // ring fills (§4.3 "batch-moved to cloud storage"). Peek + sync +
      // discard: the ring's durable head must not advance before the file
      // copy is synced, or a crash in between loses acknowledged records.
      metrics::ScopedPerfStage wal_stage(metrics::PerfContext::kWalAppend);
      for (size_t i = 0; i < n; ++i) {
        const std::string rec =
            lsm::EncodeWalMutation(is_delete, keys[i], values[i]);
        Status s = wal_ring_->Append(rec);
        if (s.IsBusy()) {
          std::vector<std::string> moved;
          s = wal_ring_->Peek(1024, &moved);
          for (size_t r = 0; s.ok() && r < moved.size(); ++r) {
            s = wal_->AddRecord(moved[r]);
          }
          if (s.ok()) s = wal_->Sync();
          if (s.ok()) s = wal_ring_->Discard(moved.size());
          if (s.ok()) s = wal_ring_->Append(rec);
        }
        statuses[i] = s;
      }
      return;
    }

    case CachingPolicy::kWriteThrough: {
      metrics::ScopedPerfStage st(metrics::PerfContext::kStorageWrite);
      std::vector<Status> stored;
      write_through_->WriteBatch(std::vector<Slice>(keys, keys + n),
                                 std::vector<Slice>(values, values + n),
                                 is_delete, &stored);
      std::move(stored.begin(), stored.end(), statuses);
      break;
    }

    case CachingPolicy::kWriteBack:
      std::fill_n(statuses, n,
                  write_back_->MarkDirty(std::vector<Slice>(keys, keys + n),
                                         std::vector<Slice>(values, values + n),
                                         is_delete));
      break;
  }
  // Tiered: what storage holds for a rejected op is unknown, so its cache
  // copy goes and reads fetch the authoritative value.
  for (size_t i = 0; i < n; ++i) {
    if (!statuses[i].ok()) cache_->Delete(keys[i]);
  }
}

Status TierBase::Get(const Slice& key, std::string* value) {
  stats_gets_.fetch_add(1, std::memory_order_relaxed);

  Status s;
  {
    metrics::ScopedPerfStage probe(metrics::PerfContext::kCacheProbe);
    s = cache_->Get(key, value);
  }
  if (s.ok()) {
    stats_hits_.fetch_add(1, std::memory_order_relaxed);
    return s;
  }
  if (!s.IsNotFound()) return s;

  if (!tiered()) {
    stats_misses_.fetch_add(1, std::memory_order_relaxed);
    return Status::NotFound("");
  }

  std::vector<std::string> values;
  std::vector<Status> statuses;
  const uint64_t dirty_hits =
      ReadMisses({key}, /*populate=*/true, &values, &statuses);
  stats_hits_.fetch_add(dirty_hits, std::memory_order_relaxed);
  stats_misses_.fetch_add(1 - dirty_hits, std::memory_order_relaxed);
  if (statuses[0].ok()) *value = std::move(values[0]);
  return statuses[0];
}

uint64_t TierBase::ReadMisses(const std::vector<Slice>& keys, bool populate,
                              std::vector<std::string>* values,
                              std::vector<Status>* statuses) {
  const size_t n = keys.size();
  statuses->assign(n, Status::NotFound(""));
  // Write-back: the dirty buffer is part of the cache tier — consult it
  // before going to storage. A dirty delete keeps NotFound: the key is gone
  // even if storage still has it; a dirty value may never have had a cache
  // copy.
  uint64_t dirty_hits = 0;
  std::vector<uint32_t> fetch;  // Keys only the storage tier can serve.
  if (write_back_ != nullptr) {
    std::vector<bool> found, deletes;
    write_back_->GetDirty(keys, &found, values, &deletes);
    for (size_t i = 0; i < n; ++i) {
      if (!found[i]) {
        fetch.push_back(static_cast<uint32_t>(i));
      } else {
        ++dirty_hits;
        if (!deletes[i]) (*statuses)[i] = Status::OK();
      }
    }
  } else {
    values->assign(n, std::string());
    for (size_t i = 0; i < n; ++i) fetch.push_back(static_cast<uint32_t>(i));
  }
  if (fetch.empty()) return dirty_hits;

  std::vector<Slice> fetch_keys;
  fetch_keys.reserve(fetch.size());
  for (uint32_t i : fetch) fetch_keys.push_back(keys[i]);
  std::vector<std::string> fetched;
  std::vector<Status> fetch_statuses;
  {
    metrics::ScopedPerfStage read_stage(metrics::PerfContext::kStorageRead);
    fetcher_->FetchMany(fetch_keys, &fetched, &fetch_statuses);
  }

  std::vector<Slice> populate_keys;
  std::vector<Slice> populate_values;
  for (size_t f = 0; f < fetch.size(); ++f) {
    const uint32_t i = fetch[f];
    (*statuses)[i] = fetch_statuses[f];
    if (!fetch_statuses[f].ok()) continue;
    (*values)[i] = std::move(fetched[f]);
    if (populate) {
      populate_keys.push_back(keys[i]);
      populate_values.push_back(Slice((*values)[i]));
    }
  }
  if (!populate_keys.empty()) {
    // Populate without dirtying: these values are already durable in
    // storage. OutOfSpace is fine — serving from storage still works.
    std::vector<Status> populated;
    cache_->MultiSet(populate_keys, populate_values, &populated);
    for (const Status& ps : populated) {
      if (ps.ok()) stats_populates_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return dirty_hits;
}

void TierBase::MultiGet(const std::vector<Slice>& keys,
                        std::vector<std::string>* values,
                        std::vector<Status>* statuses) {
  const size_t n = keys.size();
  stats_gets_.fetch_add(n, std::memory_order_relaxed);

  {
    metrics::ScopedPerfStage probe(metrics::PerfContext::kCacheProbe);
    cache_->MultiGet(keys, values, statuses);
  }

  uint64_t hits = 0;
  std::vector<uint32_t> misses;
  for (size_t i = 0; i < n; ++i) {
    if ((*statuses)[i].ok()) {
      ++hits;
    } else if ((*statuses)[i].IsNotFound()) {
      misses.push_back(static_cast<uint32_t>(i));
    }
    // Other errors (e.g. wrong type) pass through untouched.
  }
  stats_hits_.fetch_add(hits, std::memory_order_relaxed);

  if (!tiered() || misses.empty()) {
    stats_misses_.fetch_add(misses.size(), std::memory_order_relaxed);
    return;
  }

  std::vector<Slice> miss_keys;
  miss_keys.reserve(misses.size());
  for (uint32_t i : misses) miss_keys.push_back(keys[i]);
  std::vector<std::string> miss_values;
  std::vector<Status> miss_statuses;
  const uint64_t dirty_hits = ReadMisses(miss_keys, /*populate=*/true,
                                         &miss_values, &miss_statuses);
  stats_hits_.fetch_add(dirty_hits, std::memory_order_relaxed);
  stats_misses_.fetch_add(misses.size() - dirty_hits,
                          std::memory_order_relaxed);
  for (size_t m = 0; m < misses.size(); ++m) {
    const uint32_t i = misses[m];
    (*statuses)[i] = miss_statuses[m];
    if (miss_statuses[m].ok()) (*values)[i] = std::move(miss_values[m]);
  }
}

bool TierBase::Exists(const Slice& key) {
  if (cache_->Exists(key)) return true;
  if (!tiered()) return false;
  std::vector<std::string> values;
  std::vector<Status> statuses;
  ReadMisses({key}, /*populate=*/false, &values, &statuses);
  return statuses[0].ok();
}

Status TierBase::Cas(const Slice& key, const Slice& expected,
                     const Slice& value, bool allow_create) {
  // Tiered modes: fetch the authoritative value into the cache first
  // (deferred cache-fetching path for update ops on missing keys, §4.1.2),
  // since cache_->Cas compares against the cached copy.
  if (tiered() && !cache_->Exists(key)) {
    std::vector<std::string> values;
    std::vector<Status> statuses;
    ReadMisses({key}, /*populate=*/false, &values, &statuses);
    if (statuses[0].ok()) {
      cache_->Set(key, values[0]);
    } else if (!statuses[0].IsNotFound()) {
      return statuses[0];
    }
  }

  const bool creates =
      allow_create && expected.empty() && !cache_->Exists(key);
  TIERBASE_RETURN_IF_ERROR(cache_->Cas(key, expected, value, allow_create));

  Status persisted;
  Persist(&key, &value, 1, /*is_delete=*/false, &persisted);
  if (!persisted.ok() && !tiered()) {
    // The log holds the value from before this CAS (Persist dropped a
    // tiered policy's cache copy already): put it back.
    if (creates) {
      cache_->Delete(key);
    } else {
      cache_->Cas(key, value, expected);
    }
  }
  return persisted;
}

UsageStats TierBase::GetUsage() const {
  UsageStats usage = cache_->GetUsage();
  if (wal_ != nullptr) usage.disk_bytes += wal_->size();
  if (wal_ring_ != nullptr) {
    usage.pmem_bytes +=
        wal_ring_->data_capacity() - wal_ring_->free_bytes();
  }
  return usage;
}

Status TierBase::WaitIdle() {
  if (write_back_ != nullptr) {
    TIERBASE_RETURN_IF_ERROR(write_back_->FlushAll());
  }
  if (wal_ != nullptr) TIERBASE_RETURN_IF_ERROR(wal_->Sync());
  if (storage_ != nullptr) TIERBASE_RETURN_IF_ERROR(storage_->WaitIdle());
  return Status::OK();
}

TierBase::Stats TierBase::GetStats() const {
  Stats s;
  s.gets = stats_gets_.load(std::memory_order_relaxed);
  s.cache_hits = stats_hits_.load(std::memory_order_relaxed);
  s.cache_misses = stats_misses_.load(std::memory_order_relaxed);
  s.sets = stats_sets_.load(std::memory_order_relaxed);
  s.storage_populates = stats_populates_.load(std::memory_order_relaxed);
  s.evictions = cache_->evictions();
  s.expirations = cache_->expirations();
  s.lru_touches = cache_->lru_touches();
  s.multi_shard_locks = cache_->multi_shard_locks();
  s.multi_batches = cache_->multi_batches();
  UsageStats cache_usage = cache_->GetUsage();
  s.bytes_cached = cache_usage.memory_bytes;
  s.pmem_bytes = cache_usage.pmem_bytes;
  s.keys_cached = cache_usage.keys;
  s.wal = wal_recovery_;
  if (storage_ != nullptr) s.storage_wal = storage_->GetWalRecoveryStats();
  if (write_through_ != nullptr) s.write_through = write_through_->GetStats();
  if (write_back_ != nullptr) {
    s.write_back = write_back_->GetStats();
    s.write_back_dirty = write_back_->dirty_count();
    Status fe = write_back_->flush_error();
    if (!fe.ok()) s.flush_error = fe.ToString();
  }
  if (fetcher_ != nullptr) s.deferred_fetch = fetcher_->GetStats();
  return s;
}

}  // namespace tierbase
