// Write-back machinery (paper §4.1.2): dirty tracking, deferred batched
// flushes with per-key update merging, interval-bounded staleness, and a
// backpressure mechanism when dirty data approaches its cap.
//
// The dirty set is one FIFO in dirty order: an update appends its key, or
// moves an already-dirty key to the back, and every flush batch is the
// oldest max_batch entries at the front. So an entry waits only behind the
// dirty entries ahead of it. (A re-dirty restarts the key's wait: a key
// rewritten faster than the queue drains merges in memory until writes to
// it pause.)
//
// Each entry holds its own copy of the value, so the cache may evict a
// dirty key at any time: reads consult GetDirty before storage, and the
// value is never lost before its flush.
//
// A flush batch views its entries' keys and values instead of copying
// them, so an entry is immutable while its flush is in flight: an update
// to that key appends a fresh entry and repoints the index at it, and the
// flush then retires the old entry.

#ifndef TIERBASE_CORE_WRITE_BACK_H_
#define TIERBASE_CORE_WRITE_BACK_H_

#include <list>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/options.h"
#include "core/storage_adapter.h"

namespace tierbase {

class WriteBackManager {
 public:
  WriteBackManager(StorageAdapter* storage, WriteBackOptions options,
                   Clock* clock = Clock::Real());
  ~WriteBackManager();

  /// Records dirty updates keys[i] = values[i], or tombstones for every
  /// key when `is_delete` (latest value wins — updates to the same key
  /// merge into one storage op, "Optimizing Update" in §4.1.2). The
  /// dirty-set mutex is taken once for the batch and released only while
  /// backpressure blocks at max_dirty. Flush errors are sticky, so on one
  /// the batch aborts at once: the remaining ops would fail identically.
  Status MarkDirty(const std::vector<Slice>& keys,
                   const std::vector<Slice>& values, bool is_delete);

  /// Reads the dirty (not yet flushed) state of every key under one
  /// dirty-set lock, so reads see pending writes without touching storage.
  /// found[i]/values[i]/deletes[i] are filled per key.
  void GetDirty(const std::vector<Slice>& keys, std::vector<bool>* found,
                std::vector<std::string>* values,
                std::vector<bool>* deletes) const;

  /// Flushes everything and blocks until clean (shutdown, WaitIdle).
  Status FlushAll();

  size_t dirty_count() const;

  struct Stats {
    uint64_t updates = 0;
    uint64_t merged_updates = 0;   // Updates absorbed by a pending entry.
    uint64_t flush_batches = 0;
    uint64_t flushed_ops = 0;
    uint64_t backpressure_waits = 0;
    uint64_t flush_failures = 0;   // Storage batches that errored.
    uint64_t flush_retries = 0;    // Successful flushes that cleared an
                                   // error (storage healed).
  };
  Stats GetStats() const;

  /// The last flush error, or OK. No longer latched forever: retried with
  /// backoff by the flusher and cleared by the next successful flush.
  Status flush_error() const;

 private:
  struct DirtyEntry {
    std::string key;
    std::string value;
    bool is_delete = false;
    bool in_flight = false;   // In the batch on the wire: read-only.
    bool superseded = false;  // An update raced the flight: a newer entry
                              // holds the key's value and its index_ slot.
  };
  using DirtyList = std::list<DirtyEntry>;

  void FlusherLoop();
  /// Writes the max_batch oldest dirty entries as one batch. Returns
  /// number flushed.
  Result<size_t> FlushBatch();

  StorageAdapter* storage_;
  WriteBackOptions options_;
  Clock* clock_;

  mutable common::Mutex mu_;
  common::CondVar flush_cv_{&mu_};  // Wakes the flusher.
  common::CondVar space_cv_{&mu_};  // Wakes backpressured writers.
  common::CondVar clean_cv_{&mu_};  // Signals "all clean".
  // Oldest update first. Holds one entry per dirty key, plus the
  // superseded entries of a flush in flight.
  DirtyList dirty_ GUARDED_BY(mu_);
  // Each dirty key's newest entry, keyed by a view of that entry's own
  // key, so lookups take a Slice without building a std::string.
  std::unordered_map<std::string_view, DirtyList::iterator> index_
      GUARDED_BY(mu_);
  bool shutting_down_ GUARDED_BY(mu_) = false;
  int flush_waiters_ GUARDED_BY(mu_) = 0;  // FlushAll calls in progress;
                                           // while > 0 the flusher flushes
                                           // regardless of
                                           // threshold/interval.

  std::thread flusher_;
  Stats stats_ GUARDED_BY(mu_);
  Status flush_error_ GUARDED_BY(mu_);  // Cleared on flush success.
  size_t consecutive_flush_failures_ GUARDED_BY(mu_) = 0;  // Bounds
                                                           // FlushAll and
                                                           // shutdown waits.
};

}  // namespace tierbase

#endif  // TIERBASE_CORE_WRITE_BACK_H_
