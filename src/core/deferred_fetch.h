// Deferred cache-fetching (paper §4.1.2): when concurrent operations miss
// the cache, their storage reads are accumulated for a short window and
// submitted as one batched MultiRead, "reducing read requests and
// minimizing costs in both tiers".

#ifndef TIERBASE_CORE_DEFERRED_FETCH_H_
#define TIERBASE_CORE_DEFERRED_FETCH_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/options.h"
#include "core/storage_adapter.h"

namespace tierbase {

class DeferredFetcher {
 public:
  DeferredFetcher(StorageAdapter* storage, DeferredFetchOptions options,
                  Clock* clock = Clock::Real());

  /// Fetches `keys` from storage in shared MultiReads, deduplicating
  /// against concurrently in-flight fetches of the same keys. `lone` marks
  /// the miss of a single-key operation: if it finds no batch forming, it
  /// opens one and waits batch_window_micros for concurrent misses to join.
  /// The misses of a multi-key operation already are a batch and go out at
  /// once, however few of its keys missed. Per-key outcomes land in
  /// statuses[i] (NotFound for keys absent from the storage tier).
  void FetchMany(const std::vector<Slice>& keys, bool lone,
                 std::vector<std::string>* values,
                 std::vector<Status>* statuses);

  struct Stats {
    uint64_t fetches = 0;
    uint64_t batch_calls = 0;  // fetches/batch_calls = batching factor.
    uint64_t shared = 0;       // Fetches that piggybacked on another's call.
  };
  Stats GetStats() const;

 private:
  struct PendingKey {
    bool done = false;
    bool found = false;
    std::string value;
    Status error;
  };

  /// Leader: issues MultiReads until no pending keys remain, then clears
  /// batch_leader_active_ and wakes the waiters.
  void LeaderDrain();

  StorageAdapter* storage_;
  DeferredFetchOptions options_;
  Clock* clock_;

  mutable common::Mutex mu_;
  common::CondVar cv_{&mu_};
  /// Keys with a storage read in flight (or forming). The PendingKey
  /// payload is written by the batch leader under mu_ and read by waiters
  /// only after observing done == true under mu_.
  std::unordered_map<std::string, std::shared_ptr<PendingKey>> pending_
      GUARDED_BY(mu_);
  bool batch_leader_active_ GUARDED_BY(mu_) = false;
  Stats stats_ GUARDED_BY(mu_);
};

}  // namespace tierbase

#endif  // TIERBASE_CORE_DEFERRED_FETCH_H_
