// Deferred cache-fetching (paper §4.1.2): when concurrent operations miss
// the cache, their storage reads are gathered and submitted as one batched
// MultiRead, "reducing read requests and minimizing costs in both tiers".
//
// The gathering window is the read already on the wire, as in a group
// commit (LevelDB's DBImpl::Write writer queue; PerKeyCoalescer's leader
// delegation): a miss that finds no MultiRead in flight issues one at once,
// misses that arrive meanwhile queue up, and when the read returns one of
// their callers leads the next MultiRead with everything queued. No caller
// ever waits on a timer.

#ifndef TIERBASE_CORE_DEFERRED_FETCH_H_
#define TIERBASE_CORE_DEFERRED_FETCH_H_

#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/storage_adapter.h"

namespace tierbase {

class DeferredFetcher {
 public:
  /// Most keys one MultiRead carries.
  static constexpr size_t kMaxBatch = 64;

  /// `storage` is not owned.
  explicit DeferredFetcher(StorageAdapter* storage) : storage_(storage) {}

  /// Fetches `keys` from storage in MultiReads shared with concurrent
  /// callers, deduplicating against keys already queued or in flight.
  /// Returns as soon as its own keys are served, though on the way it may
  /// lead reads that carry other callers' keys. Per-key outcomes land in
  /// statuses[i] (NotFound for keys absent from the storage tier).
  void FetchMany(const std::vector<Slice>& keys,
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
    explicit PendingKey(std::string k) : key(std::move(k)) {}

    const std::string key;
    bool done = false;
    bool found = false;
    std::string value;
    Status error;
  };

  /// Leads one MultiRead of the oldest kMaxBatch queued keys, marks them
  /// done and wakes every waiter. Requires mu_ held and no read in flight;
  /// releases mu_ around the storage call.
  void ReadQueuedLocked() EXCLUSIVE_LOCKS_REQUIRED(mu_);

  StorageAdapter* storage_;

  mutable common::Mutex mu_;
  common::CondVar cv_{&mu_};
  /// Keys queued or in flight, keyed by a view of PendingKey::key. The
  /// PendingKey payload is written by the read's leader under mu_ and read
  /// by waiters only after observing done == true under mu_.
  std::unordered_map<std::string_view, std::shared_ptr<PendingKey>> pending_
      GUARDED_BY(mu_);
  /// Keys waiting for the next MultiRead, oldest first.
  std::deque<std::shared_ptr<PendingKey>> queue_ GUARDED_BY(mu_);
  bool read_in_flight_ GUARDED_BY(mu_) = false;
  Stats stats_ GUARDED_BY(mu_);
};

}  // namespace tierbase

#endif  // TIERBASE_CORE_DEFERRED_FETCH_H_
