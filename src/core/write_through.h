// Write-through machinery (paper §4.1.1): per-key write queues keep
// sequential order, and write coalescing merges concurrent writes to the
// same key into one storage update ("similar to group commit"), lowering
// the miss penalty PC_miss.
//
// PerKeyCoalescer: callers submit (key, value, generation). The first
// caller for a key becomes the leader: it repeatedly pushes the *latest*
// pending value to storage until no newer value is pending. Every caller
// returns once a storage write covering a generation >= its own has
// succeeded, preserving write-through semantics while collapsing redundant
// storage updates.

#ifndef TIERBASE_CORE_WRITE_THROUGH_H_
#define TIERBASE_CORE_WRITE_THROUGH_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/slice.h"
#include "common/thread_annotations.h"
#include "common/status.h"
#include "core/storage_adapter.h"

namespace tierbase {

class PerKeyCoalescer {
 public:
  /// `storage` is not owned. With `coalesce` off every update is its own
  /// storage write, in per-key FIFO order (the ablation's reference arm).
  explicit PerKeyCoalescer(StorageAdapter* storage, bool coalesce = true)
      : storage_(storage), coalesce_(coalesce) {}

  /// Write-through keys[i] = values[i], or tombstones for every key when
  /// `is_delete`. Duplicate keys coalesce to the last value, the surviving
  /// updates go to storage as ONE WriteBatch, and updates to keys with an
  /// in-flight leader are delegated to that leader (keeping per-key
  /// ordering). statuses[i] is OK once a storage write covering op i (or a
  /// newer update of its key) has succeeded, else the storage error.
  void WriteBatch(const std::vector<Slice>& keys,
                  const std::vector<Slice>& values, bool is_delete,
                  std::vector<Status>* statuses);

  struct Stats {
    uint64_t submitted = 0;
    uint64_t storage_writes = 0;  // submitted - storage_writes = coalesced.
    uint64_t batch_calls = 0;     // Storage WriteBatch calls made.
  };
  Stats GetStats() const;

 private:
  /// Per-key coalescing state. Every field is guarded by the coalescer's
  /// mu_ (the cv is bound to it); KeyState lives in keys_, which the same
  /// mutex guards, so the analysis checks access through the map.
  struct KeyState {
    KeyState(common::Mutex* mu, const Slice& k) : key(k.ToString()), cv(mu) {}

    const std::string key;  // keys_ is keyed by a view of it.
    uint64_t next_gen = 1;
    uint64_t flushed_gen = 0;    // Highest generation durably in storage.
    uint64_t processed_gen = 0;  // Highest generation whose write finished.
    bool in_flight = false;
    bool pending = false;       // A newer value awaits flush.
    // The pending update, delegated to the in-flight leader. The only copy
    // of a value the coalescer makes: every other write views the caller's
    // bytes, which outlive the call.
    std::string latest_value;
    bool latest_is_delete = false;
    uint64_t latest_gen = 0;
    Status last_error;
    int waiters = 0;
    common::CondVar cv;
  };

  /// The key's state, created on first use.
  KeyState* FindOrAddLocked(const Slice& key) EXCLUSIVE_LOCKS_REQUIRED(mu_);
  /// One storage WriteBatch of `ops`. Requires mu_ held; releases it around
  /// the storage call and counts the call and its ops.
  Status StoreLocked(const std::vector<StorageAdapter::BatchOp>& ops)
      EXCLUSIVE_LOCKS_REQUIRED(mu_);
  /// The uncoalesced path: waits for the key's earlier updates, then writes
  /// this one on its own. Requires mu_ held.
  Status WriteUncoalescedLocked(const Slice& key, const Slice& value,
                                bool is_delete) EXCLUSIVE_LOCKS_REQUIRED(mu_);

  /// Leader drain loop: flushes the key's latest pending value until no
  /// newer one arrives. Requires mu_ held; releases it around storage
  /// calls (re-held on return). The caller owns ks->in_flight.
  void DrainLocked(KeyState* ks) EXCLUSIVE_LOCKS_REQUIRED(mu_);

  StorageAdapter* storage_;
  bool coalesce_;

  mutable common::Mutex mu_;
  // Keyed by views of KeyState::key, so a lookup takes a Slice without
  // building a std::string.
  std::unordered_map<std::string_view, std::unique_ptr<KeyState>> keys_
      GUARDED_BY(mu_);
  uint64_t submitted_ GUARDED_BY(mu_) = 0;
  uint64_t storage_writes_ GUARDED_BY(mu_) = 0;
  uint64_t batch_calls_ GUARDED_BY(mu_) = 0;
};

}  // namespace tierbase

#endif  // TIERBASE_CORE_WRITE_THROUGH_H_
