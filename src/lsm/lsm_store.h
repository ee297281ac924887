// LsmStore: the storage-tier engine. Stands in for the paper's UCS
// (Universal Configurable Storage, an internal Ant Group LSM service) behind
// TierBase's pluggable StorageAdapter.
//
// A leveled LSM tree: writes land in the WAL and a skiplist memtable; full
// memtables become immutable and are flushed to L0 SSTs by a background
// thread; leveled compaction keeps read amplification bounded. Every
// write is logged, one WAL append per batch; the WAL is synced at an
// interval or per append.

#ifndef TIERBASE_LSM_LSM_STORE_H_
#define TIERBASE_LSM_LSM_STORE_H_

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/kv_engine.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "lsm/block_cache.h"
#include "lsm/memtable.h"
#include "lsm/version.h"
#include "lsm/wal.h"

namespace tierbase {
namespace lsm {

struct LsmOptions {
  std::string dir;
  size_t memtable_bytes = 4 << 20;
  size_t block_cache_bytes = 8 << 20;
  size_t target_file_bytes = 2 << 20;
  int l0_compaction_trigger = 4;
  uint64_t level1_max_bytes = 16 << 20;  // Level n max = level1 * 10^(n-1).
  // The WAL's fsync interval; 0 = fsync every record (WalOptions).
  uint64_t wal_sync_interval_micros = 1'000'000;
  TableBuilderOptions table_options;
};

class LsmStore : public KvEngine {
 public:
  static Result<std::unique_ptr<LsmStore>> Open(const LsmOptions& options);
  ~LsmStore() override;

  std::string name() const override { return "lsm"; }

  Status Set(const Slice& key, const Slice& value) override;
  Status Get(const Slice& key, std::string* value) override;
  Status Delete(const Slice& key) override;

  /// One op of a batch. Its key and value are views that must stay valid
  /// until ApplyBatch returns.
  using BatchOp = WalMutation;
  /// Applies a batch of (key, value-or-tombstone) under one lock
  /// acquisition, with one WAL append, and makes it visible at once. The
  /// only write path: Set and Delete are batches of one. The room check
  /// runs once per batch, so a memtable can overshoot memtable_bytes by one
  /// batch (LevelDB's MakeRoomForWrite). A log error that may have left
  /// part of the batch in the WAL (see WalWriter) fails this and every
  /// later write; reads keep serving.
  Status ApplyBatch(const std::vector<BatchOp>& batch);

  UsageStats GetUsage() const override;
  Status WaitIdle() override;

  /// Forces a memtable flush (tests).
  Status FlushForTesting();

  struct Stats {
    uint64_t flushes = 0;
    uint64_t compactions = 0;
    uint64_t bytes_flushed = 0;
    uint64_t bytes_compacted = 0;
    uint64_t write_stalls = 0;
    WalRecoveryStats wal;  // Set once by Open's WAL replay.
  };
  Stats GetStats() const;

 private:
  explicit LsmStore(const LsmOptions& options);

  // Init and RecoverWals run strictly before bg_thread_ is spawned (the
  // store is single-threaded during Open), so they touch guarded members
  // without mu_; the analysis is disabled for them rather than taking an
  // uncontended lock around a recovery that calls back into locking code.
  Status Init() NO_THREAD_SAFETY_ANALYSIS;
  /// Replays the WALs among `names` (the directory listing).
  Status RecoverWals(const std::vector<std::string>& names)
      NO_THREAD_SAFETY_ANALYSIS;
  Status ReplayWalRecord(const Slice& record);
  /// Stalls while both memtables are full, then retires a full mem_.
  Status MakeRoomForWrite() EXCLUSIVE_LOCKS_REQUIRED(mu_);

  /// Starts a fresh WAL, under a new file number, for mem_.
  Status NewWal() EXCLUSIVE_LOCKS_REQUIRED(mu_);
  /// Rotates memtable → immutable; creates a fresh WAL.
  Status SwitchMemtable() EXCLUSIVE_LOCKS_REQUIRED(mu_);
  /// Latches the first error: every later write and WaitIdle fail with
  /// it, reads keep serving.
  void SetBgErrorLocked(const Status& s) EXCLUSIVE_LOCKS_REQUIRED(mu_);

  /// The background thread: each round does one unit of work, flushing
  /// imm_ if set, else compacting the level PickCompactionLevel names.
  void BackgroundWork();
  /// The level most over its budget (L0 by file count, L1+ by bytes), or
  /// -1 when no level needs compacting.
  int PickCompactionLevel(const Version& v) const;
  Status FlushImmutable();
  Status CompactLevel(int level);
  uint64_t MaxBytesForLevel(int level) const;

  /// An SST being written.
  struct TableOut {
    uint64_t number = 0;
    std::string path;
    std::unique_ptr<TableBuilder> builder;
  };
  /// Starts a table under a new file number.
  Status OpenTable(TableOut* out);
  /// Finishes out's table, if one is open, and adds it to `edit` at
  /// `level`, counting its size into *bytes; an output with no entries is
  /// deleted instead. Leaves out->builder null.
  Status FinishTable(TableOut* out, int level, VersionEdit* edit,
                     uint64_t* bytes);

  LsmOptions options_;
  std::unique_ptr<BlockCache> block_cache_;
  std::unique_ptr<VersionSet> versions_;

  mutable common::Mutex mu_;
  common::CondVar bg_cv_{&mu_};     // Wakes the background thread.
  common::CondVar stall_cv_{&mu_};  // Wakes stalled writers.
  std::shared_ptr<MemTable> mem_ GUARDED_BY(mu_);
  std::shared_ptr<MemTable> imm_ GUARDED_BY(mu_);  // Being flushed; or null.
  uint64_t wal_number_ GUARDED_BY(mu_) = 0;        // WAL backing mem_.
  uint64_t imm_wal_number_ GUARDED_BY(mu_) = 0;    // WAL backing imm_.
  std::unique_ptr<WalWriter> wal_ GUARDED_BY(mu_);

  std::thread bg_thread_;
  bool shutting_down_ GUARDED_BY(mu_) = false;
  bool bg_error_set_ GUARDED_BY(mu_) = false;
  Status bg_error_ GUARDED_BY(mu_);

  Stats stats_ GUARDED_BY(mu_);
};

}  // namespace lsm
}  // namespace tierbase

#endif  // TIERBASE_LSM_LSM_STORE_H_
