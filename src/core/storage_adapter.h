// StorageAdapter: TierBase's pluggable disaggregated-storage interface
// (paper §3, "TierBase offers various disaggregated storage options through
// a pluggable storage adapter"). The production system speaks to UCS; this
// repo ships an LSM-backed adapter (our UCS substitute) and an in-memory
// mock with injectable failures/latency for tests.

#ifndef TIERBASE_CORE_STORAGE_ADAPTER_H_
#define TIERBASE_CORE_STORAGE_ADAPTER_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/kv_engine.h"
#include "common/mutex.h"
#include "lsm/lsm_store.h"

namespace tierbase {

class StorageAdapter {
 public:
  /// One op of a batched write: the LSM store's own batch op, so the LSM
  /// adapter hands a batch down without copying it.
  using BatchOp = lsm::LsmStore::BatchOp;

  virtual ~StorageAdapter() = default;

  virtual std::string name() const = 0;
  virtual Status Write(const Slice& key, const Slice& value) = 0;
  virtual Status Delete(const Slice& key) = 0;
  virtual Status Read(const Slice& key, std::string* value) = 0;

  /// Batched write: every storage write the tiering mechanisms make, a
  /// single-key one included, is one of these (one remote call).
  virtual Status WriteBatch(const std::vector<BatchOp>& ops) = 0;

  /// Batched read: every storage read of deferred cache-fetching, a
  /// single-key miss included. `values[i]` is filled and `found[i]` set per
  /// key.
  virtual Status MultiRead(const std::vector<std::string>& keys,
                           std::vector<std::string>* values,
                           std::vector<bool>* found) = 0;

  virtual UsageStats GetUsage() const = 0;
  virtual Status WaitIdle() { return Status::OK(); }

  /// Crash-recovery audit trail of the storage tier's own WAL (what the
  /// last Open replayed). Zero for adapters without a WAL.
  using WalRecoveryStats = lsm::WalRecoveryStats;
  virtual WalRecoveryStats GetWalRecoveryStats() const { return {}; }

  struct Counters {
    uint64_t reads = 0;
    uint64_t writes = 0;       // Individual ops, incl. batched ones.
    uint64_t batch_calls = 0;  // Remote calls for batches.
  };
  Counters counters() const {
    Counters c;
    c.reads = reads_.load(std::memory_order_relaxed);
    c.writes = writes_.load(std::memory_order_relaxed);
    c.batch_calls = batch_calls_.load(std::memory_order_relaxed);
    return c;
  }

 protected:
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> batch_calls_{0};
};

/// LSM-backed adapter: the storage tier used by benches and examples.
class LsmStorageAdapter : public StorageAdapter {
 public:
  static Result<std::unique_ptr<LsmStorageAdapter>> Open(
      const lsm::LsmOptions& options);

  std::string name() const override { return "lsm-storage"; }
  Status Write(const Slice& key, const Slice& value) override;
  Status Delete(const Slice& key) override;
  Status Read(const Slice& key, std::string* value) override;
  Status WriteBatch(const std::vector<BatchOp>& ops) override;
  Status MultiRead(const std::vector<std::string>& keys,
                   std::vector<std::string>* values,
                   std::vector<bool>* found) override;
  UsageStats GetUsage() const override;
  Status WaitIdle() override;
  WalRecoveryStats GetWalRecoveryStats() const override;

  lsm::LsmStore* store() { return store_.get(); }

 private:
  explicit LsmStorageAdapter(std::unique_ptr<lsm::LsmStore> store)
      : store_(std::move(store)) {}
  std::unique_ptr<lsm::LsmStore> store_;
};

/// In-memory adapter for unit tests: ordered map + optional injected
/// latency and failure-every-N.
class MockStorageAdapter : public StorageAdapter {
 public:
  struct Options {
    uint64_t latency_micros = 0;     // Injected per remote call.
    uint64_t fail_every = 0;         // Every Nth write fails (0 = never).
    uint64_t fail_first = 0;         // The first N writes fail, then the
                                     // "storage tier" heals (0 = never).
    Clock* clock = Clock::Real();
  };

  MockStorageAdapter() : MockStorageAdapter(Options()) {}
  explicit MockStorageAdapter(Options options) : options_(options) {}

  std::string name() const override { return "mock-storage"; }
  Status Write(const Slice& key, const Slice& value) override;
  Status Delete(const Slice& key) override;
  Status Read(const Slice& key, std::string* value) override;
  Status WriteBatch(const std::vector<BatchOp>& ops) override;
  Status MultiRead(const std::vector<std::string>& keys,
                   std::vector<std::string>* values,
                   std::vector<bool>* found) override;
  UsageStats GetUsage() const override;

  size_t size() const;

 private:
  Status MaybeFail();
  void InjectLatency() {
    if (options_.latency_micros > 0) {
      options_.clock->SleepMicros(options_.latency_micros);
    }
  }

  Options options_;
  mutable common::Mutex mu_;
  std::map<std::string, std::string> map_ GUARDED_BY(mu_);
  std::atomic<uint64_t> op_counter_{0};
};

/// Decorator modeling a *disaggregated* storage tier: every remote call
/// pays one network round trip regardless of how many ops it carries --
/// exactly why write-back batching, write coalescing and deferred
/// cache-fetching reduce PC_miss/PC_storage (paper §4.1). Wraps any
/// adapter; the inner adapter is not owned.
class RemoteStorageAdapter : public StorageAdapter {
 public:
  RemoteStorageAdapter(StorageAdapter* inner, uint64_t rtt_micros)
      : inner_(inner), rtt_micros_(rtt_micros) {}

  std::string name() const override { return "remote+" + inner_->name(); }

  Status Write(const Slice& key, const Slice& value) override {
    RoundTrip();
    return Forward(inner_->Write(key, value));
  }
  Status Delete(const Slice& key) override {
    RoundTrip();
    return Forward(inner_->Delete(key));
  }
  Status Read(const Slice& key, std::string* value) override {
    RoundTrip();
    Status s = inner_->Read(key, value);
    if (s.ok()) reads_.fetch_add(1, std::memory_order_relaxed);
    return s;
  }
  Status WriteBatch(const std::vector<BatchOp>& ops) override {
    RoundTrip();  // One round trip for the whole batch.
    Status s = inner_->WriteBatch(ops);
    if (s.ok()) {
      writes_.fetch_add(ops.size(), std::memory_order_relaxed);
      batch_calls_.fetch_add(1, std::memory_order_relaxed);
    }
    return s;
  }
  Status MultiRead(const std::vector<std::string>& keys,
                   std::vector<std::string>* values,
                   std::vector<bool>* found) override {
    RoundTrip();
    Status s = inner_->MultiRead(keys, values, found);
    if (s.ok()) {
      reads_.fetch_add(keys.size(), std::memory_order_relaxed);
      batch_calls_.fetch_add(1, std::memory_order_relaxed);
    }
    return s;
  }
  UsageStats GetUsage() const override { return inner_->GetUsage(); }
  Status WaitIdle() override { return inner_->WaitIdle(); }

  StorageAdapter* inner() { return inner_; }

 private:
  void RoundTrip() const {
    // The calling thread waits on the wire, off CPU, for at least
    // rtt_micros_ (never less; wake-up latency may add a few micros). A
    // round trip costs the cache node time, not compute (paper §4.1).
    SleepNanos(rtt_micros_ * 1000);
  }
  Status Forward(Status s) {
    if (s.ok()) writes_.fetch_add(1, std::memory_order_relaxed);
    return s;
  }

  StorageAdapter* inner_;
  uint64_t rtt_micros_;
};

}  // namespace tierbase

#endif  // TIERBASE_CORE_STORAGE_ADAPTER_H_
