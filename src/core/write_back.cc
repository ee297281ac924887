#include "core/write_back.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "common/thread_name.h"

namespace tierbase {

WriteBackManager::WriteBackManager(StorageAdapter* storage,
                                   WriteBackOptions options, Clock* clock)
    : storage_(storage), options_(options), clock_(clock) {
  flusher_ = std::thread(&WriteBackManager::FlusherLoop, this);
}

WriteBackManager::~WriteBackManager() {
  FlushAll();
  {
    common::MutexLock lock(&mu_);
    shutting_down_ = true;
    flush_cv_.SignalAll();
  }
  if (flusher_.joinable()) flusher_.join();
}

Status WriteBackManager::MarkDirty(const std::vector<Slice>& keys,
                                   const std::vector<Slice>& values,
                                   bool is_delete) {
  common::MutexLock lock(&mu_);
  for (size_t i = 0; i < keys.size(); ++i) {
    if (!flush_error_.ok()) return flush_error_;
    auto it = index_.find(keys[i].view());
    // Backpressure: block while the dirty set is at capacity (§4.1.2 "a
    // backpressure mechanism is activated when dirty data approaches a
    // predefined threshold"). Updates to an already-dirty key merge.
    while (dirty_.size() >= options_.max_dirty && it == index_.end()) {
      ++stats_.backpressure_waits;
      flush_cv_.SignalAll();
      space_cv_.Wait();
      if (!flush_error_.ok()) return flush_error_;
      it = index_.find(keys[i].view());
    }
    ++stats_.updates;
    DirtyList::iterator entry;
    if (it == index_.end()) {
      entry = dirty_.emplace(dirty_.end());
      entry->key = keys[i].ToString();
      index_.emplace(entry->key, entry);
    } else if (it->second->in_flight) {
      // The flush views the old entry: leave it be, and move the key's
      // index slot, re-keyed by the new entry's copy of the key, to a new
      // entry. The flush retires the old one.
      ++stats_.merged_updates;
      it->second->superseded = true;
      entry = dirty_.emplace(dirty_.end());
      entry->key = it->second->key;
      auto node = index_.extract(it);
      node.key() = entry->key;
      node.mapped() = entry;
      index_.insert(std::move(node));
    } else {
      ++stats_.merged_updates;
      entry = it->second;
      dirty_.splice(dirty_.end(), dirty_, entry);
    }
    entry->value.assign(values[i].data(), values[i].size());
    entry->is_delete = is_delete;
  }
  if (dirty_.size() >= options_.flush_threshold) {
    flush_cv_.SignalAll();
  }
  return Status::OK();
}

void WriteBackManager::GetDirty(const std::vector<Slice>& keys,
                                std::vector<bool>* found,
                                std::vector<std::string>* values,
                                std::vector<bool>* deletes) const {
  const size_t n = keys.size();
  found->assign(n, false);
  values->assign(n, std::string());
  deletes->assign(n, false);
  common::MutexLock lock(&mu_);
  for (size_t i = 0; i < n; ++i) {
    auto it = index_.find(keys[i].view());
    if (it == index_.end()) continue;
    (*found)[i] = true;
    (*values)[i] = it->second->value;
    (*deletes)[i] = it->second->is_delete;
  }
}

Result<size_t> WriteBackManager::FlushBatch() {
  // Mark the oldest entries in flight under the lock and write views of
  // them outside it. Only this (single) flusher thread erases entries, and
  // a MarkDirty of an in-flight key leaves its entry untouched, so the
  // views stay valid through the write.
  std::vector<StorageAdapter::BatchOp> batch;
  std::vector<DirtyList::iterator> taken;
  {
    common::MutexLock lock(&mu_);
    for (auto it = dirty_.begin();
         it != dirty_.end() && batch.size() < options_.max_batch; ++it) {
      it->in_flight = true;
      batch.push_back({it->key, it->value, it->is_delete});
      taken.push_back(it);
    }
  }
  if (batch.empty()) return size_t{0};

  Status s = storage_->WriteBatch(batch);

  common::MutexLock lock(&mu_);
  if (!s.ok()) {
    // Leave entries dirty, but drop those a newer entry supersedes. Record
    // the error so writers observe it. The flusher retries with backoff
    // and a later success clears the error.
    for (const DirtyList::iterator& entry : taken) {
      if (entry->superseded) {
        dirty_.erase(entry);
      } else {
        entry->in_flight = false;
      }
    }
    flush_error_ = s;
    ++stats_.flush_failures;
    ++consecutive_flush_failures_;
    space_cv_.SignalAll();
    clean_cv_.SignalAll();  // FlushAll re-checks its failure bound.
    return s;
  }
  if (!flush_error_.ok()) {
    // Storage healed: un-latch so writers stop bouncing.
    flush_error_ = Status::OK();
    ++stats_.flush_retries;
  }
  consecutive_flush_failures_ = 0;
  for (const DirtyList::iterator& entry : taken) {
    if (!entry->superseded) index_.erase(std::string_view(entry->key));
    dirty_.erase(entry);
  }
  ++stats_.flush_batches;
  stats_.flushed_ops += batch.size();
  space_cv_.SignalAll();
  if (dirty_.empty()) clean_cv_.SignalAll();
  return batch.size();
}

void WriteBackManager::FlusherLoop() {
  SetCurrentThreadName("tb-wb-flush");
  uint64_t backoff_micros = 0;  // 0 = healthy, no backoff pending.
  while (true) {
    {
      common::MutexLock lock(&mu_);
      if (backoff_micros > 0) {
        // Retry backoff after a failed flush. Deliberately ignores
        // flush_waiters_/threshold wakeups: hammering a failing storage
        // tier harder doesn't help.
        auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(backoff_micros);
        while (!shutting_down_ && flush_cv_.WaitUntil(deadline)) {
        }
      } else {
        auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::microseconds(options_.flush_interval_micros);
        while (!(shutting_down_ || flush_waiters_ > 0 ||
                 dirty_.size() >= options_.flush_threshold) &&
               flush_cv_.WaitUntil(deadline)) {
        }
      }
      if (shutting_down_ &&
          (dirty_.empty() ||
           consecutive_flush_failures_ >= options_.max_flush_failures)) {
        return;  // Clean, or the storage tier stayed down: give up.
      }
    }
    Result<size_t> flushed = FlushBatch();
    // Keep draining without sleeping while there is a backlog.
    while (flushed.ok() && *flushed > 0) {
      {
        common::MutexLock lock(&mu_);
        if (dirty_.size() < options_.flush_threshold && !shutting_down_ &&
            flush_waiters_ == 0) {
          break;
        }
      }
      flushed = FlushBatch();
    }
    if (!flushed.ok()) {
      backoff_micros =
          backoff_micros == 0
              ? options_.retry_backoff_micros
              : std::min(backoff_micros * 2, options_.retry_backoff_max_micros);
      continue;
    }
    backoff_micros = 0;
    {
      common::MutexLock lock(&mu_);
      if (shutting_down_ && dirty_.empty()) return;
    }
  }
}

Status WriteBackManager::FlushAll() {
  common::MutexLock lock(&mu_);
  ++flush_waiters_;
  while (!dirty_.empty() && !shutting_down_ &&
         consecutive_flush_failures_ < options_.max_flush_failures) {
    flush_cv_.SignalAll();
    clean_cv_.WaitFor(5'000);
  }
  --flush_waiters_;
  if (!dirty_.empty() && !flush_error_.ok()) return flush_error_;
  return Status::OK();
}

size_t WriteBackManager::dirty_count() const {
  common::MutexLock lock(&mu_);
  return index_.size();
}

WriteBackManager::Stats WriteBackManager::GetStats() const {
  common::MutexLock lock(&mu_);
  return stats_;
}

Status WriteBackManager::flush_error() const {
  common::MutexLock lock(&mu_);
  return flush_error_;
}

}  // namespace tierbase
