#include "core/deferred_fetch.h"

#include <algorithm>
#include <iterator>

namespace tierbase {

void DeferredFetcher::ReadQueuedLocked() {
  mu_.AssertHeld();
  read_in_flight_ = true;
  const size_t n = std::min(queue_.size(), kMaxBatch);
  std::vector<std::shared_ptr<PendingKey>> batch(
      std::make_move_iterator(queue_.begin()),
      std::make_move_iterator(queue_.begin() + n));
  queue_.erase(queue_.begin(), queue_.begin() + n);
  std::vector<std::string> keys;
  keys.reserve(n);
  for (const auto& p : batch) keys.push_back(p->key);

  mu_.Unlock();
  std::vector<std::string> values;
  std::vector<bool> found;
  Status s = storage_->MultiRead(keys, &values, &found);
  mu_.Lock();

  ++stats_.batch_calls;
  for (size_t i = 0; i < n; ++i) {
    PendingKey* p = batch[i].get();
    if (s.ok()) {
      p->found = found[i];
      p->value = std::move(values[i]);
    } else {
      p->error = s;
    }
    p->done = true;
    pending_.erase(p->key);
  }
  read_in_flight_ = false;
  cv_.SignalAll();
}

void DeferredFetcher::FetchMany(const std::vector<Slice>& keys,
                                std::vector<std::string>* values,
                                std::vector<Status>* statuses) {
  const size_t n = keys.size();
  values->assign(n, std::string());
  statuses->assign(n, Status::OK());
  if (n == 0) return;

  std::vector<std::shared_ptr<PendingKey>> mine(n);
  {
    common::MutexLock lock(&mu_);
    // Share keys already queued or in flight (and earlier occurrences in
    // this batch); queue the rest.
    for (size_t i = 0; i < n; ++i) {
      ++stats_.fetches;
      auto it = pending_.find(keys[i].view());
      if (it != pending_.end()) {
        mine[i] = it->second;
        ++stats_.shared;
      } else {
        mine[i] = std::make_shared<PendingKey>(keys[i].ToString());
        pending_.emplace(mine[i]->key, mine[i]);
        queue_.push_back(mine[i]);
      }
    }
    // While a read is in flight it is the window that gathers the queue;
    // whoever finds the storage tier idle with keys queued leads the next.
    for (const auto& p : mine) {
      while (!p->done) {
        if (!read_in_flight_ && !queue_.empty()) {
          ReadQueuedLocked();
        } else {
          cv_.Wait();
        }
      }
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (!mine[i]->error.ok()) {
      (*statuses)[i] = mine[i]->error;
    } else if (!mine[i]->found) {
      (*statuses)[i] = Status::NotFound("");
    } else {
      (*values)[i] = mine[i]->value;
    }
  }
}

DeferredFetcher::Stats DeferredFetcher::GetStats() const {
  common::MutexLock lock(&mu_);
  return stats_;
}

}  // namespace tierbase
