#include "core/deferred_fetch.h"

namespace tierbase {

DeferredFetcher::DeferredFetcher(StorageAdapter* storage,
                                 DeferredFetchOptions options, Clock* clock)
    : storage_(storage), options_(options), clock_(clock) {}

void DeferredFetcher::LeaderDrain() {
  // Keep draining until no keys are pending (later joiners are picked up
  // by a follow-on batch rather than stranded).
  while (true) {
    std::vector<std::string> keys;
    std::vector<std::shared_ptr<PendingKey>> entries;
    {
      common::MutexLock lock(&mu_);
      for (auto& [k, p] : pending_) {
        if (p->done) continue;
        if (keys.size() >= options_.max_batch) break;
        keys.push_back(k);
        entries.push_back(p);
      }
      if (keys.empty()) {
        batch_leader_active_ = false;
        break;
      }
    }

    std::vector<std::string> values;
    std::vector<bool> found;
    Status s = storage_->MultiRead(keys, &values, &found);

    {
      common::MutexLock lock(&mu_);
      ++stats_.batch_calls;
      for (size_t i = 0; i < entries.size(); ++i) {
        entries[i]->done = true;
        if (s.ok()) {
          entries[i]->found = found[i];
          entries[i]->value = std::move(values[i]);
        } else {
          entries[i]->error = s;
        }
        pending_.erase(keys[i]);
      }
    }
    cv_.SignalAll();
  }
  cv_.SignalAll();
}

void DeferredFetcher::FetchMany(const std::vector<Slice>& keys, bool lone,
                                std::vector<std::string>* values,
                                std::vector<Status>* statuses) {
  const size_t n = keys.size();
  values->assign(n, std::string());
  statuses->assign(n, Status::OK());
  if (n == 0) return;

  // Register every key (deduplicating against in-flight fetches and
  // earlier occurrences in this batch), then drain as leader unless one is
  // already active.
  std::vector<std::shared_ptr<PendingKey>> mine(n);
  bool leader = false;
  {
    common::MutexLock lock(&mu_);
    for (size_t i = 0; i < n; ++i) {
      ++stats_.fetches;
      std::string k = keys[i].ToString();
      auto it = pending_.find(k);
      if (it != pending_.end()) {
        mine[i] = it->second;
        ++stats_.shared;
      } else {
        mine[i] = std::make_shared<PendingKey>();
        pending_.emplace(std::move(k), mine[i]);
      }
    }
    if (!batch_leader_active_) {
      batch_leader_active_ = true;
      leader = true;
    }
  }

  if (leader) {
    // A lone miss gives concurrent missers a short window to join its
    // batch.
    if (lone && options_.batch_window_micros > 0) {
      clock_->SleepMicros(options_.batch_window_micros);
    }
    LeaderDrain();
  }

  {
    common::MutexLock lock(&mu_);
    for (const auto& p : mine) {
      while (!p->done) cv_.Wait();
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
