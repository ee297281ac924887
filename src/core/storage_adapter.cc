#include "core/storage_adapter.h"

namespace tierbase {

Result<std::unique_ptr<LsmStorageAdapter>> LsmStorageAdapter::Open(
    const lsm::LsmOptions& options) {
  auto store = lsm::LsmStore::Open(options);
  if (!store.ok()) return store.status();
  return std::unique_ptr<LsmStorageAdapter>(
      new LsmStorageAdapter(std::move(*store)));
}

Status LsmStorageAdapter::Write(const Slice& key, const Slice& value) {
  writes_.fetch_add(1, std::memory_order_relaxed);
  return store_->Set(key, value);
}

Status LsmStorageAdapter::Delete(const Slice& key) {
  writes_.fetch_add(1, std::memory_order_relaxed);
  return store_->Delete(key);
}

Status LsmStorageAdapter::Read(const Slice& key, std::string* value) {
  reads_.fetch_add(1, std::memory_order_relaxed);
  return store_->Get(key, value);
}

Status LsmStorageAdapter::WriteBatch(const std::vector<BatchOp>& ops) {
  batch_calls_.fetch_add(1, std::memory_order_relaxed);
  writes_.fetch_add(ops.size(), std::memory_order_relaxed);
  return store_->ApplyBatch(ops);
}

Status LsmStorageAdapter::MultiRead(const std::vector<std::string>& keys,
                                    std::vector<std::string>* values,
                                    std::vector<bool>* found) {
  batch_calls_.fetch_add(1, std::memory_order_relaxed);
  reads_.fetch_add(keys.size(), std::memory_order_relaxed);
  values->assign(keys.size(), "");
  found->assign(keys.size(), false);
  for (size_t i = 0; i < keys.size(); ++i) {
    Status s = store_->Get(keys[i], &(*values)[i]);
    if (s.ok()) {
      (*found)[i] = true;
    } else if (!s.IsNotFound()) {
      return s;
    }
  }
  return Status::OK();
}

UsageStats LsmStorageAdapter::GetUsage() const { return store_->GetUsage(); }

Status LsmStorageAdapter::WaitIdle() { return store_->WaitIdle(); }

StorageAdapter::WalRecoveryStats LsmStorageAdapter::GetWalRecoveryStats()
    const {
  return store_->GetStats().wal;
}

Status MockStorageAdapter::MaybeFail() {
  if (options_.fail_every == 0 && options_.fail_first == 0) {
    return Status::OK();
  }
  uint64_t n = op_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (options_.fail_first > 0 && n <= options_.fail_first) {
    return Status::IOError("mock-storage: injected failure");
  }
  if (options_.fail_every != 0 && n % options_.fail_every == 0) {
    return Status::IOError("mock-storage: injected failure");
  }
  return Status::OK();
}

Status MockStorageAdapter::Write(const Slice& key, const Slice& value) {
  InjectLatency();
  TIERBASE_RETURN_IF_ERROR(MaybeFail());
  writes_.fetch_add(1, std::memory_order_relaxed);
  common::MutexLock lock(&mu_);
  map_[key.ToString()] = value.ToString();
  return Status::OK();
}

Status MockStorageAdapter::Delete(const Slice& key) {
  InjectLatency();
  TIERBASE_RETURN_IF_ERROR(MaybeFail());
  writes_.fetch_add(1, std::memory_order_relaxed);
  common::MutexLock lock(&mu_);
  map_.erase(key.ToString());
  return Status::OK();
}

Status MockStorageAdapter::Read(const Slice& key, std::string* value) {
  InjectLatency();
  reads_.fetch_add(1, std::memory_order_relaxed);
  common::MutexLock lock(&mu_);
  auto it = map_.find(key.ToString());
  if (it == map_.end()) return Status::NotFound("");
  *value = it->second;
  return Status::OK();
}

Status MockStorageAdapter::WriteBatch(const std::vector<BatchOp>& ops) {
  InjectLatency();  // One remote call for the batch.
  TIERBASE_RETURN_IF_ERROR(MaybeFail());
  batch_calls_.fetch_add(1, std::memory_order_relaxed);
  writes_.fetch_add(ops.size(), std::memory_order_relaxed);
  common::MutexLock lock(&mu_);
  for (const auto& op : ops) {
    if (op.is_delete) {
      map_.erase(op.key.ToString());
    } else {
      map_[op.key.ToString()] = op.value.ToString();
    }
  }
  return Status::OK();
}

Status MockStorageAdapter::MultiRead(const std::vector<std::string>& keys,
                                     std::vector<std::string>* values,
                                     std::vector<bool>* found) {
  InjectLatency();  // One remote call for the batch.
  batch_calls_.fetch_add(1, std::memory_order_relaxed);
  reads_.fetch_add(keys.size(), std::memory_order_relaxed);
  values->assign(keys.size(), "");
  found->assign(keys.size(), false);
  common::MutexLock lock(&mu_);
  for (size_t i = 0; i < keys.size(); ++i) {
    auto it = map_.find(keys[i]);
    if (it != map_.end()) {
      (*values)[i] = it->second;
      (*found)[i] = true;
    }
  }
  return Status::OK();
}

UsageStats MockStorageAdapter::GetUsage() const {
  common::MutexLock lock(&mu_);
  UsageStats usage;
  usage.keys = map_.size();
  for (const auto& [k, v] : map_) usage.disk_bytes += k.size() + v.size() + 32;
  return usage;
}

size_t MockStorageAdapter::size() const {
  common::MutexLock lock(&mu_);
  return map_.size();
}

}  // namespace tierbase
