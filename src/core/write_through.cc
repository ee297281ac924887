#include "core/write_through.h"

#include <algorithm>

namespace tierbase {

Status PerKeyCoalescer::StoreLocked(
    const std::vector<StorageAdapter::BatchOp>& ops) {
  mu_.AssertHeld();
  mu_.Unlock();
  Status s = storage_->WriteBatch(ops);
  mu_.Lock();
  ++batch_calls_;
  storage_writes_ += ops.size();
  return s;
}

void PerKeyCoalescer::DrainLocked(const std::string& key, KeyState* ks) {
  mu_.AssertHeld();
  while (ks->pending) {
    const uint64_t g = ks->latest_gen;
    ks->pending = false;
    Status s = StoreLocked({{key, ks->latest_value, ks->latest_is_delete}});
    if (s.ok()) {
      ks->flushed_gen = std::max(ks->flushed_gen, g);
    } else {
      ks->last_error = s;
    }
    ks->processed_gen = std::max(ks->processed_gen, g);
    ks->cv.SignalAll();
  }
}

Status PerKeyCoalescer::WriteUncoalescedLocked(const Slice& key,
                                               const Slice& value,
                                               bool is_delete) {
  mu_.AssertHeld();
  std::string key_str = key.ToString();
  auto it = keys_.find(key_str);
  if (it == keys_.end()) {
    it = keys_.emplace(key_str, std::make_unique<KeyState>(&mu_)).first;
  }
  KeyState* ks = it->second.get();
  const uint64_t my_gen = ks->next_gen++;
  ++ks->waiters;
  // One storage write per update, per-key FIFO order.
  while (!(ks->processed_gen == my_gen - 1 && !ks->in_flight)) {
    ks->cv.Wait();
  }
  ks->in_flight = true;
  Status s = StoreLocked({{key_str, value.ToString(), is_delete}});
  ks->processed_gen = my_gen;
  if (s.ok()) ks->flushed_gen = my_gen;
  ks->in_flight = false;
  ks->cv.SignalAll();
  if (--ks->waiters == 0) keys_.erase(key_str);
  return s;
}

void PerKeyCoalescer::WriteBatch(const std::vector<Slice>& keys,
                                 const std::vector<Slice>& values,
                                 bool is_delete,
                                 std::vector<Status>* statuses) {
  const size_t n = keys.size();
  statuses->assign(n, Status::OK());
  if (n == 0) return;

  common::MutexLock lock(&mu_);
  submitted_ += n;
  if (!coalesce_) {
    for (size_t i = 0; i < n; ++i) {
      (*statuses)[i] = WriteUncoalescedLocked(keys[i], values[i], is_delete);
    }
    return;
  }

  // One registration per distinct key; later ops in the batch supersede
  // earlier ones (intra-batch coalescing, last writer wins). Keys whose
  // leader is already flushing are delegated to that leader — it will pick
  // up our value from the pending slot, preserving per-key order. The
  // remaining ("owned") keys go to storage as one batched call.
  struct Reg {
    KeyState* ks = nullptr;
    uint64_t gen = 0;
    size_t value_index = 0;
    bool delegated = false;
  };
  std::vector<Reg> regs;
  std::vector<std::string> reg_keys;
  std::unordered_map<std::string, size_t> reg_of;  // key → regs index.
  std::vector<size_t> reg_for_op(n);

  for (size_t i = 0; i < n; ++i) {
    std::string k = keys[i].ToString();
    auto [it, inserted] = reg_of.emplace(std::move(k), regs.size());
    if (inserted) {
      auto key_it = keys_.find(it->first);
      if (key_it == keys_.end()) {
        key_it =
            keys_.emplace(it->first, std::make_unique<KeyState>(&mu_)).first;
      }
      Reg r;
      r.ks = key_it->second.get();
      ++r.ks->waiters;
      r.value_index = i;
      regs.push_back(r);
      reg_keys.push_back(it->first);
    } else {
      regs[it->second].value_index = i;
    }
    reg_for_op[i] = it->second;
  }

  std::vector<StorageAdapter::BatchOp> batch;
  for (size_t r = 0; r < regs.size(); ++r) {
    Reg& reg = regs[r];
    reg.gen = reg.ks->next_gen++;
    reg.ks->latest_value = values[reg.value_index].ToString();
    reg.ks->latest_is_delete = is_delete;
    reg.ks->latest_gen = reg.gen;
    if (reg.ks->in_flight) {
      // An active leader will flush this value; wait for it below.
      reg.ks->pending = true;
      reg.delegated = true;
    } else {
      // We flush it ourselves as part of the batch. pending stays false so
      // the value isn't flushed twice; a write arriving while the batch is
      // on the wire sets pending again and we drain it afterwards.
      reg.ks->in_flight = true;
      reg.ks->pending = false;
      batch.push_back({reg_keys[r], reg.ks->latest_value, is_delete});
    }
  }

  if (!batch.empty()) {
    Status s = StoreLocked(batch);
    for (size_t r = 0; r < regs.size(); ++r) {
      Reg& reg = regs[r];
      if (reg.delegated) continue;
      if (s.ok()) {
        reg.ks->flushed_gen = std::max(reg.ks->flushed_gen, reg.gen);
      } else {
        reg.ks->last_error = s;
      }
      reg.ks->processed_gen = std::max(reg.ks->processed_gen, reg.gen);
      reg.ks->cv.SignalAll();
      // Serve any writers that queued behind the batch, then step down.
      DrainLocked(reg_keys[r], reg.ks);
      reg.ks->in_flight = false;
      reg.ks->cv.SignalAll();
    }
  }

  for (size_t r = 0; r < regs.size(); ++r) {
    Reg& reg = regs[r];
    if (reg.delegated) {
      while (reg.ks->processed_gen < reg.gen) reg.ks->cv.Wait();
    }
  }

  for (size_t i = 0; i < n; ++i) {
    const Reg& reg = regs[reg_for_op[i]];
    (*statuses)[i] =
        reg.ks->flushed_gen >= reg.gen
            ? Status::OK()
            : (reg.ks->last_error.ok()
                   ? Status::IOError("write-through failed")
                   : reg.ks->last_error);
  }

  for (size_t r = 0; r < regs.size(); ++r) {
    KeyState* ks = regs[r].ks;
    if (--ks->waiters == 0 && !ks->in_flight && !ks->pending) {
      keys_.erase(reg_keys[r]);
    }
  }
}

PerKeyCoalescer::Stats PerKeyCoalescer::GetStats() const {
  common::MutexLock lock(&mu_);
  return Stats{submitted_, storage_writes_, batch_calls_};
}

}  // namespace tierbase
