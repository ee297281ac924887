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

PerKeyCoalescer::KeyState* PerKeyCoalescer::FindOrAddLocked(
    const Slice& key) {
  mu_.AssertHeld();
  auto it = keys_.find(key.view());
  if (it == keys_.end()) {
    auto ks = std::make_unique<KeyState>(&mu_, key);
    const std::string_view view = ks->key;
    it = keys_.emplace(view, std::move(ks)).first;
  }
  return it->second.get();
}

void PerKeyCoalescer::DrainLocked(KeyState* ks) {
  mu_.AssertHeld();
  while (ks->pending) {
    const uint64_t g = ks->latest_gen;
    ks->pending = false;
    // The write views a local: the next delegated update may overwrite
    // latest_value while mu_ is released around the storage call.
    const std::string value = std::move(ks->latest_value);
    Status s = StoreLocked({{ks->key, value, ks->latest_is_delete}});
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
  KeyState* ks = FindOrAddLocked(key);
  const uint64_t my_gen = ks->next_gen++;
  ++ks->waiters;
  // One storage write per update, per-key FIFO order.
  while (!(ks->processed_gen == my_gen - 1 && !ks->in_flight)) {
    ks->cv.Wait();
  }
  ks->in_flight = true;
  Status s = StoreLocked({{key, value, is_delete}});
  ks->processed_gen = my_gen;
  if (s.ok()) ks->flushed_gen = my_gen;
  ks->in_flight = false;
  ks->cv.SignalAll();
  if (--ks->waiters == 0) keys_.erase(std::string_view(ks->key));
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
  std::unordered_map<std::string_view, size_t> reg_of;  // key → regs index.
  std::vector<size_t> reg_for_op(n);

  for (size_t i = 0; i < n; ++i) {
    if (n > 1) {
      auto [it, inserted] = reg_of.emplace(keys[i].view(), regs.size());
      if (!inserted) {
        regs[it->second].value_index = i;
        reg_for_op[i] = it->second;
        continue;
      }
    }
    Reg r;
    r.ks = FindOrAddLocked(keys[i]);
    ++r.ks->waiters;
    r.value_index = i;
    reg_for_op[i] = regs.size();
    regs.push_back(r);
  }

  std::vector<StorageAdapter::BatchOp> batch;
  for (Reg& reg : regs) {
    reg.gen = reg.ks->next_gen++;
    const Slice& value = values[reg.value_index];
    if (reg.ks->in_flight) {
      // An active leader will flush this value; wait for it below. It
      // outlives this call, so it is copied.
      reg.ks->latest_value.assign(value.data(), value.size());
      reg.ks->latest_is_delete = is_delete;
      reg.ks->latest_gen = reg.gen;
      reg.ks->pending = true;
      reg.delegated = true;
    } else {
      // We flush it ourselves as part of the batch. pending stays false so
      // the value isn't flushed twice; a write arriving while the batch is
      // on the wire sets pending again and we drain it afterwards.
      reg.ks->in_flight = true;
      reg.ks->pending = false;
      batch.push_back({reg.ks->key, value, is_delete});
    }
  }

  if (!batch.empty()) {
    Status s = StoreLocked(batch);
    for (Reg& reg : regs) {
      if (reg.delegated) continue;
      if (s.ok()) {
        reg.ks->flushed_gen = std::max(reg.ks->flushed_gen, reg.gen);
      } else {
        reg.ks->last_error = s;
      }
      reg.ks->processed_gen = std::max(reg.ks->processed_gen, reg.gen);
      reg.ks->cv.SignalAll();
      // Serve any writers that queued behind the batch, then step down.
      DrainLocked(reg.ks);
      reg.ks->in_flight = false;
      reg.ks->cv.SignalAll();
    }
  }

  for (const Reg& reg : regs) {
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

  for (const Reg& reg : regs) {
    KeyState* ks = reg.ks;
    if (--ks->waiters == 0 && !ks->in_flight && !ks->pending) {
      keys_.erase(std::string_view(ks->key));
    }
  }
}

PerKeyCoalescer::Stats PerKeyCoalescer::GetStats() const {
  common::MutexLock lock(&mu_);
  return Stats{submitted_, storage_writes_, batch_calls_};
}

}  // namespace tierbase
