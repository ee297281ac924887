// OpLog: the master side of wire replication (§4.1.2, §6.4). Every applied
// string mutation is appended with a monotonically increasing sequence
// number; replicas pull ranges with REPLPULL and detect gaps by sequence.
// The log is a bounded ring — when a replica falls further behind than the
// capacity, its next pull reports a gap and the replica performs a full
// resync (REPLSNAPSHOT pages) before resuming incremental pulls.
//
// Like Redis's replication backlog, the ring holds nothing until its first
// reader: before the first Read, Append only advances the sequence, so a
// node nobody replicates from keeps no copy of its writes. That first pull
// from a master that has taken writes therefore reports a gap and
// full-resyncs, as a replica's first sync does in Redis; from then on the
// ring retains every op.

#ifndef TIERBASE_CLUSTER_NET_OPLOG_H_
#define TIERBASE_CLUSTER_NET_OPLOG_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/slice.h"

namespace tierbase::cluster_net {

struct ReplOp {
  enum class Type : uint8_t {
    kSet = 0,
    kDelete = 1,
    kFlushAll = 2,
    kExpire = 3,
  };
  Type type = Type::kSet;
  uint64_t seq = 0;
  std::string key;
  std::string value;
  uint64_t ttl_micros = 0;  // 0 = no expiry (kSet/kExpire).
};

class OpLog {
 public:
  explicit OpLog(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Assigns the next sequence number and returns it. Once the log is
  /// retaining (see Read), also copies the op into the ring and drops the
  /// oldest entry beyond capacity.
  uint64_t Append(ReplOp::Type type, const Slice& key, const Slice& value,
                  uint64_t ttl_micros) {
    common::MutexLock lock(&mu_);
    const uint64_t seq = next_seq_++;
    if (!retaining_) return seq;
    ReplOp& op = log_.emplace_back();
    op.type = type;
    op.seq = seq;
    op.key.assign(key.data(), key.size());
    op.value.assign(value.data(), value.size());
    op.ttl_micros = ttl_micros;
    while (log_.size() > capacity_) log_.pop_front();
    return seq;
  }

  /// Copies up to `max_ops` ops with seq >= `from` into *out. Returns false
  /// when `from` precedes the oldest retained op (the caller lost the race
  /// with the ring bound, or pulled before anything was retained, and must
  /// full-resync). The first call, gap or not, starts retention for good.
  bool Read(uint64_t from, size_t max_ops, std::vector<ReplOp>* out) {
    out->clear();
    common::MutexLock lock(&mu_);
    retaining_ = true;
    if (from < MinSeqLocked()) return false;
    for (const ReplOp& op : log_) {
      if (op.seq < from) continue;
      if (out->size() >= max_ops) break;
      out->push_back(op);
    }
    return true;
  }

  /// Last assigned sequence (0 = nothing appended yet).
  uint64_t head_seq() const {
    common::MutexLock lock(&mu_);
    return next_seq_ - 1;
  }

  /// Oldest sequence still retained (head+1 when the log is empty, as it
  /// stays until the first Read).
  uint64_t min_seq() const {
    common::MutexLock lock(&mu_);
    return MinSeqLocked();
  }

 private:
  uint64_t MinSeqLocked() const EXCLUSIVE_LOCKS_REQUIRED(mu_) {
    return log_.empty() ? next_seq_ : log_.front().seq;
  }

  mutable common::Mutex mu_;
  const size_t capacity_;
  std::deque<ReplOp> log_ GUARDED_BY(mu_);
  uint64_t next_seq_ GUARDED_BY(mu_) = 1;
  bool retaining_ GUARDED_BY(mu_) = false;  // Latched by the first Read.
};

}  // namespace tierbase::cluster_net

#endif  // TIERBASE_CLUSTER_NET_OPLOG_H_
