// MemTable: in-memory write buffer of the LSM tree, a skiplist over
// arena-allocated encoded entries.
//
// Entry encoding: varint32 internal_key_len | internal_key | varint32
// value_len | value, where internal_key = user_key ++ fixed64(seq<<8|type).

#ifndef TIERBASE_LSM_MEMTABLE_H_
#define TIERBASE_LSM_MEMTABLE_H_

#include <algorithm>
#include <string>

#include "common/arena.h"
#include "common/slice.h"
#include "common/status.h"
#include "lsm/internal_key.h"
#include "lsm/skiplist.h"

namespace tierbase {
namespace lsm {

/// Compares skiplist entries (length-prefixed internal keys).
class MemTableKeyComparator {
 public:
  int operator()(const char* a, const char* b) const;
};

class MemTable {
 public:
  /// `write_buffer_bytes` is the size at which the owner retires the
  /// memtable; the arena's blocks are an eighth of it, between 4 and 64
  /// KiB (RocksDB's arena block rule), so a ~1 KB entry is carved from a
  /// block instead of taking a heap block of its own.
  explicit MemTable(size_t write_buffer_bytes = 0)
      : arena_(std::clamp<size_t>(write_buffer_bytes / 8, 4 << 10, 64 << 10)),
        table_(MemTableKeyComparator(), &arena_) {}
  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;

  /// Adds an entry. Writers must be externally serialized.
  void Add(SequenceNumber seq, ValueType type, const Slice& user_key,
           const Slice& value);

  /// Point lookup at snapshot `seq`: returns true if the key's state is
  /// determined by this memtable — `*found_value` on kTypeValue, NotFound
  /// status via `*is_deleted` on tombstone.
  bool Get(const Slice& user_key, SequenceNumber seq, std::string* found_value,
           bool* is_deleted) const;

  size_t ApproximateMemoryUsage() const { return arena_.MemoryUsage(); }
  uint64_t num_entries() const { return num_entries_; }

  /// Ordered iteration over encoded entries (flush to SST).
  class Iterator {
   public:
    explicit Iterator(const MemTable* mem) : iter_(&mem->table_) {}
    bool Valid() const { return iter_.Valid(); }
    void SeekToFirst() { iter_.SeekToFirst(); }
    void Seek(const Slice& internal_key);
    void Next() { iter_.Next(); }
    Slice internal_key() const;
    Slice user_key() const { return ExtractUserKey(internal_key()); }
    Slice value() const;

   private:
    friend class MemTable;
    SkipList<const char*, MemTableKeyComparator>::Iterator iter_;
    mutable std::string seek_scratch_;
  };

 private:
  friend class Iterator;

  Arena arena_;
  SkipList<const char*, MemTableKeyComparator> table_;
  uint64_t num_entries_ = 0;
};

}  // namespace lsm
}  // namespace tierbase

#endif  // TIERBASE_LSM_MEMTABLE_H_
