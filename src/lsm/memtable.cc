#include "lsm/memtable.h"

#include <cstring>

#include "common/coding.h"

namespace tierbase {
namespace lsm {

namespace {

/// Decodes the length-prefixed internal key of an encoded entry.
Slice GetLengthPrefixed(const char* data) {
  uint32_t len = 0;
  const char* p = GetVarint32Ptr(data, data + 5, &len);
  return Slice(p, len);
}

}  // namespace

int MemTableKeyComparator::operator()(const char* a, const char* b) const {
  Slice ka = GetLengthPrefixed(a);
  Slice kb = GetLengthPrefixed(b);
  return InternalKeyComparator()(ka, kb);
}

void MemTable::Add(SequenceNumber seq, ValueType type, const Slice& user_key,
                   const Slice& value) {
  const size_t ikey_size = user_key.size() + 8;
  const size_t encoded_len = VarintLength(ikey_size) + ikey_size +
                             VarintLength(value.size()) + value.size();
  // Encode straight into the arena block (LevelDB's MemTable::Add):
  // varint32(ikey_size) | user_key | fixed64(seq, type) | varint32(vlen) |
  // value.
  char* buf = arena_.Allocate(encoded_len);
  char* p = EncodeVarint32(buf, static_cast<uint32_t>(ikey_size));
  memcpy(p, user_key.data(), user_key.size());
  p += user_key.size();
  EncodeFixed64(p, PackSequenceAndType(seq, type));
  p += 8;
  p = EncodeVarint32(p, static_cast<uint32_t>(value.size()));
  memcpy(p, value.data(), value.size());
  table_.Insert(buf);
  ++num_entries_;
}

bool MemTable::Get(const Slice& user_key, SequenceNumber seq,
                   std::string* found_value, bool* is_deleted) const {
  // Seek to the first entry with this user key at or below `seq`.
  std::string seek_key;
  PutVarint32(&seek_key, static_cast<uint32_t>(user_key.size() + 8));
  AppendInternalKey(&seek_key, user_key, seq, kValueTypeForSeek);

  SkipList<const char*, MemTableKeyComparator>::Iterator iter(&table_);
  iter.Seek(seek_key.data());
  if (!iter.Valid()) return false;

  Slice ikey = GetLengthPrefixed(iter.key());
  if (ExtractUserKey(ikey) != user_key) return false;

  if (ExtractValueType(ikey) == kTypeDeletion) {
    *is_deleted = true;
    return true;
  }
  *is_deleted = false;
  // Value follows the internal key.
  const char* p = iter.key();
  uint32_t klen = 0;
  p = GetVarint32Ptr(p, p + 5, &klen);
  p += klen;
  uint32_t vlen = 0;
  p = GetVarint32Ptr(p, p + 5, &vlen);
  found_value->assign(p, vlen);
  return true;
}

void MemTable::Iterator::Seek(const Slice& internal_key) {
  seek_scratch_.clear();
  PutVarint32(&seek_scratch_, static_cast<uint32_t>(internal_key.size()));
  seek_scratch_.append(internal_key.data(), internal_key.size());
  iter_.Seek(seek_scratch_.data());
}

Slice MemTable::Iterator::internal_key() const {
  return GetLengthPrefixed(iter_.key());
}

Slice MemTable::Iterator::value() const {
  const char* p = iter_.key();
  uint32_t klen = 0;
  p = GetVarint32Ptr(p, p + 5, &klen);
  p += klen;
  uint32_t vlen = 0;
  p = GetVarint32Ptr(p, p + 5, &vlen);
  return Slice(p, vlen);
}

}  // namespace lsm
}  // namespace tierbase
