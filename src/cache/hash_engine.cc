#include "cache/hash_engine.h"

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <new>

#include "analytics/workload_analytics.h"
#include "common/hash.h"
#include "common/mutex.h"

namespace tierbase {
namespace cache {

namespace {
constexpr size_t kEntryOverhead = 64;  // Hash node + LRU links + bookkeeping.
// A PMem-resident value's payload: its PmemPtr, then its uint32_t size.
constexpr size_t kPmemHandleBytes = sizeof(PmemPtr) + sizeof(uint32_t);
constexpr size_t kPerElementOverhead = 32;
// Initial bucket reservation for hash/zset entries: covers the common
// small-collection case without rehashing on the first few inserts.
constexpr size_t kComplexReserve = 8;

// Entry nodes keep key and payload lengths in 32 bits.
bool FitsEntry(const Slice& s) {
  return s.size() <= std::numeric_limits<uint32_t>::max();
}

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

// --- Entry nodes. ---

size_t HashEngine::Entry::AllocSize(size_t key_len, size_t payload_len) {
  return offsetof(Entry, data) + key_len + payload_len;
}

HashEngine::ComplexValue* HashEngine::Entry::complex() const {
  ComplexValue* c = nullptr;
  std::memcpy(&c, payload(), sizeof(c));
  return c;
}

void HashEngine::Entry::GetPmem(PmemPtr* ptr, uint32_t* size) const {
  std::memcpy(ptr, payload(), sizeof(*ptr));
  std::memcpy(size, payload() + sizeof(*ptr), sizeof(*size));
}

HashEngine::Entry* HashEngine::NewEntryLocked(Shard& shard, const Slice& key,
                                              ValueKind kind,
                                              size_t payload_len) {
  // The budget charges kEntryOverhead per node; the header must fit in it.
  static_assert(sizeof(Entry) <= kEntryOverhead, "Entry header too large");
  // Three links, two lengths, kind and flags: nothing else in the header.
  static_assert(offsetof(Entry, data) <= 34, "Entry header grew");
  // realloc(nullptr, n) is malloc(n).
  void* block =
      std::realloc(shard.spare, Entry::AllocSize(key.size(), payload_len));
  if (block == nullptr) throw std::bad_alloc();
  shard.spare = nullptr;
  Entry* e = new (block) Entry;
  e->next_hash = e->lru_prev = e->lru_next = nullptr;
  e->key_len = static_cast<uint32_t>(key.size());
  e->payload_len = static_cast<uint32_t>(payload_len);
  e->kind = kind;
  e->flags = 0;
  std::memcpy(e->data, key.data(), key.size());
  return e;
}

void HashEngine::FreeEntryLocked(Shard& shard, Entry* e) {
  if (e->kind != ValueKind::kString) delete e->complex();
  if (shard.spare == nullptr) {
    shard.spare = e;
  } else {
    std::free(e);
  }
}

HashEngine::Entry* HashEngine::ResizeLocked(Shard& shard, Entry* e,
                                            uint64_t hash,
                                            size_t payload_len) {
  // The slot and the LRU neighbours live outside this block, so they stay
  // valid across the realloc and can be repointed at the new address. The
  // expiry-map node is taken out while the old address is still valid and
  // put back under the new one (no allocation either way).
  Entry** slot = shard.table.FindPointer(e->key(), hash);
  ExpiryMap::node_type expiry;
  if ((e->flags & Entry::kHasExpiry) != 0) expiry = shard.expiry.extract(e);
  Entry* moved = static_cast<Entry*>(
      std::realloc(e, Entry::AllocSize(e->key_len, payload_len)));
  if (moved == nullptr) {
    if (!expiry.empty()) shard.expiry.insert(std::move(expiry));
    throw std::bad_alloc();
  }
  if (!expiry.empty()) {
    expiry.key() = moved;
    shard.expiry.insert(std::move(expiry));
  }
  moved->payload_len = static_cast<uint32_t>(payload_len);
  if (moved != e) {
    *slot = moved;
    (moved->lru_prev != nullptr ? moved->lru_prev->lru_next
                                : shard.lru_head) = moved;
    (moved->lru_next != nullptr ? moved->lru_next->lru_prev
                                : shard.lru_tail) = moved;
  }
  return moved;
}

// --- Intrusive chained hash table. ---

void HashEngine::Table::Insert(Entry* e, uint64_t hash) {
  Entry** ptr = &buckets[hash & (buckets.size() - 1)];
  e->next_hash = *ptr;
  *ptr = e;
  if (++size > buckets.size()) Grow();
}

HashEngine::Entry* HashEngine::Table::Remove(const Slice& key,
                                             uint64_t hash) {
  Entry** ptr = FindPointer(key, hash);
  Entry* e = *ptr;
  if (e != nullptr) {
    *ptr = e->next_hash;
    e->next_hash = nullptr;
    --size;
  }
  return e;
}

void HashEngine::Table::Grow() {
  std::vector<Entry*> grown(buckets.size() * 2, nullptr);
  const size_t mask = grown.size() - 1;
  for (Entry* e : buckets) {
    while (e != nullptr) {
      Entry* next = e->next_hash;
      Entry** dst = &grown[Hash64(e->key()) & mask];
      e->next_hash = *dst;
      *dst = e;
      e = next;
    }
  }
  buckets.swap(grown);
}

// --- Intrusive LRU list. ---

void HashEngine::LruPushFront(Shard& shard, Entry* e) {
  e->lru_prev = nullptr;
  e->lru_next = shard.lru_head;
  if (shard.lru_head != nullptr) shard.lru_head->lru_prev = e;
  shard.lru_head = e;
  if (shard.lru_tail == nullptr) shard.lru_tail = e;
}

void HashEngine::LruUnlink(Shard& shard, Entry* e) {
  if (e->lru_prev != nullptr) e->lru_prev->lru_next = e->lru_next;
  else shard.lru_head = e->lru_next;
  if (e->lru_next != nullptr) e->lru_next->lru_prev = e->lru_prev;
  else shard.lru_tail = e->lru_prev;
  e->lru_prev = e->lru_next = nullptr;
}

// --- Engine. ---

HashEngine::HashEngine(HashEngineOptions options)
    : options_(std::move(options)) {
  size_t shards =
      RoundUpPow2(static_cast<size_t>(std::max(1, options_.shards)));
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  shard_shift_ = 64;
  for (size_t s = shards; s > 1; s >>= 1) --shard_shift_;
  per_shard_budget_ =
      options_.memory_budget == 0 ? 0 : options_.memory_budget / shards;
}

HashEngine::~HashEngine() { Clear(); }

uint64_t HashEngine::ExpireAtLocked(const Shard& shard, const Entry& e) {
  if ((e.flags & Entry::kHasExpiry) == 0) return 0;
  return shard.expiry.find(&e)->second;
}

void HashEngine::SetExpiryLocked(Shard& shard, Entry* e, uint64_t expire_at) {
  if (expire_at != 0) {
    shard.expiry[e] = expire_at;
    e->flags |= Entry::kHasExpiry;
  } else if ((e->flags & Entry::kHasExpiry) != 0) {
    shard.expiry.erase(e);
    e->flags &= static_cast<uint8_t>(~Entry::kHasExpiry);
  }
}

bool HashEngine::IsExpiredLocked(const Shard& shard, const Entry& e) const {
  const uint64_t expire_at = ExpireAtLocked(shard, e);
  return expire_at != 0 && options_.clock->NowMicros() >= expire_at;
}

size_t HashEngine::EntryCharge(const Entry& e) {
  // A PMem handle or a ComplexValue pointer is not charged; the complex
  // value's contents are.
  size_t charge = kEntryOverhead + e.key_len;
  if (e.kind != ValueKind::kString) {
    charge += e.complex()->MemoryBytes();
  } else if ((e.flags & Entry::kInPmem) == 0) {
    charge += e.payload_len;
  }
  return charge;
}

void HashEngine::FreePmemLocked(Entry* e) {
  if ((e->flags & Entry::kInPmem) == 0) return;
  PmemPtr ptr = kInvalidPmemPtr;
  uint32_t size = 0;
  e->GetPmem(&ptr, &size);
  options_.pmem->Free(ptr, size);
  pmem_bytes_.fetch_sub(size, std::memory_order_relaxed);
  e->flags &= static_cast<uint8_t>(~Entry::kInPmem);
}

void HashEngine::RemoveEntryLocked(Shard& shard, Entry* e, uint64_t hash) {
  // The charge first: freeing the PMem value clears kInPmem.
  shard.charged -= EntryCharge(*e);
  FreePmemLocked(e);
  SetExpiryLocked(shard, e, 0);
  LruUnlink(shard, e);
  shard.table.Remove(e->key(), hash);
  FreeEntryLocked(shard, e);
}

void HashEngine::TouchLocked(Shard& shard, Entry* e) {
  // No budget → no eviction → recency order is irrelevant; skip the
  // reordering so reads mutate nothing.
  if (per_shard_budget_ == 0) return;
  if (shard.lru_head == e) return;
  LruUnlink(shard, e);
  LruPushFront(shard, e);
  ++shard.lru_touches;
}

Status HashEngine::EvictLocked(Shard& shard, size_t needed,
                               const Entry* protect) {
  if (per_shard_budget_ == 0) return Status::OK();
  if (options_.eviction == EvictionPolicy::kNoEviction) {
    if (shard.charged + needed > per_shard_budget_) {
      return Status::OutOfSpace("cache: memory budget exceeded");
    }
    return Status::OK();
  }

  std::shared_ptr<const EvictionFilter> filter =
      std::atomic_load_explicit(&eviction_filter_,
                                std::memory_order_acquire);

  // March from the LRU tail, skipping pinned entries. Removing a node
  // leaves its neighbours' links intact, so the walk continues from the
  // saved predecessor without restarting.
  Entry* e = shard.lru_tail;
  while (shard.charged + needed > per_shard_budget_ && e != nullptr) {
    Entry* prev = e->lru_prev;
    if (e != protect) {
      if (filter == nullptr || (*filter)(e->key())) {
        RemoveEntryLocked(shard, e, Hash64(e->key()));
        evictions_.fetch_add(1, std::memory_order_relaxed);
      } else {
        ++shard.pinned_skips;
      }
    }
    e = prev;
  }
  if (shard.charged + needed > per_shard_budget_) {
    return Status::OutOfSpace("cache: all remaining entries pinned");
  }
  return Status::OK();
}

Status HashEngine::ChargeLocked(Shard& shard, Entry* e, uint64_t hash,
                                size_t old_charge) {
  const size_t new_charge = EntryCharge(*e);
  Status s;
  if (new_charge > old_charge) {
    // Never evict the entry being charged: eviction would free the node
    // out from under us.
    s = EvictLocked(shard, new_charge - old_charge, e);
  }
  shard.charged = shard.charged - old_charge + new_charge;
  if (!s.ok()) {
    // The caller already mutated the entry to its new (unaffordable)
    // size. Keeping it would serve the new value over the budget — drop
    // the entry instead, like an eviction. Under tiered policies the value
    // survives in storage or the write-back dirty buffer.
    RemoveEntryLocked(shard, e, hash);
  }
  return s;
}

HashEngine::Entry* HashEngine::LookupLocked(Shard& shard, const Slice& key,
                                            uint64_t hash) {
  Entry* e = shard.table.Find(key, hash);
  if (e != nullptr && IsExpiredLocked(shard, *e)) {
    expirations_.fetch_add(1, std::memory_order_relaxed);
    RemoveEntryLocked(shard, e, hash);
    e = nullptr;
  }
  return e;
}

Status HashEngine::FindLocked(Shard& shard, const Slice& key, uint64_t hash,
                              ValueKind kind, bool create, Entry** out) {
  Entry* e = LookupLocked(shard, key, hash);
  if (e == nullptr) {
    if (!create) return Status::NotFound("");
    if (!FitsEntry(key)) return Status::InvalidArgument("cache: key too large");
    TIERBASE_RETURN_IF_ERROR(EvictLocked(shard, kEntryOverhead + key.size()));
    auto complex = std::make_unique<ComplexValue>();
    if (kind == ValueKind::kHash) complex->hash.reserve(kComplexReserve);
    if (kind == ValueKind::kZSet) complex->zscores.reserve(kComplexReserve);
    e = NewEntryLocked(shard, key, kind, sizeof(ComplexValue*));
    ComplexValue* raw = complex.release();
    std::memcpy(e->payload(), &raw, sizeof(raw));
    shard.table.Insert(e, hash);
    LruPushFront(shard, e);
    shard.charged += EntryCharge(*e);
    *out = e;
    return Status::OK();
  }
  if (e->kind != kind) {
    return Status::InvalidArgument("cache: wrong value type for key");
  }
  TouchLocked(shard, e);
  *out = e;
  return Status::OK();
}

Status HashEngine::LoadStringLocked(const Entry& e, std::string* out) const {
  if ((e.flags & (Entry::kCompressed | Entry::kInPmem)) == 0) {
    // Hot path: DRAM-resident uncompressed value, copy straight out.
    out->assign(e.payload(), e.payload_len);
    return Status::OK();
  }
  std::string fetched;
  Slice stored = e.value();
  if ((e.flags & Entry::kInPmem) != 0) {
    PmemPtr ptr = kInvalidPmemPtr;
    uint32_t size = 0;
    e.GetPmem(&ptr, &size);
    TIERBASE_RETURN_IF_ERROR(options_.pmem->Load(ptr, size, &fetched));
    stored = fetched;
  }
  if ((e.flags & Entry::kCompressed) != 0) {
    return options_.compressor->Decompress(stored, out);
  }
  out->assign(stored.data(), stored.size());
  return Status::OK();
}

Status HashEngine::StoreStringLocked(Shard& shard, const Slice& key,
                                     uint64_t hash, Entry** e,
                                     const Slice& value) {
  if (!FitsEntry(key) || !FitsEntry(value)) {
    return Status::InvalidArgument("cache: key or value too large");
  }
  // The bare node's charge for a new key, which the budget charges before
  // the value (so that evicted PMem values free space for this one).
  size_t old_charge = kEntryOverhead + key.size();
  if (*e == nullptr) {
    TIERBASE_RETURN_IF_ERROR(EvictLocked(shard, old_charge));
  } else {
    old_charge = EntryCharge(**e);
    FreePmemLocked(*e);  // Any previous PMem residency.
  }

  uint8_t flags = 0;
  Slice stored = value;
  std::string packed;
  if (options_.compressor != nullptr &&
      value.size() >= options_.compress_min_bytes) {
    Status s = options_.compressor->Compress(value, &packed);
    if (s.ok() && packed.size() < value.size()) {
      stored = packed;
      flags |= Entry::kCompressed;
    }
  }

  // PMem placement: larger values go to the persistent-memory device;
  // small hot data and all key/index structures stay in DRAM (§4.3).
  char handle[kPmemHandleBytes] = {};
  if (options_.pmem != nullptr &&
      stored.size() >= options_.pmem_value_threshold) {
    PmemPtr ptr = options_.pmem->Store(stored);
    if (ptr != kInvalidPmemPtr) {
      const uint32_t size = static_cast<uint32_t>(stored.size());
      std::memcpy(handle, &ptr, sizeof(ptr));
      std::memcpy(handle + sizeof(ptr), &size, sizeof(size));
      pmem_bytes_.fetch_add(size, std::memory_order_relaxed);
      stored = Slice(handle, sizeof(handle));
      flags |= Entry::kInPmem;
    }
    // PMem full: the value stays in DRAM.
  }

  Entry* node = *e;
  if (node == nullptr) {
    node = NewEntryLocked(shard, key, ValueKind::kString, stored.size());
    shard.table.Insert(node, hash);
    LruPushFront(shard, node);
    shard.charged += old_charge;
  } else if (node->payload_len != stored.size()) {
    node = ResizeLocked(shard, node, hash, stored.size());
  }
  node->flags =
      static_cast<uint8_t>((node->flags & Entry::kHasExpiry) | flags);
  std::memcpy(node->payload(), stored.data(), stored.size());
  *e = node;
  Status s = ChargeLocked(shard, node, hash, old_charge);
  if (!s.ok()) *e = nullptr;
  return s;
}

// --- Strings. ---

Status HashEngine::SetLocked(Shard& shard, const Slice& key, uint64_t hash,
                             const Slice& value, uint64_t ttl_micros) {
  Entry* e = LookupLocked(shard, key, hash);
  if (e != nullptr && e->kind != ValueKind::kString) {
    // Overwrite a complex-typed key, Redis SET semantics.
    RemoveEntryLocked(shard, e, hash);
    e = nullptr;
  }
  if (e != nullptr) TouchLocked(shard, e);
  TIERBASE_RETURN_IF_ERROR(StoreStringLocked(shard, key, hash, &e, value));
  SetExpiryLocked(shard, e,
                  ttl_micros == 0 ? 0
                                  : options_.clock->NowMicros() + ttl_micros);
  return Status::OK();
}

Status HashEngine::GetLocked(Shard& shard, const Slice& key, uint64_t hash,
                             std::string* value) {
  Entry* e = nullptr;
  TIERBASE_RETURN_IF_ERROR(
      FindLocked(shard, key, hash, ValueKind::kString, false, &e));
  return LoadStringLocked(*e, value);
}

Status HashEngine::Set(const Slice& key, const Slice& value) {
  return SetEx(key, value, 0);
}

Status HashEngine::SetEx(const Slice& key, const Slice& value,
                         uint64_t ttl_micros) {
  const uint64_t hash = Hash64(key);
  if (options_.analytics != nullptr) {
    options_.analytics->RecordWrite(key, hash, value.size(), ttl_micros);
  }
  Shard& shard = ShardFor(hash);
  common::MutexLock lock(&shard.mu);
  return SetLocked(shard, key, hash, value, ttl_micros);
}

Status HashEngine::Get(const Slice& key, std::string* value) {
  const uint64_t hash = Hash64(key);
  if (options_.analytics != nullptr) options_.analytics->RecordRead(key, hash);
  Shard& shard = ShardFor(hash);
  common::MutexLock lock(&shard.mu);
  return GetLocked(shard, key, hash, value);
}

Status HashEngine::Delete(const Slice& key) {
  const uint64_t hash = Hash64(key);
  Shard& shard = ShardFor(hash);
  common::MutexLock lock(&shard.mu);
  Entry* e = shard.table.Find(key, hash);
  if (e == nullptr) return Status::NotFound("");
  const bool expired = IsExpiredLocked(shard, *e);
  if (expired) expirations_.fetch_add(1, std::memory_order_relaxed);
  RemoveEntryLocked(shard, e, hash);
  return expired ? Status::NotFound("") : Status::OK();
}

void HashEngine::GroupByShard(const std::vector<Slice>& keys,
                              std::vector<uint64_t>* hashes,
                              std::vector<uint32_t>* order,
                              std::vector<uint32_t>* shard_begin) const {
  const size_t n = keys.size();
  const size_t num_shards = shards_.size();
  hashes->resize(n);
  shard_begin->assign(num_shards + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    (*hashes)[i] = Hash64(keys[i]);
    ++(*shard_begin)[ShardIndex((*hashes)[i]) + 1];
  }
  for (size_t s = 0; s < num_shards; ++s) {
    (*shard_begin)[s + 1] += (*shard_begin)[s];
  }
  // Counting sort of indices into shard-contiguous order.
  std::vector<uint32_t> cursor(shard_begin->begin(), shard_begin->end() - 1);
  order->resize(n);
  for (size_t i = 0; i < n; ++i) {
    (*order)[cursor[ShardIndex((*hashes)[i])]++] = static_cast<uint32_t>(i);
  }
}

void HashEngine::MultiGet(const std::vector<Slice>& keys,
                          std::vector<std::string>* values,
                          std::vector<Status>* statuses) {
  values->assign(keys.size(), std::string());
  statuses->assign(keys.size(), Status::OK());
  if (keys.empty()) return;
  multi_batches_.fetch_add(1, std::memory_order_relaxed);

  std::vector<uint64_t> hashes;
  std::vector<uint32_t> order, shard_begin;
  GroupByShard(keys, &hashes, &order, &shard_begin);
  if (options_.analytics != nullptr) {
    for (size_t i = 0; i < keys.size(); ++i) {
      options_.analytics->RecordRead(keys[i], hashes[i]);
    }
  }

  for (size_t s = 0; s < shards_.size(); ++s) {
    if (shard_begin[s] == shard_begin[s + 1]) continue;
    Shard& shard = *shards_[s];
    common::MutexLock lock(&shard.mu);
    multi_shard_locks_.fetch_add(1, std::memory_order_relaxed);
    for (uint32_t pos = shard_begin[s]; pos < shard_begin[s + 1]; ++pos) {
      const uint32_t i = order[pos];
      (*statuses)[i] =
          GetLocked(shard, keys[i], hashes[i], &(*values)[i]);
    }
  }
}

void HashEngine::MultiSet(const std::vector<Slice>& keys,
                          const std::vector<Slice>& values,
                          std::vector<Status>* statuses) {
  statuses->assign(keys.size(), Status::OK());
  if (keys.empty()) return;
  multi_batches_.fetch_add(1, std::memory_order_relaxed);

  std::vector<uint64_t> hashes;
  std::vector<uint32_t> order, shard_begin;
  GroupByShard(keys, &hashes, &order, &shard_begin);
  if (options_.analytics != nullptr) {
    for (size_t i = 0; i < keys.size(); ++i) {
      options_.analytics->RecordWrite(keys[i], hashes[i], values[i].size(),
                                      0);
    }
  }

  for (size_t s = 0; s < shards_.size(); ++s) {
    if (shard_begin[s] == shard_begin[s + 1]) continue;
    Shard& shard = *shards_[s];
    common::MutexLock lock(&shard.mu);
    multi_shard_locks_.fetch_add(1, std::memory_order_relaxed);
    for (uint32_t pos = shard_begin[s]; pos < shard_begin[s + 1]; ++pos) {
      const uint32_t i = order[pos];
      (*statuses)[i] = SetLocked(shard, keys[i], hashes[i], values[i], 0);
    }
  }
}

Status HashEngine::Cas(const Slice& key, const Slice& expected,
                       const Slice& value, bool allow_create) {
  const uint64_t hash = Hash64(key);
  Shard& shard = ShardFor(hash);
  common::MutexLock lock(&shard.mu);
  Entry* e = nullptr;
  Status s = FindLocked(shard, key, hash, ValueKind::kString, false, &e);
  if (s.IsNotFound()) {
    if (!(allow_create && expected.empty())) {
      return Status::Aborted("cas: key missing");
    }
    return StoreStringLocked(shard, key, hash, &e, value);
  }
  TIERBASE_RETURN_IF_ERROR(s);
  std::string current;
  TIERBASE_RETURN_IF_ERROR(LoadStringLocked(*e, &current));
  if (Slice(current) != expected) {
    return Status::Aborted("cas: value mismatch");
  }
  return StoreStringLocked(shard, key, hash, &e, value);
}

bool HashEngine::Exists(const Slice& key) {
  const uint64_t hash = Hash64(key);
  Shard& shard = ShardFor(hash);
  common::MutexLock lock(&shard.mu);
  Entry* e = shard.table.Find(key, hash);
  if (e == nullptr) return false;
  if (IsExpiredLocked(shard, *e)) {
    expirations_.fetch_add(1, std::memory_order_relaxed);
    RemoveEntryLocked(shard, e, hash);
    return false;
  }
  return true;
}

// --- TTL. ---

Status HashEngine::Expire(const Slice& key, uint64_t ttl_micros) {
  const uint64_t hash = Hash64(key);
  Shard& shard = ShardFor(hash);
  common::MutexLock lock(&shard.mu);
  Entry* e = shard.table.Find(key, hash);
  if (e == nullptr || IsExpiredLocked(shard, *e)) {
    return Status::NotFound("");
  }
  SetExpiryLocked(shard, e,
                  ttl_micros == 0 ? 0
                                  : options_.clock->NowMicros() + ttl_micros);
  return Status::OK();
}

Result<uint64_t> HashEngine::Ttl(const Slice& key) {
  const uint64_t hash = Hash64(key);
  Shard& shard = ShardFor(hash);
  common::MutexLock lock(&shard.mu);
  Entry* e = shard.table.Find(key, hash);
  if (e == nullptr) return Status::NotFound("");
  const uint64_t expire_at = ExpireAtLocked(shard, *e);
  if (expire_at == 0) return uint64_t{0};
  // One clock read decides both expiry and the remainder. A remainder of
  // 0 would read as "no expiry", so the deadline itself counts as expired.
  const uint64_t now = options_.clock->NowMicros();
  if (now >= expire_at) return Status::NotFound("");
  return expire_at - now;
}

// --- Lists. ---

Status HashEngine::LPush(const Slice& key, const Slice& value) {
  const uint64_t hash = Hash64(key);
  Shard& shard = ShardFor(hash);
  common::MutexLock lock(&shard.mu);
  Entry* e = nullptr;
  TIERBASE_RETURN_IF_ERROR(
      FindLocked(shard, key, hash, ValueKind::kList, true, &e));
  const size_t old_charge = EntryCharge(*e);
  e->complex()->list.emplace_front(value.data(), value.size());
  e->complex()->bytes += value.size() + kPerElementOverhead;
  return ChargeLocked(shard, e, hash, old_charge);
}

Status HashEngine::RPush(const Slice& key, const Slice& value) {
  const uint64_t hash = Hash64(key);
  Shard& shard = ShardFor(hash);
  common::MutexLock lock(&shard.mu);
  Entry* e = nullptr;
  TIERBASE_RETURN_IF_ERROR(
      FindLocked(shard, key, hash, ValueKind::kList, true, &e));
  const size_t old_charge = EntryCharge(*e);
  e->complex()->list.emplace_back(value.data(), value.size());
  e->complex()->bytes += value.size() + kPerElementOverhead;
  return ChargeLocked(shard, e, hash, old_charge);
}

Status HashEngine::LPop(const Slice& key, std::string* value) {
  const uint64_t hash = Hash64(key);
  Shard& shard = ShardFor(hash);
  common::MutexLock lock(&shard.mu);
  Entry* e = nullptr;
  TIERBASE_RETURN_IF_ERROR(
      FindLocked(shard, key, hash, ValueKind::kList, false, &e));
  const size_t old_charge = EntryCharge(*e);
  if (e->complex()->list.empty()) return Status::NotFound("empty list");
  *value = std::move(e->complex()->list.front());
  e->complex()->list.pop_front();
  e->complex()->bytes -= value->size() + kPerElementOverhead;
  return ChargeLocked(shard, e, hash, old_charge);
}

Status HashEngine::RPop(const Slice& key, std::string* value) {
  const uint64_t hash = Hash64(key);
  Shard& shard = ShardFor(hash);
  common::MutexLock lock(&shard.mu);
  Entry* e = nullptr;
  TIERBASE_RETURN_IF_ERROR(
      FindLocked(shard, key, hash, ValueKind::kList, false, &e));
  const size_t old_charge = EntryCharge(*e);
  if (e->complex()->list.empty()) return Status::NotFound("empty list");
  *value = std::move(e->complex()->list.back());
  e->complex()->list.pop_back();
  e->complex()->bytes -= value->size() + kPerElementOverhead;
  return ChargeLocked(shard, e, hash, old_charge);
}

Result<uint64_t> HashEngine::LLen(const Slice& key) {
  const uint64_t hash = Hash64(key);
  Shard& shard = ShardFor(hash);
  common::MutexLock lock(&shard.mu);
  Entry* e = nullptr;
  Status s = FindLocked(shard, key, hash, ValueKind::kList, false, &e);
  if (s.IsNotFound()) return uint64_t{0};
  if (!s.ok()) return s;
  return static_cast<uint64_t>(e->complex()->list.size());
}

Status HashEngine::LRange(const Slice& key, int64_t start, int64_t stop,
                          std::vector<std::string>* out) {
  out->clear();
  const uint64_t hash = Hash64(key);
  Shard& shard = ShardFor(hash);
  common::MutexLock lock(&shard.mu);
  Entry* e = nullptr;
  Status s = FindLocked(shard, key, hash, ValueKind::kList, false, &e);
  if (s.IsNotFound()) return Status::OK();
  TIERBASE_RETURN_IF_ERROR(s);
  int64_t n = static_cast<int64_t>(e->complex()->list.size());
  if (start < 0) start += n;
  if (stop < 0) stop += n;
  start = std::max<int64_t>(0, start);
  stop = std::min(stop, n - 1);
  for (int64_t i = start; i <= stop; ++i) {
    out->push_back(e->complex()->list[static_cast<size_t>(i)]);
  }
  return Status::OK();
}

// --- Hashes. ---

Status HashEngine::HSet(const Slice& key, const Slice& field,
                        const Slice& value) {
  const uint64_t hash = Hash64(key);
  Shard& shard = ShardFor(hash);
  common::MutexLock lock(&shard.mu);
  Entry* e = nullptr;
  TIERBASE_RETURN_IF_ERROR(
      FindLocked(shard, key, hash, ValueKind::kHash, true, &e));
  const size_t old_charge = EntryCharge(*e);
  auto [it, inserted] =
      e->complex()->hash.try_emplace(field.ToString(), std::string());
  if (inserted) {
    e->complex()->bytes += field.size() + value.size() + kPerElementOverhead;
  } else {
    e->complex()->bytes += value.size();
    e->complex()->bytes -= it->second.size();
  }
  it->second.assign(value.data(), value.size());
  return ChargeLocked(shard, e, hash, old_charge);
}

Status HashEngine::HGet(const Slice& key, const Slice& field,
                        std::string* value) {
  const uint64_t hash = Hash64(key);
  Shard& shard = ShardFor(hash);
  common::MutexLock lock(&shard.mu);
  Entry* e = nullptr;
  TIERBASE_RETURN_IF_ERROR(
      FindLocked(shard, key, hash, ValueKind::kHash, false, &e));
  auto it = e->complex()->hash.find(field.ToString());
  if (it == e->complex()->hash.end()) return Status::NotFound("no field");
  *value = it->second;
  return Status::OK();
}

Status HashEngine::HDel(const Slice& key, const Slice& field) {
  const uint64_t hash = Hash64(key);
  Shard& shard = ShardFor(hash);
  common::MutexLock lock(&shard.mu);
  Entry* e = nullptr;
  TIERBASE_RETURN_IF_ERROR(
      FindLocked(shard, key, hash, ValueKind::kHash, false, &e));
  const size_t old_charge = EntryCharge(*e);
  auto it = e->complex()->hash.find(field.ToString());
  if (it == e->complex()->hash.end()) return Status::NotFound("no field");
  e->complex()->bytes -=
      field.size() + it->second.size() + kPerElementOverhead;
  e->complex()->hash.erase(it);
  return ChargeLocked(shard, e, hash, old_charge);
}

Result<uint64_t> HashEngine::HLen(const Slice& key) {
  const uint64_t hash = Hash64(key);
  Shard& shard = ShardFor(hash);
  common::MutexLock lock(&shard.mu);
  Entry* e = nullptr;
  Status s = FindLocked(shard, key, hash, ValueKind::kHash, false, &e);
  if (s.IsNotFound()) return uint64_t{0};
  if (!s.ok()) return s;
  return static_cast<uint64_t>(e->complex()->hash.size());
}

Status HashEngine::HGetAll(
    const Slice& key, std::vector<std::pair<std::string, std::string>>* out) {
  out->clear();
  const uint64_t hash = Hash64(key);
  Shard& shard = ShardFor(hash);
  common::MutexLock lock(&shard.mu);
  Entry* e = nullptr;
  Status s = FindLocked(shard, key, hash, ValueKind::kHash, false, &e);
  if (s.IsNotFound()) return Status::OK();
  TIERBASE_RETURN_IF_ERROR(s);
  for (const auto& [f, v] : e->complex()->hash) out->emplace_back(f, v);
  return Status::OK();
}

// --- Sets. ---

Status HashEngine::SAdd(const Slice& key, const Slice& member) {
  const uint64_t hash = Hash64(key);
  Shard& shard = ShardFor(hash);
  common::MutexLock lock(&shard.mu);
  Entry* e = nullptr;
  TIERBASE_RETURN_IF_ERROR(
      FindLocked(shard, key, hash, ValueKind::kSet, true, &e));
  const size_t old_charge = EntryCharge(*e);
  if (e->complex()->set.insert(member.ToString()).second) {
    e->complex()->bytes += member.size() + kPerElementOverhead;
  }
  return ChargeLocked(shard, e, hash, old_charge);
}

Status HashEngine::SRem(const Slice& key, const Slice& member) {
  const uint64_t hash = Hash64(key);
  Shard& shard = ShardFor(hash);
  common::MutexLock lock(&shard.mu);
  Entry* e = nullptr;
  TIERBASE_RETURN_IF_ERROR(
      FindLocked(shard, key, hash, ValueKind::kSet, false, &e));
  const size_t old_charge = EntryCharge(*e);
  if (e->complex()->set.erase(member.ToString()) == 0) {
    return Status::NotFound("no member");
  }
  e->complex()->bytes -= member.size() + kPerElementOverhead;
  return ChargeLocked(shard, e, hash, old_charge);
}

Result<bool> HashEngine::SIsMember(const Slice& key, const Slice& member) {
  const uint64_t hash = Hash64(key);
  Shard& shard = ShardFor(hash);
  common::MutexLock lock(&shard.mu);
  Entry* e = nullptr;
  Status s = FindLocked(shard, key, hash, ValueKind::kSet, false, &e);
  if (s.IsNotFound()) return false;
  if (!s.ok()) return s;
  return e->complex()->set.count(member.ToString()) > 0;
}

Result<uint64_t> HashEngine::SCard(const Slice& key) {
  const uint64_t hash = Hash64(key);
  Shard& shard = ShardFor(hash);
  common::MutexLock lock(&shard.mu);
  Entry* e = nullptr;
  Status s = FindLocked(shard, key, hash, ValueKind::kSet, false, &e);
  if (s.IsNotFound()) return uint64_t{0};
  if (!s.ok()) return s;
  return static_cast<uint64_t>(e->complex()->set.size());
}

// --- Sorted sets. ---

Status HashEngine::ZAdd(const Slice& key, double score, const Slice& member) {
  const uint64_t hash = Hash64(key);
  Shard& shard = ShardFor(hash);
  common::MutexLock lock(&shard.mu);
  Entry* e = nullptr;
  TIERBASE_RETURN_IF_ERROR(
      FindLocked(shard, key, hash, ValueKind::kZSet, true, &e));
  const size_t old_charge = EntryCharge(*e);
  std::string m = member.ToString();
  auto it = e->complex()->zscores.find(m);
  if (it != e->complex()->zscores.end()) {
    e->complex()->zordered.erase({it->second, m});
    it->second = score;
  } else {
    e->complex()->zscores[m] = score;
    e->complex()->bytes +=
        2 * m.size() + 2 * kPerElementOverhead + sizeof(double) * 2;
  }
  e->complex()->zordered.insert({score, m});
  return ChargeLocked(shard, e, hash, old_charge);
}

Result<double> HashEngine::ZScore(const Slice& key, const Slice& member) {
  const uint64_t hash = Hash64(key);
  Shard& shard = ShardFor(hash);
  common::MutexLock lock(&shard.mu);
  Entry* e = nullptr;
  Status s = FindLocked(shard, key, hash, ValueKind::kZSet, false, &e);
  if (!s.ok()) return s;
  auto it = e->complex()->zscores.find(member.ToString());
  if (it == e->complex()->zscores.end()) return Status::NotFound("no member");
  return it->second;
}

Status HashEngine::ZRangeByScore(const Slice& key, double min_score,
                                 double max_score,
                                 std::vector<std::string>* out) {
  out->clear();
  const uint64_t hash = Hash64(key);
  Shard& shard = ShardFor(hash);
  common::MutexLock lock(&shard.mu);
  Entry* e = nullptr;
  Status s = FindLocked(shard, key, hash, ValueKind::kZSet, false, &e);
  if (s.IsNotFound()) return Status::OK();
  TIERBASE_RETURN_IF_ERROR(s);
  auto lo = e->complex()->zordered.lower_bound({min_score, ""});
  for (auto it = lo; it != e->complex()->zordered.end() &&
                     it->first <= max_score;
       ++it) {
    out->push_back(it->second);
  }
  return Status::OK();
}

Status HashEngine::ZRange(const Slice& key, int64_t start, int64_t stop,
                          std::vector<std::pair<std::string, double>>* out) {
  out->clear();
  const uint64_t hash = Hash64(key);
  Shard& shard = ShardFor(hash);
  common::MutexLock lock(&shard.mu);
  Entry* e = nullptr;
  Status s = FindLocked(shard, key, hash, ValueKind::kZSet, false, &e);
  if (s.IsNotFound()) return Status::OK();
  TIERBASE_RETURN_IF_ERROR(s);
  const int64_t n = static_cast<int64_t>(e->complex()->zordered.size());
  // Branch before adding to keep INT64_MIN-ish ranks from overflowing.
  if (start < 0) start = start < -n ? 0 : start + n;
  if (stop < 0) stop = stop < -n ? -1 : stop + n;
  if (stop >= n) stop = n - 1;
  if (start > stop || start >= n) return Status::OK();
  auto it = e->complex()->zordered.begin();
  std::advance(it, start);
  for (int64_t rank = start; rank <= stop; ++rank, ++it) {
    out->emplace_back(it->second, it->first);
  }
  return Status::OK();
}

Result<uint64_t> HashEngine::ZCard(const Slice& key) {
  const uint64_t hash = Hash64(key);
  Shard& shard = ShardFor(hash);
  common::MutexLock lock(&shard.mu);
  Entry* e = nullptr;
  Status s = FindLocked(shard, key, hash, ValueKind::kZSet, false, &e);
  if (s.IsNotFound()) return uint64_t{0};
  if (!s.ok()) return s;
  return static_cast<uint64_t>(e->complex()->zscores.size());
}

// --- Introspection / control. ---

UsageStats HashEngine::GetUsage() const {
  UsageStats usage;
  for (const auto& shard : shards_) {
    common::MutexLock lock(&shard->mu);
    usage.memory_bytes += shard->charged;
    usage.keys += shard->table.size;
  }
  usage.pmem_bytes = pmem_bytes_.load(std::memory_order_relaxed);
  return usage;
}

uint64_t HashEngine::lru_touches() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    common::MutexLock lock(&shard->mu);
    total += shard->lru_touches;
  }
  return total;
}

uint64_t HashEngine::eviction_pinned_skips() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    common::MutexLock lock(&shard->mu);
    total += shard->pinned_skips;
  }
  return total;
}

void HashEngine::SetEvictionFilter(EvictionFilter filter) {
  std::shared_ptr<const EvictionFilter> next =
      filter ? std::make_shared<const EvictionFilter>(std::move(filter))
             : nullptr;
  std::atomic_store_explicit(&eviction_filter_, std::move(next),
                             std::memory_order_release);
}

size_t HashEngine::SweepExpired() {
  size_t removed = 0;
  for (auto& shard : shards_) {
    common::MutexLock lock(&shard->mu);
    const uint64_t now = options_.clock->NowMicros();
    // Only nodes with a deadline are in the map. Removing one erases just
    // its own map node, so the saved successor stays valid.
    for (auto it = shard->expiry.begin(); it != shard->expiry.end();) {
      auto cur = it++;
      if (now < cur->second) continue;
      Entry* e = const_cast<Entry*>(cur->first);
      RemoveEntryLocked(*shard, e, Hash64(e->key()));
      ++removed;
      expirations_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return removed;
}

uint64_t HashEngine::Scan(uint64_t cursor, size_t count,
                          std::vector<std::string>* keys) {
  // Cursor layout: shard index in the high 16 bits, bucket index below.
  // Bucket counts can grow between calls; a rehash splits chains across
  // buckets we may already have passed, which is within the documented
  // (Redis-style) weak guarantee.
  if (count == 0) count = 10;
  size_t shard_idx = static_cast<size_t>(cursor >> 48);
  size_t bucket_idx = static_cast<size_t>(cursor & ((uint64_t{1} << 48) - 1));
  while (shard_idx < shards_.size()) {
    Shard& shard = *shards_[shard_idx];
    common::MutexLock lock(&shard.mu);
    const size_t buckets = shard.table.buckets.size();
    if (bucket_idx >= buckets) {
      ++shard_idx;
      bucket_idx = 0;
      continue;
    }
    while (bucket_idx < buckets) {
      for (Entry* e = shard.table.buckets[bucket_idx]; e != nullptr;
           e = e->next_hash) {
        if (!IsExpiredLocked(shard, *e)) {
          keys->emplace_back(e->data, e->key_len);
        }
      }
      ++bucket_idx;
      if (keys->size() >= count) {
        if (bucket_idx >= buckets) {
          ++shard_idx;
          bucket_idx = 0;
        }
        if (shard_idx >= shards_.size()) return 0;
        return (static_cast<uint64_t>(shard_idx) << 48) |
               static_cast<uint64_t>(bucket_idx);
      }
    }
    ++shard_idx;
    bucket_idx = 0;
  }
  return 0;
}

void HashEngine::Clear() {
  for (auto& shard : shards_) {
    common::MutexLock lock(&shard->mu);
    for (size_t b = 0; b < shard->table.buckets.size(); ++b) {
      Entry* e = shard->table.buckets[b];
      while (e != nullptr) {
        Entry* next = e->next_hash;
        RemoveEntryLocked(*shard, e, Hash64(e->key()));
        e = next;
      }
    }
    std::free(shard->spare);
    shard->spare = nullptr;
  }
}

}  // namespace cache
}  // namespace tierbase
