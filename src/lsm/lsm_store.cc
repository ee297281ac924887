#include "lsm/lsm_store.h"

#include <algorithm>
#include <cstdint>
#include <queue>

#include "common/env.h"
#include "common/logging.h"

namespace tierbase {
namespace lsm {

namespace {

// Parses a WAL file name, "<digits>.wal", into *number. Any other name,
// or a number past uint64_t, is not a WAL and is left alone (LevelDB's
// ParseFileName rule): a stray file must not stop the store from opening.
bool ParseWalFileName(const std::string& name, uint64_t* number) {
  const std::string suffix = ".wal";
  if (name.size() <= suffix.size() ||
      name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  uint64_t n = 0;
  for (size_t i = 0; i < name.size() - suffix.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(name[i] - '0');
    if (n > (UINT64_MAX - digit) / 10) return false;
    n = n * 10 + digit;
  }
  *number = n;
  return true;
}

}  // namespace

LsmStore::LsmStore(const LsmOptions& options) : options_(options) {}

Result<std::unique_ptr<LsmStore>> LsmStore::Open(const LsmOptions& options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("lsm: dir required");
  }
  std::unique_ptr<LsmStore> store(new LsmStore(options));
  Status s = store->Init();
  if (!s.ok()) return s;
  return store;
}

Status LsmStore::Init() {
  TIERBASE_RETURN_IF_ERROR(env::CreateDirIfMissing(options_.dir));
  block_cache_ = std::make_unique<BlockCache>(options_.block_cache_bytes);
  versions_ = std::make_unique<VersionSet>(options_.dir, block_cache_.get());
  TIERBASE_RETURN_IF_ERROR(versions_->Recover());

  mem_ = std::make_shared<MemTable>();

  TIERBASE_RETURN_IF_ERROR(RecoverWals());

  TIERBASE_RETURN_IF_ERROR(NewWal());
  bg_thread_ = std::thread(&LsmStore::BackgroundWork, this);
  return Status::OK();
}

LsmStore::~LsmStore() {
  {
    common::MutexLock lock(&mu_);
    shutting_down_ = true;
    bg_cv_.SignalAll();
  }
  if (bg_thread_.joinable()) bg_thread_.join();
}

Status LsmStore::RecoverWals() {
  // Replay every WAL in numeric order.
  std::vector<std::string> names;
  TIERBASE_RETURN_IF_ERROR(env::ListDir(options_.dir, &names));
  std::vector<uint64_t> wal_numbers;
  for (const auto& name : names) {
    uint64_t number;
    if (ParseWalFileName(name, &number)) wal_numbers.push_back(number);
  }
  std::sort(wal_numbers.begin(), wal_numbers.end());

  for (size_t i = 0; i < wal_numbers.size(); ++i) {
    versions_->BumpFileNumber(wal_numbers[i]);
    // Only the newest log can have been live at the crash: rotation syncs
    // a log before retiring it.
    TIERBASE_RETURN_IF_ERROR(ReplayWal(
        versions_->WalFileName(wal_numbers[i]),
        /*torn_tail_ok=*/i + 1 == wal_numbers.size(),
        [this](const Slice& record) { return ReplayWalRecord(record); },
        &stats_.wal));
  }

  // Flush recovered state so old WAL files can be retired — they stay in
  // place until the SST + manifest are durable.
  if (mem_->num_entries() > 0) {
    imm_ = mem_;
    mem_ = std::make_shared<MemTable>();
    TIERBASE_RETURN_IF_ERROR(FlushImmutable());
  }
  for (uint64_t number : wal_numbers) {
    TIERBASE_RETURN_IF_ERROR(env::RemoveFile(versions_->WalFileName(number)));
  }
  return Status::OK();
}

Status LsmStore::ReplayWalRecord(const Slice& record) {
  bool is_delete;
  Slice key, value;
  if (!DecodeWalMutation(record, &is_delete, &key, &value)) {
    return Status::Corruption("wal: bad record");
  }
  SequenceNumber seq = versions_->last_sequence() + 1;
  versions_->set_last_sequence(seq);
  mem_->Add(seq, is_delete ? kTypeDeletion : kTypeValue, key, value);
  return Status::OK();
}

Status LsmStore::NewWal() {
  wal_number_ = versions_->NewFileNumber();
  WalOptions wal_options;
  wal_options.sync_interval_micros = options_.wal_sync_interval_micros;
  auto wal = WalWriter::Open(versions_->WalFileName(wal_number_), wal_options);
  if (!wal.ok()) return wal.status();
  wal_ = std::move(*wal);
  return Status::OK();
}

Status LsmStore::WriteInternal(const Slice& key, const Slice& value,
                               ValueType type) {
  common::MutexLock lock(&mu_);
  if (bg_error_set_) return bg_error_;

  // Stall when both memtables are full.
  while (mem_->ApproximateMemoryUsage() >= options_.memtable_bytes &&
         imm_ != nullptr) {
    ++stats_.write_stalls;
    bg_cv_.SignalAll();
    stall_cv_.Wait();
    if (bg_error_set_) return bg_error_;
  }
  if (mem_->ApproximateMemoryUsage() >= options_.memtable_bytes) {
    TIERBASE_RETURN_IF_ERROR(SwitchMemtable());
  }

  TIERBASE_RETURN_IF_ERROR(
      wal_->AddRecord(EncodeWalMutation(type == kTypeDeletion, key, value)));

  SequenceNumber seq = versions_->last_sequence() + 1;
  versions_->set_last_sequence(seq);
  mem_->Add(seq, type, key, value);
  return Status::OK();
}

Status LsmStore::Set(const Slice& key, const Slice& value) {
  return WriteInternal(key, value, kTypeValue);
}

Status LsmStore::Delete(const Slice& key) {
  return WriteInternal(key, Slice(), kTypeDeletion);
}

Status LsmStore::ApplyBatch(const std::vector<BatchOp>& batch) {
  // One WAL append for the whole batch would need a composite record; we
  // keep per-op records but only sync once by relying on interval sync.
  for (const auto& op : batch) {
    TIERBASE_RETURN_IF_ERROR(WriteInternal(
        op.key, op.value, op.is_delete ? kTypeDeletion : kTypeValue));
  }
  return Status::OK();
}

Status LsmStore::SwitchMemtable() {
  mu_.AssertHeld();
  TIERBASE_RETURN_IF_ERROR(wal_->Sync());

  imm_ = mem_;
  imm_wal_number_ = wal_number_;
  mem_ = std::make_shared<MemTable>();
  TIERBASE_RETURN_IF_ERROR(NewWal());

  bg_cv_.SignalAll();
  return Status::OK();
}

Status LsmStore::Get(const Slice& key, std::string* value) {
  std::shared_ptr<MemTable> mem, imm;
  std::shared_ptr<const Version> version;
  SequenceNumber snapshot;
  {
    common::MutexLock lock(&mu_);
    mem = mem_;
    imm = imm_;
    version = versions_->current();
    snapshot = versions_->last_sequence();
  }

  bool is_deleted = false;
  if (mem->Get(key, snapshot, value, &is_deleted)) {
    return is_deleted ? Status::NotFound("") : Status::OK();
  }
  if (imm != nullptr && imm->Get(key, snapshot, value, &is_deleted)) {
    return is_deleted ? Status::NotFound("") : Status::OK();
  }

  // L0: newest file first.
  const auto& l0 = version->levels[0];
  for (auto it = l0.rbegin(); it != l0.rend(); ++it) {
    Status s = (*it)->table->Get(key, snapshot, value, &is_deleted);
    if (s.ok()) return is_deleted ? Status::NotFound("") : Status::OK();
    if (!s.IsNotFound()) return s;
  }

  // L1+: at most one candidate file per level.
  for (int level = 1; level < kNumLevels; ++level) {
    const auto& files = version->levels[static_cast<size_t>(level)];
    // Binary search for the first file whose largest user key >= key.
    size_t lo = 0, hi = files.size();
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (ExtractUserKey(Slice(files[mid]->largest)).compare(key) < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo >= files.size()) continue;
    const auto& f = files[lo];
    if (ExtractUserKey(Slice(f->smallest)).compare(key) > 0) continue;
    Status s = f->table->Get(key, snapshot, value, &is_deleted);
    if (s.ok()) return is_deleted ? Status::NotFound("") : Status::OK();
    if (!s.IsNotFound()) return s;
  }
  return Status::NotFound("");
}

uint64_t LsmStore::MaxBytesForLevel(int level) const {
  uint64_t max = options_.level1_max_bytes;
  for (int i = 1; i < level; ++i) max *= 10;
  return max;
}

void LsmStore::BackgroundWork() {
  while (true) {
    bool have_imm = false;
    {
      common::MutexLock lock(&mu_);
      auto needs_work = [this]() EXCLUSIVE_LOCKS_REQUIRED(mu_) {
        if (shutting_down_) return true;
        if (imm_ != nullptr) return true;
        auto v = versions_->current();
        if (static_cast<int>(v->levels[0].size()) >=
            options_.l0_compaction_trigger) {
          return true;
        }
        for (int level = 1; level < kNumLevels - 1; ++level) {
          if (v->LevelBytes(level) > MaxBytesForLevel(level)) return true;
        }
        return false;
      };
      while (!needs_work()) bg_cv_.Wait();
      if (shutting_down_ && imm_ == nullptr) return;
      have_imm = imm_ != nullptr;
    }

    Status s = Status::OK();
    if (have_imm) s = FlushImmutable();
    if (s.ok()) s = MaybeCompact();

    {
      common::MutexLock lock(&mu_);
      if (!s.ok()) {
        TB_LOG_ERROR("lsm background error: %s", s.ToString().c_str());
        bg_error_set_ = true;
        bg_error_ = s;
        stall_cv_.SignalAll();
        return;
      }
      stall_cv_.SignalAll();
    }
  }
}

Status LsmStore::FlushImmutable() {
  std::shared_ptr<MemTable> imm;
  uint64_t old_wal = 0;
  {
    common::MutexLock lock(&mu_);
    imm = imm_;
    old_wal = imm_wal_number_;
  }
  if (imm == nullptr) return Status::OK();

  uint64_t file_number;
  {
    common::MutexLock lock(&mu_);
    file_number = versions_->NewFileNumber();
  }

  std::unique_ptr<WritableFile> file;
  std::string path;
  {
    common::MutexLock lock(&mu_);
    path = versions_->TableFileName(file_number);
  }
  TIERBASE_RETURN_IF_ERROR(env::NewWritableFile(path, &file));

  TableBuilder builder(std::move(file), options_.table_options);
  MemTable::Iterator iter(imm.get());
  for (iter.SeekToFirst(); iter.Valid(); iter.Next()) {
    TIERBASE_RETURN_IF_ERROR(builder.Add(iter.internal_key(), iter.value()));
  }
  TIERBASE_RETURN_IF_ERROR(builder.Finish());

  auto meta = std::make_shared<FileMeta>();
  meta->number = file_number;
  meta->size = env::FileSize(path);
  meta->smallest = builder.smallest_key();
  meta->largest = builder.largest_key();
  auto table = Table::Open(path, file_number, block_cache_.get());
  if (!table.ok()) return table.status();
  meta->table = *table;

  {
    common::MutexLock lock(&mu_);
    VersionEdit edit;
    edit.added.push_back({0, meta});
    TIERBASE_RETURN_IF_ERROR(versions_->Apply(edit));
    imm_.reset();
    ++stats_.flushes;
    stats_.bytes_flushed += meta->size;
  }

  if (old_wal != 0) {
    std::string wal_path;
    {
      common::MutexLock lock(&mu_);
      wal_path = versions_->WalFileName(old_wal);
    }
    env::RemoveFile(wal_path);
  }
  {
    common::MutexLock lock(&mu_);
    stall_cv_.SignalAll();
  }
  return Status::OK();
}

Status LsmStore::MaybeCompact() {
  while (true) {
    int best_level = -1;
    double best_score = 1.0;
    {
      common::MutexLock lock(&mu_);
      auto v = versions_->current();
      double l0_score = static_cast<double>(v->levels[0].size()) /
                        options_.l0_compaction_trigger;
      if (l0_score >= 1.0) {
        best_level = 0;
        best_score = l0_score;
      }
      for (int level = 1; level < kNumLevels - 1; ++level) {
        double score = static_cast<double>(v->LevelBytes(level)) /
                       static_cast<double>(MaxBytesForLevel(level));
        if (score > best_score) {
          best_score = score;
          best_level = level;
        }
      }
    }
    if (best_level < 0) return Status::OK();
    TIERBASE_RETURN_IF_ERROR(CompactLevel(best_level));
  }
}

Status LsmStore::CompactLevel(int level) {
  std::vector<std::shared_ptr<FileMeta>> inputs;
  std::vector<std::shared_ptr<FileMeta>> next_inputs;
  std::shared_ptr<const Version> version;
  {
    common::MutexLock lock(&mu_);
    version = versions_->current();
    if (level == 0) {
      inputs = version->levels[0];
    } else {
      // Pick the file with the smallest key (simple deterministic policy).
      if (version->levels[static_cast<size_t>(level)].empty()) {
        return Status::OK();
      }
      inputs.push_back(version->levels[static_cast<size_t>(level)].front());
    }
    if (inputs.empty()) return Status::OK();

    // Key range of the inputs → overlapping files in level+1.
    std::string smallest = inputs[0]->smallest, largest = inputs[0]->largest;
    for (const auto& f : inputs) {
      if (Slice(f->smallest).compare(Slice(smallest)) < 0) {
        smallest = f->smallest;
      }
      if (Slice(f->largest).compare(Slice(largest)) > 0) largest = f->largest;
    }
    next_inputs = version->Overlapping(level + 1,
                                       ExtractUserKey(Slice(smallest)),
                                       ExtractUserKey(Slice(largest)));
  }

  const int target_level = level + 1;
  const bool bottommost = [&] {
    for (int l = target_level + 1; l < kNumLevels; ++l) {
      if (!version->levels[static_cast<size_t>(l)].empty()) return false;
    }
    return true;
  }();

  // K-way merge over all input tables. L0 inputs may contain multiple
  // versions of a key across files; the internal-key comparator yields the
  // newest first, so we keep the first occurrence of each user key.
  struct Source {
    std::unique_ptr<Table::Iterator> iter;
  };
  std::vector<Source> sources;
  for (auto& f : inputs) {
    sources.push_back({std::make_unique<Table::Iterator>(f->table.get())});
    sources.back().iter->SeekToFirst();
  }
  for (auto& f : next_inputs) {
    sources.push_back({std::make_unique<Table::Iterator>(f->table.get())});
    sources.back().iter->SeekToFirst();
  }

  InternalKeyComparator cmp;
  VersionEdit edit;
  uint64_t bytes_compacted = 0;  // Folded into stats_ under mu_ at apply.
  std::unique_ptr<TableBuilder> builder;
  uint64_t out_number = 0;
  std::string out_path;
  std::string last_user_key;
  bool has_last = false;

  auto open_output = [&]() -> Status {
    {
      common::MutexLock lock(&mu_);
      out_number = versions_->NewFileNumber();
      out_path = versions_->TableFileName(out_number);
    }
    std::unique_ptr<WritableFile> file;
    TIERBASE_RETURN_IF_ERROR(env::NewWritableFile(out_path, &file));
    builder = std::make_unique<TableBuilder>(std::move(file),
                                             options_.table_options);
    return Status::OK();
  };
  auto close_output = [&]() -> Status {
    if (builder == nullptr || builder->num_entries() == 0) {
      // Abandon an opened-but-empty output. out_path is cleared after each
      // successful close below, so this never touches a finished file.
      builder.reset();
      if (!out_path.empty()) env::RemoveFile(out_path);
      out_path.clear();
      return Status::OK();
    }
    TIERBASE_RETURN_IF_ERROR(builder->Finish());
    auto meta = std::make_shared<FileMeta>();
    meta->number = out_number;
    meta->size = env::FileSize(out_path);
    meta->smallest = builder->smallest_key();
    meta->largest = builder->largest_key();
    auto table = Table::Open(out_path, out_number, block_cache_.get());
    if (!table.ok()) return table.status();
    meta->table = *table;
    edit.added.push_back({target_level, meta});
    bytes_compacted += meta->size;
    builder.reset();
    out_path.clear();
    return Status::OK();
  };

  while (true) {
    // Pick the source with the smallest internal key.
    int min_idx = -1;
    for (size_t i = 0; i < sources.size(); ++i) {
      if (!sources[i].iter->Valid()) continue;
      if (min_idx < 0 ||
          cmp(sources[i].iter->key(), sources[min_idx].iter->key()) < 0) {
        min_idx = static_cast<int>(i);
      }
    }
    if (min_idx < 0) break;

    Slice ikey = sources[min_idx].iter->key();
    Slice user_key = ExtractUserKey(ikey);
    bool shadowed = has_last && user_key == Slice(last_user_key);
    if (!shadowed) {
      last_user_key.assign(user_key.data(), user_key.size());
      has_last = true;
      bool drop = bottommost && ExtractValueType(ikey) == kTypeDeletion;
      if (!drop) {
        if (builder == nullptr) TIERBASE_RETURN_IF_ERROR(open_output());
        TIERBASE_RETURN_IF_ERROR(
            builder->Add(ikey, sources[min_idx].iter->value()));
        if (builder->file_size() >= options_.target_file_bytes) {
          TIERBASE_RETURN_IF_ERROR(close_output());
        }
      }
    }
    sources[min_idx].iter->Next();
  }
  TIERBASE_RETURN_IF_ERROR(close_output());

  for (const auto& f : inputs) edit.removed.push_back({level, f->number});
  for (const auto& f : next_inputs) {
    edit.removed.push_back({target_level, f->number});
  }

  {
    common::MutexLock lock(&mu_);
    TIERBASE_RETURN_IF_ERROR(versions_->Apply(edit));
    ++stats_.compactions;
    stats_.bytes_compacted += bytes_compacted;
  }

  // Delete obsolete inputs and drop their cached blocks.
  auto cleanup = [&](const std::vector<std::shared_ptr<FileMeta>>& files) {
    for (const auto& f : files) {
      std::string p;
      {
        common::MutexLock lock(&mu_);
        p = versions_->TableFileName(f->number);
      }
      block_cache_->EraseFile(f->number);
      env::RemoveFile(p);
    }
  };
  cleanup(inputs);
  cleanup(next_inputs);
  return Status::OK();
}

Status LsmStore::WaitIdle() {
  while (true) {
    {
      common::MutexLock lock(&mu_);
      if (bg_error_set_) return bg_error_;
      auto v = versions_->current();
      bool busy = imm_ != nullptr ||
                  static_cast<int>(v->levels[0].size()) >=
                      options_.l0_compaction_trigger;
      for (int level = 1; !busy && level < kNumLevels - 1; ++level) {
        busy = v->LevelBytes(level) > MaxBytesForLevel(level);
      }
      if (!busy) return Status::OK();
      bg_cv_.SignalAll();
    }
    Clock::Real()->SleepMicros(1000);
  }
}

Status LsmStore::FlushForTesting() {
  {
    common::MutexLock lock(&mu_);
    while (imm_ != nullptr) {
      bg_cv_.SignalAll();
      stall_cv_.Wait();
    }
    if (mem_->num_entries() > 0) {
      TIERBASE_RETURN_IF_ERROR(SwitchMemtable());
    }
  }
  return WaitIdle();
}

UsageStats LsmStore::GetUsage() const {
  UsageStats usage;
  common::MutexLock lock(&mu_);
  usage.memory_bytes = mem_->ApproximateMemoryUsage() +
                       (imm_ ? imm_->ApproximateMemoryUsage() : 0) +
                       block_cache_->TotalCharge();
  auto v = versions_->current();
  for (int level = 0; level < kNumLevels; ++level) {
    usage.disk_bytes += v->LevelBytes(level);
  }
  usage.disk_bytes += wal_->size();
  usage.keys = versions_->last_sequence();  // Upper bound (writes issued).
  return usage;
}

LsmStore::Stats LsmStore::GetStats() const {
  common::MutexLock lock(&mu_);
  return stats_;
}

}  // namespace lsm
}  // namespace tierbase
