#include "lsm/lsm_store.h"

#include <algorithm>
#include <cstdint>
#include <set>

#include "common/env.h"
#include "common/logging.h"
#include "common/thread_name.h"

namespace tierbase {
namespace lsm {

namespace {

// Parses a file name "<digits><suffix>" (".wal", ".sst") into *number.
// Any other name, or a number past uint64_t, is not the store's and is left
// alone (LevelDB's ParseFileName rule): a stray file must not stop the
// store from opening.
bool ParseFileName(const std::string& name, const std::string& suffix,
                   uint64_t* number) {
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

  // Delete every table the recovered version does not reference: outputs
  // of an aborted compaction, or inputs whose removal a crash cut short
  // (LevelDB's DeleteObsoleteFiles). This runs before RecoverWals flushes,
  // so no table written by this Open is in the listing.
  std::vector<std::string> names;
  TIERBASE_RETURN_IF_ERROR(env::ListDir(options_.dir, &names));
  std::set<uint64_t> live;
  for (const auto& level : versions_->current()->levels) {
    for (const auto& f : level) live.insert(f->number);
  }
  for (const auto& name : names) {
    uint64_t number;
    if (ParseFileName(name, ".sst", &number) && live.count(number) == 0) {
      env::RemoveFile(options_.dir + "/" + name);
    }
  }

  mem_ = std::make_shared<MemTable>(options_.memtable_bytes);
  TIERBASE_RETURN_IF_ERROR(RecoverWals(names));

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

Status LsmStore::RecoverWals(const std::vector<std::string>& names) {
  // Replay every WAL in numeric order.
  std::vector<uint64_t> wal_numbers;
  for (const auto& name : names) {
    uint64_t number;
    if (ParseFileName(name, ".wal", &number)) wal_numbers.push_back(number);
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
    mem_ = std::make_shared<MemTable>(options_.memtable_bytes);
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

Status LsmStore::MakeRoomForWrite() {
  mu_.AssertHeld();
  while (mem_->ApproximateMemoryUsage() >= options_.memtable_bytes &&
         imm_ != nullptr) {
    ++stats_.write_stalls;
    bg_cv_.SignalAll();
    stall_cv_.Wait();
    if (bg_error_set_) return bg_error_;
  }
  if (mem_->ApproximateMemoryUsage() >= options_.memtable_bytes) {
    return SwitchMemtable();
  }
  return Status::OK();
}

Status LsmStore::Set(const Slice& key, const Slice& value) {
  return ApplyBatch({{key, value, /*is_delete=*/false}});
}

Status LsmStore::Delete(const Slice& key) {
  return ApplyBatch({{key, Slice(), /*is_delete=*/true}});
}

Status LsmStore::ApplyBatch(const std::vector<BatchOp>& batch) {
  if (batch.empty()) return Status::OK();
  common::MutexLock lock(&mu_);
  if (bg_error_set_) return bg_error_;
  Status s = MakeRoomForWrite();
  if (!s.ok()) {
    SetBgErrorLocked(s);  // The log could not rotate.
    return s;
  }
  s = wal_->AddMutations(batch);
  if (!s.ok()) {
    // A failed append the log took back left it as it was: that write
    // fails alone. A poisoned log may hold part of it: latch the error, as
    // LevelDB's DBImpl::Write does, so that no later write lands after it.
    // Reads keep serving.
    if (!wal_->error().ok()) SetBgErrorLocked(s);
    return s;
  }

  // Publish the batch's last sequence only after every op is in mem_: a
  // reader's snapshot sees all of the batch or none of it.
  SequenceNumber seq = versions_->last_sequence();
  for (const BatchOp& op : batch) {
    mem_->Add(++seq, op.is_delete ? kTypeDeletion : kTypeValue, op.key,
              op.value);
  }
  versions_->set_last_sequence(seq);
  return Status::OK();
}

void LsmStore::SetBgErrorLocked(const Status& s) {
  mu_.AssertHeld();
  if (bg_error_set_) return;
  TB_LOG_ERROR("lsm error, writes now fail: %s", s.ToString().c_str());
  bg_error_set_ = true;
  bg_error_ = s;
  stall_cv_.SignalAll();
}

Status LsmStore::SwitchMemtable() {
  mu_.AssertHeld();
  TIERBASE_RETURN_IF_ERROR(wal_->Sync());

  imm_ = mem_;
  imm_wal_number_ = wal_number_;
  mem_ = std::make_shared<MemTable>(options_.memtable_bytes);
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
  SetCurrentThreadName("tb-lsm-bg");
  while (true) {
    bool flush = false;
    int level = -1;
    {
      common::MutexLock lock(&mu_);
      while (!shutting_down_ && imm_ == nullptr &&
             (level = PickCompactionLevel(*versions_->current())) < 0) {
        bg_cv_.Wait();
      }
      // Shutdown flushes imm_ but starts no compaction.
      flush = imm_ != nullptr;
      if (!flush && shutting_down_) return;
    }

    Status s = flush ? FlushImmutable() : CompactLevel(level);

    common::MutexLock lock(&mu_);
    if (!s.ok()) SetBgErrorLocked(s);
    stall_cv_.SignalAll();
    if (!s.ok()) return;
  }
}

int LsmStore::PickCompactionLevel(const Version& v) const {
  int best_level = -1;
  double best_score = 1.0;
  const double l0_score = static_cast<double>(v.levels[0].size()) /
                          options_.l0_compaction_trigger;
  if (l0_score >= 1.0) {
    best_level = 0;
    best_score = l0_score;
  }
  for (int level = 1; level < kNumLevels - 1; ++level) {
    const double score = static_cast<double>(v.LevelBytes(level)) /
                         static_cast<double>(MaxBytesForLevel(level));
    if (score > best_score) {
      best_score = score;
      best_level = level;
    }
  }
  return best_level;
}

Status LsmStore::OpenTable(TableOut* out) {
  {
    common::MutexLock lock(&mu_);
    out->number = versions_->NewFileNumber();
  }
  out->path = versions_->TableFileName(out->number);
  std::unique_ptr<WritableFile> file;
  TIERBASE_RETURN_IF_ERROR(env::NewWritableFile(out->path, &file));
  out->builder =
      std::make_unique<TableBuilder>(std::move(file), options_.table_options);
  return Status::OK();
}

Status LsmStore::FinishTable(TableOut* out, int level, VersionEdit* edit,
                             uint64_t* bytes) {
  std::unique_ptr<TableBuilder> builder = std::move(out->builder);
  if (builder == nullptr) return Status::OK();
  if (builder->num_entries() == 0) {
    builder.reset();  // Closes the file before it is removed.
    env::RemoveFile(out->path);
    return Status::OK();
  }
  TIERBASE_RETURN_IF_ERROR(builder->Finish());
  auto meta = std::make_shared<FileMeta>();
  meta->number = out->number;
  meta->size = env::FileSize(out->path);
  meta->smallest = builder->smallest_key();
  meta->largest = builder->largest_key();
  auto table = Table::Open(out->path, out->number, block_cache_.get());
  if (!table.ok()) return table.status();
  meta->table = *table;
  edit->added.push_back({level, meta});
  *bytes += meta->size;
  return Status::OK();
}

Status LsmStore::FlushImmutable() {
  std::shared_ptr<MemTable> imm;
  uint64_t old_wal = 0;
  {
    common::MutexLock lock(&mu_);
    imm = imm_;
    old_wal = imm_wal_number_;
  }

  TableOut out;
  TIERBASE_RETURN_IF_ERROR(OpenTable(&out));
  MemTable::Iterator iter(imm.get());
  for (iter.SeekToFirst(); iter.Valid(); iter.Next()) {
    TIERBASE_RETURN_IF_ERROR(
        out.builder->Add(iter.internal_key(), iter.value()));
  }
  VersionEdit edit;
  uint64_t bytes = 0;
  TIERBASE_RETURN_IF_ERROR(FinishTable(&out, 0, &edit, &bytes));

  {
    common::MutexLock lock(&mu_);
    TIERBASE_RETURN_IF_ERROR(versions_->Apply(edit));
    imm_.reset();
    ++stats_.flushes;
    stats_.bytes_flushed += bytes;
  }
  if (old_wal != 0) env::RemoveFile(versions_->WalFileName(old_wal));
  return Status::OK();
}

Status LsmStore::CompactLevel(int level) {
  std::vector<std::shared_ptr<FileMeta>> inputs;
  std::vector<std::shared_ptr<FileMeta>> next_inputs;
  std::shared_ptr<const Version> version;
  {
    common::MutexLock lock(&mu_);
    version = versions_->current();
    const auto& files = version->levels[static_cast<size_t>(level)];
    if (files.empty()) return Status::OK();
    if (level == 0) {
      inputs = files;
    } else {
      // Pick the file with the smallest key (simple deterministic policy).
      inputs.push_back(files.front());
    }

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
  std::vector<Table::Iterator> sources;
  for (const auto* files : {&inputs, &next_inputs}) {
    for (const auto& f : *files) {
      sources.emplace_back(f->table.get());
      sources.back().SeekToFirst();
    }
  }

  InternalKeyComparator cmp;
  VersionEdit edit;
  uint64_t bytes_compacted = 0;  // Folded into stats_ under mu_ at apply.
  TableOut out;
  std::string last_user_key;
  bool has_last = false;

  while (true) {
    // Pick the source with the smallest internal key.
    int min_idx = -1;
    for (size_t i = 0; i < sources.size(); ++i) {
      if (!sources[i].Valid()) continue;
      if (min_idx < 0 || cmp(sources[i].key(), sources[min_idx].key()) < 0) {
        min_idx = static_cast<int>(i);
      }
    }
    if (min_idx < 0) break;

    Table::Iterator& source = sources[static_cast<size_t>(min_idx)];
    Slice ikey = source.key();
    Slice user_key = ExtractUserKey(ikey);
    bool shadowed = has_last && user_key == Slice(last_user_key);
    if (!shadowed) {
      last_user_key.assign(user_key.data(), user_key.size());
      has_last = true;
      bool drop = bottommost && ExtractValueType(ikey) == kTypeDeletion;
      if (!drop) {
        if (out.builder == nullptr) TIERBASE_RETURN_IF_ERROR(OpenTable(&out));
        TIERBASE_RETURN_IF_ERROR(out.builder->Add(ikey, source.value()));
        if (out.builder->file_size() >= options_.target_file_bytes) {
          TIERBASE_RETURN_IF_ERROR(
              FinishTable(&out, target_level, &edit, &bytes_compacted));
        }
      }
    }
    source.Next();
  }
  TIERBASE_RETURN_IF_ERROR(
      FinishTable(&out, target_level, &edit, &bytes_compacted));
  // A source that hit a read error stopped early: the inputs must stay.
  for (const auto& source : sources) {
    TIERBASE_RETURN_IF_ERROR(source.status());
  }

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
  for (const auto* files : {&inputs, &next_inputs}) {
    for (const auto& f : *files) {
      block_cache_->EraseFile(f->number);
      env::RemoveFile(versions_->TableFileName(f->number));
    }
  }
  return Status::OK();
}

Status LsmStore::WaitIdle() {
  common::MutexLock lock(&mu_);
  while (!bg_error_set_ &&
         (imm_ != nullptr || PickCompactionLevel(*versions_->current()) >= 0)) {
    stall_cv_.Wait();
  }
  return bg_error_set_ ? bg_error_ : Status::OK();
}

Status LsmStore::FlushForTesting() {
  {
    common::MutexLock lock(&mu_);
    while (imm_ != nullptr) {
      if (bg_error_set_) return bg_error_;
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
