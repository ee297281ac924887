#include "common/fault_env.h"
#include "common/mutex.h"

#include <algorithm>

namespace tierbase {

namespace {

/// WritableFile wrapper that writes through to the base file while
/// reporting every append/sync to the owning FaultInjectionEnv.
class FaultWritableFile final : public WritableFile {
 public:
  FaultWritableFile(FaultInjectionEnv* env, std::string path,
                    std::unique_ptr<WritableFile> inner)
      : env_(env), path_(std::move(path)), inner_(std::move(inner)) {}

  Status Append(const Slice& data) override {
    if (inner_ == nullptr || !env_->MutationAllowed()) {
      return Status::IOError("fault: filesystem inactive: " + path_);
    }
    TIERBASE_RETURN_IF_ERROR(inner_->Append(data));
    env_->NoteAppend(path_, inner_->Size());
    return Status::OK();
  }

  Status Flush() override {
    if (inner_ == nullptr || !env_->MutationAllowed()) {
      return Status::IOError("fault: filesystem inactive: " + path_);
    }
    return inner_->Flush();
  }

  Status Sync() override {
    if (inner_ == nullptr || !env_->MutationAllowed()) {
      return Status::IOError("fault: filesystem inactive: " + path_);
    }
    if (!env_->NoteSyncAttempt()) {
      return Status::IOError("fault: injected sync failure: " + path_);
    }
    // Mark durable only after the real fsync succeeded — marking first
    // would make the harness preserve bytes a real power cut could lose.
    Status s = inner_->Sync();
    if (s.ok()) env_->NoteSynced(path_);
    return s;
  }

  Status Close() override {
    if (inner_ == nullptr) return Status::OK();
    if (!env_->MutationAllowed()) {
      // kill -9 semantics: the process's user-space write buffer is lost
      // (the inner dtor closes the fd without flushing); whatever already
      // reached the OS survives until DropUnsyncedFileData() cuts it.
      inner_.reset();
      return Status::OK();
    }
    Status s = inner_->Close();
    inner_.reset();
    return s;
  }

  uint64_t Size() const override {
    return inner_ == nullptr ? 0 : inner_->Size();
  }

  bool DropBufferedTail(uint64_t size) override {
    if (inner_ == nullptr || !inner_->DropBufferedTail(size)) return false;
    env_->NoteDropped(path_, size);
    return true;
  }

 private:
  FaultInjectionEnv* env_;
  std::string path_;
  std::unique_ptr<WritableFile> inner_;
};

}  // namespace

FaultInjectionEnv::FaultInjectionEnv(Env* base) : base_(base) {}

bool FaultInjectionEnv::MutationAllowed() const {
  common::MutexLock lock(&mu_);
  return active_;
}

void FaultInjectionEnv::NoteCreate(const std::string& path) {
  common::MutexLock lock(&mu_);
  ++creates_;
  files_[path] = FileState{};  // O_TRUNC semantics: fresh state.
}

void FaultInjectionEnv::NoteOpenAppend(const std::string& path,
                                       uint64_t existing_size) {
  common::MutexLock lock(&mu_);
  ++creates_;
  // Bytes present at open are assumed durable — they survived the "boot".
  files_[path] = FileState{existing_size, existing_size};
}

void FaultInjectionEnv::NoteAppend(const std::string& path,
                                   uint64_t new_size) {
  common::MutexLock lock(&mu_);
  ++writes_;
  files_[path].size = new_size;
}

void FaultInjectionEnv::NoteDropped(const std::string& path,
                                    uint64_t new_size) {
  common::MutexLock lock(&mu_);
  files_[path].size = new_size;
}

bool FaultInjectionEnv::NoteSyncAttempt() {
  common::MutexLock lock(&mu_);
  ++syncs_;
  if (fail_sync_countdown_ > 0 && --fail_sync_countdown_ == 0) {
    return false;  // This is the Nth sync: fail, don't mark durable.
  }
  return true;
}

void FaultInjectionEnv::NoteSynced(const std::string& path) {
  common::MutexLock lock(&mu_);
  auto it = files_.find(path);
  if (it != files_.end()) it->second.synced_size = it->second.size;
}

Status FaultInjectionEnv::NewWritableFile(
    const std::string& path, std::unique_ptr<WritableFile>* file) {
  {
    common::MutexLock lock(&mu_);
    if (!active_) {
      return Status::IOError("fault: filesystem inactive: " + path);
    }
    if (fail_creates_remaining_ > 0) {
      --fail_creates_remaining_;
      return Status::IOError("fault: injected create failure: " + path);
    }
  }
  std::unique_ptr<WritableFile> inner;
  TIERBASE_RETURN_IF_ERROR(base_->NewWritableFile(path, &inner));
  NoteCreate(path);
  *file = std::make_unique<FaultWritableFile>(this, path, std::move(inner));
  return Status::OK();
}

Status FaultInjectionEnv::NewAppendableFile(
    const std::string& path, std::unique_ptr<WritableFile>* file) {
  {
    common::MutexLock lock(&mu_);
    if (!active_) {
      return Status::IOError("fault: filesystem inactive: " + path);
    }
    if (fail_creates_remaining_ > 0) {
      --fail_creates_remaining_;
      return Status::IOError("fault: injected create failure: " + path);
    }
  }
  std::unique_ptr<WritableFile> inner;
  TIERBASE_RETURN_IF_ERROR(base_->NewAppendableFile(path, &inner));
  NoteOpenAppend(path, inner->Size());
  *file = std::make_unique<FaultWritableFile>(this, path, std::move(inner));
  return Status::OK();
}

Status FaultInjectionEnv::NewRandomAccessFile(
    const std::string& path, std::unique_ptr<RandomAccessFile>* file) {
  return base_->NewRandomAccessFile(path, file);  // Reads always work.
}

Status FaultInjectionEnv::CreateDirIfMissing(const std::string& path) {
  if (!MutationAllowed()) {
    return Status::IOError("fault: filesystem inactive: " + path);
  }
  return base_->CreateDirIfMissing(path);
}

Status FaultInjectionEnv::RemoveFile(const std::string& path) {
  if (!MutationAllowed()) {
    return Status::IOError("fault: filesystem inactive: " + path);
  }
  {
    common::MutexLock lock(&mu_);
    files_.erase(path);
  }
  return base_->RemoveFile(path);
}

Status FaultInjectionEnv::RenameFile(const std::string& from,
                                     const std::string& to) {
  if (!MutationAllowed()) {
    return Status::IOError("fault: filesystem inactive: " + from);
  }
  TIERBASE_RETURN_IF_ERROR(base_->RenameFile(from, to));
  common::MutexLock lock(&mu_);
  auto it = files_.find(from);
  if (it != files_.end()) {
    files_[to] = it->second;
    files_.erase(it);
  }
  return Status::OK();
}

bool FaultInjectionEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

Status FaultInjectionEnv::ListDir(const std::string& path,
                                  std::vector<std::string>* names) {
  return base_->ListDir(path, names);
}

uint64_t FaultInjectionEnv::FileSize(const std::string& path) {
  return base_->FileSize(path);
}

Status FaultInjectionEnv::Truncate(const std::string& path, uint64_t size) {
  if (!MutationAllowed()) {
    return Status::IOError("fault: filesystem inactive: " + path);
  }
  TIERBASE_RETURN_IF_ERROR(base_->Truncate(path, size));
  common::MutexLock lock(&mu_);
  auto it = files_.find(path);
  if (it != files_.end()) {
    it->second.size = std::min(it->second.size, size);
    it->second.synced_size = std::min(it->second.synced_size, size);
  }
  return Status::OK();
}

void FaultInjectionEnv::SetFilesystemActive(bool active) {
  common::MutexLock lock(&mu_);
  active_ = active;
}

bool FaultInjectionEnv::filesystem_active() const {
  common::MutexLock lock(&mu_);
  return active_;
}

Status FaultInjectionEnv::DropUnsyncedFileData(size_t tear_keep_bytes) {
  // Snapshot targets under the lock, truncate through the base env outside
  // it (the base env never re-enters this one).
  std::vector<std::pair<std::string, uint64_t>> cuts;
  {
    common::MutexLock lock(&mu_);
    for (auto& [path, state] : files_) {
      if (state.size <= state.synced_size) continue;
      uint64_t keep = state.synced_size +
                      std::min<uint64_t>(tear_keep_bytes,
                                         state.size - state.synced_size);
      cuts.emplace_back(path, keep);
      state.size = keep;
      state.synced_size = std::min(state.synced_size, keep);
    }
  }
  for (const auto& [path, keep] : cuts) {
    if (!base_->FileExists(path)) continue;  // Already removed.
    // The real file may be shorter than the tracked size if an owner's
    // write buffer never reached the OS — truncating to min() of both
    // keeps the cut well-defined either way.
    uint64_t on_disk = base_->FileSize(path);
    TIERBASE_RETURN_IF_ERROR(
        base_->Truncate(path, std::min(on_disk, keep)));
  }
  return Status::OK();
}

Status FaultInjectionEnv::TearFile(const std::string& path, uint64_t size) {
  TIERBASE_RETURN_IF_ERROR(base_->Truncate(path, size));
  common::MutexLock lock(&mu_);
  auto it = files_.find(path);
  if (it != files_.end()) {
    it->second.size = std::min(it->second.size, size);
    it->second.synced_size = std::min(it->second.synced_size, size);
  }
  return Status::OK();
}

void FaultInjectionEnv::FailNthSync(int n) {
  common::MutexLock lock(&mu_);
  fail_sync_countdown_ = n;
}

void FaultInjectionEnv::FailNextFileCreations(int n) {
  common::MutexLock lock(&mu_);
  fail_creates_remaining_ = n;
}

uint64_t FaultInjectionEnv::synced_size(const std::string& path) const {
  common::MutexLock lock(&mu_);
  auto it = files_.find(path);
  return it == files_.end() ? 0 : it->second.synced_size;
}

uint64_t FaultInjectionEnv::unsynced_bytes(const std::string& path) const {
  common::MutexLock lock(&mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return 0;
  return it->second.size - it->second.synced_size;
}

uint64_t FaultInjectionEnv::sync_count() const {
  common::MutexLock lock(&mu_);
  return syncs_;
}

uint64_t FaultInjectionEnv::write_count() const {
  common::MutexLock lock(&mu_);
  return writes_;
}

uint64_t FaultInjectionEnv::files_created() const {
  common::MutexLock lock(&mu_);
  return creates_;
}

}  // namespace tierbase
