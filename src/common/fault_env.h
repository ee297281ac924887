// FaultInjectionEnv: a deterministic crash-simulation Env, after LevelDB's
// FaultInjectionTestEnv and the recovery discipline of RocksDB-style
// stores. It wraps a base Env (the POSIX one by default), records every
// write and sync per file, and — under test control — can:
//
//   * drop all un-synced data (what a power cut does to the page cache),
//   * tear the final write at a byte offset (a partially persisted append),
//   * fail the Nth sync from now (a dying disk acknowledging late),
//   * fail file creation (ENOSPC / permission loss),
//   * go "inactive": every subsequent mutation fails, freezing the disk
//     image at the crash point while the process shuts down.
//
// Everything is mutex-protected and deterministic; no randomness lives in
// this class (tests seed their own RNGs for crash-point selection).
//
// Typical crash test:
//
//   FaultInjectionEnv fault;                       // wraps Env::Default()
//   ScopedEnvOverride scoped(&fault);              // reroute all IO
//   auto store = lsm::LsmStore::Open(opts);        // ... write some data
//   fault.SetFilesystemActive(false);              // "kill -9"
//   store->reset();                                // dtor IO errors ignored
//   fault.DropUnsyncedFileData(/*tear_keep=*/3);   // lose page cache, torn tail
//   fault.SetFilesystemActive(true);
//   auto reopened = lsm::LsmStore::Open(opts);     // must recover synced data

#ifndef TIERBASE_COMMON_FAULT_ENV_H_
#define TIERBASE_COMMON_FAULT_ENV_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/mutex.h"

namespace tierbase {

class FaultInjectionEnv : public Env {
 public:
  explicit FaultInjectionEnv(Env* base = Env::Default());

  // --- Env interface (all mutations honor the active/fault switches). ---
  Status NewWritableFile(const std::string& path,
                         std::unique_ptr<WritableFile>* file) override;
  Status NewAppendableFile(const std::string& path,
                           std::unique_ptr<WritableFile>* file) override;
  Status NewRandomAccessFile(
      const std::string& path,
      std::unique_ptr<RandomAccessFile>* file) override;
  Status CreateDirIfMissing(const std::string& path) override;
  Status RemoveFile(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  bool FileExists(const std::string& path) override;
  Status ListDir(const std::string& path,
                 std::vector<std::string>* names) override;
  uint64_t FileSize(const std::string& path) override;
  Status Truncate(const std::string& path, uint64_t size) override;

  // --- Crash controls. ---

  /// While inactive, every mutation (create, append, sync, rename, remove,
  /// mkdir) fails with IOError. Reads keep working. Use this to freeze the
  /// on-disk image at the crash point while the store object is destroyed.
  void SetFilesystemActive(bool active);
  bool filesystem_active() const;

  /// Simulates losing the page cache: every tracked file is truncated back
  /// to its last synced size. `tear_keep_bytes` of the un-synced suffix
  /// survive per file (0 = lose it all) — a torn final write. Safe to call
  /// while inactive; operates through the base env.
  Status DropUnsyncedFileData(size_t tear_keep_bytes = 0);

  /// Targeted tear: truncates one file to exactly `size` bytes and clamps
  /// its tracked state, regardless of what was synced.
  Status TearFile(const std::string& path, uint64_t size);

  /// The Nth sync from now (1-based) fails with IOError and does NOT mark
  /// the data synced. One-shot; pass 0 to disarm.
  void FailNthSync(int n);

  /// The next `n` NewWritableFile calls fail with IOError.
  void FailNextFileCreations(int n);

  // --- Introspection (for assertions). ---
  uint64_t synced_size(const std::string& path) const;
  uint64_t unsynced_bytes(const std::string& path) const;
  uint64_t sync_count() const;
  uint64_t write_count() const;      // Append calls observed.
  uint64_t files_created() const;

  // Internal: called by the wrapped writable files.
  struct FileState {
    uint64_t size = 0;         // Bytes appended (tracked logical size).
    uint64_t synced_size = 0;  // Bytes guaranteed durable.
  };
  bool MutationAllowed() const;
  void NoteCreate(const std::string& path);
  void NoteOpenAppend(const std::string& path, uint64_t existing_size);
  /// Counts the sync attempt; false if it was selected to fail (injected).
  bool NoteSyncAttempt();
  /// Marks the file's bytes durable — only after the real fsync succeeded.
  void NoteSynced(const std::string& path);
  void NoteAppend(const std::string& path, uint64_t new_size);
  /// The file took back buffered bytes (DropBufferedTail).
  void NoteDropped(const std::string& path, uint64_t new_size);

 private:
  Env* base_;
  mutable common::Mutex mu_;
  bool active_ GUARDED_BY(mu_) = true;
  int fail_sync_countdown_ GUARDED_BY(mu_) = 0;  // 0 = disarmed.
  int fail_creates_remaining_ GUARDED_BY(mu_) = 0;
  uint64_t syncs_ GUARDED_BY(mu_) = 0;
  uint64_t writes_ GUARDED_BY(mu_) = 0;
  uint64_t creates_ GUARDED_BY(mu_) = 0;
  std::map<std::string, FileState> files_ GUARDED_BY(mu_);
};

/// RAII: installs `env` as the process-global Env for the scope.
class ScopedEnvOverride {
 public:
  explicit ScopedEnvOverride(Env* e) : prev_(env::SwapGlobalEnv(e)) {}
  ~ScopedEnvOverride() { env::SwapGlobalEnv(prev_); }

  ScopedEnvOverride(const ScopedEnvOverride&) = delete;
  ScopedEnvOverride& operator=(const ScopedEnvOverride&) = delete;

 private:
  Env* prev_;
};

}  // namespace tierbase

#endif  // TIERBASE_COMMON_FAULT_ENV_H_
