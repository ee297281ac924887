// File-system access for the LSM engine (WAL, SSTs, manifest), the
// baselines' AOF persistence, and trace recording.
//
// All IO goes through an Env object so tests can interpose on it: the
// namespace-level helpers below delegate to a process-global Env that
// defaults to the POSIX implementation and can be swapped (see
// SwapGlobalEnv / ScopedEnvOverride in fault_env.h). FaultInjectionEnv
// (src/common/fault_env.h) uses this seam to simulate crashes: dropped
// un-synced data, torn final writes, failed syncs, failed file creation.

#ifndef TIERBASE_COMMON_ENV_H_
#define TIERBASE_COMMON_ENV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"

namespace tierbase {

/// Sequential append-only file with explicit Sync.
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status Append(const Slice& data) = 0;
  virtual Status Flush() = 0;   // Push to OS.
  virtual Status Sync() = 0;    // fsync.
  virtual Status Close() = 0;
  virtual uint64_t Size() const = 0;
  /// Takes back what was appended after the first `size` bytes, when none
  /// of it has left the user-space buffer yet (a record whose append or
  /// sync failed must not reach the file later); false, changing nothing,
  /// when some of it already went to the OS.
  virtual bool DropBufferedTail(uint64_t size) = 0;
};

/// Positioned-read file.
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;
  virtual Status Read(uint64_t offset, size_t n, std::string* out) const = 0;
  virtual uint64_t Size() const = 0;
};

/// File-system interface. Every durability-relevant operation in the tree
/// funnels through one of these, which is what makes crash consistency a
/// testable property: FaultInjectionEnv wraps the default POSIX Env and
/// injects deterministic failures at each call site.
class Env {
 public:
  virtual ~Env() = default;

  virtual Status NewWritableFile(const std::string& path,
                                 std::unique_ptr<WritableFile>* file) = 0;
  /// Opens for append, creating if missing and preserving existing bytes
  /// (which are assumed durable: this is the crash-safe WAL-reopen path —
  /// an O_TRUNC reopen would lose synced records until the first re-sync).
  virtual Status NewAppendableFile(const std::string& path,
                                   std::unique_ptr<WritableFile>* file) = 0;
  virtual Status NewRandomAccessFile(
      const std::string& path, std::unique_ptr<RandomAccessFile>* file) = 0;
  virtual Status CreateDirIfMissing(const std::string& path) = 0;
  virtual Status RemoveFile(const std::string& path) = 0;
  virtual Status RenameFile(const std::string& from, const std::string& to) = 0;
  virtual bool FileExists(const std::string& path) = 0;
  virtual Status ListDir(const std::string& path,
                         std::vector<std::string>* names) = 0;
  virtual uint64_t FileSize(const std::string& path) = 0;
  /// Truncates a (closed) file to exactly `size` bytes.
  virtual Status Truncate(const std::string& path, uint64_t size) = 0;

  /// The POSIX implementation. Singleton; never deleted.
  static Env* Default();
};

namespace env {

/// The Env used by the namespace-level helpers below. Defaults to
/// Env::Default(); tests swap in a FaultInjectionEnv. Returns the
/// previously installed Env (never null). Not thread-safe with respect to
/// concurrent IO — swap only while no store/engine is running.
Env* SwapGlobalEnv(Env* env);
Env* GlobalEnv();

Status NewWritableFile(const std::string& path,
                       std::unique_ptr<WritableFile>* file);
Status NewAppendableFile(const std::string& path,
                         std::unique_ptr<WritableFile>* file);
Status NewRandomAccessFile(const std::string& path,
                           std::unique_ptr<RandomAccessFile>* file);
Status ReadFileToString(const std::string& path, std::string* out);
Status WriteStringToFileSync(const std::string& path, const Slice& data);
Status CreateDirIfMissing(const std::string& path);
Status RemoveFile(const std::string& path);
Status RenameFile(const std::string& from, const std::string& to);
bool FileExists(const std::string& path);
Status ListDir(const std::string& path, std::vector<std::string>* names);
uint64_t FileSize(const std::string& path);
Status Truncate(const std::string& path, uint64_t size);
/// Recursively deletes a directory tree (test/bench temp dirs).
Status RemoveDirRecursive(const std::string& path);
/// Creates a fresh unique temp directory under /tmp.
std::string MakeTempDir(const std::string& prefix);

}  // namespace env
}  // namespace tierbase

#endif  // TIERBASE_COMMON_ENV_H_
