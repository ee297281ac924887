// Write-ahead log for the LSM engine and for TierBase's cache-tier
// persistence modes: a file synced at an interval (WAL on SSD, flushed
// every sync_interval) or per record. WAL-PMem (paper Fig 8) is TierBase's
// kWalPmem policy, a PMem ring buffer in front of this file log.
//
// Record framing: fixed32 masked-crc | fixed32 len | payload. Both users
// carry the same mutation payload (EncodeWalMutation, framed in place by
// WalWriter::AddMutations) and recover through the same loop (ReplayWal).

#ifndef TIERBASE_LSM_WAL_H_
#define TIERBASE_LSM_WAL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/env.h"
#include "common/mutex.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace tierbase {
namespace lsm {

struct WalOptions {
  /// fsync at most once per interval; 0 = fsync every append (each
  /// AddRecord or AddMutations call). The 1 s default is the paper's
  /// "WAL" (Redis' appendfsync everysec).
  uint64_t sync_interval_micros = 1'000'000;
  Clock* clock = Clock::Real();
};

/// One logged mutation: a put of key = value, or a delete of key. It views
/// bytes the caller owns, which must stay valid for the call it is passed
/// to.
struct WalMutation {
  Slice key;
  Slice value;
  bool is_delete = false;
};

/// Append-only log writer over a file.
class WalWriter {
 public:
  /// `append` reopens an existing log and continues after its last record
  /// (the crash-safe recovery path: already-synced records stay synced).
  /// The default truncates — only correct for brand-new log files.
  static Result<std::unique_ptr<WalWriter>> Open(const std::string& path,
                                                 const WalOptions& options,
                                                 bool append = false);
  /// Flushes buffered records to the OS on clean shutdown (interval mode
  /// buffers appends between syncs). A poisoned writer writes nothing.
  ~WalWriter() {
    if (file_ != nullptr && error_.ok()) file_->Close();
  }

  /// A record whose append (or the sync after it) fails never reaches the
  /// log, where replay would bring it back: while it is still in the
  /// file's buffer it is taken back and the log stays usable; once some of
  /// it went to the OS, the file is cut back to the end of the record
  /// before it and the writer is poisoned (see error()).
  Status AddRecord(const Slice& record);
  /// Logs one record per op, each byte-identical to
  /// AddRecord(EncodeWalMutation(op)), with a single Append: the payloads
  /// are encoded straight into the framing buffer (LevelDB's one log
  /// write per write group). Fails as AddRecord does.
  Status AddMutations(const std::vector<WalMutation>& ops);
  /// A failed sync poisons the writer: what the log holds is unknown.
  Status Sync();
  uint64_t size() const { return file_->Size(); }
  /// OK while the log is usable; once poisoned, the error that did it.
  /// Every later call fails with it, and neither the buffered bytes nor
  /// the destructor write anything more.
  Status error() const {
    common::MutexLock lock(&mu_);
    return error_;
  }

 private:
  WalWriter(std::string path, std::unique_ptr<WritableFile> file,
            const WalOptions& options)
      : path_(std::move(path)), file_(std::move(file)), options_(options) {}

  /// Appends framed_ to the file, then syncs if the interval has passed.
  Status AppendFramedLocked() EXCLUSIVE_LOCKS_REQUIRED(mu_);

  const std::string path_;
  std::unique_ptr<WritableFile> file_;  // Never reseated; calls serialize
                                        // under mu_.
  WalOptions options_;
  mutable common::Mutex mu_;
  Status error_ GUARDED_BY(mu_);
  uint64_t last_sync_micros_ GUARDED_BY(mu_) = 0;
  // Framing buffer reused across appends, so an append costs no
  // allocation once the buffer has grown to the largest append size.
  std::string framed_ GUARDED_BY(mu_);
};

/// Outcome of one WalReader::ReadRecord call. The reader distinguishes a
/// clean tail from damage, and tail damage from mid-log damage — the
/// difference between "crash mid-append, recoverable" and "acknowledged
/// data lost, surface it":
enum class WalRead {
  kOk,             // *record holds the next complete, CRC-verified record.
  kEof,            // Clean end of log: the last record ended exactly at EOF.
  kTruncatedTail,  // Partial record at the tail (torn final write). All
                   // complete records were already returned; skipped_bytes()
                   // counts the torn suffix. Recoverable: log and continue.
  kCorruption,     // CRC/framing damage before the tail — records after the
                   // damage point are unreachable. Callers must surface
                   // Status::Corruption, not silently succeed.
};

/// Sequential log reader. Complete records before any damage are always
/// returned; a torn final record never poisons replay of earlier records.
class WalReader {
 public:
  static Result<std::unique_ptr<WalReader>> Open(const std::string& path);

  /// Damage outcomes are sticky: once kTruncatedTail/kCorruption is
  /// returned, every subsequent call repeats it.
  WalRead ReadRecord(std::string* record);

  uint64_t offset() const { return pos_; }          // Parse position.
  uint64_t size() const { return contents_.size(); }
  /// Bytes from the damage point to EOF (after a non-kOk/kEof outcome).
  uint64_t skipped_bytes() const { return contents_.size() - pos_; }
  /// Human-readable damage detail (after kTruncatedTail/kCorruption).
  const std::string& damage() const { return damage_; }

 private:
  explicit WalReader(std::string contents) : contents_(std::move(contents)) {}

  std::string contents_;
  size_t pos_ = 0;
  WalRead sticky_ = WalRead::kOk;  // Latched damage state.
  std::string damage_;
};

/// What a recovery replayed: the one audit-trail record of both WALs,
/// reported by LsmStore, TierBase and StorageAdapter.
struct WalRecoveryStats {
  uint64_t records_replayed = 0;
  uint64_t truncated_tails = 0;  // Logs that ended in a torn write.
  uint64_t skipped_bytes = 0;    // Torn-suffix bytes dropped at tails.
};

/// Replays the log at `path`, handing each complete record to `apply` in
/// order, and adds what it replayed to `*stats`. A torn tail ends replay
/// with OK when `torn_tail_ok` (the log that was live at the crash) and
/// is Corruption otherwise: an older log was synced before it was
/// retired, so a torn tail there means acknowledged data vanished.
/// Mid-log damage is always Corruption, as is any error from `apply`.
Status ReplayWal(const std::string& path, bool torn_tail_ok,
                 const std::function<Status(const Slice& record)>& apply,
                 WalRecoveryStats* stats);

/// The mutation payload of both WALs (the LSM store's and TierBase's
/// cache-tier log): op byte (1 = put, 0 = delete) | lp(key) | lp(value).
constexpr char kWalOpPut = 1;
constexpr char kWalOpDelete = 0;
std::string EncodeWalMutation(bool is_delete, const Slice& key,
                              const Slice& value);
/// Parses an EncodeWalMutation payload; `key` and `value` point into
/// `record`. False when the payload does not parse, an op byte other than
/// put or delete included.
bool DecodeWalMutation(const Slice& record, bool* is_delete, Slice* key,
                       Slice* value);

}  // namespace lsm
}  // namespace tierbase

#endif  // TIERBASE_LSM_WAL_H_
