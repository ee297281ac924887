#include "lsm/wal.h"

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/logging.h"

namespace tierbase {
namespace lsm {

Result<std::unique_ptr<WalWriter>> WalWriter::Open(const std::string& path,
                                                   const WalOptions& options,
                                                   bool append) {
  std::unique_ptr<WritableFile> file;
  Status s = append ? env::NewAppendableFile(path, &file)
                    : env::NewWritableFile(path, &file);
  if (!s.ok()) return s;
  return std::unique_ptr<WalWriter>(
      new WalWriter(path, std::move(file), options));
}

Status WalWriter::AddRecord(const Slice& record) {
  common::MutexLock lock(&mu_);
  if (!error_.ok()) return error_;
  framed_.clear();
  PutFixed32(&framed_,
             crc32c::Mask(crc32c::Value(record.data(), record.size())));
  PutFixed32(&framed_, static_cast<uint32_t>(record.size()));
  framed_.append(record.data(), record.size());
  return AppendFramedLocked();
}

Status WalWriter::AddMutations(const std::vector<WalMutation>& ops) {
  if (ops.empty()) return Status::OK();
  common::MutexLock lock(&mu_);
  if (!error_.ok()) return error_;
  size_t total = 0;
  for (const WalMutation& op : ops) {
    total += 8 + 1 + VarintLength(op.key.size()) + op.key.size() +
             VarintLength(op.value.size()) + op.value.size();
  }
  framed_.clear();
  framed_.reserve(total);
  for (const WalMutation& op : ops) {
    // The header's slot first; its crc and length are known once the
    // payload (EncodeWalMutation's layout) follows it.
    const size_t header = framed_.size();
    framed_.append(8, '\0');
    framed_.push_back(op.is_delete ? kWalOpDelete : kWalOpPut);
    PutLengthPrefixedSlice(&framed_, op.key);
    PutLengthPrefixedSlice(&framed_, op.value);
    const char* payload = framed_.data() + header + 8;
    const size_t len = framed_.size() - header - 8;
    EncodeFixed32(&framed_[header], crc32c::Mask(crc32c::Value(payload, len)));
    EncodeFixed32(&framed_[header + 4], static_cast<uint32_t>(len));
  }
  return AppendFramedLocked();
}

Status WalWriter::AppendFramedLocked() {
  mu_.AssertHeld();
  // Every record of the append goes down in one Append: two could leave a
  // header without its payload if the second one failed.
  const uint64_t before = file_->Size();
  Status s = file_->Append(framed_);

  // The paper's "WAL" mode: records accumulate in the writer's buffer and
  // hit the disk on the sync interval ("asynchronous disk flushes every
  // second"), bounding loss to one interval. Interval 0 syncs every append.
  uint64_t now = options_.clock->NowMicros();
  if (s.ok() && now - last_sync_micros_ >= options_.sync_interval_micros) {
    last_sync_micros_ = now;
    s = file_->Sync();
  }
  if (s.ok() || file_->DropBufferedTail(before)) return s;
  // Some of the failed append reached the OS, and with it everything
  // before it (the file writes its buffer in order). Cut the file back to
  // the end of the last record; should that fail too, a partial record is
  // a torn tail, which replay drops.
  error_ = s;
  env::Truncate(path_, before);
  return s;
}

Status WalWriter::Sync() {
  common::MutexLock lock(&mu_);
  if (!error_.ok()) return error_;
  last_sync_micros_ = options_.clock->NowMicros();
  error_ = file_->Sync();
  return error_;
}

Result<std::unique_ptr<WalReader>> WalReader::Open(const std::string& path) {
  std::string contents;
  Status s = env::ReadFileToString(path, &contents);
  if (!s.ok()) return s;
  return std::unique_ptr<WalReader>(new WalReader(std::move(contents)));
}

WalRead WalReader::ReadRecord(std::string* record) {
  if (sticky_ != WalRead::kOk) return sticky_;
  if (pos_ == contents_.size()) return WalRead::kEof;
  if (pos_ + 8 > contents_.size()) {
    damage_ = "partial record header at tail";
    return sticky_ = WalRead::kTruncatedTail;
  }
  uint32_t crc = crc32c::Unmask(DecodeFixed32(contents_.data() + pos_));
  uint64_t len = DecodeFixed32(contents_.data() + pos_ + 4);
  if (pos_ + 8 + len > contents_.size()) {
    // The payload runs past EOF: either the append was torn mid-payload,
    // or the 8-byte header itself was torn and the length field is
    // garbage. Both are tail damage — nothing readable follows.
    damage_ = "partial record payload at tail";
    return sticky_ = WalRead::kTruncatedTail;
  }
  const char* payload = contents_.data() + pos_ + 8;
  if (crc32c::Value(payload, static_cast<size_t>(len)) != crc) {
    if (pos_ + 8 + len == contents_.size()) {
      // Point-in-time recovery semantics (RocksDB's default): a checksum
      // mismatch on the final record is indistinguishable from a torn
      // write persisted out of order — treat it as tail damage.
      damage_ = "crc mismatch on final record";
      return sticky_ = WalRead::kTruncatedTail;
    }
    damage_ = "crc mismatch mid-log";
    return sticky_ = WalRead::kCorruption;
  }
  record->assign(payload, static_cast<size_t>(len));
  pos_ += 8 + len;
  return WalRead::kOk;
}

Status ReplayWal(const std::string& path, bool torn_tail_ok,
                 const std::function<Status(const Slice& record)>& apply,
                 WalRecoveryStats* stats) {
  auto reader = WalReader::Open(path);
  if (!reader.ok()) return reader.status();
  std::string record;
  while (true) {
    switch ((*reader)->ReadRecord(&record)) {
      case WalRead::kOk:
        TIERBASE_RETURN_IF_ERROR(apply(record));
        ++stats->records_replayed;
        break;
      case WalRead::kEof:
        return Status::OK();
      case WalRead::kTruncatedTail:
        if (!torn_tail_ok) {
          return Status::Corruption("wal " + path +
                                    ": torn tail on an older log (" +
                                    (*reader)->damage() + ")");
        }
        // The torn suffix never made it to a sync: log it and stop.
        TB_LOG_WARN("wal recovery: %s: torn tail, skipping %llu bytes (%s)",
                    path.c_str(),
                    static_cast<unsigned long long>((*reader)->skipped_bytes()),
                    (*reader)->damage().c_str());
        ++stats->truncated_tails;
        stats->skipped_bytes += (*reader)->skipped_bytes();
        return Status::OK();
      case WalRead::kCorruption:
        return Status::Corruption("wal " + path + ": " + (*reader)->damage() +
                                  " at offset " +
                                  std::to_string((*reader)->offset()));
    }
  }
}

std::string EncodeWalMutation(bool is_delete, const Slice& key,
                              const Slice& value) {
  std::string rec;
  rec.push_back(is_delete ? kWalOpDelete : kWalOpPut);
  PutLengthPrefixedSlice(&rec, key);
  PutLengthPrefixedSlice(&rec, value);
  return rec;
}

bool DecodeWalMutation(const Slice& record, bool* is_delete, Slice* key,
                       Slice* value) {
  Slice in = record;
  if (in.empty() || (in[0] != kWalOpPut && in[0] != kWalOpDelete)) {
    return false;
  }
  *is_delete = in[0] == kWalOpDelete;
  in.remove_prefix(1);
  return GetLengthPrefixedSlice(&in, key) && GetLengthPrefixedSlice(&in, value);
}

}  // namespace lsm
}  // namespace tierbase
