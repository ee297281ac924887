#include "common/env.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace tierbase {

namespace {

class PosixWritableFile final : public WritableFile {
 public:
  PosixWritableFile(std::string path, int fd, uint64_t initial_size = 0)
      : path_(std::move(path)), fd_(fd), size_(initial_size) {}
  ~PosixWritableFile() override {
    if (fd_ >= 0) close(fd_);
  }

  Status Append(const Slice& data) override {
    size_ += data.size();
    if (buffer_.empty() && data.size() >= kBufferSize) {
      // A buffer's worth or more with nothing ahead of it goes straight to
      // write(2), without a copy into buffer_. What a failed write leaves
      // unwritten is buffered, as Flush leaves it, for a later Flush.
      const size_t written = WriteAll(data.data(), data.size());
      if (written == data.size()) return Status::OK();
      buffer_.assign(data.data() + written, data.size() - written);
      return Status::IOError("write failed: " + path_);
    }
    buffer_.append(data.data(), data.size());
    if (buffer_.size() >= kBufferSize) return Flush();
    return Status::OK();
  }

  Status Flush() override {
    if (buffer_.empty()) return Status::OK();
    // Drop what did reach the file even when a later write fails, so a
    // retried Flush does not write those bytes twice.
    const size_t written = WriteAll(buffer_.data(), buffer_.size());
    buffer_.erase(0, written);
    if (!buffer_.empty()) return Status::IOError("write failed: " + path_);
    return Status::OK();
  }

  Status Sync() override {
    TIERBASE_RETURN_IF_ERROR(Flush());
    if (fdatasync(fd_) != 0) return Status::IOError("fsync failed: " + path_);
    return Status::OK();
  }

  Status Close() override {
    Status s = Flush();
    if (fd_ >= 0) {
      close(fd_);
      fd_ = -1;
    }
    return s;
  }

  uint64_t Size() const override { return size_; }

  bool DropBufferedTail(uint64_t size) override {
    if (size > size_ || size_ - size > buffer_.size()) return false;
    buffer_.resize(buffer_.size() - (size_ - size));
    size_ = size;
    return true;
  }

 private:
  /// Writes [p, p + n) until done or a write(2) fails; returns the bytes
  /// written.
  size_t WriteAll(const char* p, size_t n) {
    size_t written = 0;
    while (written < n) {
      ssize_t r = write(fd_, p + written, n - written);
      if (r <= 0) {
        if (r < 0 && errno == EINTR) continue;
        break;
      }
      written += static_cast<size_t>(r);
    }
    return written;
  }

  static constexpr size_t kBufferSize = 64 * 1024;
  std::string path_;
  int fd_;
  std::string buffer_;
  uint64_t size_ = 0;
};

class PosixRandomAccessFile final : public RandomAccessFile {
 public:
  PosixRandomAccessFile(std::string path, int fd, uint64_t size)
      : path_(std::move(path)), fd_(fd), size_(size) {}
  ~PosixRandomAccessFile() override {
    if (fd_ >= 0) close(fd_);
  }

  Status Read(uint64_t offset, size_t n, std::string* out) const override {
    out->resize(n);
    ssize_t r = pread(fd_, out->data(), n, static_cast<off_t>(offset));
    if (r < 0) return Status::IOError("pread failed: " + path_);
    out->resize(static_cast<size_t>(r));
    return Status::OK();
  }

  uint64_t Size() const override { return size_; }

 private:
  std::string path_;
  int fd_;
  uint64_t size_;
};

class PosixEnv final : public Env {
 public:
  Status NewWritableFile(const std::string& path,
                         std::unique_ptr<WritableFile>* file) override {
    int fd = open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return Status::IOError("cannot create " + path);
    *file = std::make_unique<PosixWritableFile>(path, fd);
    return Status::OK();
  }

  Status NewAppendableFile(const std::string& path,
                           std::unique_ptr<WritableFile>* file) override {
    int fd = open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0) return Status::IOError("cannot open for append " + path);
    struct stat st;
    if (fstat(fd, &st) != 0) {
      close(fd);
      return Status::IOError("cannot stat " + path);
    }
    *file = std::make_unique<PosixWritableFile>(
        path, fd, static_cast<uint64_t>(st.st_size));
    return Status::OK();
  }

  Status NewRandomAccessFile(
      const std::string& path,
      std::unique_ptr<RandomAccessFile>* file) override {
    int fd = open(path.c_str(), O_RDONLY);
    if (fd < 0) return Status::IOError("cannot open " + path);
    struct stat st;
    if (fstat(fd, &st) != 0) {
      close(fd);
      return Status::IOError("cannot stat " + path);
    }
    *file = std::make_unique<PosixRandomAccessFile>(
        path, fd, static_cast<uint64_t>(st.st_size));
    return Status::OK();
  }

  Status CreateDirIfMissing(const std::string& path) override {
    if (mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IOError("mkdir failed: " + path);
    }
    return Status::OK();
  }

  Status RemoveFile(const std::string& path) override {
    if (unlink(path.c_str()) != 0 && errno != ENOENT) {
      return Status::IOError("unlink failed: " + path);
    }
    return Status::OK();
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    if (rename(from.c_str(), to.c_str()) != 0) {
      return Status::IOError("rename failed: " + from + " -> " + to);
    }
    return Status::OK();
  }

  bool FileExists(const std::string& path) override {
    return access(path.c_str(), F_OK) == 0;
  }

  Status ListDir(const std::string& path,
                 std::vector<std::string>* names) override {
    names->clear();
    DIR* dir = opendir(path.c_str());
    if (dir == nullptr) return Status::IOError("opendir failed: " + path);
    struct dirent* entry;
    while ((entry = readdir(dir)) != nullptr) {
      std::string name = entry->d_name;
      if (name != "." && name != "..") names->push_back(std::move(name));
    }
    closedir(dir);
    return Status::OK();
  }

  uint64_t FileSize(const std::string& path) override {
    struct stat st;
    if (stat(path.c_str(), &st) != 0) return 0;
    return static_cast<uint64_t>(st.st_size);
  }

  Status Truncate(const std::string& path, uint64_t size) override {
    if (truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
      return Status::IOError("truncate failed: " + path);
    }
    return Status::OK();
  }
};

std::atomic<Env*>& GlobalEnvSlot() {
  static std::atomic<Env*> slot{nullptr};
  return slot;
}

}  // namespace

Env* Env::Default() {
  static PosixEnv* posix = new PosixEnv();  // Never freed: outlives statics.
  return posix;
}

namespace env {

Env* SwapGlobalEnv(Env* e) {
  Env* prev = GlobalEnvSlot().exchange(e);
  return prev == nullptr ? Env::Default() : prev;
}

Env* GlobalEnv() {
  Env* e = GlobalEnvSlot().load(std::memory_order_acquire);
  return e == nullptr ? Env::Default() : e;
}

Status NewWritableFile(const std::string& path,
                       std::unique_ptr<WritableFile>* file) {
  return GlobalEnv()->NewWritableFile(path, file);
}

Status NewAppendableFile(const std::string& path,
                         std::unique_ptr<WritableFile>* file) {
  return GlobalEnv()->NewAppendableFile(path, file);
}

Status NewRandomAccessFile(const std::string& path,
                           std::unique_ptr<RandomAccessFile>* file) {
  return GlobalEnv()->NewRandomAccessFile(path, file);
}

Status ReadFileToString(const std::string& path, std::string* out) {
  std::unique_ptr<RandomAccessFile> file;
  TIERBASE_RETURN_IF_ERROR(NewRandomAccessFile(path, &file));
  return file->Read(0, file->Size(), out);
}

Status WriteStringToFileSync(const std::string& path, const Slice& data) {
  std::unique_ptr<WritableFile> file;
  TIERBASE_RETURN_IF_ERROR(NewWritableFile(path, &file));
  TIERBASE_RETURN_IF_ERROR(file->Append(data));
  TIERBASE_RETURN_IF_ERROR(file->Sync());
  return file->Close();
}

Status CreateDirIfMissing(const std::string& path) {
  return GlobalEnv()->CreateDirIfMissing(path);
}

Status RemoveFile(const std::string& path) {
  return GlobalEnv()->RemoveFile(path);
}

Status RenameFile(const std::string& from, const std::string& to) {
  return GlobalEnv()->RenameFile(from, to);
}

bool FileExists(const std::string& path) {
  return GlobalEnv()->FileExists(path);
}

Status ListDir(const std::string& path, std::vector<std::string>* names) {
  return GlobalEnv()->ListDir(path, names);
}

uint64_t FileSize(const std::string& path) {
  return GlobalEnv()->FileSize(path);
}

Status Truncate(const std::string& path, uint64_t size) {
  return GlobalEnv()->Truncate(path, size);
}

Status RemoveDirRecursive(const std::string& path) {
  std::vector<std::string> names;
  if (!ListDir(path, &names).ok()) return Status::OK();  // Already gone.
  for (const auto& name : names) {
    std::string full = path + "/" + name;
    struct stat st;
    if (stat(full.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
      TIERBASE_RETURN_IF_ERROR(RemoveDirRecursive(full));
    } else {
      unlink(full.c_str());
    }
  }
  rmdir(path.c_str());
  return Status::OK();
}

std::string MakeTempDir(const std::string& prefix) {
  static std::atomic<uint64_t> counter{0};
  std::string path = "/tmp/" + prefix + "_" +
                     std::to_string(static_cast<uint64_t>(getpid())) + "_" +
                     std::to_string(counter.fetch_add(1));
  CreateDirIfMissing(path);
  return path;
}

}  // namespace env
}  // namespace tierbase
