#include "baselines/baselines.h"

#include "common/env.h"
#include "lsm/wal.h"

namespace tierbase {
namespace baselines {

namespace {

/// Redis-AOF-like: hash engine + append-only file with everysec fsync.
class AofEngine : public KvEngine {
 public:
  static Result<std::unique_ptr<AofEngine>> Open(const std::string& dir) {
    TIERBASE_RETURN_IF_ERROR(env::CreateDirIfMissing(dir));
    auto engine = std::unique_ptr<AofEngine>(new AofEngine());
    lsm::WalOptions wal_options;
    wal_options.sync_mode = lsm::WalSyncMode::kInterval;
    wal_options.sync_interval_micros = 1'000'000;  // appendfsync everysec.
    auto wal = lsm::WalWriter::Open(dir + "/appendonly.aof", wal_options);
    if (!wal.ok()) return wal.status();
    engine->wal_ = std::move(*wal);
    return engine;
  }

  std::string name() const override { return "redis-aof"; }

  Status Set(const Slice& key, const Slice& value) override {
    TIERBASE_RETURN_IF_ERROR(
        wal_->AddRecord(lsm::EncodeWalMutation(false, key, value)));
    return cache_.Set(key, value);
  }
  Status Get(const Slice& key, std::string* value) override {
    return cache_.Get(key, value);
  }
  Status Delete(const Slice& key) override {
    TIERBASE_RETURN_IF_ERROR(
        wal_->AddRecord(lsm::EncodeWalMutation(true, key, Slice())));
    return cache_.Delete(key);
  }
  UsageStats GetUsage() const override {
    UsageStats usage = cache_.GetUsage();
    usage.disk_bytes += wal_->size();
    return usage;
  }
  Status WaitIdle() override { return wal_->Sync(); }

 private:
  AofEngine() : cache_(cache::HashEngineOptions{}) {}

  cache::HashEngine cache_;
  std::unique_ptr<lsm::WalWriter> wal_;
};

/// LSM-backed persistent baseline.
std::unique_ptr<KvEngine> MakeLsmBaseline(const std::string& dir,
                                          BaselineProfile profile) {
  lsm::LsmOptions options;
  options.dir = dir;
  options.wal_mode = lsm::WalMode::kFile;
  auto store = lsm::LsmStore::Open(options);
  if (!store.ok()) return nullptr;
  return std::make_unique<ProfiledEngine>(std::move(*store),
                                          std::move(profile));
}

}  // namespace

// Emulation constant table (see header comment and DESIGN.md). The per-op
// tax depends on the threading mode: Memcached and Dragonfly carry their
// connection-state-machine / fiber machinery as pure overhead when pinned
// to one thread, but amortize it well across threads; Redis is optimized
// for exactly one thread and gains nothing from more (paper §6.2.1).
//
//   system      tax single  tax multi  mem mult  disk mult  rationale
//   redis          300 ns     300 ns     1.25      1.0      robj+dictEntry
//   memcached     2000 ns     600 ns     0.85      1.0      slabs; conn FSM
//   dragonfly     2500 ns     800 ns     0.95      1.0      fiber/proactor
//   redis-aof      300 ns       -        1.25      1.0      robj + AOF file
//   cassandra     6000 ns       -        1.0       1.6      JVM/SEDA, sstable
//                                                           metadata+commitlog
//   hbase         9000 ns       -        1.0       1.8      JVM + HDFS-ish
//                                                           replication, RPC

std::unique_ptr<KvEngine> MakeRedisLike() {
  cache::HashEngineOptions options;
  options.shards = 1;  // The single event-loop dict.
  return std::make_unique<ProfiledEngine>(
      std::make_unique<cache::HashEngine>(options),
      BaselineProfile{"redis", 300, 1.25, 1.0});
}

std::unique_ptr<KvEngine> MakeMemcachedLike(int threads) {
  cache::HashEngineOptions options;
  options.shards = std::max(1, threads) * 4;  // Fine-grained bucket locks.
  uint64_t tax = threads <= 1 ? 2000 : 600;
  return std::make_unique<ProfiledEngine>(
      std::make_unique<cache::HashEngine>(options),
      BaselineProfile{"memcached", tax, 0.85, 1.0});
}

std::unique_ptr<KvEngine> MakeDragonflyLike(int threads) {
  cache::HashEngineOptions options;
  options.shards = std::max(1, threads);  // Shared-nothing per-core shards.
  uint64_t tax = threads <= 1 ? 2500 : 800;
  return std::make_unique<ProfiledEngine>(
      std::make_unique<cache::HashEngine>(options),
      BaselineProfile{"dragonfly", tax, 0.95, 1.0});
}

std::unique_ptr<KvEngine> MakeRedisAof(const std::string& dir) {
  auto aof = AofEngine::Open(dir);
  if (!aof.ok()) return nullptr;
  return std::make_unique<ProfiledEngine>(
      std::move(*aof), BaselineProfile{"redis-aof", 300, 1.25, 1.0});
}

std::unique_ptr<KvEngine> MakeCassandraLike(const std::string& dir) {
  return MakeLsmBaseline(dir, BaselineProfile{"cassandra", 6000, 1.0, 1.6});
}

std::unique_ptr<KvEngine> MakeHBaseLike(const std::string& dir) {
  return MakeLsmBaseline(dir, BaselineProfile{"hbase", 9000, 1.0, 1.8});
}

}  // namespace baselines
}  // namespace tierbase
