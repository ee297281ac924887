#include "baselines/baselines.h"

#include "core/tierbase.h"

namespace tierbase {
namespace baselines {

namespace {

/// LSM-backed persistent baseline.
std::unique_ptr<KvEngine> MakeLsmBaseline(const std::string& dir,
                                          BaselineProfile profile) {
  lsm::LsmOptions options;
  options.dir = dir;
  auto store = lsm::LsmStore::Open(options);
  if (!store.ok()) return nullptr;
  return std::make_unique<ProfiledEngine>(std::move(*store),
                                          std::move(profile));
}

}  // namespace

// Emulation constant table (see the header comment). The per-op
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
  TierBaseOptions options;
  options.policy = CachingPolicy::kWalFile;  // Default 1 s interval: AOF's
  options.wal_dir = dir;                     // appendfsync everysec.
  options.cache.shards = 1;                  // The single event-loop dict.
  options.analytics.enabled = false;
  auto db = TierBase::Open(options, nullptr);
  if (!db.ok()) return nullptr;
  return std::make_unique<ProfiledEngine>(
      std::move(*db), BaselineProfile{"redis-aof", 300, 1.25, 1.0});
}

std::unique_ptr<KvEngine> MakeCassandraLike(const std::string& dir) {
  return MakeLsmBaseline(dir, BaselineProfile{"cassandra", 6000, 1.0, 1.6});
}

std::unique_ptr<KvEngine> MakeHBaseLike(const std::string& dir) {
  return MakeLsmBaseline(dir, BaselineProfile{"hbase", 9000, 1.0, 1.8});
}

}  // namespace baselines
}  // namespace tierbase
