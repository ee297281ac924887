// Crash-recovery differential suite (crash-safety audit).
//
// Built on FaultInjectionEnv: every test reroutes all file IO through a
// deterministic fault injector, simulates a crash (freeze the filesystem,
// destroy the store, drop un-synced page-cache data, optionally tear the
// final write at a byte offset), reopens, and asserts the durability
// contract:
//
//   * every synced acknowledged write is present with its exact value,
//   * no torn or fabricated value is ever returned,
//   * WAL replay distinguishes a clean tail from mid-log corruption
//     (Corruption surfaced; skipped tail bytes counted in stats),
//   * a torn final record never poisons replay of earlier records.
//
// Crash points are chosen by seeded RNGs — reproducible, not flaky.

#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/env.h"
#include "common/fault_env.h"
#include "core/storage_adapter.h"
#include "core/tierbase.h"
#include "lsm/lsm_store.h"
#include "lsm/wal.h"
#include "pmem/pmem_device.h"
#include "workload/ycsb.h"

namespace tierbase {
namespace {

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = env::MakeTempDir("tb_crash_test");
    fault_ = std::make_unique<FaultInjectionEnv>();
    scoped_ = std::make_unique<ScopedEnvOverride>(fault_.get());
  }
  void TearDown() override {
    scoped_.reset();  // Restore the real env before cleanup.
    fault_.reset();
    env::RemoveDirRecursive(dir_);
  }

  /// kill -9 + power cut: freeze the fs, destroy the store via `teardown`,
  /// lose everything un-synced (keeping `tear_keep` bytes of each file's
  /// un-synced suffix — a torn final write), then let the "machine" boot.
  template <typename Teardown>
  void Crash(Teardown teardown, size_t tear_keep = 0) {
    fault_->SetFilesystemActive(false);
    teardown();
    ASSERT_TRUE(fault_->DropUnsyncedFileData(tear_keep).ok());
    fault_->SetFilesystemActive(true);
  }

  std::string dir_;
  std::unique_ptr<FaultInjectionEnv> fault_;
  std::unique_ptr<ScopedEnvOverride> scoped_;
};

// --- FaultInjectionEnv itself. ---

TEST_F(CrashRecoveryTest, FaultEnvTracksSyncBoundary) {
  const std::string path = dir_ + "/f";
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env::NewWritableFile(path, &file).ok());
  ASSERT_TRUE(file->Append("durable").ok());
  ASSERT_TRUE(file->Sync().ok());
  ASSERT_TRUE(file->Append("volatile").ok());
  ASSERT_TRUE(file->Flush().ok());  // In the OS, not on the platter.
  EXPECT_EQ(fault_->synced_size(path), 7u);
  EXPECT_EQ(fault_->unsynced_bytes(path), 8u);
  ASSERT_TRUE(file->Close().ok());

  ASSERT_TRUE(fault_->DropUnsyncedFileData().ok());
  std::string contents;
  ASSERT_TRUE(env::ReadFileToString(path, &contents).ok());
  EXPECT_EQ(contents, "durable");
}

TEST_F(CrashRecoveryTest, FaultEnvTearsFinalWrite) {
  const std::string path = dir_ + "/f";
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env::NewWritableFile(path, &file).ok());
  ASSERT_TRUE(file->Append("durable").ok());
  ASSERT_TRUE(file->Sync().ok());
  ASSERT_TRUE(file->Append("torn-write").ok());
  ASSERT_TRUE(file->Close().ok());

  ASSERT_TRUE(fault_->DropUnsyncedFileData(/*tear_keep_bytes=*/4).ok());
  std::string contents;
  ASSERT_TRUE(env::ReadFileToString(path, &contents).ok());
  EXPECT_EQ(contents, "durabletorn");  // Synced prefix + 4 torn bytes.
}

TEST_F(CrashRecoveryTest, FaultEnvFailsNthSync) {
  const std::string path = dir_ + "/f";
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env::NewWritableFile(path, &file).ok());
  fault_->FailNthSync(2);
  ASSERT_TRUE(file->Append("a").ok());
  EXPECT_TRUE(file->Sync().ok());         // 1st sync passes.
  ASSERT_TRUE(file->Append("b").ok());
  EXPECT_TRUE(file->Sync().IsIOError());  // 2nd fails, data NOT durable.
  EXPECT_EQ(fault_->synced_size(path), 1u);
  ASSERT_TRUE(file->Append("c").ok());
  EXPECT_TRUE(file->Sync().ok());         // One-shot: 3rd passes.
  EXPECT_EQ(fault_->synced_size(path), 3u);
}

TEST_F(CrashRecoveryTest, FaultEnvFailsFileCreation) {
  fault_->FailNextFileCreations(1);
  std::unique_ptr<WritableFile> file;
  EXPECT_TRUE(env::NewWritableFile(dir_ + "/no", &file).IsIOError());
  EXPECT_TRUE(env::NewWritableFile(dir_ + "/yes", &file).ok());
}

TEST_F(CrashRecoveryTest, InactiveFilesystemRejectsMutations) {
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env::NewWritableFile(dir_ + "/f", &file).ok());
  fault_->SetFilesystemActive(false);
  EXPECT_TRUE(file->Append("x").IsIOError());
  EXPECT_TRUE(file->Sync().IsIOError());
  std::unique_ptr<WritableFile> other;
  EXPECT_TRUE(env::NewWritableFile(dir_ + "/g", &other).IsIOError());
  EXPECT_TRUE(env::RenameFile(dir_ + "/f", dir_ + "/h").IsIOError());
  fault_->SetFilesystemActive(true);
}

// --- WAL torn-tail sweep: tear the final record at EVERY byte offset. ---

TEST_F(CrashRecoveryTest, WalTearSweepNeverPoisonsEarlierRecords) {
  const std::string path = dir_ + "/sweep.wal";
  std::vector<std::string> records = {"alpha", "bravo-longer-payload", "c"};
  uint64_t full_size = 0;
  {
    lsm::WalOptions options;
    options.sync_interval_micros = 0;
    auto writer = lsm::WalWriter::Open(path, options);
    ASSERT_TRUE(writer.ok());
    for (const auto& r : records) ASSERT_TRUE((*writer)->AddRecord(r).ok());
    full_size = (*writer)->size();
  }
  const uint64_t last_record_start = full_size - (8 + records.back().size());

  for (uint64_t cut = last_record_start; cut <= full_size; ++cut) {
    ASSERT_TRUE(fault_->TearFile(path, cut).ok());
    auto reader = lsm::WalReader::Open(path);
    ASSERT_TRUE(reader.ok());
    std::string rec;
    // The first two records always replay intact.
    ASSERT_EQ((*reader)->ReadRecord(&rec), lsm::WalRead::kOk) << "cut=" << cut;
    EXPECT_EQ(rec, records[0]);
    ASSERT_EQ((*reader)->ReadRecord(&rec), lsm::WalRead::kOk) << "cut=" << cut;
    EXPECT_EQ(rec, records[1]);
    lsm::WalRead tail = (*reader)->ReadRecord(&rec);
    if (cut == full_size) {
      ASSERT_EQ(tail, lsm::WalRead::kOk);
      EXPECT_EQ(rec, records[2]);
      EXPECT_EQ((*reader)->ReadRecord(&rec), lsm::WalRead::kEof);
    } else if (cut == last_record_start) {
      EXPECT_EQ(tail, lsm::WalRead::kEof) << "cut=" << cut;  // Clean tail.
    } else {
      EXPECT_EQ(tail, lsm::WalRead::kTruncatedTail) << "cut=" << cut;
      EXPECT_EQ((*reader)->skipped_bytes(), cut - last_record_start);
    }
    // Rebuild the full log for the next cut position.
    if (cut < full_size) {
      lsm::WalOptions options;
      options.sync_interval_micros = 0;
      auto writer = lsm::WalWriter::Open(path, options);
      ASSERT_TRUE(writer.ok());
      for (const auto& r : records) {
        ASSERT_TRUE((*writer)->AddRecord(r).ok());
      }
    }
  }
}

// --- LSM store: mid-log corruption must fail Open, not silently succeed. --

TEST_F(CrashRecoveryTest, LsmMidWalCorruptionSurfacesCorruption) {
  lsm::LsmOptions options;
  options.dir = dir_ + "/lsm";
  options.wal_sync_interval_micros = 0;
  {
    auto store = lsm::LsmStore::Open(options);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(
          (*store)->Set("key" + std::to_string(i), "value-" + std::to_string(i))
              .ok());
    }
    // Destroy without flushing: state lives only in the WAL.
  }
  std::vector<std::string> names;
  ASSERT_TRUE(env::ListDir(options.dir, &names).ok());
  std::string wal_name;
  for (const auto& n : names) {
    if (n.size() > 4 && n.substr(n.size() - 4) == ".wal") wal_name = n;
  }
  ASSERT_FALSE(wal_name.empty());
  const std::string wal_path = options.dir + "/" + wal_name;
  std::string contents;
  ASSERT_TRUE(env::ReadFileToString(wal_path, &contents).ok());
  // Each record is 8 (header) + 1 (op) + 5 (lp key) + 8 (lp value) = 22
  // bytes; flip a payload byte of record 5 — damage with intact records
  // after it.
  ASSERT_GT(contents.size(), 6u * 22u);
  contents[5 * 22 + 12] ^= 0x5a;
  ASSERT_TRUE(env::WriteStringToFileSync(wal_path, contents).ok());

  auto reopened = lsm::LsmStore::Open(options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption()) << reopened.status().ToString();
}

TEST_F(CrashRecoveryTest, LsmTornWalTailRecoversEarlierRecords) {
  lsm::LsmOptions options;
  options.dir = dir_ + "/lsm";
  options.wal_sync_interval_micros = 0;
  {
    auto store = lsm::LsmStore::Open(options);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(
          (*store)->Set("key" + std::to_string(i), "value-" + std::to_string(i))
              .ok());
    }
  }
  std::vector<std::string> names;
  ASSERT_TRUE(env::ListDir(options.dir, &names).ok());
  std::string wal_path;
  for (const auto& n : names) {
    if (n.size() > 4 && n.substr(n.size() - 4) == ".wal") {
      wal_path = options.dir + "/" + n;
    }
  }
  ASSERT_FALSE(wal_path.empty());
  // Tear 3 bytes into the final record.
  ASSERT_TRUE(fault_->TearFile(wal_path, env::FileSize(wal_path) - 3).ok());

  auto reopened = lsm::LsmStore::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  // Records 0..8 must replay; record 9 was torn.
  std::string value;
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE((*reopened)->Get("key" + std::to_string(i), &value).ok())
        << "key" << i;
    EXPECT_EQ(value, "value-" + std::to_string(i));
  }
  EXPECT_TRUE((*reopened)->Get("key9", &value).IsNotFound());
  auto stats = (*reopened)->GetStats();
  EXPECT_EQ(stats.wal.truncated_tails, 1u);
  EXPECT_GT(stats.wal.skipped_bytes, 0u);
  EXPECT_EQ(stats.wal.records_replayed, 9u);
}

// One sync setting for the LSM's WAL: interval 0 (tierbase_server's
// --wal-sync every) leaves no acknowledged record un-synced; the default
// 1 s interval leaves records buffered between syncs.
TEST_F(CrashRecoveryTest, LsmWalIntervalZeroSyncsEveryRecord) {
  for (uint64_t interval : {uint64_t{0}, uint64_t{1'000'000}}) {
    lsm::LsmOptions options;
    options.dir = dir_ + "/lsm-" + std::to_string(interval);
    options.wal_sync_interval_micros = interval;
    auto store = lsm::LsmStore::Open(options);
    ASSERT_TRUE(store.ok());
    std::vector<std::string> names;
    ASSERT_TRUE(env::ListDir(options.dir, &names).ok());
    std::string wal_path;
    for (const auto& n : names) {
      if (n.size() > 4 && n.substr(n.size() - 4) == ".wal") {
        wal_path = options.dir + "/" + n;
      }
    }
    ASSERT_FALSE(wal_path.empty());
    uint64_t max_unsynced = 0;
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE((*store)->Set("key" + std::to_string(i), "v").ok());
      max_unsynced = std::max(max_unsynced, fault_->unsynced_bytes(wal_path));
    }
    if (interval == 0) {
      EXPECT_EQ(max_unsynced, 0u);
    } else {
      EXPECT_GT(max_unsynced, 0u);
    }
  }
}

// Only the newest WAL can have been live at a crash: rotation syncs a log
// before retiring it, so a torn tail on an older one lost acknowledged
// writes and must fail Open.
TEST_F(CrashRecoveryTest, LsmTornTailOnOlderWalSurfacesCorruption) {
  lsm::LsmOptions options;
  options.dir = dir_ + "/lsm";
  ASSERT_TRUE(env::CreateDirIfMissing(options.dir).ok());
  const std::string older = options.dir + "/000003.wal";
  for (const std::string& path : {older, options.dir + "/000004.wal"}) {
    lsm::WalOptions wal_options;
    wal_options.sync_interval_micros = 0;
    auto writer = lsm::WalWriter::Open(path, wal_options);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE((*writer)
                      ->AddRecord(lsm::EncodeWalMutation(
                          false, "key" + std::to_string(i), "v"))
                      .ok());
    }
  }
  ASSERT_TRUE(fault_->TearFile(older, env::FileSize(older) - 3).ok());

  auto reopened = lsm::LsmStore::Open(options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption()) << reopened.status().ToString();
}

// The storage adapter surfaces the LSM tier's recovery audit trail, so a
// tiered TierBase (whose own wal_* counters are zero) still reports what
// the storage-tier replay saw via Stats/INFO.
TEST_F(CrashRecoveryTest, StorageAdapterSurfacesWalRecoveryStats) {
  lsm::LsmOptions options;
  options.dir = dir_ + "/lsm";
  options.wal_sync_interval_micros = 0;
  {
    auto store = lsm::LsmStore::Open(options);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE((*store)->Set("key" + std::to_string(i), "v").ok());
    }
  }
  std::vector<std::string> names;
  ASSERT_TRUE(env::ListDir(options.dir, &names).ok());
  std::string wal_path;
  for (const auto& n : names) {
    if (n.size() > 4 && n.substr(n.size() - 4) == ".wal") {
      wal_path = options.dir + "/" + n;
    }
  }
  ASSERT_FALSE(wal_path.empty());
  ASSERT_TRUE(fault_->TearFile(wal_path, env::FileSize(wal_path) - 3).ok());

  auto storage = LsmStorageAdapter::Open(options);
  ASSERT_TRUE(storage.ok()) << storage.status().ToString();
  StorageAdapter::WalRecoveryStats stats =
      (*storage)->GetWalRecoveryStats();
  EXPECT_EQ(stats.records_replayed, 9u);
  EXPECT_EQ(stats.truncated_tails, 1u);
  EXPECT_GT(stats.skipped_bytes, 0u);

  TierBaseOptions tb_options;
  tb_options.policy = CachingPolicy::kWriteBack;
  auto db = TierBase::Open(tb_options, storage->get());
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->GetStats().storage_wal.truncated_tails, 1u);
}

// Recovery compacts the WAL (last writer wins) while staying crash-safe:
// the log must not grow with history across restarts, and an immediate
// post-reboot crash must not lose the compacted state.
TEST_F(CrashRecoveryTest, WalCompactsOnRecoveryWithoutLosingData) {
  TierBaseOptions options;
  options.policy = CachingPolicy::kWalFile;
  options.wal_dir = dir_;
  options.wal_sync_interval_micros = 0;
  const std::string wal_path = dir_ + "/tierbase.wal";
  {
    auto db = TierBase::Open(options, nullptr);
    ASSERT_TRUE(db.ok());
    for (int round = 0; round < 20; ++round) {
      for (int i = 0; i < 10; ++i) {  // 200 updates of 10 hot keys.
        ASSERT_TRUE((*db)
                        ->Set("hot" + std::to_string(i),
                              "gen" + std::to_string(round))
                        .ok());
      }
    }
  }
  const uint64_t before = env::FileSize(wal_path);
  {
    auto db = TierBase::Open(options, nullptr);  // Recovery compacts.
    ASSERT_TRUE(db.ok());
    EXPECT_EQ((*db)->GetStats().wal.records_replayed, 200u);
  }
  const uint64_t after = env::FileSize(wal_path);
  EXPECT_LT(after, before / 10);  // 200 records folded to 10 live ones.

  auto db = TierBase::Open(options, nullptr);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->GetStats().wal.records_replayed, 10u);
  std::string value;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*db)->Get("hot" + std::to_string(i), &value).ok());
    EXPECT_EQ(value, "gen19");
  }
}

// --- Sync/creation failures must fail the acknowledgment, not lie. ---

TEST_F(CrashRecoveryTest, FailedSyncFailsTheWrite) {
  lsm::LsmOptions options;
  options.dir = dir_ + "/lsm";
  options.wal_sync_interval_micros = 0;
  auto store = lsm::LsmStore::Open(options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Set("k1", "v1").ok());
  fault_->FailNthSync(1);
  EXPECT_TRUE((*store)->Set("k2", "v2").IsIOError());
  ASSERT_TRUE((*store)->Set("k3", "v3").ok());
}

// A write whose WAL append failed after part of it reached the file must
// not come back on replay, and no later write may land after it. The file
// size limit makes the append short; a forked child keeps the limit, and
// the SIGXFSZ it raises, out of this process.
TEST_F(CrashRecoveryTest, FailedWalAppendNeverComesBackAfterRestart) {
  lsm::LsmOptions options;
  options.dir = dir_ + "/lsm";
  options.wal_sync_interval_micros = 0;
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    signal(SIGXFSZ, SIG_IGN);
    auto store = lsm::LsmStore::Open(options);
    if (!store.ok()) _exit(10);
    if (!(*store)->Set("a", "1").ok()) _exit(11);
    std::vector<std::string> names;
    if (!env::ListDir(options.dir, &names).ok()) _exit(12);
    uint64_t wal_bytes = 0;
    for (const auto& n : names) {
      if (n.size() > 4 && n.substr(n.size() - 4) == ".wal") {
        wal_bytes = env::FileSize(options.dir + "/" + n);
      }
    }
    if (wal_bytes == 0) _exit(13);
    rlimit saved;
    if (getrlimit(RLIMIT_FSIZE, &saved) != 0) _exit(14);
    rlimit limited = saved;
    limited.rlim_cur = wal_bytes + 100;
    if (setrlimit(RLIMIT_FSIZE, &limited) != 0) _exit(15);
    if ((*store)->Set("b", std::string(100000, 'b')).ok()) _exit(16);
    std::string value;
    if (!(*store)->Get("b", &value).IsNotFound()) _exit(17);
    if (setrlimit(RLIMIT_FSIZE, &saved) != 0) _exit(18);
    // Latched: later writes fail, reads still serve.
    if ((*store)->Set("c", "3").ok()) _exit(19);
    if (!(*store)->Get("a", &value).ok() || value != "1") _exit(20);
    if ((*store)->WaitIdle().ok()) _exit(21);
    store->reset();
    _exit(0);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << status;
  ASSERT_EQ(WEXITSTATUS(status), 0);

  auto reopened = lsm::LsmStore::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::string value;
  ASSERT_TRUE((*reopened)->Get("a", &value).ok());
  EXPECT_EQ(value, "1");
  EXPECT_TRUE((*reopened)->Get("b", &value).IsNotFound());
  EXPECT_TRUE((*reopened)->Get("c", &value).IsNotFound());
  EXPECT_EQ((*reopened)->GetStats().wal.records_replayed, 1u);
}

// A write whose WAL sync failed while its record was still buffered is
// taken back: it never reaches the file, and the log keeps serving.
TEST_F(CrashRecoveryTest, FailedWalSyncNeverComesBackAfterRestart) {
  lsm::LsmOptions options;
  options.dir = dir_ + "/lsm";
  options.wal_sync_interval_micros = 0;
  for (bool crash : {false, true}) {
    SCOPED_TRACE(crash ? "crash" : "clean close");
    ASSERT_TRUE(env::RemoveDirRecursive(options.dir).ok() ||
                !env::FileExists(options.dir));
    auto store = lsm::LsmStore::Open(options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Set("a", "1").ok());
    fault_->FailNthSync(1);
    EXPECT_TRUE((*store)->Set("b", "2").IsIOError());
    std::string value;
    EXPECT_TRUE((*store)->Get("b", &value).IsNotFound());
    ASSERT_TRUE((*store)->Set("c", "3").ok());
    if (crash) {
      Crash([&] { store->reset(); });
    } else {
      store->reset();
    }

    auto reopened = lsm::LsmStore::Open(options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    ASSERT_TRUE((*reopened)->Get("a", &value).ok());
    EXPECT_EQ(value, "1");
    EXPECT_TRUE((*reopened)->Get("b", &value).IsNotFound());
    ASSERT_TRUE((*reopened)->Get("c", &value).ok());
    EXPECT_EQ(value, "3");
    EXPECT_EQ((*reopened)->GetStats().wal.records_replayed, 2u);
  }
}

TEST_F(CrashRecoveryTest, FailedWalCreationFailsOpen) {
  lsm::LsmOptions options;
  options.dir = dir_ + "/lsm";
  options.wal_sync_interval_micros = 0;
  ASSERT_TRUE(env::CreateDirIfMissing(options.dir).ok());
  fault_->FailNextFileCreations(1);
  auto store = lsm::LsmStore::Open(options);
  EXPECT_FALSE(store.ok());
  // The failure is transient (disk freed): the next open succeeds.
  auto retry = lsm::LsmStore::Open(options);
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
}

TEST_F(CrashRecoveryTest, LeftoverManifestTmpIgnored) {
  lsm::LsmOptions options;
  options.dir = dir_ + "/lsm";
  options.wal_sync_interval_micros = 0;
  {
    auto store = lsm::LsmStore::Open(options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Set("k", "v").ok());
    ASSERT_TRUE((*store)->FlushForTesting().ok());  // Writes a manifest.
  }
  // Crash mid-SaveManifest: the temp file exists, the rename never ran.
  ASSERT_TRUE(
      env::WriteStringToFileSync(options.dir + "/MANIFEST.tmp", "garbage")
          .ok());
  auto reopened = lsm::LsmStore::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::string value;
  ASSERT_TRUE((*reopened)->Get("k", &value).ok());
  EXPECT_EQ(value, "v");
}

// --- TierBase WAL policy. ---

// A CAS the log rejected must not stay in the cache: it answers the error,
// and reads keep serving what the log holds, before and after a restart.
// Covers both halves: an update puts the old value back, and a create
// (allow_create, INCR's path on a missing key) takes the key out again.
TEST_F(CrashRecoveryTest, WalRejectedCasIsNotReadable) {
  TierBaseOptions options;
  options.policy = CachingPolicy::kWalFile;
  options.wal_dir = dir_;
  options.wal_sync_interval_micros = 0;  // Each append syncs.
  {
    auto db = TierBase::Open(options, nullptr);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Set("k", "v1").ok());

    fault_->FailNthSync(1);
    EXPECT_TRUE((*db)->Cas("k", "v1", "v2").IsIOError());
    std::string value;
    ASSERT_TRUE((*db)->Get("k", &value).ok());
    EXPECT_EQ(value, "v1");

    fault_->FailNthSync(1);
    EXPECT_TRUE(
        (*db)->Cas("new", "", "1", /*allow_create=*/true).IsIOError());
    EXPECT_TRUE((*db)->Get("new", &value).IsNotFound());

    // The log still takes writes, and the CAS compares against v1.
    ASSERT_TRUE((*db)->Cas("k", "v1", "v3").ok());
  }
  auto db = TierBase::Open(options, nullptr);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  std::string value;
  ASSERT_TRUE((*db)->Get("k", &value).ok());
  EXPECT_EQ(value, "v3");
  EXPECT_TRUE((*db)->Get("new", &value).IsNotFound());
}

// A value larger than a cache shard's budget answers OutOfSpace under a
// WAL policy, though the log took it; recovery must still open and keep
// the key out, as the cache did before the restart.
TEST_F(CrashRecoveryTest, WalOpensAfterValueLargerThanShardBudget) {
  TierBaseOptions options;
  options.policy = CachingPolicy::kWalFile;
  options.wal_dir = dir_;
  options.wal_sync_interval_micros = 0;
  options.cache.memory_budget = 32 * 1024;
  {
    auto db = TierBase::Open(options, nullptr);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Set("small", "v").ok());
    EXPECT_TRUE((*db)->Set("big", std::string(100 * 1024, 'b')).IsOutOfSpace());
  }
  auto db = TierBase::Open(options, nullptr);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  std::string value;
  ASSERT_TRUE((*db)->Get("small", &value).ok());
  EXPECT_EQ(value, "v");
  EXPECT_TRUE((*db)->Get("big", &value).IsNotFound());
}

// Under kNoEviction a SET into a full budget answers OutOfSpace. The log
// took the value first, so the write must leave it again: recovery installs
// keys in key order, and "a" sorts before every acknowledged key, so a
// replayed "a" would push an acknowledged key out of the budget.
TEST_F(CrashRecoveryTest, WalRejectedSetDoesNotComeBackAfterRestart) {
  TierBaseOptions options;
  options.policy = CachingPolicy::kWalFile;
  options.wal_dir = dir_;
  options.wal_sync_interval_micros = 0;
  options.cache.shards = 1;
  options.cache.memory_budget = 4 * 1024;
  options.cache.eviction = cache::EvictionPolicy::kNoEviction;
  const std::string value(100, 'z');
  std::vector<std::string> acked;
  {
    auto db = TierBase::Open(options, nullptr);
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 1000; ++i) {
      const std::string key = "z" + std::to_string(1000 + i);
      Status s = (*db)->Set(key, value);
      if (s.IsOutOfSpace()) break;
      ASSERT_TRUE(s.ok()) << s.ToString();
      acked.push_back(key);
    }
    ASSERT_GT(acked.size(), 1u);
    ASSERT_LT(acked.size(), 1000u);
    EXPECT_TRUE((*db)->Set("a", std::string(200, 'a')).IsOutOfSpace());
    std::string got;
    EXPECT_TRUE((*db)->Get("a", &got).IsNotFound());
  }
  auto db = TierBase::Open(options, nullptr);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  std::string got;
  EXPECT_TRUE((*db)->Get("a", &got).IsNotFound());
  for (const std::string& key : acked) {
    ASSERT_TRUE((*db)->Get(key, &got).ok()) << key;
    EXPECT_EQ(got, value);
  }
}

// kWalFile logs a whole MultiSet with one append, so with per-append sync
// the batch costs one write and one fsync, and a crash right after the
// acknowledgment keeps every key.
TEST_F(CrashRecoveryTest, WalMultiSetIsOneAppendAndOneSync) {
  TierBaseOptions options;
  options.policy = CachingPolicy::kWalFile;
  options.wal_dir = dir_;
  options.wal_sync_interval_micros = 0;
  constexpr int kKeys = 16;
  std::vector<std::string> keys, values;
  for (int i = 0; i < kKeys; ++i) {
    keys.push_back("bk" + std::to_string(i));
    values.push_back("bv" + std::to_string(i));
  }
  {
    auto db = TierBase::Open(options, nullptr);
    ASSERT_TRUE(db.ok());
    std::unique_ptr<TierBase> instance = std::move(*db);
    const uint64_t writes = fault_->write_count();
    const uint64_t syncs = fault_->sync_count();
    std::vector<Status> statuses;
    instance->MultiSet(std::vector<Slice>(keys.begin(), keys.end()),
                       std::vector<Slice>(values.begin(), values.end()),
                       &statuses);
    for (const Status& s : statuses) ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(fault_->write_count() - writes, 1u);
    EXPECT_EQ(fault_->sync_count() - syncs, 1u);
    Crash([&] { instance.reset(); });
  }
  auto db = TierBase::Open(options, nullptr);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  std::string value;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE((*db)->Get(keys[i], &value).ok()) << keys[i];
    EXPECT_EQ(value, values[i]);
  }
  EXPECT_EQ((*db)->GetStats().wal.records_replayed,
            static_cast<uint64_t>(kKeys));
}

// Regression: recovery used to reopen the WAL with O_TRUNC and re-append
// every record un-synced — crash right after a reboot lost all previously
// acknowledged+synced data. Recovery now appends to the existing log.
TEST_F(CrashRecoveryTest, WalReopenSurvivesImmediateCrash) {
  TierBaseOptions options;
  options.policy = CachingPolicy::kWalFile;
  options.wal_dir = dir_;
  options.wal_sync_interval_micros = 0;  // Sync every record: ack = durable.
  {
    auto db = TierBase::Open(options, nullptr);
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(
          (*db)->Set("key" + std::to_string(i), "value" + std::to_string(i))
              .ok());
    }
  }
  // Boot #2: recover, then crash before anything new is written or synced.
  {
    auto db = TierBase::Open(options, nullptr);
    ASSERT_TRUE(db.ok());
    std::unique_ptr<TierBase> instance = std::move(*db);
    Crash([&] { instance.reset(); });
  }
  // Boot #3: every synced acknowledged write must still be there.
  auto db = TierBase::Open(options, nullptr);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  std::string value;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*db)->Get("key" + std::to_string(i), &value).ok())
        << "lost key" << i;
    EXPECT_EQ(value, "value" + std::to_string(i));
  }
  EXPECT_EQ((*db)->GetStats().wal.records_replayed, 100u);
}

// Interval-sync WAL: writes after the last sync may be lost on a crash —
// but synced writes must survive and torn values must never surface.
TEST_F(CrashRecoveryTest, WalIntervalSyncCrashDifferential) {
  std::mt19937_64 rng(20260730);
  for (int round = 0; round < 5; ++round) {
    const std::string wal_dir = dir_ + "/wal_round" + std::to_string(round);
    TierBaseOptions options;
    options.policy = CachingPolicy::kWalFile;
    options.wal_dir = wal_dir;
    options.wal_sync_interval_micros = 60'000'000;  // Only explicit syncs.

    std::map<std::string, std::string> synced;    // State at last WaitIdle.
    std::map<std::string, std::set<std::string>> acked;  // All acked values.
    {
      auto db = TierBase::Open(options, nullptr);
      ASSERT_TRUE(db.ok());
      std::unique_ptr<TierBase> instance = std::move(*db);
      std::map<std::string, std::string> live;
      const int total_ops = 200 + static_cast<int>(rng() % 200);
      const int checkpoint_at = static_cast<int>(rng() % total_ops);
      for (int i = 0; i < total_ops; ++i) {
        std::string key = "key" + std::to_string(rng() % 50);
        std::string value =
            key + "#gen" + std::to_string(i) + std::string(rng() % 64, 'p');
        ASSERT_TRUE(instance->Set(key, value).ok());
        live[key] = value;
        acked[key].insert(value);
        if (i == checkpoint_at) {
          ASSERT_TRUE(instance->WaitIdle().ok());  // Syncs the WAL.
          synced = live;
        }
      }
      const size_t tear = rng() % 12;
      Crash([&] { instance.reset(); }, tear);
    }

    auto reopened = TierBase::Open(options, nullptr);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    // Every synced write survives with its exact (or a later acked) value;
    // nothing torn or fabricated is ever returned.
    for (const auto& [key, value] : synced) {
      std::string got;
      ASSERT_TRUE((*reopened)->Get(key, &got).ok())
          << "round " << round << ": lost synced key " << key;
      // Exact synced value, or a later acknowledged one — never torn.
      EXPECT_TRUE(got == value || acked[key].count(got) > 0)
          << "round " << round << ": torn value for " << key;
    }
    // Keys that only saw un-synced writes may be gone — but if present,
    // the value must be one that was acknowledged.
    for (const auto& [key, values] : acked) {
      std::string got;
      if ((*reopened)->Get(key, &got).ok()) {
        EXPECT_TRUE(values.count(got) > 0)
            << "round " << round << ": fabricated value for " << key;
      }
    }
  }
}

// Regression: recovery used to *destructively* drain the PMem ring (its
// durable head advanced) before the records were durable anywhere else, so
// a crash — or a mere IO error — mid-recovery permanently lost
// acknowledged records. The ring must survive a failed recovery intact.
TEST_F(CrashRecoveryTest, WalPmemRingSurvivesFailedRecovery) {
  PmemOptions pmem_options;
  pmem_options.capacity = 1 << 20;
  pmem_options.inject_latency = false;
  pmem_options.backing_file = dir_ + "/pmem.img";

  TierBaseOptions options;
  options.policy = CachingPolicy::kWalPmem;
  options.wal_dir = dir_;
  {
    auto device = PmemDevice::Create(pmem_options);
    ASSERT_TRUE(device.ok());
    options.wal_pmem_device = device->get();
    auto db = TierBase::Open(options, nullptr);
    ASSERT_TRUE(db.ok());
    std::unique_ptr<TierBase> instance = std::move(*db);
    for (int i = 0; i < 50; ++i) {
      // Durable on the ring the moment each Set returns.
      ASSERT_TRUE(
          instance->Set("pk" + std::to_string(i), "pv" + std::to_string(i))
              .ok());
    }
    Crash([&] { instance.reset(); });
  }
  // Boot #2 dies mid-recovery: the WAL-compaction write fails. The ring
  // must not have been consumed.
  {
    auto device = PmemDevice::Create(pmem_options);
    ASSERT_TRUE(device.ok());
    options.wal_pmem_device = device->get();
    fault_->FailNextFileCreations(1);  // The .compact writer.
    auto db = TierBase::Open(options, nullptr);
    EXPECT_FALSE(db.ok());
  }
  // Boot #3: every acknowledged record is still there.
  auto device = PmemDevice::Create(pmem_options);
  ASSERT_TRUE(device.ok());
  options.wal_pmem_device = device->get();
  auto db = TierBase::Open(options, nullptr);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  std::string value;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE((*db)->Get("pk" + std::to_string(i), &value).ok())
        << "lost pk" << i;
    EXPECT_EQ(value, "pv" + std::to_string(i));
  }
}

// --- The flagship differential: YCSB-A against TierBase-over-LSM under
// write-back, crashing at seeded random points. ---

TEST_F(CrashRecoveryTest, YcsbWriteBackCrashDifferential) {
  workload::YcsbOptions ycsb = workload::WorkloadA();  // 50/50 read/update.
  ycsb.record_count = 64;
  ycsb.operation_count = 0;  // We drive ops ourselves.

  std::mt19937_64 rng(42);
  for (int round = 0; round < 4; ++round) {
    const std::string round_dir = dir_ + "/ycsb_round" + std::to_string(round);
    ASSERT_TRUE(env::CreateDirIfMissing(round_dir).ok());

    lsm::LsmOptions lsm_options;
    lsm_options.dir = round_dir + "/storage";
    // Per-record sync: a flushed (acknowledged-durable) write-back batch is
    // durable the moment ApplyBatch returns.
    lsm_options.wal_sync_interval_micros = 0;

    TierBaseOptions options;
    options.policy = CachingPolicy::kWriteBack;
    options.write_back.flush_threshold = 8;
    options.write_back.flush_interval_micros = 2'000;
    options.write_back.retry_backoff_micros = 200;
    options.write_back.retry_backoff_max_micros = 1'000;
    options.write_back.max_flush_failures = 2;  // Fast give-up at crash.

    std::map<std::string, std::string> checkpointed;  // Durable for sure.
    std::map<std::string, std::set<std::string>> acked;

    {
      auto storage = LsmStorageAdapter::Open(lsm_options);
      ASSERT_TRUE(storage.ok());
      auto db = TierBase::Open(options, storage->get());
      ASSERT_TRUE(db.ok());
      std::unique_ptr<TierBase> instance = std::move(*db);
      std::unique_ptr<LsmStorageAdapter> adapter = std::move(*storage);

      workload::YcsbGenerator gen(ycsb, /*thread_seed=*/round);
      std::map<std::string, std::string> live;
      const int total_ops = 300 + static_cast<int>(rng() % 200);
      const int checkpoint_at = static_cast<int>(rng() % total_ops);
      int gen_counter = 0;
      for (int i = 0; i < total_ops; ++i) {
        workload::Op op = gen.Next();
        std::string key = workload::KeyFor(op.key_index);
        if (op.type == workload::OpType::kRead) {
          std::string got;
          Status s = instance->Get(key, &got);
          if (s.ok()) {
            // Reads must never see a value that was not acknowledged.
            auto it = acked.find(key);
            ASSERT_TRUE(it != acked.end() && it->second.count(got) > 0)
                << "read a torn/fabricated value for " << key;
          }
        } else {
          std::string value = key + "#g" + std::to_string(gen_counter++) +
                              std::string(rng() % 48, 'y');
          ASSERT_TRUE(instance->Set(key, value).ok());
          live[key] = value;
          acked[key].insert(value);
        }
        if (i == checkpoint_at) {
          // FlushAll + LSM WaitIdle: everything acked so far is durable.
          ASSERT_TRUE(instance->WaitIdle().ok());
          checkpointed = live;
        }
      }
      const size_t tear = rng() % 16;
      Crash(
          [&] {
            instance.reset();
            adapter.reset();
          },
          tear);
    }

    // Reboot the whole stack on the same directory.
    auto storage = LsmStorageAdapter::Open(lsm_options);
    ASSERT_TRUE(storage.ok()) << storage.status().ToString();
    auto db = TierBase::Open(options, storage->get());
    ASSERT_TRUE(db.ok()) << db.status().ToString();

    for (const auto& [key, value] : checkpointed) {
      std::string got;
      ASSERT_TRUE((*db)->Get(key, &got).ok())
          << "round " << round << ": lost checkpointed key " << key;
      EXPECT_TRUE(acked[key].count(got) > 0)
          << "round " << round << ": torn value for " << key;
    }
    for (const auto& [key, values] : acked) {
      std::string got;
      if ((*db)->Get(key, &got).ok()) {
        EXPECT_TRUE(values.count(got) > 0)
            << "round " << round << ": fabricated value for " << key;
      }
    }
  }
}

// Crash while the LSM store is mid-memtable-flush: the SST may be torn,
// but the WAL still covers every record, so nothing synced is lost.
TEST_F(CrashRecoveryTest, CrashDuringMemtableFlushKeepsWalAuthority) {
  lsm::LsmOptions options;
  options.dir = dir_ + "/lsm";
  options.wal_sync_interval_micros = 0;
  options.memtable_bytes = 16 << 10;  // Force rotations/flushes mid-run.
  {
    auto store = lsm::LsmStore::Open(options);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE((*store)
                      ->Set("key" + std::to_string(i),
                            std::string(256, static_cast<char>('a' + i % 26)))
                      .ok());
    }
    std::unique_ptr<lsm::LsmStore> instance = std::move(*store);
    // Freeze the fs first: if the background thread is mid-SST-write the
    // builder errors out; the un-synced partial SST then loses its bytes.
    Crash([&] { instance.reset(); }, /*tear_keep=*/5);
  }
  auto reopened = lsm::LsmStore::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::string value;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE((*reopened)->Get("key" + std::to_string(i), &value).ok())
        << "lost key" << i;
    EXPECT_EQ(value, std::string(256, static_cast<char>('a' + i % 26)));
  }
}

}  // namespace
}  // namespace tierbase
