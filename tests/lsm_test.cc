// Tests for the LSM storage engine substrate (the UCS stand-in): skiplist,
// memtable, WAL framing + recovery, bloom filter, SST build/read, and the
// full LsmStore engine with flush, compaction, batches and reopen.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/arena.h"
#include "common/env.h"
#include "common/random.h"
#include "lsm/bloom.h"
#include "lsm/internal_key.h"
#include "lsm/lsm_store.h"
#include "lsm/memtable.h"
#include "lsm/skiplist.h"
#include "lsm/table.h"
#include "lsm/wal.h"

namespace tierbase {
namespace lsm {
namespace {

// --- SkipList. ---

struct IntComparator {
  int operator()(const int& a, const int& b) const {
    return a < b ? -1 : (a > b ? 1 : 0);
  }
};

TEST(SkipListTest, InsertContains) {
  Arena arena;
  SkipList<int, IntComparator> list(IntComparator(), &arena);
  EXPECT_FALSE(list.Contains(5));
  list.Insert(5);
  list.Insert(1);
  list.Insert(9);
  EXPECT_TRUE(list.Contains(5));
  EXPECT_TRUE(list.Contains(1));
  EXPECT_TRUE(list.Contains(9));
  EXPECT_FALSE(list.Contains(4));
}

TEST(SkipListTest, IterationIsSorted) {
  Arena arena;
  SkipList<int, IntComparator> list(IntComparator(), &arena);
  Random rng(23);
  std::set<int> model;
  for (int i = 0; i < 2000; ++i) {
    int v = static_cast<int>(rng.Uniform(100000));
    if (model.insert(v).second) list.Insert(v);
  }
  SkipList<int, IntComparator>::Iterator it(&list);
  it.SeekToFirst();
  for (int expected : model) {
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.key(), expected);
    it.Next();
  }
  EXPECT_FALSE(it.Valid());
}

TEST(SkipListTest, SeekFindsLowerBound) {
  Arena arena;
  SkipList<int, IntComparator> list(IntComparator(), &arena);
  for (int v : {10, 20, 30, 40}) list.Insert(v);
  SkipList<int, IntComparator>::Iterator it(&list);
  it.Seek(25);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), 30);
  it.Seek(40);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), 40);
  it.Seek(41);
  EXPECT_FALSE(it.Valid());
}

// --- MemTable. ---

TEST(MemTableTest, AddGetNewestVersionWins) {
  MemTable mem;
  mem.Add(1, kTypeValue, "key", "v1");
  mem.Add(2, kTypeValue, "key", "v2");
  std::string value;
  bool deleted = false;
  ASSERT_TRUE(mem.Get("key", kMaxSequenceNumber, &value, &deleted));
  EXPECT_FALSE(deleted);
  EXPECT_EQ(value, "v2");
}

TEST(MemTableTest, SnapshotReadsSeeOldVersion) {
  MemTable mem;
  mem.Add(5, kTypeValue, "key", "old");
  mem.Add(10, kTypeValue, "key", "new");
  std::string value;
  bool deleted = false;
  ASSERT_TRUE(mem.Get("key", 7, &value, &deleted));
  EXPECT_EQ(value, "old");
  ASSERT_TRUE(mem.Get("key", 10, &value, &deleted));
  EXPECT_EQ(value, "new");
  // Snapshot before the first write: key invisible.
  EXPECT_FALSE(mem.Get("key", 4, &value, &deleted));
}

TEST(MemTableTest, TombstoneReportsDeleted) {
  MemTable mem;
  mem.Add(1, kTypeValue, "key", "v");
  mem.Add(2, kTypeDeletion, "key", "");
  std::string value;
  bool deleted = false;
  ASSERT_TRUE(mem.Get("key", kMaxSequenceNumber, &value, &deleted));
  EXPECT_TRUE(deleted);
}

TEST(MemTableTest, MissingKeyNotFound) {
  MemTable mem;
  mem.Add(1, kTypeValue, "a", "1");
  std::string value;
  bool deleted = false;
  EXPECT_FALSE(mem.Get("b", kMaxSequenceNumber, &value, &deleted));
}

TEST(MemTableTest, IteratorOrderedByInternalKey) {
  MemTable mem;
  mem.Add(3, kTypeValue, "b", "b3");
  mem.Add(1, kTypeValue, "a", "a1");
  mem.Add(2, kTypeValue, "b", "b2");
  MemTable::Iterator it(&mem);
  it.SeekToFirst();
  std::vector<std::pair<std::string, uint64_t>> seen;
  while (it.Valid()) {
    seen.emplace_back(it.user_key().ToString(),
                      ExtractSequence(it.internal_key()));
    it.Next();
  }
  // User key ascending; within a key, newest (highest seq) first.
  std::vector<std::pair<std::string, uint64_t>> expected = {
      {"a", 1}, {"b", 3}, {"b", 2}};
  EXPECT_EQ(seen, expected);
}

TEST(MemTableTest, MemoryUsageGrows) {
  MemTable mem;
  size_t before = mem.ApproximateMemoryUsage();
  for (int i = 0; i < 1000; ++i) {
    mem.Add(i + 1, kTypeValue, "key" + std::to_string(i),
            std::string(100, 'v'));
  }
  EXPECT_GT(mem.ApproximateMemoryUsage(), before + 100000);
  EXPECT_EQ(mem.num_entries(), 1000u);
}

// --- WAL. ---

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = env::MakeTempDir("tb_wal_test"); }
  void TearDown() override { env::RemoveDirRecursive(dir_); }
  std::string dir_;
};

TEST_F(WalTest, WriteReadRoundTrip) {
  std::string path = dir_ + "/test.wal";
  {
    auto writer = WalWriter::Open(path, WalOptions());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AddRecord("first record").ok());
    ASSERT_TRUE((*writer)->AddRecord("").ok());  // Empty records are legal.
    ASSERT_TRUE((*writer)->AddRecord(std::string(100000, 'z')).ok());
    ASSERT_TRUE((*writer)->Sync().ok());
  }
  auto reader = WalReader::Open(path);
  ASSERT_TRUE(reader.ok());
  std::string record;
  ASSERT_EQ((*reader)->ReadRecord(&record), WalRead::kOk);
  EXPECT_EQ(record, "first record");
  ASSERT_EQ((*reader)->ReadRecord(&record), WalRead::kOk);
  EXPECT_TRUE(record.empty());
  ASSERT_EQ((*reader)->ReadRecord(&record), WalRead::kOk);
  EXPECT_EQ(record.size(), 100000u);
  EXPECT_EQ((*reader)->ReadRecord(&record), WalRead::kEof);  // Clean tail.
  EXPECT_EQ((*reader)->ReadRecord(&record), WalRead::kEof);  // Stable.
}

TEST_F(WalTest, TruncatedTailIgnored) {
  std::string path = dir_ + "/trunc.wal";
  {
    auto writer = WalWriter::Open(path, WalOptions());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AddRecord("complete").ok());
    ASSERT_TRUE((*writer)->AddRecord("will be cut").ok());
    ASSERT_TRUE((*writer)->Sync().ok());
  }
  // Simulate a crash mid-append: truncate the last few bytes.
  std::string contents;
  ASSERT_TRUE(env::ReadFileToString(path, &contents).ok());
  ASSERT_TRUE(
      env::WriteStringToFileSync(path, contents.substr(0, contents.size() - 5))
          .ok());

  auto reader = WalReader::Open(path);
  ASSERT_TRUE(reader.ok());
  std::string record;
  ASSERT_EQ((*reader)->ReadRecord(&record), WalRead::kOk);
  EXPECT_EQ(record, "complete");
  // Torn record dropped — and reported as tail truncation, NOT clean EOF
  // and NOT corruption.
  EXPECT_EQ((*reader)->ReadRecord(&record), WalRead::kTruncatedTail);
  EXPECT_GT((*reader)->skipped_bytes(), 0u);
  EXPECT_EQ((*reader)->ReadRecord(&record), WalRead::kTruncatedTail);
}

TEST_F(WalTest, CorruptRecordStopsReplay) {
  std::string path = dir_ + "/corrupt.wal";
  {
    auto writer = WalWriter::Open(path, WalOptions());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AddRecord("good one").ok());
    ASSERT_TRUE((*writer)->AddRecord("bad one").ok());
    ASSERT_TRUE((*writer)->Sync().ok());
  }
  std::string contents;
  ASSERT_TRUE(env::ReadFileToString(path, &contents).ok());
  contents[contents.size() - 3] ^= 0x55;  // Flip payload bits of record 2.
  ASSERT_TRUE(env::WriteStringToFileSync(path, contents).ok());

  auto reader = WalReader::Open(path);
  ASSERT_TRUE(reader.ok());
  std::string record;
  ASSERT_EQ((*reader)->ReadRecord(&record), WalRead::kOk);
  EXPECT_EQ(record, "good one");
  // The damaged record is the final one, so a CRC mismatch is
  // indistinguishable from an out-of-order torn write: tail truncation.
  EXPECT_EQ((*reader)->ReadRecord(&record), WalRead::kTruncatedTail);
}

TEST_F(WalTest, MidLogCorruptionSurfaced) {
  std::string path = dir_ + "/midcorrupt.wal";
  {
    auto writer = WalWriter::Open(path, WalOptions());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->AddRecord("good one").ok());
    ASSERT_TRUE((*writer)->AddRecord("bad one").ok());
    ASSERT_TRUE((*writer)->AddRecord("after the damage").ok());
    ASSERT_TRUE((*writer)->Sync().ok());
  }
  std::string contents;
  ASSERT_TRUE(env::ReadFileToString(path, &contents).ok());
  // Flip a payload bit of the middle record (record 2 starts at 8+8 and
  // spans 8 header + 7 payload bytes).
  contents[8 + 8 + 8 + 3] ^= 0x55;
  ASSERT_TRUE(env::WriteStringToFileSync(path, contents).ok());

  auto reader = WalReader::Open(path);
  ASSERT_TRUE(reader.ok());
  std::string record;
  ASSERT_EQ((*reader)->ReadRecord(&record), WalRead::kOk);
  EXPECT_EQ(record, "good one");
  // Damage with readable records after it is real corruption: it must not
  // read as a clean tail (the old reader silently dropped the suffix).
  EXPECT_EQ((*reader)->ReadRecord(&record), WalRead::kCorruption);
  EXPECT_EQ((*reader)->ReadRecord(&record), WalRead::kCorruption);
  EXPECT_GT((*reader)->skipped_bytes(), 0u);
}

// AddMutations frames a batch in place; the file must be the one that
// AddRecord(EncodeWalMutation(op)) per op writes, and replay must return
// the same records. A batch larger than the file buffer takes the direct
// write path.
TEST_F(WalTest, AddMutationsMatchesAddRecordByteForByte) {
  const std::string big(70000, 'b');
  const std::string mid(300, 'm');  // Two-byte varint length.
  const std::vector<std::vector<WalMutation>> batches = {
      {{"k1", "v1", false}},
      {{"k2", mid, false},
       {"k1", Slice(), true},
       {Slice(), "empty-key", false}},
      {{"big", big, false}, {"k3", "v3", false}, {"k2", "", true}},
      {{"tail-a", mid, false}, {"tail-b", mid, false}, {"tail-c", "c", false}}};
  const std::string batched = dir_ + "/batched.wal";
  const std::string single = dir_ + "/single.wal";
  {
    auto a = WalWriter::Open(batched, WalOptions());
    auto b = WalWriter::Open(single, WalOptions());
    ASSERT_TRUE(a.ok() && b.ok());
    for (const auto& batch : batches) {
      ASSERT_TRUE((*a)->AddMutations(batch).ok());
      for (const WalMutation& op : batch) {
        ASSERT_TRUE((*b)->AddRecord(EncodeWalMutation(op.is_delete, op.key,
                                                      op.value))
                        .ok());
      }
    }
    ASSERT_TRUE((*a)->AddMutations({}).ok());  // Writes nothing.
    ASSERT_TRUE((*a)->Sync().ok() && (*b)->Sync().ok());
    EXPECT_EQ((*a)->size(), (*b)->size());
  }
  std::string batched_bytes, single_bytes;
  ASSERT_TRUE(env::ReadFileToString(batched, &batched_bytes).ok());
  ASSERT_TRUE(env::ReadFileToString(single, &single_bytes).ok());
  ASSERT_EQ(batched_bytes.size(), single_bytes.size());
  EXPECT_TRUE(batched_bytes == single_bytes);

  auto replay = [](const std::string& path, std::vector<std::string>* records,
                   WalRecoveryStats* stats) {
    return ReplayWal(path, /*torn_tail_ok=*/true,
                     [records](const Slice& record) {
                       records->push_back(record.ToString());
                       return Status::OK();
                     },
                     stats);
  };
  std::vector<std::string> from_batched, from_single;
  WalRecoveryStats batched_stats, single_stats;
  ASSERT_TRUE(replay(batched, &from_batched, &batched_stats).ok());
  ASSERT_TRUE(replay(single, &from_single, &single_stats).ok());
  EXPECT_EQ(from_batched, from_single);
  ASSERT_EQ(from_batched.size(), 10u);
  EXPECT_EQ(batched_stats.records_replayed, 10u);
  bool is_delete = false;
  Slice key, value;
  ASSERT_TRUE(DecodeWalMutation(from_batched[4], &is_delete, &key, &value));
  EXPECT_EQ(key, Slice("big"));
  EXPECT_EQ(value, Slice(big));
  EXPECT_FALSE(is_delete);

  // A crash that tears the last batch inside its second record: the
  // batch's first record replays, and the torn suffix ends replay with OK.
  auto framed_size = [](const WalMutation& op) {
    return 8 + EncodeWalMutation(op.is_delete, op.key, op.value).size();
  };
  const std::vector<WalMutation>& last = batches.back();
  size_t last_batch_start = batched_bytes.size();
  for (const WalMutation& op : last) last_batch_start -= framed_size(op);
  const size_t second_record = last_batch_start + framed_size(last[0]);
  const size_t cut = second_record + 8 + 50;
  ASSERT_TRUE(
      env::WriteStringToFileSync(batched, batched_bytes.substr(0, cut)).ok());
  std::vector<std::string> torn;
  WalRecoveryStats torn_stats;
  ASSERT_TRUE(replay(batched, &torn, &torn_stats).ok());
  ASSERT_EQ(torn.size(), 8u);
  EXPECT_TRUE(std::equal(torn.begin(), torn.end(), from_single.begin()));
  EXPECT_EQ(torn_stats.truncated_tails, 1u);
  EXPECT_EQ(torn_stats.skipped_bytes, cut - second_record);
}

// The mutation payload both WALs carry (LsmStore's and TierBase's
// cache-tier log). Its bytes are an on-disk format.
TEST(WalMutationTest, EncodesTheOnDiskFormatAndRejectsUnknownOps) {
  EXPECT_EQ(EncodeWalMutation(false, "key", "val"),
            std::string("\x01\x03key\x03val", 9));
  EXPECT_EQ(EncodeWalMutation(true, "key", Slice()),
            std::string("\x00\x03key\x00", 6));

  std::string rec = EncodeWalMutation(true, "k", "v");
  bool is_delete = false;
  Slice key, value;
  ASSERT_TRUE(DecodeWalMutation(rec, &is_delete, &key, &value));
  EXPECT_TRUE(is_delete);
  EXPECT_EQ(key, Slice("k"));
  EXPECT_EQ(value, Slice("v"));

  rec[0] = 2;  // Neither put nor delete.
  EXPECT_FALSE(DecodeWalMutation(rec, &is_delete, &key, &value));
  EXPECT_FALSE(DecodeWalMutation(Slice(), &is_delete, &key, &value));
  EXPECT_FALSE(DecodeWalMutation(Slice("\x01\x05k", 3), &is_delete, &key,
                                 &value));  // Key runs past the end.
}

// --- Bloom filter. ---

TEST(BloomTest, NoFalseNegatives) {
  BloomFilterBuilder builder(10);
  std::vector<std::string> keys;
  for (int i = 0; i < 2000; ++i) {
    keys.push_back("bloomkey" + std::to_string(i));
    builder.AddKey(keys.back());
  }
  std::string filter = builder.Finish();
  for (const auto& key : keys) {
    EXPECT_TRUE(BloomFilterMayMatch(filter, key)) << key;
  }
}

TEST(BloomTest, FalsePositiveRateBounded) {
  BloomFilterBuilder builder(10);
  for (int i = 0; i < 10000; ++i) builder.AddKey("in" + std::to_string(i));
  std::string filter = builder.Finish();
  int fp = 0;
  for (int i = 0; i < 10000; ++i) {
    if (BloomFilterMayMatch(filter, "out" + std::to_string(i))) ++fp;
  }
  // 10 bits/key gives ~1% FPR; allow generous slack.
  EXPECT_LT(fp, 300);
}

TEST(BloomTest, EmptyFilterMatchesNothingOrIsSafe) {
  BloomFilterBuilder builder(10);
  std::string filter = builder.Finish();
  // With no keys, queries must not crash; result may be conservative.
  BloomFilterMayMatch(filter, "anything");
}

// --- TableBuilder / Table. ---

class TableTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = env::MakeTempDir("tb_table_test"); }
  void TearDown() override { env::RemoveDirRecursive(dir_); }
  std::string dir_;
};

TEST_F(TableTest, BuildAndPointLookup) {
  std::string path = dir_ + "/1.sst";
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env::NewWritableFile(path, &file).ok());
  TableBuilder builder(std::move(file));
  for (int i = 0; i < 1000; ++i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%06d", i);
    std::string ikey;
    AppendInternalKey(&ikey, buf, /*seq=*/i + 1, kTypeValue);
    ASSERT_TRUE(builder.Add(ikey, "value" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(builder.Finish().ok());
  EXPECT_EQ(builder.num_entries(), 1000u);

  BlockCache cache(1 << 20);
  auto table = Table::Open(path, 1, &cache);
  ASSERT_TRUE(table.ok());
  std::string value;
  bool deleted = false;
  ASSERT_TRUE(
      (*table)->Get("key000500", kMaxSequenceNumber, &value, &deleted).ok());
  EXPECT_EQ(value, "value500");
  EXPECT_FALSE(deleted);
  EXPECT_TRUE((*table)
                  ->Get("key999999", kMaxSequenceNumber, &value, &deleted)
                  .IsNotFound());
}

TEST_F(TableTest, IteratorScansAllInOrder) {
  std::string path = dir_ + "/2.sst";
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env::NewWritableFile(path, &file).ok());
  TableBuilder builder(std::move(file));
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    char buf[16];
    snprintf(buf, sizeof(buf), "k%05d", i);
    std::string ikey;
    AppendInternalKey(&ikey, buf, 1, kTypeValue);
    ASSERT_TRUE(builder.Add(ikey, std::to_string(i)).ok());
  }
  ASSERT_TRUE(builder.Finish().ok());

  BlockCache cache(1 << 20);
  auto table = Table::Open(path, 2, &cache);
  ASSERT_TRUE(table.ok());
  Table::Iterator it(table->get());
  it.SeekToFirst();
  int count = 0;
  std::string prev;
  while (it.Valid()) {
    std::string user_key = ExtractUserKey(it.key()).ToString();
    if (!prev.empty()) {
      EXPECT_GT(user_key, prev);
    }
    prev = user_key;
    ++count;
    it.Next();
  }
  EXPECT_EQ(count, n);
}

TEST_F(TableTest, TombstonesSurviveRoundTrip) {
  std::string path = dir_ + "/3.sst";
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env::NewWritableFile(path, &file).ok());
  TableBuilder builder(std::move(file));
  std::string ikey;
  AppendInternalKey(&ikey, "dead", 7, kTypeDeletion);
  ASSERT_TRUE(builder.Add(ikey, "").ok());
  ASSERT_TRUE(builder.Finish().ok());

  BlockCache cache(1 << 20);
  auto table = Table::Open(path, 3, &cache);
  ASSERT_TRUE(table.ok());
  std::string value;
  bool deleted = false;
  ASSERT_TRUE(
      (*table)->Get("dead", kMaxSequenceNumber, &value, &deleted).ok());
  EXPECT_TRUE(deleted);
}

// --- LsmStore. ---

class LsmStoreTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = env::MakeTempDir("tb_lsm_store_test"); }
  void TearDown() override { env::RemoveDirRecursive(dir_); }

  LsmOptions SmallOptions() {
    LsmOptions options;
    options.dir = dir_;
    options.memtable_bytes = 64 * 1024;  // Flush often.
    options.target_file_bytes = 32 * 1024;
    options.l0_compaction_trigger = 2;
    options.level1_max_bytes = 128 * 1024;
    return options;
  }

  std::string dir_;
};

TEST_F(LsmStoreTest, SetGetDelete) {
  auto store = LsmStore::Open(SmallOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Set("k1", "v1").ok());
  std::string value;
  ASSERT_TRUE((*store)->Get("k1", &value).ok());
  EXPECT_EQ(value, "v1");
  ASSERT_TRUE((*store)->Delete("k1").ok());
  EXPECT_TRUE((*store)->Get("k1", &value).IsNotFound());
}

TEST_F(LsmStoreTest, OverwriteReturnsLatest) {
  auto store = LsmStore::Open(SmallOptions());
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*store)->Set("key", "v" + std::to_string(i)).ok());
  }
  std::string value;
  ASSERT_TRUE((*store)->Get("key", &value).ok());
  EXPECT_EQ(value, "v9");
}

TEST_F(LsmStoreTest, ReadThroughFlushedSsts) {
  auto store = LsmStore::Open(SmallOptions());
  ASSERT_TRUE(store.ok());
  // Write enough to force several memtable flushes.
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE((*store)
                    ->Set("key" + std::to_string(i), std::string(100, 'v'))
                    .ok());
  }
  ASSERT_TRUE((*store)->WaitIdle().ok());
  auto stats = (*store)->GetStats();
  EXPECT_GT(stats.flushes, 0u);
  std::string value;
  for (int i = 0; i < 3000; i += 111) {
    ASSERT_TRUE((*store)->Get("key" + std::to_string(i), &value).ok())
        << "key" << i;
    EXPECT_EQ(value.size(), 100u);
  }
}

TEST_F(LsmStoreTest, CompactionPreservesData) {
  auto store = LsmStore::Open(SmallOptions());
  ASSERT_TRUE(store.ok());
  Random rng(31);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 8000; ++i) {
    std::string key = "key" + std::to_string(rng.Uniform(2000));
    std::string value = "val" + std::to_string(i);
    model[key] = value;
    ASSERT_TRUE((*store)->Set(key, value).ok());
  }
  ASSERT_TRUE((*store)->WaitIdle().ok());
  EXPECT_GT((*store)->GetStats().compactions, 0u);
  int checked = 0;
  for (const auto& [key, expected] : model) {
    if (++checked % 7 != 0) continue;  // Sample.
    std::string value;
    ASSERT_TRUE((*store)->Get(key, &value).ok()) << key;
    EXPECT_EQ(value, expected) << key;
  }
}

TEST_F(LsmStoreTest, DeletesSurviveCompaction) {
  auto store = LsmStore::Open(SmallOptions());
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(
        (*store)->Set("key" + std::to_string(i), std::string(50, 'x')).ok());
  }
  for (int i = 0; i < 2000; i += 2) {
    ASSERT_TRUE((*store)->Delete("key" + std::to_string(i)).ok());
  }
  for (int i = 2000; i < 4000; ++i) {  // More churn to force compaction.
    ASSERT_TRUE(
        (*store)->Set("key" + std::to_string(i), std::string(50, 'y')).ok());
  }
  ASSERT_TRUE((*store)->WaitIdle().ok());
  std::string value;
  EXPECT_TRUE((*store)->Get("key100", &value).IsNotFound());
  EXPECT_TRUE((*store)->Get("key101", &value).ok());
}

TEST_F(LsmStoreTest, RecoversFromWalAfterReopen) {
  LsmOptions options = SmallOptions();
  {
    auto store = LsmStore::Open(options);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(
          (*store)->Set("key" + std::to_string(i), "val" + std::to_string(i))
              .ok());
    }
    ASSERT_TRUE((*store)->Delete("key50").ok());
    // Destructor closes without explicit flush: WAL must carry the data.
  }
  auto store = LsmStore::Open(options);
  ASSERT_TRUE(store.ok());
  std::string value;
  ASSERT_TRUE((*store)->Get("key7", &value).ok());
  EXPECT_EQ(value, "val7");
  EXPECT_TRUE((*store)->Get("key50", &value).IsNotFound());
}

TEST_F(LsmStoreTest, RecoversFlushedAndUnflushedMix) {
  LsmOptions options = SmallOptions();
  {
    auto store = LsmStore::Open(options);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 2000; ++i) {
      ASSERT_TRUE(
          (*store)->Set("key" + std::to_string(i), std::string(100, 'a')).ok());
    }
    ASSERT_TRUE((*store)->WaitIdle().ok());
    ASSERT_TRUE((*store)->Set("fresh", "unflushed").ok());
  }
  auto store = LsmStore::Open(options);
  ASSERT_TRUE(store.ok());
  std::string value;
  ASSERT_TRUE((*store)->Get("fresh", &value).ok());
  EXPECT_EQ(value, "unflushed");
  ASSERT_TRUE((*store)->Get("key1999", &value).ok());
}

TEST_F(LsmStoreTest, ApplyBatchAtomicallyVisible) {
  auto store = LsmStore::Open(SmallOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Set("gone", "soon").ok());
  std::vector<LsmStore::BatchOp> batch;
  batch.push_back({"a", "1", false});
  batch.push_back({"b", "2", false});
  batch.push_back({"gone", "", true});
  ASSERT_TRUE((*store)->ApplyBatch(batch).ok());
  std::string value;
  ASSERT_TRUE((*store)->Get("a", &value).ok());
  EXPECT_EQ(value, "1");
  ASSERT_TRUE((*store)->Get("b", &value).ok());
  EXPECT_EQ(value, "2");
  EXPECT_TRUE((*store)->Get("gone", &value).IsNotFound());
}

TEST_F(LsmStoreTest, UsageTracksDisk) {
  auto store = LsmStore::Open(SmallOptions());
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(
        (*store)->Set("key" + std::to_string(i), std::string(100, 'u')).ok());
  }
  ASSERT_TRUE((*store)->WaitIdle().ok());
  UsageStats usage = (*store)->GetUsage();
  EXPECT_GT(usage.disk_bytes, 100000u);
  EXPECT_GT(usage.keys, 0u);
}

// Only "<digits>.wal" names a WAL. Any other *.wal name, or a number past
// uint64_t, is a stray file: Open leaves it alone instead of aborting.
TEST_F(LsmStoreTest, IgnoresStrayWalNamedFiles) {
  {
    auto store = LsmStore::Open(SmallOptions());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Set("k", "v").ok());
  }
  const std::vector<std::string> strays = {
      "junk.wal", ".wal", "12a.wal", "-1.wal",
      "99999999999999999999.wal",  // 20 digits, past UINT64_MAX.
      "123456789012345678901234.wal"};
  for (const auto& name : strays) {
    ASSERT_TRUE(env::WriteStringToFileSync(dir_ + "/" + name, "x").ok());
  }
  for (int reopen = 0; reopen < 2; ++reopen) {
    auto store = LsmStore::Open(SmallOptions());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    std::string value;
    ASSERT_TRUE((*store)->Get("k", &value).ok());
    EXPECT_EQ(value, "v");
  }
  for (const auto& name : strays) {
    EXPECT_TRUE(env::FileExists(dir_ + "/" + name)) << name;
  }
}

std::string PrefixedKey(char prefix, int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "%c%04d", prefix, i);
  return buf;
}

std::vector<std::string> SstFiles(const std::string& dir) {
  std::vector<std::string> names, ssts;
  EXPECT_TRUE(env::ListDir(dir, &names).ok());
  for (const auto& name : names) {
    if (name.size() > 4 && name.substr(name.size() - 4) == ".sst") {
      ssts.push_back(name);
    }
  }
  std::sort(ssts.begin(), ssts.end());
  return ssts;
}

// Writes an L0 table of 500 'a' keys, flips one byte in its first data
// block (which holds "a0000"), reopens and flushes 500 'b' keys: the second
// L0 table reaches l0_compaction_trigger, and that compaction reads the
// damaged block. Leaves the store open in *store.
void CompactOverCorruptBlock(const LsmOptions& options,
                             std::unique_ptr<LsmStore>* store,
                             std::string* damaged) {
  {
    auto first = LsmStore::Open(options);
    ASSERT_TRUE(first.ok());
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE((*first)->Set(PrefixedKey('a', i), std::string(20, 'a')).ok());
    }
    ASSERT_TRUE((*first)->FlushForTesting().ok());
    ASSERT_EQ((*first)->GetStats().compactions, 0u);
  }
  auto ssts = SstFiles(options.dir);
  ASSERT_EQ(ssts.size(), 1u);
  *damaged = options.dir + "/" + ssts[0];
  std::string contents;
  ASSERT_TRUE(env::ReadFileToString(*damaged, &contents).ok());
  contents[8] ^= 0x40;  // Data blocks start at offset 0.
  ASSERT_TRUE(env::WriteStringToFileSync(*damaged, contents).ok());

  auto second = LsmStore::Open(options);
  ASSERT_TRUE(second.ok());
  *store = std::move(*second);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE((*store)->Set(PrefixedKey('b', i), std::string(20, 'b')).ok());
  }
  EXPECT_TRUE((*store)->FlushForTesting().IsCorruption());
}

// A block read error stops the compaction: it must not drop the block's
// keys and delete the input table.
TEST_F(LsmStoreTest, CompactionStopsOnCorruptBlock) {
  std::unique_ptr<LsmStore> store;
  std::string damaged;
  ASSERT_NO_FATAL_FAILURE(CompactOverCorruptBlock(SmallOptions(), &store,
                                                  &damaged));
  Status s = store->WaitIdle();
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(store->GetStats().compactions, 0u);
  EXPECT_TRUE(env::FileExists(damaged));
  std::string value;
  s = store->Get("a0000", &value);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  ASSERT_TRUE(store->Get("a0499", &value).ok());
  ASSERT_TRUE(store->Get("b0000", &value).ok());
}

// Open deletes every table the MANIFEST does not reference: the output of
// the aborted compaction above and a planted stray, but no live table.
TEST_F(LsmStoreTest, OpenDeletesUnreferencedTables) {
  {
    std::unique_ptr<LsmStore> store;
    std::string damaged;
    ASSERT_NO_FATAL_FAILURE(CompactOverCorruptBlock(SmallOptions(), &store,
                                                    &damaged));
  }
  // Two live L0 tables plus the aborted compaction's output.
  ASSERT_EQ(SstFiles(dir_).size(), 3u);
  ASSERT_TRUE(env::WriteStringToFileSync(dir_ + "/000900.sst", "x").ok());

  LsmOptions options = SmallOptions();
  options.l0_compaction_trigger = 100;  // Do not retry the compaction.
  auto store = LsmStore::Open(options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(SstFiles(dir_).size(), 2u);
  EXPECT_FALSE(env::FileExists(dir_ + "/000900.sst"));
  std::string value;
  for (int i = 0; i < 500; i += 7) {
    ASSERT_TRUE((*store)->Get(PrefixedKey('b', i), &value).ok()) << i;
  }
  EXPECT_TRUE((*store)->Get("a0000", &value).IsCorruption());
  ASSERT_TRUE((*store)->Get("a0499", &value).ok());
}

// WaitIdle and FlushForTesting wait on the background thread's signal
// while two writers keep switching a small memtable: every call returns.
TEST_F(LsmStoreTest, WaitIdleRacesWriters) {
  LsmOptions options = SmallOptions();
  options.memtable_bytes = 16 * 1024;
  options.target_file_bytes = 16 * 1024;
  options.level1_max_bytes = 64 * 1024;
  auto opened = LsmStore::Open(options);
  ASSERT_TRUE(opened.ok());
  LsmStore* store = opened->get();

  constexpr int kWriters = 2;
  constexpr int kWrites = 3000;
  std::atomic<int> writers_done{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([store, t, &writers_done] {
      for (int i = 0; i < kWrites; ++i) {
        const std::string key = "w" + std::to_string(t) + "_" +
                                std::to_string(i % 400);
        EXPECT_TRUE(store->Set(key, "v" + std::to_string(i)).ok());
      }
      writers_done.fetch_add(1);
    });
  }
  std::promise<int> finished;
  std::thread waiter([store, &writers_done, &finished] {
    int calls = 0;
    while (writers_done.load() < kWriters) {
      EXPECT_TRUE(store->WaitIdle().ok());
      EXPECT_TRUE(store->FlushForTesting().ok());
      calls += 2;
    }
    finished.set_value(calls);
  });
  auto done = finished.get_future();
  if (done.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
    // A lost wakeup leaves a call blocked for good; nothing can release it.
    fprintf(stderr, "WaitIdle/FlushForTesting hung\n");
    std::abort();
  }
  for (auto& w : writers) w.join();
  waiter.join();
  EXPECT_GT(done.get(), 0);

  ASSERT_TRUE(store->WaitIdle().ok());
  EXPECT_GT(store->GetStats().flushes, 0u);
  for (int t = 0; t < kWriters; ++t) {
    for (int k = 0; k < 400; ++k) {
      // The last write to key k was at i = the largest i < kWrites with
      // i % 400 == k.
      const int last = (kWrites - 1) - ((kWrites - 1 - k) % 400);
      std::string value;
      ASSERT_TRUE(store->Get("w" + std::to_string(t) + "_" +
                                 std::to_string(k),
                             &value)
                      .ok());
      ASSERT_EQ(value, "v" + std::to_string(last));
    }
  }
}

// Property test: random op sequence against an in-memory model.
class LsmPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LsmPropertyTest, MatchesModelUnderRandomOps) {
  std::string dir = env::MakeTempDir("tb_lsm_prop");
  LsmOptions options;
  options.dir = dir;
  options.memtable_bytes = 16 * 1024;
  options.target_file_bytes = 16 * 1024;
  options.l0_compaction_trigger = 2;
  options.level1_max_bytes = 64 * 1024;
  auto store = LsmStore::Open(options);
  ASSERT_TRUE(store.ok());

  Random rng(GetParam());
  std::map<std::string, std::string> model;
  for (int i = 0; i < 4000; ++i) {
    std::string key = "k" + std::to_string(rng.Uniform(300));
    int action = static_cast<int>(rng.Uniform(10));
    if (action < 6) {  // 60% write.
      std::string value = "v" + std::to_string(i);
      model[key] = value;
      ASSERT_TRUE((*store)->Set(key, value).ok());
    } else if (action < 8) {  // 20% delete.
      model.erase(key);
      ASSERT_TRUE((*store)->Delete(key).ok());
    } else {  // 20% read-your-writes check.
      std::string value;
      Status s = (*store)->Get(key, &value);
      auto it = model.find(key);
      if (it == model.end()) {
        ASSERT_TRUE(s.IsNotFound()) << key;
      } else {
        ASSERT_TRUE(s.ok()) << key << ": " << s.ToString();
        ASSERT_EQ(value, it->second);
      }
    }
  }
  // Final full verification.
  ASSERT_TRUE((*store)->WaitIdle().ok());
  for (const auto& [key, expected] : model) {
    std::string value;
    ASSERT_TRUE((*store)->Get(key, &value).ok()) << key;
    ASSERT_EQ(value, expected);
  }
  store.value().reset();
  env::RemoveDirRecursive(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LsmPropertyTest,
                         ::testing::Values(1, 2, 3, 42, 1337));

}  // namespace
}  // namespace lsm
}  // namespace tierbase
