// Unit tests for src/common: Status/Result, Slice, coding, CRC32C, hash,
// histogram, random distributions, arena, clocks, env file helpers.

#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/arena.h"
#include "common/clock.h"
#include "common/coding.h"
#include "common/crc32c.h"
#include "common/env.h"
#include "common/hash.h"
#include "common/histogram.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/slice.h"
#include "common/status.h"

namespace tierbase {
namespace {

// --- Status / Result. ---

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_FALSE(s.IsNotFound());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing key");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_NE(s.ToString().find("missing key"), std::string::npos);
}

TEST(StatusTest, AllCodesRoundTrip) {
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Busy("x").IsBusy());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_TRUE(Status::OutOfSpace("x").IsOutOfSpace());
  EXPECT_TRUE(Status::Unavailable("x").IsUnavailable());
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);

  Result<int> err = Status::IOError("disk");
  EXPECT_FALSE(err.ok());
  EXPECT_TRUE(err.status().IsIOError());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r.value());
  EXPECT_EQ(*v, 7);
}

// --- Slice. ---

TEST(SliceTest, BasicAccessors) {
  Slice s("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s[1], 'e');
  EXPECT_EQ(s.ToString(), "hello");
}

TEST(SliceTest, CompareIsLexicographic) {
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abd").compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  // Shorter prefix sorts first.
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);
}

TEST(SliceTest, StartsWithAndPrefixRemoval) {
  Slice s("key:123");
  EXPECT_TRUE(s.starts_with("key:"));
  s.remove_prefix(4);
  EXPECT_EQ(s.ToString(), "123");
}

TEST(SliceTest, EqualityIncludesEmbeddedNul) {
  std::string a("a\0b", 3), b("a\0c", 3);
  EXPECT_NE(Slice(a), Slice(b));
  EXPECT_EQ(Slice(a), Slice(std::string("a\0b", 3)));
}

// --- Coding. ---

TEST(CodingTest, Fixed32RoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xdeadbeef);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(DecodeFixed32(buf.data()), 0xdeadbeefu);
}

TEST(CodingTest, Fixed64RoundTrip) {
  std::string buf;
  PutFixed64(&buf, 0x0123456789abcdefULL);
  ASSERT_EQ(buf.size(), 8u);
  EXPECT_EQ(DecodeFixed64(buf.data()), 0x0123456789abcdefULL);
}

TEST(CodingTest, Varint32Boundaries) {
  // Each length boundary of the base-128 encoding.
  const uint32_t cases[] = {0, 1, 127, 128, 16383, 16384, 2097151, 2097152,
                            268435455, 268435456, 0xffffffffu};
  std::string buf;
  for (uint32_t v : cases) PutVarint32(&buf, v);
  Slice in(buf);
  for (uint32_t v : cases) {
    uint32_t got = 0;
    ASSERT_TRUE(GetVarint32(&in, &got));
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, Varint64RandomRoundTrip) {
  Random rng(101);
  std::vector<uint64_t> values;
  std::string buf;
  for (int i = 0; i < 1000; ++i) {
    // Bias toward small values and length boundaries.
    uint64_t v = rng.Next() >> (rng.Uniform(64));
    values.push_back(v);
    PutVarint64(&buf, v);
  }
  Slice in(buf);
  for (uint64_t v : values) {
    uint64_t got = 0;
    ASSERT_TRUE(GetVarint64(&in, &got));
    EXPECT_EQ(got, v);
  }
}

TEST(CodingTest, VarintLengthMatchesEncoding) {
  for (uint64_t v : {0ULL, 127ULL, 128ULL, 1ULL << 35, ~0ULL}) {
    std::string buf;
    PutVarint64(&buf, v);
    EXPECT_EQ(VarintLength(v), static_cast<int>(buf.size()));
  }
}

TEST(CodingTest, TruncatedVarintFails) {
  std::string buf;
  PutVarint64(&buf, 1ULL << 60);
  Slice in(buf.data(), buf.size() - 1);
  uint64_t got = 0;
  EXPECT_FALSE(GetVarint64(&in, &got));
}

TEST(CodingTest, LengthPrefixedSliceRoundTrip) {
  std::string buf;
  PutLengthPrefixedSlice(&buf, "alpha");
  PutLengthPrefixedSlice(&buf, "");
  PutLengthPrefixedSlice(&buf, std::string(1000, 'x'));
  Slice in(buf), out;
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &out));
  EXPECT_EQ(out.ToString(), "alpha");
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &out));
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &out));
  EXPECT_EQ(out.size(), 1000u);
}

// --- CRC32C. ---

TEST(Crc32cTest, KnownVector) {
  // Standard CRC32C check value for "123456789".
  EXPECT_EQ(crc32c::Value("123456789", 9), 0xe3069283u);
}

TEST(Crc32cTest, ExtendComposes) {
  std::string data = "hello world, this is crc test data";
  uint32_t whole = crc32c::Value(data.data(), data.size());
  uint32_t part = crc32c::Extend(crc32c::Value(data.data(), 10),
                                 data.data() + 10, data.size() - 10);
  EXPECT_EQ(whole, part);
}

TEST(Crc32cTest, MaskUnmaskRoundTrip) {
  uint32_t crc = crc32c::Value("payload", 7);
  EXPECT_NE(crc32c::Mask(crc), crc);
  EXPECT_EQ(crc32c::Unmask(crc32c::Mask(crc)), crc);
}

TEST(Crc32cTest, DetectsSingleBitFlip) {
  std::string data(64, 'a');
  uint32_t before = crc32c::Value(data.data(), data.size());
  data[17] ^= 0x04;
  EXPECT_NE(crc32c::Value(data.data(), data.size()), before);
}

// Differential tests of the two Extend implementations over seeded random
// bytes. Replay a failure with TIERBASE_CRC_SEED=<printed seed>.
constexpr size_t kCrcMaxLen = 4096;
using CrcExtendFn = uint32_t (*)(uint32_t, const char*, size_t);

uint64_t CrcSeed() {
  uint64_t seed = 20261018;
  if (const char* env = std::getenv("TIERBASE_CRC_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  std::printf("crc32c seed %" PRIu64 "\n", seed);
  return seed;
}

// kCrcMaxLen + 8 random bytes, so every length can start at offsets 0-7.
std::string CrcData(Random* rnd) {
  std::string buf(kCrcMaxLen + 8, '\0');
  for (char& c : buf) c = static_cast<char>(rnd->Next());
  return buf;
}

// Cuts random stretches of `buf` into up to five pieces at random split
// points and chains Extend over them, alternating `a` and `b` piece by
// piece; the result must equal `b` over the whole stretch.
void ExpectSplitsCompose(CrcExtendFn a, CrcExtendFn b, const std::string& buf,
                         Random* rnd) {
  for (int round = 0; round < 2000; ++round) {
    const size_t offset = rnd->Uniform(8);
    const size_t len = rnd->Uniform(kCrcMaxLen + 1);
    std::vector<size_t> cuts = {0, len};
    for (size_t n = rnd->Uniform(5); n > 0; --n) {
      cuts.push_back(rnd->Uniform(len + 1));
    }
    std::sort(cuts.begin(), cuts.end());
    const char* data = buf.data() + offset;
    uint32_t crc = 0;
    for (size_t i = 0; i + 1 < cuts.size(); ++i) {
      crc = (i % 2 == 0 ? a : b)(crc, data + cuts[i], cuts[i + 1] - cuts[i]);
    }
    ASSERT_EQ(crc, b(0, data, len))
        << "offset " << offset << " length " << len << " pieces "
        << cuts.size() - 1;
  }
}

TEST(Crc32cTest, PortableMatchesBitwiseReference) {
  Random rnd(CrcSeed());
  const std::string buf = CrcData(&rnd);
  for (size_t offset = 0; offset < 8; ++offset) {
    const char* data = buf.data() + offset;
    uint32_t reg = 0xffffffffu;  // Bit-at-a-time CRC over data[0, len).
    for (size_t len = 0; len <= kCrcMaxLen; ++len) {
      ASSERT_EQ(crc32c::internal::ExtendPortable(0, data, len),
                reg ^ 0xffffffffu)
          << "offset " << offset << " length " << len;
      reg ^= static_cast<unsigned char>(data[len]);
      for (int bit = 0; bit < 8; ++bit) {
        reg = (reg >> 1) ^ (0x82f63b78u & (0u - (reg & 1)));
      }
    }
  }
  ExpectSplitsCompose(crc32c::internal::ExtendPortable,
                      crc32c::internal::ExtendPortable, buf, &rnd);
}

TEST(Crc32cTest, HardwareMatchesPortable) {
#if defined(__x86_64__)
  if (!crc32c::internal::HardwareAvailable()) {
    GTEST_SKIP() << "no SSE4.2 on this CPU";
  }
  Random rnd(CrcSeed());
  const std::string buf = CrcData(&rnd);
  for (size_t offset = 0; offset < 8; ++offset) {
    const char* data = buf.data() + offset;
    for (size_t len = 0; len <= kCrcMaxLen; ++len) {
      ASSERT_EQ(crc32c::internal::ExtendHardware(0, data, len),
                crc32c::internal::ExtendPortable(0, data, len))
          << "offset " << offset << " length " << len;
    }
  }
  ExpectSplitsCompose(crc32c::internal::ExtendHardware,
                      crc32c::internal::ExtendPortable, buf, &rnd);
#else
  GTEST_SKIP() << "no CRC32C instruction path on this architecture";
#endif
}

// --- Hash. ---

TEST(HashTest, DeterministicAndSeedSensitive) {
  EXPECT_EQ(Hash64("abc", 3), Hash64("abc", 3));
  EXPECT_NE(Hash64("abc", 3, 1), Hash64("abc", 3, 2));
  EXPECT_NE(Hash64("abc", 3), Hash64("abd", 3));
}

TEST(HashTest, Uniformity) {
  // Hash 64k sequential keys into 64 bins; expect no bin 2x off expectation.
  std::vector<int> bins(64, 0);
  for (int i = 0; i < 65536; ++i) {
    std::string key = "key" + std::to_string(i);
    ++bins[Hash64(key.data(), key.size()) % 64];
  }
  for (int count : bins) {
    EXPECT_GT(count, 512);   // Expected 1024.
    EXPECT_LT(count, 2048);
  }
}

// --- Histogram. ---

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Percentile(0.99), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
}

TEST(HistogramTest, ExactSmallValues) {
  Histogram h;
  for (uint64_t v = 1; v <= 16; ++v) h.Add(v);
  EXPECT_EQ(h.Count(), 16u);
  EXPECT_EQ(h.Min(), 1u);
  EXPECT_EQ(h.Max(), 16u);
  EXPECT_NEAR(h.Mean(), 8.5, 1e-9);
}

TEST(HistogramTest, PercentileWithinRelativeError) {
  Histogram h;
  Random rng(7);
  std::vector<uint64_t> values;
  for (int i = 0; i < 100000; ++i) {
    uint64_t v = 1 + rng.Uniform(1000000);
    values.push_back(v);
    h.Add(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    uint64_t exact = values[static_cast<size_t>(q * (values.size() - 1))];
    uint64_t approx = h.Percentile(q);
    // Bucketing guarantees ~6% relative error.
    EXPECT_NEAR(static_cast<double>(approx), static_cast<double>(exact),
                0.10 * static_cast<double>(exact))
        << "q=" << q;
  }
}

// Regression: BucketFor's leading-zero count (now __builtin_clzll for
// C++17) must place values across the full 64-bit range without
// overflowing the bucket array or breaking percentile ordering.
TEST(HistogramTest, HugeValuesBucketSanely) {
  Histogram h;
  h.Add(1);
  h.Add(1ULL << 20);
  h.Add(1ULL << 40);
  h.Add(~0ULL);
  EXPECT_EQ(h.Count(), 4u);
  EXPECT_EQ(h.Min(), 1u);
  EXPECT_EQ(h.Max(), ~0ULL);
  EXPECT_EQ(h.Percentile(0.25), 1u);
  EXPECT_LE(h.Percentile(0.5), (1ULL << 21));
  EXPECT_GE(h.Percentile(0.5), (1ULL << 20));
  EXPECT_EQ(h.Percentile(1.0), ~0ULL);  // Clamped to the observed max.
}

TEST(HistogramTest, MergeEqualsCombined) {
  Histogram a, b, combined;
  Random rng(9);
  for (int i = 0; i < 5000; ++i) {
    uint64_t v = rng.Uniform(10000);
    if (i % 2 == 0) {
      a.Add(v);
    } else {
      b.Add(v);
    }
    combined.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.Count(), combined.Count());
  EXPECT_EQ(a.Percentile(0.95), combined.Percentile(0.95));
  EXPECT_EQ(a.Max(), combined.Max());
}

TEST(HistogramTest, ConcurrentMatchesSerial) {
  metrics::LatencyHistogram ch;
  Histogram h;
  for (uint64_t v = 0; v < 10000; v += 3) {
    ch.Record(v);
    h.Add(v);
  }
  Histogram snap = ch.Snapshot();
  EXPECT_EQ(snap.Count(), h.Count());
  EXPECT_EQ(snap.Percentile(0.5), h.Percentile(0.5));
  EXPECT_EQ(snap.Max(), h.Max());
  EXPECT_EQ(snap.Sum(), h.Sum());
}

// --- Random / Zipfian. ---

TEST(RandomTest, UniformInRange) {
  Random rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
    uint64_t r = rng.Range(5, 9);
    EXPECT_GE(r, 5u);
    EXPECT_LE(r, 9u);
  }
}

TEST(RandomTest, BernoulliFrequency) {
  Random rng(4);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.02);
}

TEST(ZipfianTest, InRangeAndSkewed) {
  ZipfianGenerator zipf(1000, 0.99, 5);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 100000; ++i) {
    uint64_t v = zipf.Next();
    ASSERT_LT(v, 1000u);
    ++counts[v];
  }
  // Item 0 should dominate: with theta=.99 and n=1000 it draws >5% alone.
  EXPECT_GT(counts[0], 5000);
  // Top-10 items should cover a large share (temporal locality premise).
  int top10 = 0;
  for (uint64_t k = 0; k < 10; ++k) top10 += counts[k];
  EXPECT_GT(top10, 30000);
}

TEST(ZipfianTest, GrowKeepsDistributionValid) {
  ZipfianGenerator zipf(100, 0.99, 6);
  zipf.Grow(10000);
  EXPECT_EQ(zipf.n(), 10000u);
  for (int i = 0; i < 10000; ++i) ASSERT_LT(zipf.Next(), 10000u);
}

TEST(ScrambledZipfianTest, SpreadsHotKeys) {
  ScrambledZipfianGenerator zipf(1000, ZipfianGenerator::kDefaultTheta, 8);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 100000; ++i) ++counts[zipf.Next()];
  // Still skewed: the most popular key gets far more than uniform share.
  int max_count = 0;
  for (const auto& [k, c] : counts) max_count = std::max(max_count, c);
  EXPECT_GT(max_count, 2000);  // Uniform share would be 100.
  // But the hottest keys are not the numerically smallest ones.
  uint64_t hottest = 0;
  for (const auto& [k, c] : counts) {
    if (c == max_count) hottest = k;
  }
  EXPECT_GT(hottest, 10u);
}

TEST(LatestGeneratorTest, FavorsRecent) {
  LatestGenerator latest(1000, 11);
  latest.SetMax(999);
  int recent = 0;
  for (int i = 0; i < 10000; ++i) {
    uint64_t v = latest.Next();
    ASSERT_LE(v, 999u);
    if (v >= 900) ++recent;
  }
  EXPECT_GT(recent, 5000);  // Top decile gets most accesses.
}

// --- Arena. ---

TEST(ArenaTest, AllocationsAreUsableAndAligned) {
  Arena arena;
  char* p = arena.Allocate(100);
  memset(p, 0xab, 100);
  char* q = arena.AllocateAligned(64);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(q) % alignof(void*), 0u);
  EXPECT_GE(arena.MemoryUsage(), 164u);
}

TEST(ArenaTest, ManySmallAllocations) {
  Arena arena;
  std::vector<char*> ptrs;
  for (int i = 0; i < 10000; ++i) {
    char* p = arena.Allocate(16);
    memcpy(p, &i, sizeof(i));
    ptrs.push_back(p);
  }
  for (int i = 0; i < 10000; ++i) {
    int v;
    memcpy(&v, ptrs[i], sizeof(v));
    EXPECT_EQ(v, i);
  }
}

// --- Clock. ---

TEST(ClockTest, ManualClockAdvances) {
  ManualClock clock(100);
  EXPECT_EQ(clock.NowMicros(), 100u);
  clock.Advance(50);
  EXPECT_EQ(clock.NowMicros(), 150u);
  clock.SleepMicros(25);  // Sleep on a manual clock advances it.
  EXPECT_EQ(clock.NowMicros(), 175u);
  clock.Set(1000);
  EXPECT_EQ(clock.NowMicros(), 1000u);
}

TEST(ClockTest, RealClockMonotonic) {
  Clock* clock = Clock::Real();
  uint64_t a = clock->NowMicros();
  uint64_t b = clock->NowMicros();
  EXPECT_LE(a, b);
}

// --- Env. ---

class EnvTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = env::MakeTempDir("tb_env_test"); }
  void TearDown() override { env::RemoveDirRecursive(dir_); }
  std::string dir_;
};

TEST_F(EnvTest, WriteReadRoundTrip) {
  std::string path = dir_ + "/file.txt";
  ASSERT_TRUE(env::WriteStringToFileSync(path, "contents here").ok());
  std::string out;
  ASSERT_TRUE(env::ReadFileToString(path, &out).ok());
  EXPECT_EQ(out, "contents here");
  EXPECT_EQ(env::FileSize(path), 13u);
}

TEST_F(EnvTest, WritableFileAppendAndSync) {
  std::string path = dir_ + "/appended.log";
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env::NewWritableFile(path, &file).ok());
  ASSERT_TRUE(file->Append("part1 ").ok());
  ASSERT_TRUE(file->Append("part2").ok());
  ASSERT_TRUE(file->Sync().ok());
  EXPECT_EQ(file->Size(), 11u);
  ASSERT_TRUE(file->Close().ok());
  std::string out;
  ASSERT_TRUE(env::ReadFileToString(path, &out).ok());
  EXPECT_EQ(out, "part1 part2");
}

TEST_F(EnvTest, RandomAccessRead) {
  std::string path = dir_ + "/random.bin";
  ASSERT_TRUE(env::WriteStringToFileSync(path, "0123456789").ok());
  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(env::NewRandomAccessFile(path, &file).ok());
  std::string out;
  ASSERT_TRUE(file->Read(3, 4, &out).ok());
  EXPECT_EQ(out, "3456");
}

TEST_F(EnvTest, ListRenameRemove) {
  ASSERT_TRUE(env::WriteStringToFileSync(dir_ + "/a", "x").ok());
  ASSERT_TRUE(env::WriteStringToFileSync(dir_ + "/b", "y").ok());
  std::vector<std::string> names;
  ASSERT_TRUE(env::ListDir(dir_, &names).ok());
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b"}));

  ASSERT_TRUE(env::RenameFile(dir_ + "/a", dir_ + "/c").ok());
  EXPECT_FALSE(env::FileExists(dir_ + "/a"));
  EXPECT_TRUE(env::FileExists(dir_ + "/c"));
  ASSERT_TRUE(env::RemoveFile(dir_ + "/c").ok());
  EXPECT_FALSE(env::FileExists(dir_ + "/c"));
}

// A write(2) that fails partway must not leave the bytes it did write
// queued for the next Flush, which would write them twice. The file size
// limit makes the write short; a forked child keeps the limit, and the
// SIGXFSZ it raises, out of this process. Both Append paths are covered:
// one append straight to write(2), and appends through the buffer.
TEST_F(EnvTest, FlushAfterShortWriteWritesEachByteOnce) {
  std::string data(100000, '\0');
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<char>(i % 251);
  const std::string direct = dir_ + "/direct.log";
  const std::string buffered = dir_ + "/buffered.log";

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    signal(SIGXFSZ, SIG_IGN);
    rlimit saved;
    if (getrlimit(RLIMIT_FSIZE, &saved) != 0) _exit(10);
    rlimit limited = saved;
    limited.rlim_cur = 10000;
    if (setrlimit(RLIMIT_FSIZE, &limited) != 0) _exit(11);
    std::unique_ptr<WritableFile> a, b;
    if (!env::NewWritableFile(direct, &a).ok()) _exit(12);
    if (!env::NewWritableFile(buffered, &b).ok()) _exit(13);
    // One append of more than a buffer's worth with nothing buffered.
    if (a->Append(data).ok()) _exit(14);
    // A small append, then one that fills the buffer and flushes it.
    if (!b->Append(Slice(data.data(), 1000)).ok()) _exit(15);
    if (b->Append(Slice(data.data() + 1000, data.size() - 1000)).ok()) {
      _exit(16);
    }
    if (setrlimit(RLIMIT_FSIZE, &saved) != 0) _exit(17);
    if (!a->Flush().ok() || !a->Close().ok()) _exit(18);
    if (!b->Flush().ok() || !b->Close().ok()) _exit(19);
    _exit(0);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << status;
  ASSERT_EQ(WEXITSTATUS(status), 0);
  for (const std::string& path : {direct, buffered}) {
    std::string out;
    ASSERT_TRUE(env::ReadFileToString(path, &out).ok()) << path;
    EXPECT_EQ(out.size(), data.size()) << path;
    EXPECT_TRUE(out == data) << path;
  }
}

TEST_F(EnvTest, MissingFileErrors) {
  std::string out;
  EXPECT_FALSE(env::ReadFileToString(dir_ + "/nope", &out).ok());
  std::unique_ptr<RandomAccessFile> file;
  EXPECT_FALSE(env::NewRandomAccessFile(dir_ + "/nope", &file).ok());
}

}  // namespace
}  // namespace tierbase
