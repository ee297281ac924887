// tbb_tests: the benchmark's own tests — the open-loop pacer, the
// percentile summary, the value validator and span self time. Exits
// non-zero on the first failed check.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      fprintf(stderr, "%s:%d: check failed: %s\n", __FILE__, __LINE__, \
              #cond);                                                \
      ++failures;                                                    \
    }                                                                \
  } while (0)

using namespace tbbench;

void TestPacerIsExactAtNanosecondResolution() {
  // 60k/s does not divide a second into whole microseconds; rounding the
  // interval to 16 us would offer 62.5k/s. The pacer must offer exactly
  // `rate` ops per second, with no drift over a long run.
  for (uint64_t rate : {1ull, 3ull, 7'000ull, 60'000ull, 333'333ull}) {
    Pacer p(1'000, rate);
    CHECK(p.Due(0) == 1'000);
    CHECK(p.Due(rate) == 1'000 + 1'000'000'000);
    CHECK(p.Due(10 * rate) == 1'000 + 10'000'000'000ll);
    for (uint64_t i = 1; i < 2000; ++i) CHECK(p.Due(i) >= p.Due(i - 1));
  }
  Pacer p(0, 60'000);
  CHECK(p.DueBy(-1) == 0);
  CHECK(p.DueBy(999'999'999) == 60'000);  // Op 60000 is due at exactly 1 s.
  CHECK(p.DueBy(1'000'000'000) == 60'001);
  Rng rng(42);
  for (int i = 0; i < 10'000; ++i) {
    uint64_t rate = 1 + rng.Next() % 1'000'000;
    Pacer q(static_cast<int64_t>(rng.Next() % 1'000'000), rate);
    int64_t now = static_cast<int64_t>(rng.Next() % 5'000'000'000ull);
    uint64_t n = q.DueBy(now);
    // Exactly the ops 0..n-1 are due by `now`.
    if (n > 0) CHECK(q.Due(n - 1) <= now);
    CHECK(q.Due(n) > now);
  }
}

void TestSummaryPercentiles() {
  std::vector<double> xs;
  for (int i = 1; i <= 1000; ++i) xs.push_back(i);
  Summary s = Summarize(xs);
  CHECK(s.count == 1000);
  CHECK(s.p50 == 500);
  CHECK(s.p99 == 990);
  CHECK(s.p999 == 999);
  CHECK(s.max == 1000);
  CHECK(s.mean == 500.5);
  CHECK(s.p99_resolved);
  // Unsorted input gives the same answer; fewer than ten samples above
  // p99 leaves it unresolved.
  std::vector<double> few = {5, 1, 4, 2, 3};
  Summary f = Summarize(few);
  CHECK(f.p50 == 3);
  CHECK(f.p99 == 5);
  CHECK(!f.p99_resolved);
  CHECK(Summarize({}).count == 0);
  // A stall in one tenth of a run is the run's tail: p99 over all samples
  // must show it.
  std::vector<double> run;
  for (int w = 0; w < 10; ++w) {
    for (int i = 1; i <= 1000; ++i) run.push_back(w == 3 ? 100.0 * i : i);
  }
  Summary r = Summarize(run);
  CHECK(r.p50 == 555);
  CHECK(r.p99 == 90'000);
  CHECK(Median({3, 1, 2}) == 2);
  CHECK(Median({4, 1, 2, 3}) == 2.5);
}

void TestValidator() {
  ValueShape shape{64, 256};
  std::string v;
  for (uint32_t key : {0u, 7u, 499'999u}) {
    size_t n = shape.BytesFor(key);
    CHECK(n >= 64 && n <= 256);
    MakeValue(key, 3, n, &v);
    CHECK(v.size() == n);
    uint32_t version = 0;
    CHECK(CheckValue(v.data(), v.size(), key, n, 3, 3, &version) == Verdict::kOk);
    CHECK(version == 3);
    CHECK(CheckValue(v.data(), v.size(), key, n, 0, 9) == Verdict::kOk);
    // Stale: older than the last acknowledged SET.
    CHECK(CheckValue(v.data(), v.size(), key, n, 4, 9) == Verdict::kStale);
    // Newer than any SET issued.
    CHECK(CheckValue(v.data(), v.size(), key, n, 0, 2) == Verdict::kFuture);
    // Another key's value.
    CHECK(CheckValue(v.data(), v.size(), key + 1, n, 0, 9) ==
          Verdict::kWrongKey);
    // Any flipped byte, a truncation or a wrong length is corruption.
    for (size_t i = 0; i < n; i += 7) {
      std::string bad = v;
      bad[i] ^= 0x20;
      CHECK(CheckValue(bad.data(), bad.size(), key, n, 0, 9) !=
            Verdict::kOk);
    }
    CHECK(CheckValue(v.data(), n - 1, key, n, 0, 9) == Verdict::kCorrupt);
    std::string longer = v + "x";
    CHECK(CheckValue(longer.data(), longer.size(), key, n, 0, 9) ==
          Verdict::kCorrupt);
  }
  // A stale value that is otherwise intact is still rejected: rewrite the
  // version field and fix up the checksum.
  MakeValue(11, 2, 100, &v);
  std::string older;
  MakeValue(11, 1, 100, &older);
  CHECK(CheckValue(older.data(), older.size(), 11, 100, 2, 2) ==
        Verdict::kStale);
}

void TestStreamIsSeeded() {
  auto a = MakeStream(7, 1000, 0.99, 0.25, 10'000);
  auto b = MakeStream(7, 1000, 0.99, 0.25, 10'000);
  auto c = MakeStream(8, 1000, 0.99, 0.25, 10'000);
  size_t same = 0, sets = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    CHECK(a[i].key == b[i].key && a[i].is_set == b[i].is_set);
    CHECK(a[i].key < 1000);
    same += a[i].key == c[i].key;
    sets += a[i].is_set;
  }
  CHECK(same < a.size() / 2);
  CHECK(sets > 2'000 && sets < 3'000);
}

void TestSelfTime() {
  // Parent 0..100 with children 10..30 and 20..50 (overlapping) and
  // 90..120 (clipped to the parent): covered = 40 + 10 = 50 ns.
  std::vector<Span> spans = {{1, 0, "outer", 0, 100'000},
                             {2, 1, "inner", 10'000, 30'000},
                             {3, 1, "inner", 20'000, 50'000},
                             {4, 1, "inner", 90'000, 120'000}};
  auto t = SelfTimes(spans);
  CHECK(t["outer"].count == 1);
  CHECK(t["outer"].total_us == 100);
  CHECK(t["outer"].self_us == 50);
  CHECK(t["inner"].count == 3);
  CHECK(t["inner"].self_us == 80);
  CHECK(SelfTimesJson(t) ==
        "{\"inner\": {\"count\": 3, \"total_us\": 80.000, "
        "\"self_us\": 80.000}, \"outer\": {\"count\": 1, "
        "\"total_us\": 100.000, \"self_us\": 50.000}}");
}

}  // namespace

int main() {
  TestPacerIsExactAtNanosecondResolution();
  TestSummaryPercentiles();
  TestValidator();
  TestStreamIsSeeded();
  TestSelfTime();
  if (failures != 0) {
    fprintf(stderr, "tbb_tests: %d check(s) failed\n", failures);
    return 1;
  }
  printf("tbb_tests: all checks passed\n");
  return 0;
}
