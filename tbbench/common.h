// Shared pieces of the tiering-ladder benchmark: the seeded op stream,
// self-describing values and their validator, the open-loop pacer, the
// percentile summary and span self-time accounting. Header-only so the
// driver, the direct-call rungs and the benchmark's own tests share one
// copy.

#ifndef TBBENCH_COMMON_H_
#define TBBENCH_COMMON_H_

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <map>
#include <string>
#include <vector>

namespace tbbench {

// The modeled round trip to the disaggregated storage tier, the same as the
// repository benches' kStorageRttMicros.
constexpr uint64_t kStorageRttMicros = 100;

inline int64_t NowNanos() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// splitmix64: the seeded source of every random choice in the stream.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double Uniform() { return (Next() >> 11) * (1.0 / 9007199254740992.0); }

 private:
  uint64_t state_;
};

inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  return x ^ (x >> 33);
}

// Gray et al.'s Zipfian generator (the YCSB one), ranks scrambled over the
// keyspace so the hot keys are spread across shards and connections.
class ScrambledZipf {
 public:
  ScrambledZipf(uint64_t n, double theta) : n_(n), theta_(theta) {
    for (uint64_t i = 1; i <= n; ++i) zetan_ += 1.0 / std::pow(i, theta);
    double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / n, 1.0 - theta)) / (1.0 - zeta2 / zetan_);
  }
  uint64_t Next(Rng* rng) const {
    double u = rng->Uniform();
    double uz = u * zetan_;
    uint64_t rank;
    if (uz < 1.0) {
      rank = 0;
    } else if (uz < 1.0 + std::pow(0.5, theta_)) {
      rank = 1;
    } else {
      rank = static_cast<uint64_t>(n_ * std::pow(eta_ * u - eta_ + 1.0,
                                                   alpha_));
      if (rank >= n_) rank = n_ - 1;
    }
    return Mix64(rank + 0x5bd1e995) % n_;
  }

 private:
  uint64_t n_;
  double theta_;
  double zetan_ = 0;
  double alpha_ = 0;
  double eta_ = 0;
};

struct Op {
  uint32_t key;
  bool is_set;
};

// The pre-generated stream: `count` ops drawn from the seed before any
// timing starts.
inline std::vector<Op> MakeStream(uint64_t seed, uint64_t keys, double theta,
                                  double set_fraction, size_t count) {
  ScrambledZipf zipf(keys, theta);
  Rng rng(seed * 0x2545f4914f6cdd1dULL + 1);
  std::vector<Op> ops(count);
  for (auto& op : ops) {
    op.key = static_cast<uint32_t>(zipf.Next(&rng));
    op.is_set = rng.Uniform() < set_fraction;
  }
  return ops;
}

// ---------------------------------------------------------------------------
// Self-describing values: "K<key>V<version>|" + filler + 8 hex digits of
// FNV-1a over everything before them. A value's length depends only on its
// key, so the live logical byte count is fixed by the keyspace.
// ---------------------------------------------------------------------------

constexpr size_t kHeaderBytes = 19;  // "K%08u" "V%08u" "|"
constexpr size_t kChecksumBytes = 8;

inline uint32_t Fnv1a(const char* p, size_t n) {
  uint32_t h = 2166136261u;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<uint8_t>(p[i]);
    h *= 16777619u;
  }
  return h;
}

inline std::string KeyName(uint32_t key) {
  char buf[16];
  snprintf(buf, sizeof(buf), "tb:%08u", key);
  return buf;
}

struct ValueShape {
  size_t min_bytes = 64;
  size_t max_bytes = 256;
  size_t BytesFor(uint32_t key) const {
    size_t span = max_bytes - min_bytes + 1;
    return min_bytes + Mix64(key * 0x9e3779b97f4a7c15ULL + 7) % span;
  }
};

inline void MakeValue(uint32_t key, uint32_t version, size_t bytes,
                      std::string* out) {
  static const std::string kPattern = [] {
    std::string p;
    for (int i = 0; i < 4096 + 64; ++i) p.push_back(static_cast<char>('a' + i % 26));
    return p;
  }();
  out->resize(bytes);
  char* p = &(*out)[0];
  char head[kHeaderBytes + 1];
  snprintf(head, sizeof(head), "K%08uV%08u|", key, version);
  memcpy(p, head, kHeaderBytes);
  size_t filler = bytes - kHeaderBytes - kChecksumBytes;
  memcpy(p + kHeaderBytes, kPattern.data() + (key + version) % 26, filler);
  uint32_t sum = Fnv1a(p, bytes - kChecksumBytes);
  char tail[kChecksumBytes + 1];
  snprintf(tail, sizeof(tail), "%08x", sum);
  memcpy(p + bytes - kChecksumBytes, tail, kChecksumBytes);
}

enum class Verdict { kOk, kCorrupt, kWrongKey, kStale, kFuture };

inline const char* VerdictName(Verdict v) {
  switch (v) {
    case Verdict::kOk: return "ok";
    case Verdict::kCorrupt: return "corrupt";
    case Verdict::kWrongKey: return "wrong-key";
    case Verdict::kStale: return "stale";
    case Verdict::kFuture: return "future";
  }
  return "?";
}

inline bool ParseDigits(const char* p, uint32_t* out) {
  uint32_t v = 0;
  for (int i = 0; i < 8; ++i) {
    if (p[i] < '0' || p[i] > '9') return false;
    v = v * 10 + static_cast<uint32_t>(p[i] - '0');
  }
  *out = v;
  return true;
}

// A GET of `key` is correct when its value is intact, names `key`, and
// carries a version no older than the last SET acknowledged before the GET
// was sent (`acked`) and no newer than the last SET issued (`issued`).
inline Verdict CheckValue(const char* p, size_t n, uint32_t key,
                          size_t expected_bytes, uint32_t acked,
                          uint32_t issued, uint32_t* version_out = nullptr) {
  if (n != expected_bytes || n < kHeaderBytes + kChecksumBytes) {
    return Verdict::kCorrupt;
  }
  char tail[kChecksumBytes + 1];
  snprintf(tail, sizeof(tail), "%08x", Fnv1a(p, n - kChecksumBytes));
  if (memcmp(tail, p + n - kChecksumBytes, kChecksumBytes) != 0 ||
      p[0] != 'K' || p[9] != 'V' || p[18] != '|') {
    return Verdict::kCorrupt;
  }
  uint32_t k = 0, v = 0;
  if (!ParseDigits(p + 1, &k) || !ParseDigits(p + 10, &v)) {
    return Verdict::kCorrupt;
  }
  if (version_out != nullptr) *version_out = v;
  if (k != key) return Verdict::kWrongKey;
  if (v < acked) return Verdict::kStale;
  if (v > issued) return Verdict::kFuture;
  return Verdict::kOk;
}

// ---------------------------------------------------------------------------
// Open-loop pacer: op i is due at start + i * 1e9 / rate nanoseconds,
// computed exactly in integers (no per-op rounding to whole microseconds,
// which drifts the achieved rate away from the offered one).
// ---------------------------------------------------------------------------

class Pacer {
 public:
  Pacer(int64_t start_ns, uint64_t rate_per_sec)
      : start_ns_(start_ns), rate_(rate_per_sec) {}
  int64_t Due(uint64_t i) const {
    return start_ns_ + static_cast<int64_t>(
                           static_cast<unsigned __int128>(i) * 1'000'000'000u /
                           rate_);
  }
  // Ops due by `now_ns` (the count of i with Due(i) <= now_ns).
  uint64_t DueBy(int64_t now_ns) const {
    if (now_ns < start_ns_) return 0;
    unsigned __int128 elapsed = static_cast<uint64_t>(now_ns - start_ns_);
    return static_cast<uint64_t>(((elapsed + 1) * rate_ + 999'999'999u) /
                                 1'000'000'000u);
  }

 private:
  int64_t start_ns_;
  uint64_t rate_;
};

// ---------------------------------------------------------------------------
// Percentile summary: nearest-rank percentiles over every sample given.
// ---------------------------------------------------------------------------

struct Summary {
  size_t count = 0;
  double p50 = 0;
  double p99 = 0;
  double p999 = 0;
  double max = 0;
  double mean = 0;
  bool p99_resolved = false;  // At least ten samples above p99.
};

inline double Rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t idx = static_cast<size_t>(std::ceil(q * sorted.size()));
  if (idx == 0) idx = 1;
  if (idx > sorted.size()) idx = sorted.size();
  return sorted[idx - 1];
}

inline Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = Rank(samples, 0.50);
  s.p99 = Rank(samples, 0.99);
  s.p999 = Rank(samples, 0.999);
  s.max = samples.back();
  double sum = 0;
  for (double x : samples) sum += x;
  s.mean = sum / samples.size();
  s.p99_resolved = samples.size() >= 1000;
  return s;
}

inline double Median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  size_t n = xs.size();
  return n % 2 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
}

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent. Self time is the span's duration minus
// the part of its interval covered by its children.
// ---------------------------------------------------------------------------

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root.
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

struct SpanTotals {
  uint64_t count = 0;
  double total_us = 0;
  double self_us = 0;
};

inline std::map<std::string, SpanTotals> SelfTimes(
    const std::vector<Span>& spans) {
  std::map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    auto it = index.find(s.parent);
    if (s.parent != 0 && it != index.end()) {
      kids[it->second].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, SpanTotals> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (!open || lo > cur_hi) {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (open) covered += cur_hi - cur_lo;
    SpanTotals& t = out[s.name];
    double dur = static_cast<double>(s.end_ns - s.start_ns);
    t.count++;
    t.total_us += dur / 1000.0;
    t.self_us += (dur - static_cast<double>(covered)) / 1000.0;
  }
  return out;
}

// Self-time totals as one JSON object keyed by span name.
inline std::string SelfTimesJson(const std::map<std::string, SpanTotals>& t) {
  std::string out = "{";
  char buf[512];
  for (const auto& [name, v] : t) {
    snprintf(buf, sizeof(buf),
             "%s\"%s\": {\"count\": %" PRIu64
             ", \"total_us\": %.3f, \"self_us\": %.3f}",
             out.size() > 1 ? ", " : "", name.c_str(), v.count, v.total_us,
             v.self_us);
    out += buf;
  }
  return out + "}";
}

inline bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  fprintf(f, "id,parent,name,start_ns,end_ns\n");
  for (const Span& s : spans) {
    fprintf(f, "%" PRIu64 ",%" PRIu64 ",%s,%" PRId64 ",%" PRId64 "\n", s.id,
            s.parent, s.name, s.start_ns, s.end_ns);
  }
  return fclose(f) == 0;
}

}  // namespace tbbench

#endif  // TBBENCH_COMMON_H_
