// Unified telemetry: a registry of named, typed instruments that every
// binary (server, proxy, coordinator, replica) reports through.
//
//   Counter           monotonic relaxed-atomic uint64 (hot-path safe)
//   Gauge             settable int64 (limits, current levels)
//   LatencyHistogram  lock-striped atomic log-bucketed histogram, reusing
//                     common/histogram.h's (exponent, 1/16 sub-bucket)
//                     layout; Record() touches one stripe's atomics only —
//                     no lock, no allocation — while readers Snapshot()
//                     into a plain Histogram for percentile queries
//
// A MetricsRegistry owns its instruments and renders them two ways:
//
//   RenderInfo        the RESP INFO report ("# Section\r\nkey:value\r\n"),
//                     sections and keys in registration order, so INFO is
//                     generated from the registry instead of hand-formatted
//                     per component
//   RenderPrometheus  Prometheus text exposition (# HELP/# TYPE, counters/
//                     gauges as single samples, histograms as cumulative
//                     `_bucket{le=...}` series) for scripts/metrics_scrape.sh
//
// Values that only make sense in INFO (strings like role:master, dynamic
// per-node keys) register as text/block entries: they render into their
// INFO section but are skipped by the Prometheus exposition.
//
// Registries are per-component (one per Server/proxy/coordinator), so
// multiple instances in one process — the norm in tests and benches — keep
// disjoint counters. The registry idiom follows RocksDB's Statistics: a
// central named-instrument table cheap enough to leave on in production.

#ifndef TIERBASE_COMMON_METRICS_H_
#define TIERBASE_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace tierbase {
namespace metrics {

/// Monotonic counter. Inc() is a relaxed fetch_add — safe and cheap on the
/// hot path.
class Counter {
 public:
  void Inc(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Point-in-time level (queue depth, configured limit). May go down.
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Thread-safe latency histogram over microsecond values.
///
/// Writers pick a stripe slot by thread (round-robin at first use) and bump
/// that slot's relaxed atomics; concurrent writers on different threads
/// touch different cache lines. Snapshot() folds every slot into a plain
/// Histogram. It may miss in-flight samples, but it never tears one: every
/// sample it counts has its value in the sum and the max.
class LatencyHistogram {
 public:
  LatencyHistogram();
  ~LatencyHistogram();

  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// Records `count` observations of `micros`. Lock-free: sum/max, then
  /// the bucket, inside a phaser enter/exit on the caller's slot.
  void Record(uint64_t micros, uint64_t count = 1);

  /// Folds all slots into a plain Histogram for percentile queries.
  Histogram Snapshot() const;

  uint64_t count() const;

  /// Starts every slot over from zero (LATENCY RESET). Samples recorded
  /// while it runs land on one side of it or the other, whole.
  void Reset();

 private:
  static constexpr int kStripes = 4;  // Power of two.
  static constexpr uint64_t kPhaseBit = uint64_t{1} << 63;

  // Writers add to sum and max before the bucket (release) and readers
  // load the buckets (acquire) before sum and max, so a counted sample's
  // value is always visible. Sum and max never decrease: Reset replaces
  // the whole stripe instead of zeroing it under a writer.
  struct Stripe {
    std::array<std::atomic<uint64_t>, Histogram::kNumBuckets> buckets{};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> max{0};
  };

  // A writer-reader phaser per slot (HdrHistogram's WriterReaderPhaser).
  // Record takes a ticket from `enter`, whose top bit names the live
  // stripe, and leaves through that phase's `exits` counter. Reset
  // installs a zeroed stripe for the other phase, flips the phase, and
  // frees the old stripe once every writer holding an old ticket is out.
  struct alignas(64) Slot {
    std::atomic<uint64_t> enter{0};
    std::array<std::atomic<uint64_t>, 2> exits{};
    std::array<std::atomic<Stripe*>, 2> stripes{};
  };

  Slot& MySlot();

  // Readers (Snapshot, count, Reset) are serialized so a snapshot never
  // reads a stripe a concurrent Reset frees. Record never takes it.
  mutable common::Mutex reader_mu_;
  std::unique_ptr<Slot[]> slots_;
};

/// Registry entry type, also the Prometheus # TYPE.
enum class MetricType { kCounter, kGauge, kHistogram };

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- Owned instruments. Returned pointers are stable for the
  // registry's lifetime; re-registering a key returns the existing
  // instrument (type must match). `section` is the INFO section ("Stats");
  // `key` is both the INFO key and the Prometheus metric name (prefixed
  // "tierbase_"). ---
  Counter* AddCounter(const std::string& section, const std::string& key,
                      const std::string& help);
  Gauge* AddGauge(const std::string& section, const std::string& key,
                  const std::string& help);
  LatencyHistogram* AddHistogram(const std::string& section,
                                 const std::string& key,
                                 const std::string& help);

  /// Registers a histogram the caller owns (e.g. the workload analytics'
  /// shape histograms): rendered, found and listed exactly like an owned
  /// one. `hist` must outlive the registry.
  void AddExternalHistogram(const std::string& section, const std::string& key,
                            const std::string& help, LatencyHistogram* hist);

  // --- Callback instruments: the value lives elsewhere (an existing
  // atomic, an aggregated Stats snapshot); the registry polls it at render
  // time. `type` picks the Prometheus exposition type. ---
  void AddCallback(const std::string& section, const std::string& key,
                   const std::string& help, MetricType type,
                   std::function<uint64_t()> fn);

  // --- INFO-only entries (skipped by the Prometheus exposition). ---
  /// String-valued key ("role:master", "wb_flush_error:ok").
  void AddText(const std::string& section, const std::string& key,
               std::function<std::string()> fn);
  /// Free-form "key:value\r\n" lines appended to the section (dynamic key
  /// sets: per-node breaker states, routed-batch counts).
  void AddBlock(const std::string& section,
                std::function<void(std::string*)> fn);

  /// Runs before every RenderInfo/RenderPrometheus, under the registry
  /// lock. Lets a component take ONE aggregated snapshot (e.g. one
  /// TierBase::GetStats call) that its per-key callbacks then read,
  /// instead of re-aggregating per key.
  void AddPreRender(std::function<void()> fn);

  /// The full INFO body: sections in registration order, "# Section" then
  /// "key:value" lines, blank line between sections.
  void RenderInfo(std::string* out) const;

  /// Prometheus text exposition. Histograms emit cumulative power-of-two
  /// `le` buckets (1us..~4.2s) plus +Inf, `_sum` and `_count`.
  void RenderPrometheus(std::string* out) const;

  /// Histogram lookup by registered key (LATENCY HISTOGRAM <cmd>).
  LatencyHistogram* FindHistogram(const std::string& key) const;
  /// All registered histograms, in registration order.
  std::vector<std::pair<std::string, LatencyHistogram*>> Histograms() const;

 private:
  struct Entry {
    std::string key;
    std::string help;
    MetricType type = MetricType::kCounter;
    // Exactly one of the following is set, matching `kind`.
    enum class Kind { kOwned, kCallback, kText, kBlock } kind = Kind::kOwned;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<LatencyHistogram> histogram;
    LatencyHistogram* external_histogram = nullptr;  // Not owned (kOwned kind).

    LatencyHistogram* hist() const {
      return histogram ? histogram.get() : external_histogram;
    }
    std::function<uint64_t()> value_fn;
    std::function<std::string()> text_fn;
    std::function<void(std::string*)> block_fn;
  };
  struct Section {
    std::string name;
    std::vector<std::unique_ptr<Entry>> entries;
  };

  Section* SectionLocked(const std::string& name)
      EXCLUSIVE_LOCKS_REQUIRED(mu_);
  Entry* FindLocked(const std::string& key) const
      EXCLUSIVE_LOCKS_REQUIRED(mu_);

  // Guards the section/entry tables only; instrument reads and writes are
  // atomic and never take this lock.
  mutable common::Mutex mu_;
  std::vector<std::unique_ptr<Section>> sections_ GUARDED_BY(mu_);
  std::vector<std::function<void()>> pre_render_ GUARDED_BY(mu_);
};

/// Appends the INFO-style one-line summary for a histogram snapshot:
/// "cnt=N,p50=A,p99=B,p999=C,max=D" (microseconds).
std::string HistogramInfoValue(const Histogram& h);

}  // namespace metrics
}  // namespace tierbase

#endif  // TIERBASE_COMMON_METRICS_H_
