#include "common/metrics.h"

#include <algorithm>
#include <cstdio>
#include <thread>

namespace tierbase {
namespace metrics {

namespace {

// Each thread claims a stripe index once; with kStripes a power of two the
// round-robin assignment spreads recorder threads across stripes.
std::atomic<uint32_t> g_stripe_seq{0};

uint32_t ThreadStripeSeq() {
  static thread_local const uint32_t seq =
      g_stripe_seq.fetch_add(1, std::memory_order_relaxed);
  return seq;
}

// Prometheus metric names are [a-zA-Z_:][a-zA-Z0-9_:]*; INFO keys are
// already that shape, but defend against drift.
std::string PromName(const std::string& key) {
  std::string out = "tierbase_";
  for (char c : key) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

// Coarse cumulative `le` edges for the exposition: powers of two from 1us
// to ~4.2s. The fine 1024-bucket layout stays internal; 23 series per
// histogram keeps a full scrape small.
constexpr uint64_t kPromEdgeLow = 1;
constexpr int kPromEdgeCount = 23;  // 2^0 .. 2^22 microseconds.

void AppendU64(std::string* out, uint64_t v) {
  char buf[24];
  snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out->append(buf);
}

}  // namespace

LatencyHistogram::LatencyHistogram() : slots_(new Slot[kStripes]) {
  for (int si = 0; si < kStripes; ++si) {
    slots_[si].stripes[0].store(new Stripe, std::memory_order_relaxed);
  }
}

LatencyHistogram::~LatencyHistogram() {
  for (int si = 0; si < kStripes; ++si) {
    for (auto& stripe : slots_[si].stripes) delete stripe.load();
  }
}

LatencyHistogram::Slot& LatencyHistogram::MySlot() {
  return slots_[ThreadStripeSeq() & (kStripes - 1)];
}

void LatencyHistogram::Record(uint64_t micros, uint64_t count) {
  if (count == 0) return;
  Slot& slot = MySlot();
  const size_t phase =
      slot.enter.fetch_add(1, std::memory_order_acquire) >> 63;
  Stripe& s = *slot.stripes[phase].load(std::memory_order_relaxed);
  s.sum.fetch_add(micros * count, std::memory_order_relaxed);
  uint64_t prev = s.max.load(std::memory_order_relaxed);
  while (micros > prev && !s.max.compare_exchange_weak(
                              prev, micros, std::memory_order_relaxed)) {
  }
  s.buckets[static_cast<size_t>(Histogram::BucketFor(micros))].fetch_add(
      count, std::memory_order_release);
  slot.exits[phase].fetch_add(1, std::memory_order_release);
}

Histogram LatencyHistogram::Snapshot() const {
  common::MutexLock lock(&reader_mu_);
  Histogram h;
  uint64_t sum = 0;
  uint64_t max = 0;
  for (int si = 0; si < kStripes; ++si) {
    const Slot& slot = slots_[si];
    const Stripe& s = *slot.stripes[slot.enter.load(
                                        std::memory_order_acquire) >> 63]
                           .load(std::memory_order_acquire);
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      h.AddBucketCount(
          i, s.buckets[static_cast<size_t>(i)].load(std::memory_order_acquire));
    }
    sum += s.sum.load(std::memory_order_relaxed);
    max = std::max(max, s.max.load(std::memory_order_relaxed));
  }
  h.SetExactTotals(sum, max);
  return h;
}

uint64_t LatencyHistogram::count() const {
  return Snapshot().Count();
}

void LatencyHistogram::Reset() {
  common::MutexLock lock(&reader_mu_);
  for (int si = 0; si < kStripes; ++si) {
    Slot& slot = slots_[si];
    const uint64_t old_phase =
        slot.enter.load(std::memory_order_relaxed) >> 63;
    const uint64_t new_phase = old_phase ^ 1;
    const uint64_t new_base = new_phase * kPhaseBit;
    slot.stripes[new_phase].store(new Stripe, std::memory_order_relaxed);
    slot.exits[new_phase].store(new_base, std::memory_order_relaxed);
    // Tickets [old base, entered) were handed out in the old phase.
    const uint64_t entered =
        slot.enter.exchange(new_base, std::memory_order_acq_rel);
    while (slot.exits[old_phase].load(std::memory_order_acquire) != entered) {
      std::this_thread::yield();
    }
    delete slot.stripes[old_phase].exchange(nullptr,
                                            std::memory_order_relaxed);
  }
}

MetricsRegistry::Section* MetricsRegistry::SectionLocked(
    const std::string& name) {
  for (auto& sec : sections_) {
    if (sec->name == name) return sec.get();
  }
  sections_.push_back(std::make_unique<Section>());
  sections_.back()->name = name;
  return sections_.back().get();
}

MetricsRegistry::Entry* MetricsRegistry::FindLocked(
    const std::string& key) const {
  for (const auto& sec : sections_) {
    for (const auto& e : sec->entries) {
      if (e->kind != Entry::Kind::kBlock && e->key == key) return e.get();
    }
  }
  return nullptr;
}

Counter* MetricsRegistry::AddCounter(const std::string& section,
                                     const std::string& key,
                                     const std::string& help) {
  common::MutexLock lock(&mu_);
  if (Entry* e = FindLocked(key); e != nullptr && e->counter) {
    return e->counter.get();
  }
  auto entry = std::make_unique<Entry>();
  entry->key = key;
  entry->help = help;
  entry->type = MetricType::kCounter;
  entry->counter = std::make_unique<Counter>();
  Counter* out = entry->counter.get();
  SectionLocked(section)->entries.push_back(std::move(entry));
  return out;
}

Gauge* MetricsRegistry::AddGauge(const std::string& section,
                                 const std::string& key,
                                 const std::string& help) {
  common::MutexLock lock(&mu_);
  if (Entry* e = FindLocked(key); e != nullptr && e->gauge) {
    return e->gauge.get();
  }
  auto entry = std::make_unique<Entry>();
  entry->key = key;
  entry->help = help;
  entry->type = MetricType::kGauge;
  entry->gauge = std::make_unique<Gauge>();
  Gauge* out = entry->gauge.get();
  SectionLocked(section)->entries.push_back(std::move(entry));
  return out;
}

LatencyHistogram* MetricsRegistry::AddHistogram(const std::string& section,
                                                const std::string& key,
                                                const std::string& help) {
  common::MutexLock lock(&mu_);
  if (Entry* e = FindLocked(key); e != nullptr && e->histogram) {
    return e->histogram.get();
  }
  auto entry = std::make_unique<Entry>();
  entry->key = key;
  entry->help = help;
  entry->type = MetricType::kHistogram;
  entry->histogram = std::make_unique<LatencyHistogram>();
  LatencyHistogram* out = entry->histogram.get();
  SectionLocked(section)->entries.push_back(std::move(entry));
  return out;
}

void MetricsRegistry::AddExternalHistogram(const std::string& section,
                                           const std::string& key,
                                           const std::string& help,
                                           LatencyHistogram* hist) {
  common::MutexLock lock(&mu_);
  if (FindLocked(key) != nullptr) return;
  auto entry = std::make_unique<Entry>();
  entry->key = key;
  entry->help = help;
  entry->type = MetricType::kHistogram;
  entry->external_histogram = hist;
  SectionLocked(section)->entries.push_back(std::move(entry));
}

void MetricsRegistry::AddCallback(const std::string& section,
                                  const std::string& key,
                                  const std::string& help, MetricType type,
                                  std::function<uint64_t()> fn) {
  common::MutexLock lock(&mu_);
  if (FindLocked(key) != nullptr) return;
  auto entry = std::make_unique<Entry>();
  entry->key = key;
  entry->help = help;
  entry->type = type;
  entry->kind = Entry::Kind::kCallback;
  entry->value_fn = std::move(fn);
  SectionLocked(section)->entries.push_back(std::move(entry));
}

void MetricsRegistry::AddText(const std::string& section,
                              const std::string& key,
                              std::function<std::string()> fn) {
  common::MutexLock lock(&mu_);
  if (FindLocked(key) != nullptr) return;
  auto entry = std::make_unique<Entry>();
  entry->key = key;
  entry->kind = Entry::Kind::kText;
  entry->text_fn = std::move(fn);
  SectionLocked(section)->entries.push_back(std::move(entry));
}

void MetricsRegistry::AddBlock(const std::string& section,
                               std::function<void(std::string*)> fn) {
  common::MutexLock lock(&mu_);
  auto entry = std::make_unique<Entry>();
  entry->kind = Entry::Kind::kBlock;
  entry->block_fn = std::move(fn);
  SectionLocked(section)->entries.push_back(std::move(entry));
}

void MetricsRegistry::AddPreRender(std::function<void()> fn) {
  common::MutexLock lock(&mu_);
  pre_render_.push_back(std::move(fn));
}

void MetricsRegistry::RenderInfo(std::string* out) const {
  common::MutexLock lock(&mu_);
  for (const auto& fn : pre_render_) fn();
  bool first = true;
  for (const auto& sec : sections_) {
    if (!first) out->append("\r\n");
    first = false;
    out->append("# ").append(sec->name).append("\r\n");
    for (const auto& e : sec->entries) {
      switch (e->kind) {
        case Entry::Kind::kOwned:
          out->append(e->key).push_back(':');
          if (e->counter) {
            AppendU64(out, e->counter->value());
          } else if (e->gauge) {
            out->append(std::to_string(e->gauge->value()));
          } else {
            out->append(HistogramInfoValue(e->hist()->Snapshot()));
          }
          out->append("\r\n");
          break;
        case Entry::Kind::kCallback:
          out->append(e->key).push_back(':');
          AppendU64(out, e->value_fn());
          out->append("\r\n");
          break;
        case Entry::Kind::kText:
          out->append(e->key).push_back(':');
          out->append(e->text_fn());
          out->append("\r\n");
          break;
        case Entry::Kind::kBlock:
          e->block_fn(out);
          break;
      }
    }
  }
}

void MetricsRegistry::RenderPrometheus(std::string* out) const {
  common::MutexLock lock(&mu_);
  for (const auto& fn : pre_render_) fn();
  for (const auto& sec : sections_) {
    for (const auto& e : sec->entries) {
      if (e->kind == Entry::Kind::kText || e->kind == Entry::Kind::kBlock) {
        continue;  // INFO-only.
      }
      std::string name = PromName(e->key);
      out->append("# HELP ").append(name).push_back(' ');
      out->append(e->help.empty() ? e->key : e->help).append("\n");
      out->append("# TYPE ").append(name).push_back(' ');
      switch (e->type) {
        case MetricType::kCounter:
          out->append("counter\n");
          break;
        case MetricType::kGauge:
          out->append("gauge\n");
          break;
        case MetricType::kHistogram:
          out->append("histogram\n");
          break;
      }
      if (e->type != MetricType::kHistogram) {
        out->append(name).push_back(' ');
        if (e->kind == Entry::Kind::kCallback) {
          AppendU64(out, e->value_fn());
        } else if (e->counter) {
          AppendU64(out, e->counter->value());
        } else {
          out->append(std::to_string(e->gauge->value()));
        }
        out->append("\n");
        continue;
      }
      // Histogram: cumulative buckets over the coarse edges. Every value
      // in fine bucket i is <= BucketUpperEdge(i), so folding fine buckets
      // whose edge fits under `le` keeps the cumulative invariant exact.
      Histogram h = e->hist()->Snapshot();
      uint64_t cum = 0;
      int fb = 0;
      uint64_t le = kPromEdgeLow;
      for (int i = 0; i < kPromEdgeCount; ++i, le <<= 1) {
        while (fb < Histogram::kNumBuckets &&
               Histogram::BucketUpperEdge(fb) <= le) {
          cum += h.BucketCount(fb);
          ++fb;
        }
        out->append(name).append("_bucket{le=\"");
        AppendU64(out, le);
        out->append("\"} ");
        AppendU64(out, cum);
        out->append("\n");
      }
      out->append(name).append("_bucket{le=\"+Inf\"} ");
      AppendU64(out, h.Count());
      out->append("\n");
      out->append(name).append("_sum ");
      AppendU64(out, h.Sum());
      out->append("\n");
      out->append(name).append("_count ");
      AppendU64(out, h.Count());
      out->append("\n");
    }
  }
}

LatencyHistogram* MetricsRegistry::FindHistogram(
    const std::string& key) const {
  common::MutexLock lock(&mu_);
  Entry* e = FindLocked(key);
  return e != nullptr ? e->hist() : nullptr;
}

std::vector<std::pair<std::string, LatencyHistogram*>>
MetricsRegistry::Histograms() const {
  common::MutexLock lock(&mu_);
  std::vector<std::pair<std::string, LatencyHistogram*>> out;
  for (const auto& sec : sections_) {
    for (const auto& e : sec->entries) {
      if (e->hist() != nullptr) out.emplace_back(e->key, e->hist());
    }
  }
  return out;
}

std::string HistogramInfoValue(const Histogram& h) {
  char buf[160];
  snprintf(buf, sizeof(buf),
           "cnt=%llu,p50=%llu,p99=%llu,p999=%llu,max=%llu",
           static_cast<unsigned long long>(h.Count()),
           static_cast<unsigned long long>(h.Percentile(0.50)),
           static_cast<unsigned long long>(h.Percentile(0.99)),
           static_cast<unsigned long long>(h.Percentile(0.999)),
           static_cast<unsigned long long>(h.Max()));
  return buf;
}

}  // namespace metrics
}  // namespace tierbase
