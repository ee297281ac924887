// tbb_server: the benchmark's data node. It is assembled from the library's
// public classes so the tiered workloads can put a modeled network round
// trip between the cache tier and the LSM storage tier:
//
//   TierBase -> TimedStorage("storage") -> RemoteStorageAdapter(100 us)
//            -> TimedStorage("lsm") -> LsmStorageAdapter
//
// The two timing decorators belong to the benchmark. The outer one sees
// every storage call the core pays for, round trip included; the inner one
// sees the LSM's own service time. SIGUSR1 writes a JSON snapshot of the
// decorators, the storage counters, LsmStore::GetStats() and
// TierBase::GetStats() to --stats-file; SIGUSR2 first waits until the
// write-back buffer is flushed and the LSM has no pending flush or
// compaction (TierBase::WaitIdle), then writes the same snapshot; SIGHUP
// also hands freed heap back to the kernel (malloc_trim) between the two,
// so resident memory reflects what is live. With
// --spans-file every storage call is also kept as a span; at exit the spans
// go to that file and their self times (tbbench::SelfTimes) to F.self.json.
//
//   tbb_server --port-file P --policy write-back --dir D --memory-budget B
//              [--memtable-bytes N] [--block-cache-bytes N]
//              [--threads single|elastic] [--max-threads N]
//              [--stats-file F] [--spans-file F]
//
// Exits after a client sends SHUTDOWN, or on SIGTERM/SIGINT.

#include <malloc.h>
#include <pthread.h>
#include <signal.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/env.h"
#include "tierbase/server.h"
#include "tierbase/tierbase.h"

using namespace tierbase;

namespace {

std::atomic<uint64_t> g_next_span{1};
thread_local uint64_t t_current_span = 0;

class SpanLog {
 public:
  static constexpr size_t kCap = 2'000'000;
  void Add(const tbbench::Span& s) {
    std::lock_guard<std::mutex> lock(mu_);
    if (spans_.size() < kCap) spans_.push_back(s);
  }
  std::vector<tbbench::Span> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }

 private:
  std::mutex mu_;
  std::vector<tbbench::Span> spans_;
};

// Times every call into the wrapped adapter. Counts follow the same rules
// as RemoteStorageAdapter's counters (successful calls only), so the two
// can be reconciled.
class TimedStorage : public StorageAdapter {
 public:
  enum Kind { kRead, kMultiRead, kWrite, kWriteBatch, kNumKinds };

  TimedStorage(const char* layer, StorageAdapter* inner, SpanLog* spans)
      : layer_(layer), inner_(inner), spans_(spans) {
    static const char* kNames[] = {"read", "multi_read", "write",
                                   "write_batch"};
    for (int k = 0; k < kNumKinds; ++k) {
      span_names_[k] = std::string(layer) + "." + kNames[k];
      kind_names_[k] = kNames[k];
    }
  }

  std::string name() const override { return inner_->name(); }

  Status Write(const Slice& key, const Slice& value) override {
    return Timed(kWrite, 1, key.size() + value.size(), [&] {
      return inner_->Write(key, value);
    });
  }
  Status Delete(const Slice& key) override {
    return Timed(kWrite, 1, key.size(), [&] { return inner_->Delete(key); });
  }
  Status Read(const Slice& key, std::string* value) override {
    return Timed(kRead, 1, 0, [&] { return inner_->Read(key, value); });
  }
  Status WriteBatch(const std::vector<BatchOp>& ops) override {
    uint64_t bytes = 0;
    for (const auto& op : ops) bytes += op.key.size() + op.value.size();
    return Timed(kWriteBatch, ops.size(), bytes,
                 [&] { return inner_->WriteBatch(ops); });
  }
  Status MultiRead(const std::vector<std::string>& keys,
                   std::vector<std::string>* values,
                   std::vector<bool>* found) override {
    return Timed(kMultiRead, keys.size(), 0,
                 [&] { return inner_->MultiRead(keys, values, found); });
  }
  UsageStats GetUsage() const override { return inner_->GetUsage(); }
  Status WaitIdle() override { return inner_->WaitIdle(); }
  WalRecoveryStats GetWalRecoveryStats() const override {
    return inner_->GetWalRecoveryStats();
  }

  // Cumulative counts plus percentiles over the calls since the previous
  // snapshot.
  void AppendJson(std::string* out) {
    std::lock_guard<std::mutex> lock(mu_);
    char buf[1024];
    for (int k = 0; k < kNumKinds; ++k) {
      tbbench::Summary s = tbbench::Summarize(std::move(window_[k]));
      window_[k].clear();
      snprintf(buf, sizeof(buf),
               "\"%s.%s.calls\": %llu, \"%s.%s.keys\": %llu, "
               "\"%s.%s.bytes\": %llu, \"%s.%s.us\": %.3f, "
               "\"%s.%s.win_calls\": %zu, \"%s.%s.win_p50_us\": %.3f, "
               "\"%s.%s.win_p99_us\": %.3f, ",
               layer_, kind_names_[k], (unsigned long long)calls_[k],
               layer_, kind_names_[k], (unsigned long long)keys_[k],
               layer_, kind_names_[k], (unsigned long long)bytes_[k],
               layer_, kind_names_[k], total_us_[k],
               layer_, kind_names_[k], s.count,
               layer_, kind_names_[k], s.p50,
               layer_, kind_names_[k], s.p99);
      out->append(buf);
    }
  }

 private:
  template <typename Fn>
  Status Timed(Kind kind, uint64_t keys, uint64_t bytes, Fn&& fn) {
    uint64_t id = 0, parent = t_current_span;
    if (spans_ != nullptr) {
      id = g_next_span.fetch_add(1, std::memory_order_relaxed);
      t_current_span = id;
    }
    int64_t start = tbbench::NowNanos();
    Status s = fn();
    int64_t end = tbbench::NowNanos();
    if (spans_ != nullptr) {
      t_current_span = parent;
      spans_->Add({id, parent, span_names_[kind].c_str(), start, end});
    }
    if (s.ok()) {
      if (kind == kRead || kind == kMultiRead) {
        reads_.fetch_add(keys, std::memory_order_relaxed);
      } else {
        writes_.fetch_add(keys, std::memory_order_relaxed);
      }
      if (kind == kMultiRead || kind == kWriteBatch) {
        batch_calls_.fetch_add(1, std::memory_order_relaxed);
      }
      std::lock_guard<std::mutex> lock(mu_);
      double us = static_cast<double>(end - start) / 1000.0;
      calls_[kind]++;
      keys_[kind] += keys;
      bytes_[kind] += bytes;
      total_us_[kind] += us;
      window_[kind].push_back(us);
    }
    return s;
  }

  const char* layer_;
  StorageAdapter* inner_;
  SpanLog* spans_;
  std::string span_names_[kNumKinds];
  const char* kind_names_[kNumKinds];

  std::mutex mu_;
  uint64_t calls_[kNumKinds] = {};
  uint64_t keys_[kNumKinds] = {};
  uint64_t bytes_[kNumKinds] = {};
  double total_us_[kNumKinds] = {};
  std::vector<double> window_[kNumKinds];
};

struct Node {
  TierBase* db = nullptr;
  TimedStorage* outer = nullptr;
  TimedStorage* inner = nullptr;
  RemoteStorageAdapter* remote = nullptr;
  LsmStorageAdapter* lsm = nullptr;
  uint64_t seq = 0;
};

void Put(std::string* out, const char* key, uint64_t v) {
  char buf[128];
  snprintf(buf, sizeof(buf), "\"%s\": %llu, ", key, (unsigned long long)v);
  out->append(buf);
}

void DumpStats(Node* node, const std::string& path) {
  std::string out = "{";
  Put(&out, "seq", ++node->seq);
  TierBase::Stats st = node->db->GetStats();
  Put(&out, "core.gets", st.gets);
  Put(&out, "core.cache_hits", st.cache_hits);
  Put(&out, "core.cache_misses", st.cache_misses);
  Put(&out, "core.sets", st.sets);
  Put(&out, "core.storage_populates", st.storage_populates);
  Put(&out, "cache.evictions", st.evictions);
  Put(&out, "cache.bytes_cached", st.bytes_cached);
  Put(&out, "cache.keys_cached", st.keys_cached);
  Put(&out, "wt.submitted", st.write_through.submitted);
  Put(&out, "wt.storage_writes", st.write_through.storage_writes);
  Put(&out, "wt.batch_calls", st.write_through.batch_calls);
  Put(&out, "wb.updates", st.write_back.updates);
  Put(&out, "wb.merged_updates", st.write_back.merged_updates);
  Put(&out, "wb.flush_batches", st.write_back.flush_batches);
  Put(&out, "wb.flushed_ops", st.write_back.flushed_ops);
  Put(&out, "wb.backpressure_waits", st.write_back.backpressure_waits);
  Put(&out, "wb.flush_failures", st.write_back.flush_failures);
  Put(&out, "wb.dirty", st.write_back_dirty);
  Put(&out, "df.fetches", st.deferred_fetch.fetches);
  Put(&out, "df.batch_calls", st.deferred_fetch.batch_calls);
  Put(&out, "df.shared", st.deferred_fetch.shared);
  if (node->remote != nullptr) {
    StorageAdapter::Counters c = node->remote->counters();
    Put(&out, "remote.reads", c.reads);
    Put(&out, "remote.writes", c.writes);
    Put(&out, "remote.batch_calls", c.batch_calls);
    StorageAdapter::Counters o = node->outer->counters();
    Put(&out, "storage.counted_reads", o.reads);
    Put(&out, "storage.counted_writes", o.writes);
    Put(&out, "storage.counted_batch_calls", o.batch_calls);
    lsm::LsmStore::Stats ls = node->lsm->store()->GetStats();
    Put(&out, "lsm.flushes", ls.flushes);
    Put(&out, "lsm.compactions", ls.compactions);
    Put(&out, "lsm.bytes_flushed", ls.bytes_flushed);
    Put(&out, "lsm.bytes_compacted", ls.bytes_compacted);
    Put(&out, "lsm.write_stalls", ls.write_stalls);
    node->outer->AppendJson(&out);
    node->inner->AppendJson(&out);
  }
  out.resize(out.size() - 2);  // Drop the trailing ", ".
  out += "}\n";
  std::string tmp = path + ".tmp";
  if (env::WriteStringToFileSync(tmp, out).ok()) {
    rename(tmp.c_str(), path.c_str());
  }
}

int Usage() {
  fprintf(stderr,
          "usage: tbb_server --port-file P [--policy cache-only|write-through|"
          "write-back]\n"
          "                  [--dir D] [--memory-budget B]\n"
          "                  [--memtable-bytes N] [--block-cache-bytes N]\n"
          "                  [--threads single|elastic]\n"
          "                  [--max-threads N]\n"
          "                  [--stats-file F] [--spans-file F]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string port_file, policy = "cache-only", dir, stats_file, spans_file;
  size_t memory_budget = 0, memtable_bytes = 0, block_cache_bytes = 0;
  std::string threads = "elastic";
  int max_threads = 4;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) return Usage();
    std::string flag = argv[i];
    const char* v = argv[++i];
    if (flag == "--port-file") {
      port_file = v;
    } else if (flag == "--policy") {
      policy = v;
    } else if (flag == "--dir") {
      dir = v;
    } else if (flag == "--memory-budget") {
      memory_budget = strtoull(v, nullptr, 10);
    } else if (flag == "--threads") {
      threads = v;
    } else if (flag == "--max-threads") {
      max_threads = atoi(v);
    } else if (flag == "--memtable-bytes") {
      memtable_bytes = strtoull(v, nullptr, 10);
    } else if (flag == "--block-cache-bytes") {
      block_cache_bytes = strtoull(v, nullptr, 10);
    } else if (flag == "--stats-file") {
      stats_file = v;
    } else if (flag == "--spans-file") {
      spans_file = v;
    } else {
      return Usage();
    }
  }
  if (port_file.empty()) return Usage();

  // Block the control signals before any thread exists; one thread then
  // takes them synchronously with sigwait.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGUSR1);
  sigaddset(&sigs, SIGUSR2);
  sigaddset(&sigs, SIGHUP);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGINT);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  TierBaseOptions options;
  options.cache.shards = 4;
  options.cache.memory_budget = memory_budget;

  SpanLog span_log;
  SpanLog* spans = spans_file.empty() ? nullptr : &span_log;
  std::unique_ptr<LsmStorageAdapter> lsm;
  std::unique_ptr<TimedStorage> inner, outer;
  std::unique_ptr<RemoteStorageAdapter> remote;
  Node node;
  if (policy == "write-through" || policy == "write-back") {
    options.policy = policy == "write-through" ? CachingPolicy::kWriteThrough
                                               : CachingPolicy::kWriteBack;
    if (dir.empty() || !env::CreateDirIfMissing(dir).ok()) return Usage();
    lsm::LsmOptions lsm_options;
    lsm_options.dir = dir + "/storage";
    if (memtable_bytes > 0) lsm_options.memtable_bytes = memtable_bytes;
    if (block_cache_bytes > 0) lsm_options.block_cache_bytes = block_cache_bytes;
    auto opened = LsmStorageAdapter::Open(lsm_options);
    if (!opened.ok()) {
      fprintf(stderr, "storage tier: %s\n", opened.status().ToString().c_str());
      return 1;
    }
    lsm = std::move(*opened);
    inner = std::make_unique<TimedStorage>("lsm", lsm.get(), spans);
    remote = std::make_unique<RemoteStorageAdapter>(
        inner.get(), tbbench::kStorageRttMicros);
    outer = std::make_unique<TimedStorage>("storage", remote.get(), spans);
    node.outer = outer.get();
    node.inner = inner.get();
    node.remote = remote.get();
    node.lsm = lsm.get();
  } else if (policy != "cache-only") {
    return Usage();
  }

  auto db = TierBase::Open(options, outer.get());
  if (!db.ok()) {
    fprintf(stderr, "tierbase: %s\n", db.status().ToString().c_str());
    return 1;
  }
  node.db = db->get();

  server::ServerOptions server_options;
  server_options.net.port = 0;
  server_options.executor.max_threads = max_threads;
  if (threads == "single") {
    server_options.executor.mode = threading::ThreadMode::kSingle;
  } else if (threads != "elastic") {
    return Usage();
  }
  server::Server srv(db->get(), server_options);
  Status s = srv.Start();
  if (!s.ok()) {
    fprintf(stderr, "server: %s\n", s.ToString().c_str());
    return 1;
  }

  std::atomic<bool> exiting{false};
  std::thread control([&] {
    for (;;) {
      int sig = 0;
      if (sigwait(&sigs, &sig) != 0) continue;
      if (exiting.load()) return;
      if (sig == SIGUSR1 || sig == SIGUSR2 || sig == SIGHUP) {
        if (sig != SIGUSR1) {
          Status idle = node.db->WaitIdle();
          if (!idle.ok()) {
            fprintf(stderr, "quiesce: %s\n", idle.ToString().c_str());
          }
        }
        if (sig == SIGHUP) malloc_trim(0);
        if (!stats_file.empty()) DumpStats(&node, stats_file);
      } else {
        srv.loop()->Stop();
        return;
      }
    }
  });

  if (!env::WriteStringToFileSync(port_file, std::to_string(srv.port()) + "\n")
           .ok()) {
    srv.Stop();
    exiting.store(true);
    pthread_kill(control.native_handle(), SIGUSR1);
    control.join();
    return 1;
  }

  srv.Wait();
  srv.Stop();
  exiting.store(true);
  pthread_kill(control.native_handle(), SIGUSR1);
  control.join();
  db->reset();  // Drains write-back and closes the storage tier.
  if (spans != nullptr) {
    std::vector<tbbench::Span> all = spans->Take();
    if (!tbbench::WriteSpans(spans_file, all)) return 1;
    std::string self = tbbench::SelfTimesJson(tbbench::SelfTimes(all)) + "\n";
    if (!env::WriteStringToFileSync(spans_file + ".self.json", self).ok()) {
      return 1;
    }
  }
  return 0;
}
