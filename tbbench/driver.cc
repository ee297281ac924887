// tbb_driver: the benchmark's load generator. One thread drives up to
// four RESP connections over non-blocking sockets. Keys are partitioned
// across connections (key % conns), so every op on one key travels one
// connection in order and each GET's expected version window is exact.
//
// Modes:
//   describe  print the keyspace's live logical bytes
//   setup     preload every key at version 0, then a GET-only warm-up
//   run       closed loop, open loop at a fixed rate, fixed rate ladder;
//             admin reads (INFO, LATENCY, PERF) between phases only
//   verify    after a restart, GET a seeded sample of keys and require the
//             versions recorded by the last run
//
// Every mode prints one JSON object as its last stdout line.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"

namespace tbbench {
namespace {

struct Config {
  std::string mode;
  std::string host = "127.0.0.1";
  int port = 0;
  std::vector<int> node_ports;  // Extra INFO endpoints (proxy-hot nodes).
  bool proxy = false;           // Endpoint lacks PERF/LATENCY.
  uint64_t seed = 1;
  uint64_t keys = 1000;
  ValueShape shape;
  double theta = 0.99;
  double set_fraction = 0.1;
  int conns = 4;
  int window = 16;
  uint64_t warmup_ops = 0;
  double closed_s = 1;
  uint64_t closed_ops = 0;  // When set, the closed loop runs this many ops.
  double open_s = 1;
  uint64_t open_rate = 1000;
  std::vector<uint64_t> ladder;
  double step_s = 0.5;
  int rounds = 4;
  std::vector<int> stats_pids;
  std::vector<std::string> stats_files;
  std::vector<int> cpu_pids;
  bool trace = false;
  std::string spans_file;
  std::string versions_file;
  uint64_t verify_sample = 1000;
};

std::vector<std::string> Split(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

[[noreturn]] void Die(const std::string& msg) {
  fprintf(stderr, "tbb_driver: %s\n", msg.c_str());
  exit(1);
}

// ---------------------------------------------------------------------------
// Connections and replies.
// ---------------------------------------------------------------------------

enum class Kind : uint8_t { kGet, kSet, kAdmin };

struct Pending {
  Kind kind;
  uint32_t key;
  uint32_t acked_at_send;
  uint32_t version;  // SET: the version written.
  int64_t due_ns;    // Latency is timed from here.
  uint64_t span_id;
};

struct Reply {
  char type = 0;  // '+', '-', ':', '$'
  bool null = false;
  std::string text;  // Simple string / error / bulk payload (admin only).
  const char* data = nullptr;  // Bulk payload view into the read buffer.
  size_t len = 0;
};

struct Conn {
  int fd = -1;
  std::string out;
  size_t out_off = 0;
  std::string in;
  size_t in_off = 0;
  std::deque<Pending> q;
  uint64_t admin = 0;  // Admin commands answered on this connection.
};

int Connect(const std::string& host, int port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) Die("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, host.c_str(), &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Die("connect to port " + std::to_string(port) + ": " + strerror(errno));
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

// Parses one reply at c->in[c->in_off]; returns false if incomplete.
bool ParseReply(Conn* c, Reply* r) {
  const char* base = c->in.data() + c->in_off;
  size_t avail = c->in.size() - c->in_off;
  const char* eol = static_cast<const char*>(memchr(base, '\n', avail));
  if (eol == nullptr) return false;
  size_t head = eol - base + 1;
  if (head < 3 || eol[-1] != '\r') Die("malformed reply");
  r->type = base[0];
  r->null = false;
  r->data = nullptr;
  r->len = 0;
  if (r->type == '$') {
    long long n = strtoll(base + 1, nullptr, 10);
    if (n < 0) {
      r->null = true;
      c->in_off += head;
      return true;
    }
    if (avail < head + static_cast<size_t>(n) + 2) return false;
    r->data = base + head;
    r->len = static_cast<size_t>(n);
    c->in_off += head + n + 2;
    return true;
  }
  if (r->type != '+' && r->type != '-' && r->type != ':') {
    Die(std::string("unexpected reply type ") + r->type);
  }
  r->data = base + 1;
  r->len = head - 3;
  c->in_off += head;
  return true;
}

void AppendCommand(std::string* out, std::initializer_list<const std::string*> args) {
  out->append("*").append(std::to_string(args.size())).append("\r\n");
  for (const std::string* a : args) {
    out->append("$").append(std::to_string(a->size())).append("\r\n");
    out->append(*a).append("\r\n");
  }
}

// ---------------------------------------------------------------------------
// Per-phase recording.
// ---------------------------------------------------------------------------

struct PhaseStats {
  uint64_t gets = 0, sets = 0, failed = 0, wrong = 0;
  std::vector<double> get_us, set_us, all_us, lag_us;
  int64_t start_ns = 0, end_ns = 0, last_reply_ns = 0;
  std::map<std::string, uint64_t> verdicts;
};

class Driver {
 public:
  explicit Driver(Config cfg) : cfg_(std::move(cfg)) {
    for (uint32_t k = 0; k < cfg_.keys; ++k) {
      logical_bytes_ += KeyName(k).size() + cfg_.shape.BytesFor(k);
    }
    issued_.assign(cfg_.keys, 0);
    acked_.assign(cfg_.keys, 0);
  }

  uint64_t logical_bytes() const { return logical_bytes_; }

  void Open() {
    for (int i = 0; i < cfg_.conns; ++i) {
      conns_.emplace_back();
      conns_.back().fd = Connect(cfg_.host, cfg_.port);
    }
  }
  void Close() {
    for (Conn& c : conns_) close(c.fd);
    conns_.clear();
  }

  void MakeStream() {
    // Enough ops for the longest phase at the highest plausible rate; the
    // phases walk it cyclically.
    stream_ = tbbench::MakeStream(cfg_.seed, cfg_.keys, cfg_.theta,
                                  cfg_.set_fraction, 1u << 22);
    per_conn_.assign(cfg_.conns, {});
    for (const Op& op : stream_) per_conn_[op.key % cfg_.conns].push_back(op);
  }

  // --- Issuing ops. ---

  void Issue(const Op& op, int64_t due_ns) {
    Conn& c = conns_[op.key % cfg_.conns];
    Pending p{op.is_set ? Kind::kSet : Kind::kGet, op.key, acked_[op.key], 0,
              due_ns, 0};
    if (recording_spans_) p.span_id = next_span_++;
    key_ = KeyName(op.key);
    if (op.is_set) {
      p.version = ++issued_[op.key];
      MakeValue(op.key, p.version, cfg_.shape.BytesFor(op.key), &value_);
      AppendCommand(&c.out, {&kSet, &key_, &value_});
    } else {
      AppendCommand(&c.out, {&kGet, &key_});
    }
    c.q.push_back(p);
  }

  void FlushAll() {
    for (Conn& c : conns_) Flush(&c);
  }

  void Flush(Conn* c) {
    while (c->out_off < c->out.size()) {
      ssize_t n = send(c->fd, c->out.data() + c->out_off,
                       c->out.size() - c->out_off, MSG_NOSIGNAL);
      if (n > 0) {
        c->out_off += n;
      } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
        break;
      } else {
        Die("send failed");
      }
    }
    if (c->out_off == c->out.size()) {
      c->out.clear();
      c->out_off = 0;
    }
  }

  // Waits up to timeout_ns for socket activity, then reads and handles all
  // complete replies.
  void Pump(int64_t timeout_ns, PhaseStats* ph) {
    std::vector<pollfd> fds(conns_.size());
    for (size_t i = 0; i < conns_.size(); ++i) {
      fds[i].fd = conns_[i].fd;
      fds[i].events = POLLIN;
      if (conns_[i].out_off < conns_[i].out.size()) fds[i].events |= POLLOUT;
    }
    timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
                static_cast<long>(timeout_ns % 1'000'000'000)};
    int rc = ppoll(fds.data(), fds.size(), timeout_ns < 0 ? nullptr : &ts,
                   nullptr);
    if (rc < 0 && errno != EINTR) Die("ppoll");
    for (size_t i = 0; i < conns_.size(); ++i) {
      if (fds[i].revents & POLLOUT) Flush(&conns_[i]);
      if (fds[i].revents & (POLLIN | POLLERR | POLLHUP)) {
        ReadReplies(&conns_[i], ph);
      }
    }
  }

  size_t ReadReplies(Conn* c, PhaseStats* ph) {
    char buf[65536];
    for (;;) {
      ssize_t n = recv(c->fd, buf, sizeof(buf), 0);
      if (n > 0) {
        c->in.append(buf, n);
        if (n < static_cast<ssize_t>(sizeof(buf))) break;
      } else if (n == 0) {
        Die("server closed a connection");
      } else if (errno == EAGAIN || errno == EINTR) {
        break;
      } else {
        Die("recv failed");
      }
    }
    size_t handled = 0;
    int64_t now = NowNanos();
    Reply r;
    while (!c->q.empty() && ParseReply(c, &r)) {
      OnReply(c->q.front(), r, now, ph);
      c->q.pop_front();
      ++handled;
    }
    if (c->in_off == c->in.size()) {
      c->in.clear();
      c->in_off = 0;
    } else if (c->in_off > (1u << 20)) {
      c->in.erase(0, c->in_off);
      c->in_off = 0;
    }
    return handled;
  }

  void OnReply(const Pending& p, const Reply& r, int64_t now, PhaseStats* ph) {
    double us = static_cast<double>(now - p.due_ns) / 1000.0;
    if (p.kind == Kind::kAdmin) {
      admin_reply_ = r;
      admin_reply_.text.assign(r.data == nullptr ? "" : r.data, r.len);
      return;
    }
    if (p.kind == Kind::kSet) {
      ph->sets++;
      if (r.type == '+') {
        if (p.version > acked_[p.key]) acked_[p.key] = p.version;
      } else {
        ph->failed++;
      }
      ph->set_us.push_back(us);
    } else {
      ph->gets++;
      if (r.type != '$' || r.null) {
        ph->failed++;
        ph->verdicts[r.null ? "missing" : "error"]++;
      } else {
        Verdict v = CheckValue(r.data, r.len, p.key, cfg_.shape.BytesFor(p.key),
                               p.acked_at_send, issued_[p.key]);
        if (v != Verdict::kOk) {
          ph->wrong++;
          ph->verdicts[VerdictName(v)]++;
        }
      }
      ph->get_us.push_back(us);
    }
    ph->all_us.push_back(us);
    ph->last_reply_ns = now;
    if (recording_spans_ && spans_.size() < kSpanCap) {
      spans_.push_back({p.span_id, phase_span_, "driver.request", p.due_ns, now});
    }
  }

  size_t Outstanding() const {
    size_t n = 0;
    for (const Conn& c : conns_) n += c.q.size();
    return n;
  }

  // Waits for every outstanding reply; a reply still missing after
  // `deadline_s` ends the run with an error.
  void Drain(PhaseStats* ph, double deadline_s) {
    int64_t deadline = NowNanos() + static_cast<int64_t>(deadline_s * 1e9);
    while (Outstanding() > 0 && NowNanos() < deadline) {
      FlushAll();
      Pump(10'000'000, ph);
    }
    if (Outstanding() > 0) Die("replies still outstanding after drain");
  }

  // --- Phases. ---

  // Closed loop over `window`-op bursts per connection, for `seconds` or
  // until `max_ops` ops are issued.
  PhaseStats Closed(double seconds, bool gets_only, uint64_t max_ops = 0) {
    PhaseStats ph;
    std::vector<size_t> cursor(cfg_.conns, 0);
    for (int i = 0; i < cfg_.conns; ++i) cursor[i] = closed_cursor_[i];
    ph.start_ns = NowNanos();
    int64_t end = ph.start_ns + static_cast<int64_t>(seconds * 1e9);
    uint64_t issued = 0;
    bool done = false;
    while (!done) {
      // A connection sends its next `window` ops in one burst once the
      // previous burst is answered, so the server sees pipeline batches of
      // a fixed depth rather than whatever a reply's timing left in flight.
      for (int i = 0; i < cfg_.conns && !done; ++i) {
        auto& ops = per_conn_[i];
        if (!conns_[i].q.empty()) continue;
        for (int n = 0; n < cfg_.window; ++n) {
          Op op = ops[cursor[i]++ % ops.size()];
          if (gets_only) op.is_set = false;
          Issue(op, NowNanos());
          if (max_ops != 0 && ++issued >= max_ops) {
            done = true;
            break;
          }
        }
      }
      FlushAll();
      Pump(10'000'000, &ph);
      if (max_ops == 0 && NowNanos() >= end) done = true;
    }
    Drain(&ph, 5);
    ph.end_ns = NowNanos();
    for (int i = 0; i < cfg_.conns; ++i) closed_cursor_[i] = cursor[i];
    return ph;
  }

  // Open loop at `rate` ops/s for `seconds`: op i is due at
  // start + i/rate and is timed from then.
  PhaseStats OpenLoop(uint64_t rate, double seconds) {
    PhaseStats ph;
    uint64_t total = static_cast<uint64_t>(rate * seconds);
    // Growing these while the pacer runs would stall it on copies.
    for (auto* v : {&ph.get_us, &ph.set_us, &ph.all_us, &ph.lag_us}) {
      v->reserve(total);
    }
    ph.start_ns = NowNanos() + 1'000'000;
    Pacer pacer(ph.start_ns, rate);
    uint64_t next = 0;
    while (next < total) {
      int64_t now = NowNanos();
      uint64_t due = std::min<uint64_t>(pacer.DueBy(now), total);
      for (; next < due; ++next) {
        int64_t due_ns = pacer.Due(next);
        ph.lag_us.push_back(static_cast<double>(now - due_ns) / 1000.0);
        Issue(stream_[open_cursor_++ % stream_.size()], due_ns);
      }
      FlushAll();
      if (next >= total) break;
      int64_t wait = pacer.Due(next) - NowNanos();
      Pump(wait > 0 ? wait : 0, &ph);
    }
    Drain(&ph, 5);
    ph.end_ns = ph.last_reply_ns;
    return ph;
  }

  // --- Admin reads, synchronous on connection 0 (or a node connection),
  // only between phases. ---

  std::string Admin(Conn* c, std::initializer_list<std::string> args) {
    std::vector<std::string> copy(args);
    std::string cmd = "*" + std::to_string(copy.size()) + "\r\n";
    for (auto& a : copy) cmd += "$" + std::to_string(a.size()) + "\r\n" + a + "\r\n";
    c->out.append(cmd);
    c->q.push_back({Kind::kAdmin, 0, 0, 0, NowNanos(), 0});
    PhaseStats scratch;
    while (!c->q.empty()) {
      Flush(c);
      pollfd pfd{c->fd, POLLIN, 0};
      if (poll(&pfd, 1, 5000) <= 0) Die("admin command timed out");
      ReadReplies(c, &scratch);
    }
    admin_sent_++;
    c->admin++;
    if (admin_reply_.type == '-') Die("admin command failed: " + admin_reply_.text);
    return admin_reply_.text;
  }

  // INFO as flat "key: number" pairs; histogram lines become key.cnt,
  // key.p50 and key.p99.
  std::string InfoJson(Conn* c) {
    std::string info = Admin(c, {"INFO"});
    std::string out = "{";
    std::stringstream ss(info);
    std::string line;
    bool first = true;
    while (std::getline(ss, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      size_t colon = line.find(':');
      if (line.empty() || line[0] == '#' || colon == std::string::npos) continue;
      std::string key = line.substr(0, colon), val = line.substr(colon + 1);
      auto emit = [&](const std::string& k, const std::string& v) {
        char* end = nullptr;
        strtod(v.c_str(), &end);
        if (v.empty() || end == nullptr || *end != '\0') return;
        out += (first ? "\"" : ", \"") + k + "\": " + v;
        first = false;
      };
      if (val.find("cnt=") == 0) {
        for (const std::string& part : Split(val)) {
          size_t eq = part.find('=');
          if (eq != std::string::npos) {
            emit(key + "." + part.substr(0, eq), part.substr(eq + 1));
          }
        }
      } else {
        emit(key, val);
      }
    }
    return out + "}";
  }

  // One snapshot of every server-side instrument, taken between phases.
  std::string Snapshot() {
    uint64_t admin = 0;
    for (const Conn& c : conns_) admin += c.admin;
    std::string out = "{\"admin_before\": " + std::to_string(admin);
    out += ", \"node_admin_before\": [";
    for (size_t i = 0; i < node_conns_.size(); ++i) {
      out += (i ? ", " : "") + std::to_string(node_conns_[i].admin);
    }
    out += "]";
    out += ", \"info\": " + InfoJson(&conns_[0]);
    out += ", \"nodes\": [";
    for (size_t i = 0; i < node_conns_.size(); ++i) {
      out += (i ? ", " : "") + InfoJson(&node_conns_[i]);
    }
    out += "], \"stats\": [";
    for (size_t i = 0; i < cfg_.stats_pids.size(); ++i) {
      out += (i ? ", " : "") + ServerStats(i, SIGUSR1);
    }
    out += "], \"cpu_s\": [";
    for (size_t i = 0; i < cfg_.cpu_pids.size(); ++i) {
      char buf[64];
      snprintf(buf, sizeof(buf), "%s%.4f", i ? ", " : "", CpuSeconds(cfg_.cpu_pids[i]));
      out += buf;
    }
    return out + "], \"t_ns\": " + std::to_string(NowNanos()) + "}";
  }

  // Asks server i for its stats file: SIGUSR1 as it stands, SIGUSR2 once
  // it has quiesced (write-back flushed, no LSM flush or compaction left).
  std::string ServerStats(size_t i, int sig) {
    const std::string& path = cfg_.stats_files[i];
    std::string before = ReadFile(path);
    if (kill(cfg_.stats_pids[i], sig) != 0) Die("cannot signal server");
    for (int tries = 0; tries < 60'000; ++tries) {
      std::string now = ReadFile(path);
      if (!now.empty() && now != before) {
        while (!now.empty() && (now.back() == '\n')) now.pop_back();
        return now;
      }
      usleep(1000);
    }
    Die("server stats never appeared at " + path);
  }

  static std::string ReadFile(const std::string& path) {
    FILE* f = fopen(path.c_str(), "r");
    if (f == nullptr) return "";
    std::string s;
    char buf[4096];
    size_t n;
    while ((n = fread(buf, 1, sizeof(buf), f)) > 0) s.append(buf, n);
    fclose(f);
    return s;
  }

  void Quiesce() {
    for (size_t i = 0; i < cfg_.stats_pids.size(); ++i) ServerStats(i, SIGUSR2);
  }

  double ServerCpuSeconds() {
    double sum = 0;
    for (int pid : cfg_.cpu_pids) sum += CpuSeconds(pid);
    return sum;
  }

  static double CpuSeconds(int pid) {
    std::string stat = ReadFile("/proc/" + std::to_string(pid) + "/stat");
    size_t rp = stat.rfind(')');
    if (rp == std::string::npos) Die("cannot read cpu of pid " + std::to_string(pid));
    std::stringstream ss(stat.substr(rp + 2));
    std::string field;
    unsigned long long utime = 0, stime = 0;
    for (int i = 3; i <= 15 && ss >> field; ++i) {
      if (i == 14) utime = strtoull(field.c_str(), nullptr, 10);
      if (i == 15) stime = strtoull(field.c_str(), nullptr, 10);
    }
    return static_cast<double>(utime + stime) / sysconf(_SC_CLK_TCK);
  }

  // --- Modes. ---

  void Setup() {
    MakeStream();
    Open();
    // Preload: every key at version 0 in MSETs of kPreloadBatch keys, so
    // the servers see the same batches on every run.
    constexpr uint32_t kPreloadBatch = 64;
    PhaseStats ph;
    for (uint32_t first = 0; first < cfg_.keys; first += kPreloadBatch) {
      uint32_t last = std::min<uint64_t>(first + kPreloadBatch, cfg_.keys);
      Conn& c = conns_[(first / kPreloadBatch) % cfg_.conns];
      c.out += "*" + std::to_string(1 + 2 * (last - first)) + "\r\n$4\r\nMSET\r\n";
      for (uint32_t key = first; key < last; ++key) {
        key_ = KeyName(key);
        MakeValue(key, 0, cfg_.shape.BytesFor(key), &value_);
        c.out += "$" + std::to_string(key_.size()) + "\r\n" + key_ + "\r\n";
        c.out += "$" + std::to_string(value_.size()) + "\r\n" + value_ + "\r\n";
      }
      c.q.push_back({Kind::kSet, first, 0, 0, NowNanos(), 0});
      if (Outstanding() >= 64) {
        FlushAll();
        while (Outstanding() >= 32) Pump(10'000'000, &ph);
      }
    }
    Drain(&ph, 30);
    if (ph.failed != 0) Die("preload failed");
    PhaseStats warm = Closed(0, /*gets_only=*/true, cfg_.warmup_ops);
    if (warm.failed + warm.wrong != 0) Die("warm-up read wrong values");
    Close();
    printf("{\"preloaded\": %llu, \"warmup_ops\": %llu}\n",
           (unsigned long long)cfg_.keys,
           (unsigned long long)(warm.gets));
  }

  // Admin reads between phases: PERF stage sums over every connection.
  void AddPerf(std::map<std::string, uint64_t>* sums) {
    for (Conn& c : conns_) {
      std::stringstream ss(Admin(&c, {"PERF", "GET"}));
      std::string line;
      while (std::getline(ss, line)) {
        size_t colon = line.find(':');
        if (colon != std::string::npos) {
          (*sums)[line.substr(0, colon)] +=
              strtoull(line.c_str() + colon + 1, nullptr, 10);
        }
      }
    }
  }
  void SetPerf(const char* on_off) {
    if (cfg_.proxy) return;
    for (Conn& c : conns_) Admin(&c, {"PERF", on_off});
  }

  // The measured phases run in `rounds` interleaved rounds (closed window,
  // open window, one window per ladder step), so every metric samples the
  // whole run rather than one stretch of it.
  void Run() {
    MakeStream();
    Open();
    for (int p : cfg_.node_ports) {
      node_conns_.emplace_back();
      node_conns_.back().fd = Connect(cfg_.host, p);
    }
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    std::string out = "{";
    char buf[512];
    snprintf(buf, sizeof(buf), "\"logical_bytes\": %llu, \"keys\": %llu, ",
             (unsigned long long)logical_bytes_, (unsigned long long)cfg_.keys);
    out += buf;

    std::vector<PhaseStats> closed, open, untraced;
    std::vector<std::vector<PhaseStats>> ladder(cfg_.ladder.size());
    std::map<std::string, uint64_t> perf;
    // Server CPU over each untraced closed window plus the quiesce after it,
    // so the flushes and compactions its SETs cause are charged to it; the
    // quiesce before it keeps the other phases' background work out.
    std::vector<double> closed_cpu_s;
    if (!cfg_.proxy) Admin(&conns_[0], {"LATENCY", "RESET"});
    for (Conn& c : node_conns_) Admin(&c, {"LATENCY", "RESET"});
    out += "\"A\": " + Snapshot() + ", ";
    int64_t run_start = NowNanos();
    for (int r = 0; r < cfg_.rounds; ++r) {
      // A traced run adds a closed window with tracing off, for
      // trace.overhead and the server CPU per op, before its traced one.
      std::vector<PhaseStats>* plain = cfg_.trace ? &untraced : &closed;
      Quiesce();
      double cpu0 = ServerCpuSeconds();
      plain->push_back(Closed(cfg_.closed_s / cfg_.rounds, false,
                              cfg_.closed_ops / cfg_.rounds));
      Quiesce();
      closed_cpu_s.push_back(ServerCpuSeconds() - cpu0);
      if (cfg_.trace) {
        SetPerf("ON");
        StartSpans();
        closed.push_back(Closed(cfg_.closed_s / cfg_.rounds, false,
                                cfg_.closed_ops / cfg_.rounds));
      }
      StopSpans("driver.phase.closed", closed.back());
      StartSpans();
      open.push_back(OpenLoop(cfg_.open_rate, cfg_.open_s / cfg_.rounds));
      StopSpans("driver.phase.open", open.back());
      if (cfg_.trace) {
        if (!cfg_.proxy) AddPerf(&perf);
        SetPerf("OFF");
      }
      for (size_t i = 0; i < cfg_.ladder.size(); ++i) {
        ladder[i].push_back(OpenLoop(cfg_.ladder[i], cfg_.step_s / cfg_.rounds));
      }
    }
    double run_s = static_cast<double>(NowNanos() - run_start) / 1e9;
    out += "\"C\": " + Snapshot() + ", ";
    snprintf(buf, sizeof(buf), "\"run_s\": %.3f, ", run_s);
    out += buf;
    out += "\"closed_cpu_s\": " + List(closed_cpu_s) + ", ";
    out += "\"closed\": " + PhasesJson(closed) + ", ";
    if (cfg_.trace) out += "\"closed_untraced\": " + PhasesJson(untraced) + ", ";
    out += "\"open\": " + PhasesJson(open) + ", ";
    out += "\"ladder\": [";
    for (size_t i = 0; i < cfg_.ladder.size(); ++i) {
      out += (i ? ", " : "") + PhasesJson(ladder[i]);
    }
    out += "], \"perf\": {";
    bool first = true;
    for (auto& [k, v] : perf) {
      out += (first ? "\"" : ", \"") + k + "\": " + std::to_string(v);
      first = false;
    }
    out += "}, ";
    SaveVersions();
    if (cfg_.trace) {
      out += "\"spans\": " + SelfTimesJson(SelfTimes(spans_)) + ", ";
      if (!cfg_.spans_file.empty() && !WriteSpans(cfg_.spans_file, spans_)) {
        Die("cannot write spans");
      }
    }
    out += "\"admin_sent\": " + std::to_string(admin_sent_) + "}";
    for (Conn& c : node_conns_) close(c.fd);
    Close();
    printf("%s\n", out.c_str());
  }

  void StartSpans() {
    if (!cfg_.trace) return;
    spans_.reserve(kSpanCap);
    recording_spans_ = true;
    phase_span_ = next_span_++;
  }
  void StopSpans(const char* name, const PhaseStats& ph) {
    if (!cfg_.trace) return;
    recording_spans_ = false;
    spans_.push_back({phase_span_, 0, name, ph.start_ns, ph.end_ns});
  }

  // Summary of one phase's windows: totals, throughput (median across
  // windows), and latency and generator-lag percentiles over every sample
  // of the phase.
  std::string PhasesJson(const std::vector<PhaseStats>& windows) {
    uint64_t gets = 0, sets = 0, failed = 0, wrong = 0;
    double secs = 0;
    std::vector<double> kops;
    std::vector<double> get_us, set_us, all_us, lag_us;
    std::map<std::string, uint64_t> verdicts;
    for (const PhaseStats& w : windows) {
      gets += w.gets;
      sets += w.sets;
      failed += w.failed;
      wrong += w.wrong;
      double s = static_cast<double>(w.end_ns - w.start_ns) / 1e9;
      secs += s;
      if (s > 0) kops.push_back((w.gets + w.sets) / s / 1000.0);
      get_us.insert(get_us.end(), w.get_us.begin(), w.get_us.end());
      set_us.insert(set_us.end(), w.set_us.begin(), w.set_us.end());
      all_us.insert(all_us.end(), w.all_us.begin(), w.all_us.end());
      lag_us.insert(lag_us.end(), w.lag_us.begin(), w.lag_us.end());
      for (auto& [k, v] : w.verdicts) verdicts[k] += v;
    }
    auto lat = [](std::vector<double>& samples) {
      Summary p = Summarize(std::move(samples));
      char b[256];
      snprintf(b, sizeof(b),
               "{\"count\": %zu, \"p50\": %.3f, \"p99\": %.3f, "
               "\"max\": %.3f, \"p99_resolved\": %s}",
               p.count, p.p50, p.p99, p.max, p.p99_resolved ? "true" : "false");
      return std::string(b);
    };
    char buf[512];
    snprintf(buf, sizeof(buf),
             "{\"gets\": %llu, \"sets\": %llu, \"failed\": %llu, "
             "\"wrong\": %llu, \"secs\": %.6f, \"windows\": %zu, "
             "\"kops_median\": %.4f, ",
             (unsigned long long)gets, (unsigned long long)sets,
             (unsigned long long)failed, (unsigned long long)wrong, secs,
             windows.size(), Median(kops));
    std::string out = buf;
    out += "\"kops\": " + List(kops) + ", ";
    out += "\"get\": " + lat(get_us) + ", \"set\": " + lat(set_us) +
           ", \"all\": " + lat(all_us) + ", \"lag\": " + lat(lag_us) +
           ", \"verdicts\": {";
    bool first = true;
    for (auto& [k, v] : verdicts) {
      out += (first ? "\"" : ", \"") + k + "\": " + std::to_string(v);
      first = false;
    }
    return out + "}}";
  }

  static std::string List(const std::vector<double>& xs) {
    std::string out = "[";
    char b[32];
    for (size_t i = 0; i < xs.size(); ++i) {
      snprintf(b, sizeof(b), "%s%.4f", i ? ", " : "", xs[i]);
      out += b;
    }
    return out + "]";
  }

  void SaveVersions() {
    if (cfg_.versions_file.empty()) return;
    FILE* f = fopen(cfg_.versions_file.c_str(), "wb");
    if (f == nullptr) Die("cannot write versions");
    fwrite(acked_.data(), sizeof(uint32_t), acked_.size(), f);
    fwrite(issued_.data(), sizeof(uint32_t), issued_.size(), f);
    if (fclose(f) != 0) Die("cannot write versions");
  }

  // Reads back a seeded sample of keys after a graceful restart; each must
  // be at its last acknowledged version.
  void Verify() {
    FILE* f = fopen(cfg_.versions_file.c_str(), "rb");
    if (f == nullptr) Die("no versions file");
    if (fread(acked_.data(), sizeof(uint32_t), acked_.size(), f) != acked_.size() ||
        fread(issued_.data(), sizeof(uint32_t), issued_.size(), f) != issued_.size()) {
      Die("short versions file");
    }
    fclose(f);
    Open();
    Rng rng(cfg_.seed ^ 0xfeedface);
    PhaseStats ph;
    uint64_t changed = 0;
    for (uint64_t i = 0; i < cfg_.verify_sample; ++i) {
      uint32_t key = static_cast<uint32_t>(rng.Next() % cfg_.keys);
      if (acked_[key] > 0) ++changed;
      Issue({key, false}, NowNanos());
      if (Outstanding() >= 64) {
        FlushAll();
        Pump(10'000'000, &ph);
      }
    }
    Drain(&ph, 10);
    Close();
    printf("{\"sampled\": %llu, \"rewritten\": %llu, \"failed\": %llu, "
           "\"wrong\": %llu}\n",
           (unsigned long long)ph.gets, (unsigned long long)changed,
           (unsigned long long)ph.failed, (unsigned long long)ph.wrong);
  }

 private:
  static constexpr size_t kSpanCap = 2'000'000;
  const std::string kSet = "SET";
  const std::string kGet = "GET";

  Config cfg_;
  uint64_t logical_bytes_ = 0;
  std::vector<uint32_t> issued_, acked_;
  std::vector<Conn> conns_, node_conns_;
  std::vector<Op> stream_;
  std::vector<std::vector<Op>> per_conn_;
  std::vector<size_t> closed_cursor_ = std::vector<size_t>(8, 0);
  size_t open_cursor_ = 0;
  std::string key_, value_;
  Reply admin_reply_;
  uint64_t admin_sent_ = 0;

  bool recording_spans_ = false;
  uint64_t next_span_ = 1;
  uint64_t phase_span_ = 0;
  std::vector<Span> spans_;
};

Config Parse(int argc, char** argv) {
  Config c;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Die("flag " + flag + " needs a value");
    std::string v = argv[++i];
    auto ints = [&] {
      std::vector<int> out;
      for (auto& s : Split(v)) out.push_back(atoi(s.c_str()));
      return out;
    };
    if (flag == "--mode") c.mode = v;
    else if (flag == "--port") c.port = atoi(v.c_str());
    else if (flag == "--node-ports") c.node_ports = ints();
    else if (flag == "--proxy") c.proxy = v == "1";
    else if (flag == "--seed") c.seed = strtoull(v.c_str(), nullptr, 10);
    else if (flag == "--keys") c.keys = strtoull(v.c_str(), nullptr, 10);
    else if (flag == "--value-min") c.shape.min_bytes = strtoull(v.c_str(), nullptr, 10);
    else if (flag == "--value-max") c.shape.max_bytes = strtoull(v.c_str(), nullptr, 10);
    else if (flag == "--theta") c.theta = atof(v.c_str());
    else if (flag == "--set-fraction") c.set_fraction = atof(v.c_str());
    else if (flag == "--conns") c.conns = atoi(v.c_str());
    else if (flag == "--window") c.window = atoi(v.c_str());
    else if (flag == "--warmup-ops") c.warmup_ops = strtoull(v.c_str(), nullptr, 10);
    else if (flag == "--closed-s") c.closed_s = atof(v.c_str());
    else if (flag == "--closed-ops") c.closed_ops = strtoull(v.c_str(), nullptr, 10);
    else if (flag == "--open-s") c.open_s = atof(v.c_str());
    else if (flag == "--open-rate") c.open_rate = strtoull(v.c_str(), nullptr, 10);
    else if (flag == "--ladder") {
      for (auto& s : Split(v)) c.ladder.push_back(strtoull(s.c_str(), nullptr, 10));
    }
    else if (flag == "--step-s") c.step_s = atof(v.c_str());
    else if (flag == "--rounds") c.rounds = atoi(v.c_str());
    else if (flag == "--stats-pids") c.stats_pids = ints();
    else if (flag == "--stats-files") c.stats_files = Split(v);
    else if (flag == "--cpu-pids") c.cpu_pids = ints();
    else if (flag == "--trace") c.trace = v == "1";
    else if (flag == "--spans-file") c.spans_file = v;
    else if (flag == "--versions-file") c.versions_file = v;
    else if (flag == "--verify-sample") c.verify_sample = strtoull(v.c_str(), nullptr, 10);
    else Die("unknown flag " + flag);
  }
  if (c.rounds < 1) Die("--rounds must be positive");
  if (c.conns < 1 || c.conns > 4) Die("--conns must be 1..4");
  if (c.keys == 0 || c.keys > 100'000'000) Die("bad --keys");
  if (c.shape.min_bytes < kHeaderBytes + kChecksumBytes ||
      c.shape.max_bytes < c.shape.min_bytes || c.shape.max_bytes > 4096) {
    Die("bad value sizes");
  }
  if (c.stats_pids.size() != c.stats_files.size()) Die("stats pids/files mismatch");
  return c;
}

}  // namespace
}  // namespace tbbench

int main(int argc, char** argv) {
  using namespace tbbench;
  signal(SIGPIPE, SIG_IGN);
  Config cfg = Parse(argc, argv);
  Driver d(cfg);
  if (cfg.mode == "describe") {
    printf("{\"logical_bytes\": %llu}\n", (unsigned long long)d.logical_bytes());
  } else if (cfg.mode == "setup") {
    d.Setup();
  } else if (cfg.mode == "run") {
    d.Run();
  } else if (cfg.mode == "verify") {
    d.Verify();
  } else {
    Die("unknown --mode");
  }
  return 0;
}
