// Network fault-tolerance chaos matrix: deterministic, seeded fault
// injection against the real networking stack — no external processes, no
// real-sleep flakiness (time-dependent assertions use ManualClock or
// bounded polling on counters).
//
// Layers covered:
//   * RetryPolicy / RetryState  — backoff ladders, jitter bounds, budgets.
//   * CircuitBreaker            — trip, fast-fail, half-open, recovery.
//   * FaultInjectionTransport   — refuse/reset/black-hole/short-IO against
//                                 a live loopback server.
//   * Replica pull link         — partition mid-REPLPULL, jittered backoff,
//                                 reconnect + catch-up after heal.
//   * NetClusterClient          — breaker trips on a dead shard, -UNAVAILABLE
//                                 fast-fail, half-open recovery; batch ops
//                                 keep serving the surviving shards.
//   * ClusterProxy              — upstream partition mid-scatter-gather
//                                 yields per-key errors, no cross-key damage.
//   * EventLoop overload        — max-clients reject, -BUSY shedding, slow
//                                 consumer disconnect, INFO "# Robustness".
//
// Everything boots in-process on loopback with ephemeral ports, so the
// matrix also runs under ASan/UBSan (and the whole file under TSan) in CI.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster_net/cluster_client.h"
#include "cluster_net/coordinator_service.h"
#include "cluster_net/node_state.h"
#include "cluster_net/proxy.h"
#include "common/circuit_breaker.h"
#include "common/clock.h"
#include "common/fault_transport.h"
#include "common/retry.h"
#include "server/client.h"
#include "server/event_loop.h"
#include "server/server.h"

namespace tierbase {
namespace {

using cluster_net::CoordinatorService;
using cluster_net::NetClusterClient;
using cluster_net::NodeClusterState;
using common::CircuitBreaker;
using common::CircuitBreakerOptions;
using common::FaultInjectionTransport;
using common::RetryPolicy;
using common::RetryState;
using server::Client;
using server::RespValue;

using Partition = FaultInjectionTransport::Partition;

std::string Endpoint(uint16_t port) {
  return "127.0.0.1:" + std::to_string(port);
}

/// Bounded wait on a counter-style predicate (real time, generous bound;
/// the asserted state is reached in milliseconds when healthy).
bool WaitFor(const std::function<bool()>& pred, uint64_t budget_micros =
                                                    10'000'000) {
  const Clock* clock = Clock::Real();
  uint64_t start = clock->NowMicros();
  while (!pred()) {
    if (clock->NowMicros() - start > budget_micros) return false;
    clock->SleepMicros(1'000);
  }
  return true;
}

// ---------------------------------------------------------------------------
// RetryPolicy / RetryState.
// ---------------------------------------------------------------------------

TEST(RetryStateTest, PlainDoublingWithoutJitterAndCap) {
  ManualClock clock;
  RetryPolicy policy;
  policy.initial_backoff_micros = 10;
  policy.max_backoff_micros = 50;
  policy.jitter = false;
  RetryState retry(policy, &clock);
  EXPECT_EQ(10u, retry.NextBackoffMicros());
  EXPECT_EQ(20u, retry.NextBackoffMicros());
  EXPECT_EQ(40u, retry.NextBackoffMicros());
  EXPECT_EQ(50u, retry.NextBackoffMicros());  // Saturates at the cap.
  EXPECT_EQ(50u, retry.NextBackoffMicros());
  retry.RecordSuccess();  // Ladder resets.
  EXPECT_EQ(10u, retry.NextBackoffMicros());
}

TEST(RetryStateTest, DecorrelatedJitterStaysInBounds) {
  ManualClock clock;
  RetryPolicy policy;
  policy.initial_backoff_micros = 100;
  policy.max_backoff_micros = 10'000;
  policy.jitter = true;
  RetryState retry(policy, &clock, /*seed=*/7);
  uint64_t prev = retry.NextBackoffMicros();
  EXPECT_EQ(100u, prev);  // First backoff is always `initial`.
  for (int i = 0; i < 100; ++i) {
    uint64_t next = retry.NextBackoffMicros();
    EXPECT_GE(next, policy.initial_backoff_micros);
    EXPECT_LE(next, policy.max_backoff_micros);
    // Decorrelated: bounded by 3x the previous draw (and the cap).
    EXPECT_LE(next, std::min<uint64_t>(prev * 3, policy.max_backoff_micros));
    prev = next;
  }
  // Seeded: the schedule replays byte-identically.
  RetryState a(policy, &clock, 42), b(policy, &clock, 42);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.NextBackoffMicros(), b.NextBackoffMicros());
  }
}

TEST(RetryStateTest, AttemptAndDeadlineBudgets) {
  ManualClock clock;
  RetryPolicy policy;
  policy.initial_backoff_micros = 10;
  policy.jitter = false;
  policy.max_attempts = 2;
  RetryState retry(policy, &clock);
  EXPECT_TRUE(retry.CanRetry());
  retry.NextBackoffMicros();
  EXPECT_TRUE(retry.CanRetry());
  retry.NextBackoffMicros();
  EXPECT_FALSE(retry.CanRetry());  // Two attempts consumed.
  retry.RecordSuccess();
  EXPECT_TRUE(retry.CanRetry());

  RetryPolicy deadline;
  deadline.initial_backoff_micros = 600;
  deadline.jitter = false;
  deadline.deadline_micros = 1'000;
  RetryState dr(deadline, &clock);
  EXPECT_EQ(600u, dr.NextBackoffMicros());
  clock.Advance(600);
  // Only 400us of budget left: the backoff is clamped to it.
  EXPECT_EQ(400u, dr.NextBackoffMicros());
  clock.Advance(400);
  EXPECT_FALSE(dr.CanRetry());
}

// ---------------------------------------------------------------------------
// CircuitBreaker.
// ---------------------------------------------------------------------------

TEST(CircuitBreakerTest, TripsFastFailsAndRecoversViaHalfOpen) {
  ManualClock clock;
  CircuitBreakerOptions options;
  options.failure_threshold = 3;
  options.open_duration_micros = 1'000;
  options.clock = &clock;
  CircuitBreaker breaker(options);

  EXPECT_EQ(CircuitBreaker::State::kClosed, breaker.state());
  EXPECT_EQ("closed", breaker.state_name());
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_TRUE(breaker.Allow());  // Below threshold: still closed.
  breaker.RecordFailure();       // Third consecutive failure trips it.
  EXPECT_EQ(CircuitBreaker::State::kOpen, breaker.state());
  EXPECT_EQ(1u, breaker.trips());

  // While open (cooldown not elapsed): every caller fails fast.
  EXPECT_FALSE(breaker.Allow());
  EXPECT_FALSE(breaker.Allow());
  EXPECT_EQ(2u, breaker.fast_fails());

  // Cooldown elapses: exactly one half-open probe; concurrent callers
  // keep failing fast until it reports back.
  clock.Advance(1'000);
  EXPECT_TRUE(breaker.Allow());
  EXPECT_EQ(CircuitBreaker::State::kHalfOpen, breaker.state());
  EXPECT_FALSE(breaker.Allow());

  // Probe failure re-opens for another cooldown.
  breaker.RecordFailure();
  EXPECT_EQ(CircuitBreaker::State::kOpen, breaker.state());
  EXPECT_EQ(2u, breaker.trips());
  EXPECT_FALSE(breaker.Allow());

  // Second probe succeeds: breaker closes, failures forgotten.
  clock.Advance(1'000);
  EXPECT_TRUE(breaker.Allow());
  breaker.RecordSuccess();
  EXPECT_EQ(CircuitBreaker::State::kClosed, breaker.state());
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_TRUE(breaker.Allow());  // The count restarted from zero.
}

// ---------------------------------------------------------------------------
// FaultInjectionTransport against a live loopback server.
// ---------------------------------------------------------------------------

class FaultTransportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TierBaseOptions options;
    options.policy = CachingPolicy::kCacheOnly;
    options.cache.shards = 2;
    auto db = TierBase::Open(options, nullptr);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    server::ServerOptions server_options;
    server_options.net.port = 0;
    server_options.executor.max_threads = 2;
    srv_ = std::make_unique<server::Server>(db_.get(), server_options);
    ASSERT_TRUE(srv_->Start().ok());
    endpoint_ = Endpoint(srv_->port());
  }

  void TearDown() override { srv_->Stop(); }

  std::unique_ptr<TierBase> db_;
  std::unique_ptr<server::Server> srv_;
  std::string endpoint_;
  FaultInjectionTransport fault_;  // Wraps the default Posix transport.
};

TEST_F(FaultTransportTest, RefusePartitionBlocksNewConnects) {
  fault_.SetPartition(endpoint_, Partition::kRefuse);
  Client cli;
  cli.set_transport(&fault_);
  Status s = cli.Connect("127.0.0.1", srv_->port());
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_NE(std::string::npos, s.message().find("injected"));
  EXPECT_EQ(1u, fault_.GetStats(endpoint_).connects_failed);

  // Healing the endpoint restores connectivity.
  fault_.SetPartition(endpoint_, Partition::kNone);
  ASSERT_TRUE(cli.Connect("127.0.0.1", srv_->port()).ok());
  RespValue v;
  ASSERT_TRUE(cli.Call({"PING"}, &v).ok());
  EXPECT_EQ("PONG", v.str);
}

TEST_F(FaultTransportTest, ResetPartitionKillsEstablishedConnections) {
  Client cli;
  cli.set_transport(&fault_);
  ASSERT_TRUE(cli.Connect("127.0.0.1", srv_->port()).ok());
  RespValue v;
  ASSERT_TRUE(cli.Call({"PING"}, &v).ok());

  // kReset: established connections fail mid-stream; new connects work.
  fault_.SetPartition(endpoint_, Partition::kReset);
  EXPECT_FALSE(cli.Call({"PING"}, &v).ok());
  EXPECT_GE(fault_.GetStats(endpoint_).faults_injected, 1u);

  fault_.SetPartition(endpoint_, Partition::kNone);
  ASSERT_TRUE(cli.Connect("127.0.0.1", srv_->port()).ok());
  ASSERT_TRUE(cli.Call({"PING"}, &v).ok());
}

TEST_F(FaultTransportTest, BlackholeTimesOutInsteadOfRefusing) {
  fault_.SetPartition(endpoint_, Partition::kBlackhole);
  Client cli;
  cli.set_transport(&fault_);
  Status s = cli.Connect("127.0.0.1", srv_->port(), /*timeout_micros=*/1'000);
  EXPECT_TRUE(s.IsTimedOut()) << s.ToString();

  // One-way outbound black hole: the connect and the write "succeed", but
  // the peer never saw the bytes, so the reply read times out.
  fault_.SetPartition(endpoint_, Partition::kBlackholeOut);
  ASSERT_TRUE(cli.Connect("127.0.0.1", srv_->port()).ok());
  RespValue v;
  Status call = cli.Call({"PING"}, &v);
  EXPECT_TRUE(call.IsTimedOut()) << call.ToString();
}

TEST_F(FaultTransportTest, ShortIoExercisesPartialReadWriteLoops) {
  fault_.SetPartition(endpoint_, Partition::kNone);
  fault_.SetShortIo(endpoint_, true);
  Client cli;
  cli.set_transport(&fault_);
  ASSERT_TRUE(cli.Connect("127.0.0.1", srv_->port()).ok());
  // A multi-KB value forces many 1..64-byte slices through every
  // partial-I/O loop on both directions; the data must survive intact.
  std::string big(8192, 'x');
  for (size_t i = 0; i < big.size(); ++i) big[i] = 'a' + (i % 26);
  RespValue v;
  ASSERT_TRUE(cli.Call({"SET", "big", big}, &v).ok());
  EXPECT_EQ("OK", v.str);
  ASSERT_TRUE(cli.Call({"GET", "big"}, &v).ok());
  EXPECT_EQ(big, v.str);
  EXPECT_GT(fault_.GetStats(endpoint_).connect_attempts, 0u);
}

// ---------------------------------------------------------------------------
// Cluster-level chaos: coordinator + data nodes on loopback.
// ---------------------------------------------------------------------------

struct ChaosNode {
  std::unique_ptr<TierBase> db;
  std::unique_ptr<server::Server> srv;
  std::unique_ptr<NodeClusterState> cluster;
  std::string id;

  uint16_t port() const { return srv->port(); }
};

class FaultToleranceClusterTest : public ::testing::Test {
 protected:
  void StartCoordinator() {
    CoordinatorService::Options options;
    options.port = 0;
    options.virtual_nodes = 32;
    coordinator_ = std::make_unique<CoordinatorService>(options);
    ASSERT_TRUE(coordinator_->Start().ok());
  }

  /// `transport` (optional) injects faults into the node's own dials —
  /// i.e. its replica pull link — without touching other parties.
  ChaosNode* StartNode(const std::string& id,
                       common::Transport* transport = nullptr) {
    auto node = std::make_unique<ChaosNode>();
    node->id = id;
    TierBaseOptions options;
    options.policy = CachingPolicy::kCacheOnly;
    options.cache.shards = 2;
    auto db = TierBase::Open(options, nullptr);
    EXPECT_TRUE(db.ok());
    node->db = std::move(*db);

    NodeClusterState::Options cluster_options;
    cluster_options.id = id;
    cluster_options.transport = transport;
    // Fast, still-jittered ladder so partition tests converge quickly.
    cluster_options.pull_retry.initial_backoff_micros = 1'000;
    cluster_options.pull_retry.max_backoff_micros = 10'000;
    node->cluster = std::make_unique<NodeClusterState>(node->db.get(),
                                                       cluster_options);

    server::ServerOptions server_options;
    server_options.net.port = 0;
    server_options.executor.max_threads = 2;
    node->srv =
        std::make_unique<server::Server>(node->db.get(), server_options);
    node->srv->commands()->set_cluster(node->cluster.get());
    EXPECT_TRUE(node->srv->Start().ok());
    nodes_.push_back(std::move(node));
    return nodes_.back().get();
  }

  Status Register(const ChaosNode& node, const std::string& replica_of = "") {
    return coordinator_->AddNode(node.id, "127.0.0.1", node.port(),
                                 replica_of);
  }

  void TearDown() override {
    for (auto& node : nodes_) node->cluster->StopReplication();
    for (auto& node : nodes_) node->srv->Stop();
    if (coordinator_ != nullptr) coordinator_->Stop();
  }

  std::unique_ptr<CoordinatorService> coordinator_;
  std::vector<std::unique_ptr<ChaosNode>> nodes_;
  // Lives in the fixture, not the test body: a transport handed to
  // StartNode is read by that node's pull thread until TearDown stops
  // replication, which runs after test-body locals are gone.
  FaultInjectionTransport node_fault_;
};

TEST_F(FaultToleranceClusterTest, ReplicaPartitionBacksOffThenCatchesUp) {
  StartCoordinator();
  ChaosNode* n1 = StartNode("n1");
  ASSERT_TRUE(Register(*n1).ok());

  // The replica dials its master through the fixture's fault transport
  // (it must outlive the pull thread); partition the master BEFORE the
  // link starts so the very first connect fails.
  FaultInjectionTransport& fault = node_fault_;
  const std::string master_ep = Endpoint(n1->port());
  fault.SetPartition(master_ep, Partition::kDown);
  ChaosNode* r1 = StartNode("r1", &fault);
  ASSERT_TRUE(Register(*r1, /*replica_of=*/"n1").ok());
  EXPECT_TRUE(r1->cluster->is_replica());

  // Writes land on the master while the link is down.
  Client cli;
  ASSERT_TRUE(cli.Connect("127.0.0.1", n1->port()).ok());
  RespValue v;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        cli.Call({"SET", "pk" + std::to_string(i), std::to_string(i)}, &v)
            .ok());
  }

  // The pull loop is backing off (jittered exponential), not hot-looping:
  // backoff sleeps accumulate and the last one is within the ladder.
  ASSERT_TRUE(WaitFor([&] { return r1->cluster->pull_backoffs() >= 3; }));
  EXPECT_EQ(0u, r1->cluster->pull_connects());
  EXPECT_GE(r1->cluster->last_pull_backoff_micros(), 1'000u);
  EXPECT_LE(r1->cluster->last_pull_backoff_micros(), 10'000u);
  EXPECT_GT(fault.GetStats(master_ep).connects_failed, 0u);

  // Heal. The link reconnects on its next backoff expiry and catches up.
  fault.SetPartition(master_ep, Partition::kNone);
  ASSERT_TRUE(cli.Call({"WAIT", "1", "5000"}, &v).ok());
  EXPECT_GE(v.integer, 1) << "replica never caught up after heal";
  EXPECT_GE(r1->cluster->pull_connects(), 1u);
  std::string value;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(r1->db->Get("pk" + std::to_string(i), &value).ok())
        << "pk" << i;
    EXPECT_EQ(std::to_string(i), value);
  }

  // Mid-stream partition: reset the established link, write more, heal.
  fault.SetPartition(master_ep, Partition::kDown);
  uint64_t backoffs_before = r1->cluster->pull_backoffs();
  for (int i = 50; i < 80; ++i) {
    ASSERT_TRUE(
        cli.Call({"SET", "pk" + std::to_string(i), std::to_string(i)}, &v)
            .ok());
  }
  ASSERT_TRUE(WaitFor(
      [&] { return r1->cluster->pull_backoffs() >= backoffs_before + 2; }));
  fault.SetPartition(master_ep, Partition::kNone);
  ASSERT_TRUE(cli.Call({"WAIT", "1", "5000"}, &v).ok());
  EXPECT_GE(v.integer, 1);
  for (int i = 50; i < 80; ++i) {
    ASSERT_TRUE(r1->db->Get("pk" + std::to_string(i), &value).ok())
        << "pk" << i;
  }
  EXPECT_GE(r1->cluster->pull_connects(), 2u);  // Reconnected after reset.

  // INFO surfaces the link's robustness gauges.
  Client rcli;
  ASSERT_TRUE(rcli.Connect("127.0.0.1", r1->port()).ok());
  ASSERT_TRUE(rcli.Call({"INFO"}, &v).ok());
  EXPECT_NE(std::string::npos, v.str.find("replica_pull_connects:"));
  EXPECT_NE(std::string::npos, v.str.find("replica_pull_backoffs:"));
}

TEST_F(FaultToleranceClusterTest, BreakerTripsFastFailsAndHalfOpenRecovers) {
  StartCoordinator();
  ChaosNode* n1 = StartNode("n1");
  ASSERT_TRUE(Register(*n1).ok());

  // The client dials everything through its own fault transport; manual
  // clock makes backoffs instant and breaker cooldowns explicit.
  FaultInjectionTransport fault;
  ManualClock clock;
  NetClusterClient::Options options;
  options.coordinators.push_back(Endpoint(coordinator_->port()));
  options.transport = &fault;
  options.clock = &clock;
  options.max_retries = 3;
  options.breaker.failure_threshold = 3;
  options.breaker.open_duration_micros = 1'000'000;
  auto client_or = NetClusterClient::Connect(options);
  ASSERT_TRUE(client_or.ok()) << client_or.status().ToString();
  auto client = std::move(*client_or);
  ASSERT_TRUE(client->Set("bk", "v1").ok());

  // Partition the node AND the coordinator (from this client's point of
  // view): routing stays stale, so retries keep hitting the dead node
  // until the breaker trips.
  fault.SetPartition(Endpoint(n1->port()), Partition::kDown);
  fault.SetPartition(Endpoint(coordinator_->port()), Partition::kDown);

  // First op burns its retry budget against the dead node; each failed
  // dial is a breaker failure, so the third one trips it open.
  std::string value;
  Status s = client->Get("bk", &value);
  EXPECT_FALSE(s.ok());
  NetClusterClient::Stats stats = client->GetStats();
  EXPECT_EQ(1u, stats.breaker_trips);
  EXPECT_EQ("open", stats.breaker_states["n1"]);

  // Subsequent ops fail fast with -UNAVAILABLE "circuit open": no dial,
  // no timeout wait, no coordinator churn.
  uint64_t failed_dials_before =
      fault.GetStats(Endpoint(n1->port())).connects_failed;
  for (int i = 0; i < 5; ++i) {
    s = client->Get("bk", &value);
    EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
    EXPECT_NE(std::string::npos, s.message().find("circuit open"));
  }
  EXPECT_EQ(failed_dials_before,
            fault.GetStats(Endpoint(n1->port())).connects_failed);
  EXPECT_GE(client->GetStats().breaker_fast_fails, 5u);

  // Heal the network. The breaker stays open until its cooldown elapses...
  fault.SetPartition(Endpoint(n1->port()), Partition::kNone);
  fault.SetPartition(Endpoint(coordinator_->port()), Partition::kNone);
  s = client->Get("bk", &value);
  EXPECT_TRUE(s.IsUnavailable());
  // ...then the next op is the half-open probe; it succeeds and closes
  // the breaker — full recovery without any client restart.
  clock.Advance(options.breaker.open_duration_micros);
  ASSERT_TRUE(client->Get("bk", &value).ok());
  EXPECT_EQ("v1", value);
  EXPECT_EQ("closed", client->GetStats().breaker_states["n1"]);
}

TEST_F(FaultToleranceClusterTest, BatchRetriesBackOffLikeSingleKeyOps) {
  StartCoordinator();
  ChaosNode* n1 = StartNode("n1");
  ASSERT_TRUE(Register(*n1).ok());

  FaultInjectionTransport fault;
  ManualClock clock;
  NetClusterClient::Options options;
  options.coordinators.push_back(Endpoint(coordinator_->port()));
  options.transport = &fault;
  options.clock = &clock;
  options.max_retries = 3;
  // Above every failure below: no op may fail fast on an open breaker.
  options.breaker.failure_threshold = 1000;
  auto client_or = NetClusterClient::Connect(options);
  ASSERT_TRUE(client_or.ok()) << client_or.status().ToString();
  auto client = std::move(*client_or);
  ASSERT_TRUE(client->Set("bk", "v1").ok());

  // Node and coordinator down: routing stays stale, so every attempt of
  // every op fails against n1, and each op waits between its attempts.
  fault.SetPartition(Endpoint(n1->port()), Partition::kDown);
  fault.SetPartition(Endpoint(coordinator_->port()), Partition::kDown);
  const uint64_t per_op = options.max_retries - 1;
  uint64_t waits = client->GetStats().backoff_waits;

  std::string value;
  EXPECT_FALSE(client->Get("bk", &value).ok());
  EXPECT_EQ(waits + per_op, client->GetStats().backoff_waits) << "Get";
  waits = client->GetStats().backoff_waits;

  const std::vector<Slice> keys = {"bk", "b1", "b2", "b3"};
  std::vector<std::string> values;
  std::vector<Status> statuses;
  client->MultiGet(keys, &values, &statuses);
  for (const Status& s : statuses) EXPECT_FALSE(s.ok());
  EXPECT_EQ(waits + per_op, client->GetStats().backoff_waits) << "MultiGet";
  waits = client->GetStats().backoff_waits;

  client->MultiSet(keys, {"x", "x", "x", "x"}, &statuses);
  for (const Status& s : statuses) EXPECT_FALSE(s.ok());
  EXPECT_EQ(waits + per_op, client->GetStats().backoff_waits) << "MultiSet";
  EXPECT_EQ(0u, client->GetStats().breaker_trips);
}

TEST_F(FaultToleranceClusterTest, BatchOpsServeSurvivingShardsPastOpenBreaker) {
  StartCoordinator();
  ChaosNode* n1 = StartNode("n1");
  ChaosNode* n2 = StartNode("n2");
  ASSERT_TRUE(Register(*n1).ok());
  ASSERT_TRUE(Register(*n2).ok());

  FaultInjectionTransport fault;
  ManualClock clock;
  NetClusterClient::Options options;
  options.coordinators.push_back(Endpoint(coordinator_->port()));
  options.transport = &fault;
  options.clock = &clock;
  options.max_retries = 3;
  options.breaker.failure_threshold = 1;  // Trip on the first failure.
  auto client_or = NetClusterClient::Connect(options);
  ASSERT_TRUE(client_or.ok());
  auto client = std::move(*client_or);

  // Seed keys across both shards.
  const int kKeys = 64;
  std::vector<std::string> key_storage;
  for (int i = 0; i < kKeys; ++i) {
    key_storage.push_back("mk" + std::to_string(i));
    ASSERT_TRUE(client->Set(key_storage.back(), std::to_string(i)).ok());
  }
  const uint64_t n1_keys = n1->db->cache()->GetUsage().keys;
  const uint64_t n2_keys = n2->db->cache()->GetUsage().keys;
  ASSERT_GT(n1_keys, 0u);
  ASSERT_GT(n2_keys, 0u);

  // Kill n1 from this client's point of view (and freeze routing by
  // partitioning the coordinator as well). WaitIdle drops the cached
  // connections so the next batch must re-dial — straight into the
  // breaker.
  fault.SetPartition(Endpoint(n1->port()), Partition::kDown);
  fault.SetPartition(Endpoint(coordinator_->port()), Partition::kDown);
  client->WaitIdle();  // Prunes connections the partition just killed.

  std::vector<Slice> keys(key_storage.begin(), key_storage.end());
  std::vector<std::string> values;
  std::vector<Status> statuses;
  client->MultiGet(keys, &values, &statuses);

  // Per-key outcome: every n2-owned key served, every n1-owned key failed
  // (IOError on the tripping attempt, -UNAVAILABLE fast-fail after) — and
  // crucially no cross-key damage in either direction.
  int served = 0, failed = 0;
  for (int i = 0; i < kKeys; ++i) {
    if (statuses[i].ok()) {
      EXPECT_EQ(std::to_string(i), values[i]);
      ++served;
    } else {
      ++failed;
    }
  }
  EXPECT_EQ(static_cast<uint64_t>(served), n2_keys);
  EXPECT_EQ(static_cast<uint64_t>(failed), n1_keys);
  EXPECT_GE(client->GetStats().breaker_trips, 1u);

  // A second batch fails fast for the dead shard (breaker open, no dials).
  uint64_t dials_before =
      fault.GetStats(Endpoint(n1->port())).connect_attempts;
  client->MultiGet(keys, &values, &statuses);
  int unavailable = 0;
  for (int i = 0; i < kKeys; ++i) {
    if (statuses[i].IsUnavailable()) ++unavailable;
  }
  EXPECT_EQ(static_cast<uint64_t>(unavailable), n1_keys);
  EXPECT_EQ(dials_before,
            fault.GetStats(Endpoint(n1->port())).connect_attempts);
}

TEST_F(FaultToleranceClusterTest, ProxyPartitionYieldsPerKeyErrorsOnly) {
  StartCoordinator();
  ChaosNode* n1 = StartNode("n1");
  ChaosNode* n2 = StartNode("n2");
  ASSERT_TRUE(Register(*n1).ok());
  ASSERT_TRUE(Register(*n2).ok());

  // The proxy's backend dials upstreams through the fault transport; the
  // test's own connection to the proxy uses the default transport.
  FaultInjectionTransport fault;
  ManualClock clock;
  cluster_net::ClusterProxy::Options options;
  options.port = 0;
  options.backend.coordinators.push_back(Endpoint(coordinator_->port()));
  options.backend.transport = &fault;
  options.backend.clock = &clock;
  options.backend.breaker.failure_threshold = 1;
  cluster_net::ClusterProxy proxy(options);
  ASSERT_TRUE(proxy.Start().ok());

  Client cli;
  ASSERT_TRUE(cli.Connect("127.0.0.1", proxy.port()).ok());
  RespValue v;
  const int kKeys = 64;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(
        cli.Call({"SET", "xk" + std::to_string(i), std::to_string(i)}, &v)
            .ok());
    ASSERT_EQ("OK", v.str);
  }
  const uint64_t n1_keys = n1->db->cache()->GetUsage().keys;
  const uint64_t n2_keys = n2->db->cache()->GetUsage().keys;
  ASSERT_GT(n1_keys, 0u);
  ASSERT_GT(n2_keys, 0u);

  // Kill n1 upstream (and freeze the proxy's routing view). A pipelined
  // GET train — one scatter–gather — must answer per key: values from n2,
  // errors for n1, stitched back in order with no cross-key damage.
  fault.SetPartition(Endpoint(n1->port()), Partition::kDown);
  fault.SetPartition(Endpoint(coordinator_->port()), Partition::kDown);

  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < kKeys; ++i) {
      cli.Append({"GET", "xk" + std::to_string(i)});
    }
    ASSERT_TRUE(cli.Flush().ok());
    int served = 0, errored = 0;
    for (int i = 0; i < kKeys; ++i) {
      ASSERT_TRUE(cli.ReadReply(&v).ok());
      if (v.IsError()) {
        ++errored;
      } else {
        EXPECT_EQ(std::to_string(i), v.str);
        ++served;
      }
    }
    EXPECT_EQ(static_cast<uint64_t>(served), n2_keys) << "round " << round;
    EXPECT_EQ(static_cast<uint64_t>(errored), n1_keys) << "round " << round;
  }

  // After the breaker tripped, dead-shard errors carry the -UNAVAILABLE
  // class on the wire (distinct from -ERR).
  std::string n1_key;
  for (int i = 0; i < kKeys && n1_key.empty(); ++i) {
    std::string key = "xk" + std::to_string(i), unused;
    if (n1->db->Get(key, &unused).ok()) n1_key = key;  // Local, no network.
  }
  ASSERT_FALSE(n1_key.empty());
  ASSERT_TRUE(cli.Call({"GET", n1_key}, &v).ok());
  ASSERT_TRUE(v.IsError());
  EXPECT_EQ(0u, v.str.find("UNAVAILABLE")) << v.str;

  // The proxy's INFO surfaces the robustness section.
  ASSERT_TRUE(cli.Call({"INFO"}, &v).ok());
  EXPECT_NE(std::string::npos, v.str.find("# Robustness"));
  EXPECT_NE(std::string::npos, v.str.find("breaker_trips:"));
  EXPECT_NE(std::string::npos, v.str.find("breaker_state_n1:"));

  proxy.Stop();
}

TEST_F(FaultToleranceClusterTest, CoordinatorProbeTimeoutIsConfigurable) {
  // Prober with a tight (but configurable) node I/O budget marks a
  // genuinely dead node failed and counts what it did.
  CoordinatorService::Options options;
  options.port = 0;
  options.virtual_nodes = 32;
  options.probe_interval_micros = 10'000;
  options.node_io_timeout_micros = 200'000;
  coordinator_ = std::make_unique<CoordinatorService>(options);
  ASSERT_TRUE(coordinator_->Start().ok());

  ChaosNode* n1 = StartNode("n1");
  ChaosNode* n2 = StartNode("n2");
  ASSERT_TRUE(Register(*n1).ok());
  ASSERT_TRUE(Register(*n2).ok());
  ASSERT_TRUE(WaitFor([&] { return coordinator_->probes_sent() >= 2; }));
  EXPECT_EQ(0u, coordinator_->probe_marked_failed());

  n2->srv->Stop();  // Dead process: probes fail fast (connection refused).
  ASSERT_TRUE(WaitFor([&] { return coordinator_->probe_marked_failed() >= 1; }));
  EXPECT_GE(coordinator_->probe_failures(), 1u);

  // The probe knobs and counters surface in the coordinator's INFO.
  Client cli;
  ASSERT_TRUE(cli.Connect("127.0.0.1", coordinator_->port()).ok());
  RespValue v;
  ASSERT_TRUE(cli.Call({"INFO"}, &v).ok());
  EXPECT_NE(std::string::npos, v.str.find("node_io_timeout_micros:200000"));
  EXPECT_NE(std::string::npos, v.str.find("probes_sent:"));
  EXPECT_NE(std::string::npos, v.str.find("probe_failures:"));
}

// ---------------------------------------------------------------------------
// Server overload protection.
// ---------------------------------------------------------------------------

class OverloadTest : public ::testing::Test {
 protected:
  void Start(server::ServerOptions server_options) {
    TierBaseOptions options;
    options.policy = CachingPolicy::kCacheOnly;
    options.cache.shards = 2;
    auto db = TierBase::Open(options, nullptr);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    server_options.net.port = 0;
    srv_ = std::make_unique<server::Server>(db_.get(), server_options);
    ASSERT_TRUE(srv_->Start().ok());
  }

  void TearDown() override {
    if (srv_ != nullptr) srv_->Stop();
  }

  std::unique_ptr<TierBase> db_;
  std::unique_ptr<server::Server> srv_;
};

TEST_F(OverloadTest, MaxConnectionsRejectsWithCleanError) {
  server::ServerOptions options;
  options.net.max_connections = 1;
  Start(options);

  Client first;
  ASSERT_TRUE(first.Connect("127.0.0.1", srv_->port()).ok());
  RespValue v;
  ASSERT_TRUE(first.Call({"PING"}, &v).ok());  // Guarantees it's accepted.

  // The second client completes the TCP handshake (listen backlog) but is
  // answered with a clean error and closed instead of being admitted.
  Client second;
  ASSERT_TRUE(second.Connect("127.0.0.1", srv_->port()).ok());
  Status s = second.Call({"PING"}, &v);
  if (s.ok()) {
    ASSERT_TRUE(v.IsError());
    EXPECT_EQ(0u, v.str.find("ERR max clients reached")) << v.str;
  }  // else: the reject landed before our PING was read — also correct.
  EXPECT_TRUE(WaitFor([&] { return srv_->loop()->connections_rejected() >= 1; }));

  // The admitted client is unaffected, and INFO accounts for the reject.
  ASSERT_TRUE(first.Call({"INFO"}, &v).ok());
  EXPECT_NE(std::string::npos, v.str.find("# Robustness"));
  EXPECT_NE(std::string::npos, v.str.find("max_connections:1"));
  EXPECT_NE(std::string::npos, v.str.find("connections_rejected:1"));

  // Closing the admitted connection frees the slot for new clients.
  first.Close();
  ASSERT_TRUE(WaitFor([&] { return srv_->loop()->connections_active() == 0; }));
  Client third;
  ASSERT_TRUE(third.Connect("127.0.0.1", srv_->port()).ok());
  ASSERT_TRUE(third.Call({"PING"}, &v).ok());
  EXPECT_EQ("PONG", v.str);
}

TEST_F(OverloadTest, SlowConsumerIsDisconnectedAtOutputCap) {
  server::ServerOptions options;
  // Small cap for the test — but comfortably above an INFO reply, which
  // every connection (including the healthy control one below) receives.
  options.net.max_out_buffer = 16 * 1024;
  Start(options);

  Client cli;
  ASSERT_TRUE(cli.Connect("127.0.0.1", srv_->port()).ok());
  RespValue v;
  std::string big(64 * 1024, 'z');
  ASSERT_TRUE(cli.Call({"SET", "big", big}, &v).ok());  // Small reply: fine.

  // The 64 KiB GET reply exceeds the cap the moment it lands in the write
  // buffer; the connection is torn down before any flush, deterministically.
  Status s = cli.Call({"GET", "big"}, &v);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(WaitFor(
      [&] { return srv_->loop()->slow_consumer_disconnects() >= 1; }));

  // The server is healthy for well-behaved clients; INFO shows the event.
  Client fresh;
  ASSERT_TRUE(fresh.Connect("127.0.0.1", srv_->port()).ok());
  ASSERT_TRUE(fresh.Call({"DBSIZE"}, &v).ok());
  EXPECT_EQ(1, v.integer);
  ASSERT_TRUE(fresh.Call({"INFO"}, &v).ok());
  EXPECT_NE(std::string::npos, v.str.find("slow_consumer_disconnects:1"));
}

// With two reactor loops, slow-consumer disconnects are detected and
// accounted by the OWNING loop: one slow client per loop, one disconnect
// counted on each shard, the aggregate exactly two. (Runs under the TSan
// build with the rest of the suite — the per-loop counters and the
// cross-loop aggregation must be race-free.)
TEST_F(OverloadTest, SlowConsumerAccountingIsPerLoop) {
  server::ServerOptions options;
  options.net.io_threads = 2;
  options.net.max_out_buffer = 16 * 1024;
  Start(options);

  Client first;   // Round-robin: first accept -> loop 0.
  Client second;  // Second accept -> loop 1.
  ASSERT_TRUE(first.Connect("127.0.0.1", srv_->port()).ok());
  RespValue v;
  ASSERT_TRUE(first.Call({"PING"}, &v).ok());  // Settled on loop 0.
  ASSERT_TRUE(second.Connect("127.0.0.1", srv_->port()).ok());
  ASSERT_TRUE(second.Call({"PING"}, &v).ok());

  std::string big(64 * 1024, 'z');
  ASSERT_TRUE(first.Call({"SET", "big", big}, &v).ok());

  // Each client's oversized GET reply breaches its loop's out-buffer cap.
  EXPECT_FALSE(first.Call({"GET", "big"}, &v).ok());
  EXPECT_FALSE(second.Call({"GET", "big"}, &v).ok());
  ASSERT_TRUE(WaitFor(
      [&] { return srv_->loop()->slow_consumer_disconnects() >= 2; }));
  EXPECT_EQ(1u, srv_->loop()->shard(0)->slow_consumer_disconnects());
  EXPECT_EQ(1u, srv_->loop()->shard(1)->slow_consumer_disconnects());

  Client fresh;
  ASSERT_TRUE(fresh.Connect("127.0.0.1", srv_->port()).ok());
  ASSERT_TRUE(fresh.Call({"INFO"}, &v).ok());
  EXPECT_NE(std::string::npos, v.str.find("slow_consumer_disconnects:2"));
}

TEST(EventLoopOverloadTest, ShedsWithBusyAtDispatchWatermark) {
  // Raw EventLoop with a dispatcher that defers completion, so the test
  // controls exactly when the in-flight batch finishes.
  common::Mutex mu;
  std::vector<std::shared_ptr<server::Connection>> captured;
  server::EventLoopOptions options;
  options.max_dispatch_inflight = 1;
  server::EventLoop loop(options,
                         [&](std::shared_ptr<server::Connection> conn,
                             server::CommandBatch /*batch*/) {
                           common::MutexLock lock(&mu);
                           captured.push_back(std::move(conn));
                         });
  ASSERT_TRUE(loop.Listen().ok());
  std::thread runner([&] { loop.Run(); });

  // First client's batch occupies the single dispatch slot.
  Client first;
  ASSERT_TRUE(first.Connect("127.0.0.1", loop.port()).ok());
  first.Append({"PING"});
  ASSERT_TRUE(first.Flush().ok());
  ASSERT_TRUE(WaitFor([&] {
    common::MutexLock lock(&mu);
    return captured.size() == 1;
  }));
  EXPECT_EQ(1u, loop.dispatch_inflight());

  // Second client's commands are shed with -BUSY — parsed, answered,
  // never dispatched; the connection stays open.
  Client second;
  ASSERT_TRUE(second.Connect("127.0.0.1", loop.port()).ok());
  second.Append({"PING"});
  second.Append({"PING"});
  ASSERT_TRUE(second.Flush().ok());
  RespValue v;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(second.ReadReply(&v).ok());
    ASSERT_TRUE(v.IsError());
    EXPECT_EQ(0u, v.str.find("BUSY")) << v.str;
  }
  EXPECT_EQ(2u, loop.busy_shed_commands());
  {
    common::MutexLock lock(&mu);
    EXPECT_EQ(1u, captured.size());  // Nothing new reached the dispatcher.
  }

  // Completing the in-flight batch frees the slot: the next command
  // dispatches normally (same shed-then-recover connection).
  {
    common::MutexLock lock(&mu);
    captured[0]->CompleteBatch("+PONG\r\n", false, false);
  }
  ASSERT_TRUE(first.ReadReply(&v).ok());
  EXPECT_EQ("PONG", v.str);
  ASSERT_TRUE(WaitFor([&] { return loop.dispatch_inflight() == 0; }));
  second.Append({"PING"});
  ASSERT_TRUE(second.Flush().ok());
  ASSERT_TRUE(WaitFor([&] {
    common::MutexLock lock(&mu);
    return captured.size() == 2;
  }));
  {
    common::MutexLock lock(&mu);
    captured[1]->CompleteBatch("+PONG\r\n", false, false);
  }
  ASSERT_TRUE(second.ReadReply(&v).ok());
  EXPECT_EQ("PONG", v.str);

  loop.Stop();
  runner.join();
}

}  // namespace
}  // namespace tierbase
