// Tests for the networked cluster subsystem (src/cluster_net/): wire
// routing, the coordinator control plane, -MOVED handling, the smart
// client's scatter–gather, wire replication with gap-triggered full
// resync, replica promotion, kill-a-master-under-YCSB continuity, the
// RESP proxy, and the Figure-3 topology of write-through data nodes over
// their own LSM shards. The router itself is tested in cluster_test.
//
// Everything boots in-process on loopback with ephemeral ports, so the
// suite also runs under ASan/UBSan in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster_net/cluster_client.h"
#include "cluster_net/coordinator_service.h"
#include "cluster_net/node_state.h"
#include "cluster_net/oplog.h"
#include "cluster_net/proxy.h"
#include "cluster_net/router.h"
#include "cluster_net/routing.h"
#include "common/clock.h"
#include "common/env.h"
#include "core/storage_adapter.h"
#include "server/client.h"
#include "server/server.h"
#include "tierbase/workload.h"

namespace tierbase {
namespace cluster_net {
namespace {

using server::Client;
using server::RespValue;

TEST(WireRoutingTest, SerializeParseRoundTrip) {
  WireRouting routing;
  routing.epoch = 7;
  routing.virtual_nodes = 32;
  routing.nodes.push_back({"n1", "127.0.0.1", 7001, false, "n1", true});
  routing.nodes.push_back({"r1", "127.0.0.1", 7002, true, "n1", true});
  routing.nodes.push_back({"n2", "10.0.0.5", 7003, false, "n2", false});

  WireRouting parsed;
  ASSERT_TRUE(WireRouting::Parse(routing.Serialize(), &parsed).ok());
  EXPECT_EQ(7u, parsed.epoch);
  EXPECT_EQ(32, parsed.virtual_nodes);
  ASSERT_EQ(3u, parsed.nodes.size());
  EXPECT_EQ("r1", parsed.nodes[1].id);
  EXPECT_TRUE(parsed.nodes[1].is_replica);
  EXPECT_EQ("n1", parsed.nodes[1].shard);
  EXPECT_FALSE(parsed.nodes[2].healthy);
  EXPECT_EQ(7003, parsed.nodes[2].port);

  // The ring only contains shards with a healthy master: n2 is down.
  auto shares = parsed.BuildRouter().OwnershipShares();
  EXPECT_EQ(1u, shares.count("n1"));
  EXPECT_EQ(0u, shares.count("n2"));
  EXPECT_EQ(nullptr, parsed.MasterOfShard("n2"));
  ASSERT_NE(nullptr, parsed.ReplicaOfShard("n1"));
  EXPECT_EQ("r1", parsed.ReplicaOfShard("n1")->id);
}

TEST(WireRoutingTest, ParseRejectsGarbage) {
  WireRouting parsed;
  EXPECT_FALSE(WireRouting::Parse("", &parsed).ok());
  EXPECT_FALSE(WireRouting::Parse("epoch:x vnodes:64\n", &parsed).ok());
  EXPECT_FALSE(
      WireRouting::Parse("epoch:1 vnodes:64\nn1 nocolon master n1 up\n",
                         &parsed)
          .ok());
  EXPECT_FALSE(
      WireRouting::Parse("epoch:1 vnodes:64\nn1 h:1 emperor n1 up\n", &parsed)
          .ok());
  // vnodes comes off the wire: an oversize or overflowing count must be
  // rejected, not turned into billions of ring points per BuildRouter.
  EXPECT_FALSE(WireRouting::Parse("epoch:1 vnodes:0\n", &parsed).ok());
  EXPECT_FALSE(WireRouting::Parse("epoch:1 vnodes:-3\n", &parsed).ok());
  EXPECT_FALSE(WireRouting::Parse("epoch:1 vnodes:4097\n", &parsed).ok());
  EXPECT_FALSE(
      WireRouting::Parse("epoch:1 vnodes:2000000000\n", &parsed).ok());
  EXPECT_FALSE(
      WireRouting::Parse("epoch:1 vnodes:99999999999999999999\n", &parsed)
          .ok());
  EXPECT_FALSE(
      WireRouting::Parse("epoch:99999999999999999999 vnodes:64\n", &parsed)
          .ok());
  EXPECT_FALSE(WireRouting::Parse("epoch:1 vnodes:64x\n", &parsed).ok());
  // The bound itself is accepted.
  ASSERT_TRUE(WireRouting::Parse("epoch:1 vnodes:4096\n", &parsed).ok());
  EXPECT_EQ(WireRouting::kMaxVirtualNodes, parsed.virtual_nodes);
}

TEST(CoordinatorServiceTest, StartRejectsOutOfRangeVirtualNodes) {
  // Every payload such a coordinator served would fail Parse on the
  // nodes and clients, so it must fail once, at start-up.
  for (int vnodes : {0, -1, WireRouting::kMaxVirtualNodes + 1}) {
    CoordinatorService::Options options;
    options.virtual_nodes = vnodes;
    CoordinatorService coordinator(options);
    EXPECT_TRUE(coordinator.Start().IsInvalidArgument()) << vnodes;
  }
  CoordinatorService::Options options;
  options.virtual_nodes = WireRouting::kMaxVirtualNodes;
  CoordinatorService coordinator(options);
  EXPECT_TRUE(coordinator.Start().ok());
  coordinator.Stop();
}

TEST(OpLogTest, SequencesAndGapDetection) {
  OpLog log(4);
  // A first pull starts retention (see RetainsNothingBeforeFirstRead).
  std::vector<ReplOp> ops;
  ASSERT_TRUE(log.Read(1, 16, &ops));
  EXPECT_TRUE(ops.empty());
  for (int i = 0; i < 3; ++i) {
    log.Append(ReplOp::Type::kSet, "k" + std::to_string(i), "v", 0);
  }
  EXPECT_EQ(3u, log.head_seq());
  EXPECT_EQ(1u, log.min_seq());

  ASSERT_TRUE(log.Read(2, 16, &ops));
  ASSERT_EQ(2u, ops.size());
  EXPECT_EQ(2u, ops[0].seq);
  EXPECT_EQ("k2", ops[1].key);

  // Reading past the head is an empty (not failed) read.
  ASSERT_TRUE(log.Read(4, 16, &ops));
  EXPECT_TRUE(ops.empty());

  // Overrun the ring: seq 1 and 2 fall out; reading them is a gap.
  for (int i = 3; i < 6; ++i) {
    log.Append(ReplOp::Type::kSet, "k" + std::to_string(i), "v", 0);
  }
  EXPECT_EQ(6u, log.head_seq());
  EXPECT_EQ(3u, log.min_seq());
  EXPECT_FALSE(log.Read(1, 16, &ops));
  ASSERT_TRUE(log.Read(3, 16, &ops));
  EXPECT_EQ(4u, ops.size());
}

TEST(OpLogTest, RetainsNothingBeforeFirstRead) {
  OpLog log(16);
  for (int i = 0; i < 5; ++i) {
    log.Append(ReplOp::Type::kSet, "k" + std::to_string(i), "v", 0);
  }
  // Sequences advance, but no op is kept: the log reads as empty.
  EXPECT_EQ(5u, log.head_seq());
  EXPECT_EQ(log.head_seq() + 1, log.min_seq());

  // The first pull from before the head is a gap (the replica then
  // full-resyncs) and starts retention.
  std::vector<ReplOp> ops;
  EXPECT_FALSE(log.Read(1, 16, &ops));
  EXPECT_TRUE(ops.empty());
  EXPECT_EQ(6u, log.min_seq());

  // Every op after that first pull is returned, in order, with its fields.
  log.Append(ReplOp::Type::kSet, "a", "va", 7);
  log.Append(ReplOp::Type::kDelete, "b", Slice(), 0);
  log.Append(ReplOp::Type::kExpire, "a", Slice(), 9);
  log.Append(ReplOp::Type::kFlushAll, Slice(), Slice(), 0);
  EXPECT_EQ(9u, log.head_seq());
  EXPECT_EQ(6u, log.min_seq());
  ASSERT_TRUE(log.Read(6, 16, &ops));
  ASSERT_EQ(4u, ops.size());
  for (size_t i = 0; i < ops.size(); ++i) EXPECT_EQ(6 + i, ops[i].seq);
  EXPECT_EQ(ReplOp::Type::kSet, ops[0].type);
  EXPECT_EQ("a", ops[0].key);
  EXPECT_EQ("va", ops[0].value);
  EXPECT_EQ(7u, ops[0].ttl_micros);
  EXPECT_EQ(ReplOp::Type::kDelete, ops[1].type);
  EXPECT_EQ("b", ops[1].key);
  EXPECT_EQ(ReplOp::Type::kExpire, ops[2].type);
  EXPECT_EQ(9u, ops[2].ttl_micros);
  EXPECT_EQ(ReplOp::Type::kFlushAll, ops[3].type);
  // Ops from before the first pull stay unreadable.
  EXPECT_FALSE(log.Read(5, 16, &ops));
}

// ---------------------------------------------------------------------------
// Live-cluster fixture: coordinator + N data nodes on loopback.
// ---------------------------------------------------------------------------

struct DataNode {
  // Tiered nodes only; declared first so it outlives db.
  std::unique_ptr<LsmStorageAdapter> storage;
  std::unique_ptr<TierBase> db;
  std::unique_ptr<server::Server> srv;
  std::unique_ptr<NodeClusterState> cluster;
  std::string id;

  uint16_t port() const { return srv->port(); }
};

class ClusterNetTest : public ::testing::Test {
 protected:
  void StartCoordinator(uint64_t probe_interval_micros = 0) {
    CoordinatorService::Options options;
    options.port = 0;
    options.virtual_nodes = 32;
    options.probe_interval_micros = probe_interval_micros;
    coordinator_ = std::make_unique<CoordinatorService>(options);
    ASSERT_TRUE(coordinator_->Start().ok());
  }

  /// Starts a cache-only data node, or with `tiered` a write-through node
  /// over its own LSM storage tier.
  DataNode* StartNode(const std::string& id, size_t oplog_cap = 65536,
                      bool tiered = false, Clock* cache_clock = nullptr) {
    auto node = std::make_unique<DataNode>();
    node->id = id;
    TierBaseOptions options;
    options.policy = CachingPolicy::kCacheOnly;
    options.cache.shards = 2;
    if (cache_clock != nullptr) options.cache.clock = cache_clock;
    if (tiered) {
      if (dir_.empty()) dir_ = env::MakeTempDir("tb_cluster_net");
      lsm::LsmOptions lsm_options;
      lsm_options.dir = dir_ + "/" + id;
      lsm_options.memtable_bytes = 256 * 1024;
      auto storage = LsmStorageAdapter::Open(lsm_options);
      EXPECT_TRUE(storage.ok());
      node->storage = std::move(*storage);
      options.policy = CachingPolicy::kWriteThrough;
      options.cache.memory_budget = 1 << 20;
    }
    auto db = TierBase::Open(options, node->storage.get());
    EXPECT_TRUE(db.ok());
    node->db = std::move(*db);

    NodeClusterState::Options cluster_options;
    cluster_options.id = id;
    cluster_options.oplog_capacity = oplog_cap;
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

  Status Register(const DataNode& node, const std::string& replica_of = "") {
    return coordinator_->AddNode(node.id, "127.0.0.1", node.port(),
                                 replica_of);
  }

  std::unique_ptr<NetClusterClient> SmartClient() {
    NetClusterClient::Options options;
    options.coordinators.push_back("127.0.0.1:" +
                                   std::to_string(coordinator_->port()));
    auto client = NetClusterClient::Connect(options);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }

  DataNode* Find(const std::string& id) {
    for (auto& node : nodes_) {
      if (node->id == id) return node.get();
    }
    return nullptr;
  }

  void TearDown() override {
    for (auto& node : nodes_) {
      // Stop replication links before servers so pullers don't spin
      // against closed listeners during teardown.
      node->cluster->StopReplication();
    }
    for (auto& node : nodes_) node->srv->Stop();
    if (coordinator_ != nullptr) coordinator_->Stop();
    // Close the LSM shards before deleting their directory.
    nodes_.clear();
    if (!dir_.empty()) env::RemoveDirRecursive(dir_);
  }

  std::unique_ptr<CoordinatorService> coordinator_;
  std::vector<std::unique_ptr<DataNode>> nodes_;
  std::string dir_;  // Storage root of tiered nodes; empty if none.
};

TEST_F(ClusterNetTest, CoordinatorRegistersRoutesAndServesNodes) {
  StartCoordinator();
  DataNode* n1 = StartNode("n1");
  DataNode* n2 = StartNode("n2");
  ASSERT_TRUE(Register(*n1).ok());
  ASSERT_TRUE(Register(*n2).ok());

  // Registration pushed routing to the data nodes (CLUSTER SETSLOTS).
  EXPECT_EQ(coordinator_->epoch(), n2->cluster->epoch());
  EXPECT_EQ(coordinator_->epoch(), n1->cluster->epoch());

  // Control-plane vocabulary over the wire.
  Client cli;
  ASSERT_TRUE(cli.Connect("127.0.0.1", coordinator_->port()).ok());
  RespValue v;
  ASSERT_TRUE(cli.Call({"CLUSTER", "EPOCH"}, &v).ok());
  EXPECT_EQ(static_cast<int64_t>(coordinator_->epoch()), v.integer);
  ASSERT_TRUE(cli.Call({"CLUSTER", "NODES"}, &v).ok());
  WireRouting parsed;
  ASSERT_TRUE(WireRouting::Parse(v.str, &parsed).ok());
  EXPECT_EQ(2u, parsed.nodes.size());
  ASSERT_TRUE(cli.Call({"CLUSTER", "ROUTE", "somekey"}, &v).ok());
  EXPECT_TRUE(v.str.rfind("n1 ", 0) == 0 || v.str.rfind("n2 ", 0) == 0)
      << v.str;
  // Duplicate registration is rejected.
  ASSERT_TRUE(cli.Call({"CLUSTER", "ADDNODE", "n1", "127.0.0.1", "1"}, &v)
                  .ok());
  EXPECT_TRUE(v.IsError());
}

TEST_F(ClusterNetTest, MisroutedKeysAnswerMoved) {
  StartCoordinator();
  DataNode* n1 = StartNode("n1");
  DataNode* n2 = StartNode("n2");
  ASSERT_TRUE(Register(*n1).ok());
  ASSERT_TRUE(Register(*n2).ok());

  // Find keys owned by each shard via the coordinator's own router.
  Router router = coordinator_->Routing().BuildRouter();
  std::string n1_key, n2_key;
  for (int i = 0; n1_key.empty() || n2_key.empty(); ++i) {
    ASSERT_LT(i, 10000);
    std::string key = "key" + std::to_string(i);
    (router.Route(key) == "n1" ? n1_key : n2_key) = key;
  }

  Client cli;
  ASSERT_TRUE(cli.Connect("127.0.0.1", n1->port()).ok());
  RespValue v;
  // Right node: executes; wrong node: -MOVED naming the owner.
  ASSERT_TRUE(cli.Call({"SET", n1_key, "v"}, &v).ok());
  EXPECT_EQ("OK", v.str);
  ASSERT_TRUE(cli.Call({"SET", n2_key, "v"}, &v).ok());
  ASSERT_TRUE(v.IsError());
  EXPECT_EQ(0u, v.str.find("MOVED ")) << v.str;
  EXPECT_NE(std::string::npos,
            v.str.find(std::to_string(n2->port())));
  EXPECT_GE(n1->cluster->moved_replies(), 1u);
  // MGET with any misrouted key is rejected the same way.
  ASSERT_TRUE(cli.Call({"MGET", n1_key, n2_key}, &v).ok());
  EXPECT_TRUE(v.IsError());
}

// A pipelined train with one misrouted command (or any write on a replica)
// runs command by command, so each command keeps its own reply.
TEST_F(ClusterNetTest, TrainsFallBackToPerCommandMovedAndReadonly) {
  StartCoordinator();
  DataNode* n1 = StartNode("n1");
  DataNode* n2 = StartNode("n2");
  DataNode* r1 = StartNode("r1");
  ASSERT_TRUE(Register(*n1).ok());
  ASSERT_TRUE(Register(*n2).ok());
  ASSERT_TRUE(Register(*r1, /*replica_of=*/"n1").ok());

  Router router = coordinator_->Routing().BuildRouter();
  std::vector<std::string> n1_keys;
  std::string n2_key;
  for (int i = 0; n1_keys.size() < 2 || n2_key.empty(); ++i) {
    ASSERT_LT(i, 10000);
    std::string key = "key" + std::to_string(i);
    if (router.Route(key) == "n1") {
      n1_keys.push_back(key);
    } else {
      n2_key = key;
    }
  }

  Client cli;
  ASSERT_TRUE(cli.Connect("127.0.0.1", n1->port()).ok());
  cli.Append({"MSET", n1_keys[0], "a", n1_keys[1], "b"});
  cli.Append({"MSET", n1_keys[0], "c", n2_key, "d"});
  cli.Append({"SET", n1_keys[1], "e"});
  cli.Append({"MGET", n1_keys[0], n1_keys[1]});
  cli.Append({"MGET", n2_key});
  cli.Append({"GET", n1_keys[1]});
  ASSERT_TRUE(cli.Flush().ok());
  RespValue v;
  ASSERT_TRUE(cli.ReadReply(&v).ok());
  EXPECT_EQ("OK", v.str);
  ASSERT_TRUE(cli.ReadReply(&v).ok());
  ASSERT_TRUE(v.IsError());
  EXPECT_EQ(0u, v.str.find("MOVED ")) << v.str;
  ASSERT_TRUE(cli.ReadReply(&v).ok());
  EXPECT_EQ("OK", v.str);
  ASSERT_TRUE(cli.ReadReply(&v).ok());
  ASSERT_EQ(RespValue::Type::kArray, v.type) << v.str;
  ASSERT_EQ(2u, v.elements.size());
  EXPECT_EQ("a", v.elements[0].str);  // The misrouted MSET wrote nothing.
  EXPECT_EQ("e", v.elements[1].str);
  ASSERT_TRUE(cli.ReadReply(&v).ok());
  ASSERT_TRUE(v.IsError());
  EXPECT_EQ(0u, v.str.find("MOVED ")) << v.str;
  ASSERT_TRUE(cli.ReadReply(&v).ok());
  EXPECT_EQ("e", v.str);

  // The replica refuses each write of a train, and still serves reads.
  ASSERT_TRUE(cli.Call({"WAIT", "1", "5000"}, &v).ok());
  EXPECT_GE(v.integer, 1) << "replica never caught up";
  Client rcli;
  ASSERT_TRUE(rcli.Connect("127.0.0.1", r1->port()).ok());
  rcli.Append({"MSET", n1_keys[0], "x"});
  rcli.Append({"SET", n1_keys[0], "y"});
  rcli.Append({"MSET", n1_keys[1], "z"});
  rcli.Append({"MGET", n1_keys[0], n1_keys[1]});
  ASSERT_TRUE(rcli.Flush().ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(rcli.ReadReply(&v).ok());
    ASSERT_TRUE(v.IsError()) << i;
    EXPECT_EQ(0u, v.str.find("READONLY")) << v.str;
  }
  ASSERT_TRUE(rcli.ReadReply(&v).ok());
  ASSERT_EQ(2u, v.elements.size()) << v.str;
  EXPECT_EQ("a", v.elements[0].str);
  EXPECT_EQ("e", v.elements[1].str);
}

TEST_F(ClusterNetTest, SmartClientRoutesAndScatterGathers) {
  StartCoordinator();
  DataNode* n1 = StartNode("n1");
  DataNode* n2 = StartNode("n2");
  ASSERT_TRUE(Register(*n1).ok());
  ASSERT_TRUE(Register(*n2).ok());
  auto client = SmartClient();

  // Point ops route per key.
  const int kKeys = 200;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(
        client->Set("k" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  // Both nodes hold a share of the keyspace.
  uint64_t n1_keys = n1->db->cache()->GetUsage().keys;
  uint64_t n2_keys = n2->db->cache()->GetUsage().keys;
  EXPECT_GT(n1_keys, 0u);
  EXPECT_GT(n2_keys, 0u);
  EXPECT_EQ(static_cast<uint64_t>(kKeys), n1_keys + n2_keys);

  // Batched reads scatter per node and stitch replies back in order.
  std::vector<std::string> key_storage;
  for (int i = 0; i < kKeys; ++i) key_storage.push_back("k" + std::to_string(i));
  std::vector<Slice> keys(key_storage.begin(), key_storage.end());
  std::vector<std::string> values;
  std::vector<Status> statuses;
  client->MultiGet(keys, &values, &statuses);
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(statuses[i].ok()) << statuses[i].ToString();
    EXPECT_EQ("v" + std::to_string(i), values[i]);
  }
  NetClusterClient::Stats stats = client->GetStats();
  EXPECT_EQ(2u, stats.node_batches.size());  // One MGET sub-batch per node.

  // Batched writes the same way; missing keys come back NotFound.
  std::vector<Slice> wkeys{keys[0], keys[1]};
  std::vector<Slice> wvalues{"x0", "x1"};
  client->MultiSet(wkeys, wvalues, &statuses);
  ASSERT_TRUE(statuses[0].ok());
  std::string value;
  ASSERT_TRUE(client->Get("k0", &value).ok());
  EXPECT_EQ("x0", value);
  EXPECT_TRUE(client->Get("nosuch", &value).IsNotFound());
  EXPECT_TRUE(client->Delete("k0").ok());
  EXPECT_TRUE(client->Get("k0", &value).IsNotFound());
}

TEST_F(ClusterNetTest, WireReplicationStreamsAndWaitAcks) {
  StartCoordinator();
  DataNode* n1 = StartNode("n1");
  DataNode* r1 = StartNode("r1");
  ASSERT_TRUE(Register(*n1).ok());
  ASSERT_TRUE(Register(*r1, /*replica_of=*/"n1").ok());
  EXPECT_TRUE(r1->cluster->is_replica());

  Client cli;
  ASSERT_TRUE(cli.Connect("127.0.0.1", n1->port()).ok());
  RespValue v;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        cli.Call({"SET", "rk" + std::to_string(i), std::to_string(i)}, &v)
            .ok());
  }
  ASSERT_TRUE(cli.Call({"DEL", "rk0"}, &v).ok());
  ASSERT_TRUE(cli.Call({"EXPIRE", "rk1", "100"}, &v).ok());
  EXPECT_EQ(1, v.integer);

  // WAIT blocks until the replica acked the master's head sequence.
  ASSERT_TRUE(cli.Call({"WAIT", "1", "5000"}, &v).ok());
  EXPECT_GE(v.integer, 1) << "replica never caught up";

  // The replica applied the stream: values present, deletes applied.
  // (The ack covers the pull; applying precedes acking, so no extra wait.)
  std::string value;
  for (int i = 1; i < 100; ++i) {
    ASSERT_TRUE(r1->db->Get("rk" + std::to_string(i), &value).ok())
        << "rk" << i;
    EXPECT_EQ(std::to_string(i), value);
  }
  EXPECT_TRUE(r1->db->Get("rk0", &value).IsNotFound());
  // TTLs replicate too (EXPIRE streams as its own op type).
  Result<uint64_t> ttl = r1->db->cache()->Ttl("rk1");
  ASSERT_TRUE(ttl.ok());
  EXPECT_GT(*ttl, 0u);

  // Replicas reject direct client writes.
  Client rcli;
  ASSERT_TRUE(rcli.Connect("127.0.0.1", r1->port()).ok());
  ASSERT_TRUE(rcli.Call({"SET", "direct", "write"}, &v).ok());
  ASSERT_TRUE(v.IsError());
  EXPECT_EQ(0u, v.str.find("READONLY")) << v.str;

  // INFO surfaces the replication link.
  ASSERT_TRUE(rcli.Call({"INFO"}, &v).ok());
  EXPECT_NE(std::string::npos, v.str.find("role:replica"));
  EXPECT_NE(std::string::npos, v.str.find("replica_lag_ops:"));
}

TEST_F(ClusterNetTest, LateReplicaFullResyncsAcrossOplogGap) {
  StartCoordinator();
  // Tiny oplog: by the time the replica attaches, seq 1 has been dropped,
  // so the first pull hits REPLGAP and the replica snapshots instead.
  DataNode* n1 = StartNode("n1", /*oplog_cap=*/8);
  ASSERT_TRUE(Register(*n1).ok());

  Client cli;
  ASSERT_TRUE(cli.Connect("127.0.0.1", n1->port()).ok());
  RespValue v;
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(
        cli.Call({"SET", "gk" + std::to_string(i), std::to_string(i)}, &v)
            .ok());
  }
  ASSERT_TRUE(cli.Call({"SET", "gkttl", "x", "EX", "100"}, &v).ok());

  DataNode* r1 = StartNode("r1", /*oplog_cap=*/8);
  ASSERT_TRUE(Register(*r1, "n1").ok());
  ASSERT_TRUE(cli.Call({"WAIT", "1", "5000"}, &v).ok());
  EXPECT_GE(v.integer, 1);
  EXPECT_GE(r1->cluster->full_resyncs(), 1u);
  EXPECT_EQ(601u, r1->db->cache()->GetUsage().keys);
  std::string value;
  ASSERT_TRUE(r1->db->Get("gk599", &value).ok());
  EXPECT_EQ("599", value);
  // Snapshot pages carry remaining TTLs: the resynced key still expires.
  Result<uint64_t> ttl = r1->db->cache()->Ttl("gkttl");
  ASSERT_TRUE(ttl.ok());
  EXPECT_GT(*ttl, 0u);
}

TEST_F(ClusterNetTest, FirstAttachAfterWritesFullResyncsThenStreams) {
  StartCoordinator();
  // Default-size oplog: the gap comes from retention starting at the first
  // REPLPULL, not from the ring bound.
  DataNode* n1 = StartNode("n1");
  ASSERT_TRUE(Register(*n1).ok());

  Client cli;
  ASSERT_TRUE(cli.Connect("127.0.0.1", n1->port()).ok());
  RespValue v;
  for (int i = 0; i < 100; ++i) {
    std::vector<std::string> args{"SET", "ak" + std::to_string(i),
                                  "v" + std::to_string(i)};
    if (i % 3 == 0) {
      args.push_back("EX");
      args.push_back("100");
    }
    ASSERT_TRUE(cli.Call(std::vector<Slice>(args.begin(), args.end()), &v)
                    .ok());
    ASSERT_EQ("OK", v.str);
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cli.Call({"DEL", "ak" + std::to_string(i * 7)}, &v).ok());
    EXPECT_EQ(1, v.integer);
  }
  EXPECT_EQ(110u, n1->cluster->oplog()->head_seq());
  EXPECT_EQ(111u, n1->cluster->oplog()->min_seq());

  DataNode* r1 = StartNode("r1");
  ASSERT_TRUE(Register(*r1, "n1").ok());
  ASSERT_TRUE(cli.Call({"WAIT", "1", "5000"}, &v).ok());
  ASSERT_GE(v.integer, 1) << "replica never caught up";
  const uint64_t resyncs = r1->cluster->full_resyncs();
  EXPECT_GE(resyncs, 1u);

  auto keys_of = [](DataNode* node) {
    std::set<std::string> keys;
    std::vector<std::string> page;
    uint64_t cursor = 0;
    do {
      page.clear();
      cursor = node->db->cache()->Scan(cursor, 64, &page);
      keys.insert(page.begin(), page.end());
    } while (cursor != 0);
    return keys;
  };
  const std::set<std::string> master_keys = keys_of(n1);
  EXPECT_EQ(90u, master_keys.size());
  EXPECT_EQ(master_keys, keys_of(r1));
  for (const std::string& key : master_keys) {
    std::string want, got;
    ASSERT_TRUE(n1->db->Get(key, &want).ok()) << key;
    ASSERT_TRUE(r1->db->Get(key, &got).ok()) << key;
    EXPECT_EQ(want, got) << key;
    Result<uint64_t> master_ttl = n1->db->cache()->Ttl(key);
    Result<uint64_t> replica_ttl = r1->db->cache()->Ttl(key);
    ASSERT_TRUE(master_ttl.ok() && replica_ttl.ok()) << key;
    // Both carry the EX 100 deadline, or neither has one; the replica's
    // was read later and shipped with the time already elapsed.
    EXPECT_EQ(*master_ttl == 0, *replica_ttl == 0) << key;
    EXPECT_LE(*replica_ttl, 100'000'000u) << key;
    if (*master_ttl != 0) {
      EXPECT_GT(*replica_ttl, 90'000'000u) << key;
    }
  }

  // Once attached, the replica streams: no further full resync.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        cli.Call({"SET", "bk" + std::to_string(i), std::to_string(i)}, &v)
            .ok());
  }
  ASSERT_TRUE(cli.Call({"WAIT", "1", "5000"}, &v).ok());
  EXPECT_GE(v.integer, 1);
  EXPECT_EQ(resyncs, r1->cluster->full_resyncs());
  std::string value;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(r1->db->Get("bk" + std::to_string(i), &value).ok()) << i;
    EXPECT_EQ(std::to_string(i), value);
  }
  EXPECT_EQ(keys_of(n1), keys_of(r1));

  // A master nobody pulls from keeps no op copies: INFO shows an empty
  // oplog (min = head + 1) after its writes.
  DataNode* n2 = StartNode("n2");
  Client cli2;
  ASSERT_TRUE(cli2.Connect("127.0.0.1", n2->port()).ok());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(cli2.Call({"SET", "ck" + std::to_string(i), "v"}, &v).ok());
  }
  ASSERT_TRUE(cli2.Call({"INFO"}, &v).ok());
  EXPECT_NE(std::string::npos, v.str.find("repl_head_seq:1000\r\n"))
      << v.str;
  EXPECT_NE(std::string::npos, v.str.find("repl_min_seq:1001\r\n"))
      << v.str;
}

TEST_F(ClusterNetTest, SnapshotNeverShipsAnExpiringKeyWithoutTtl) {
  // Every cache clock read moves time 1 us, so key deadlines pass between
  // the snapshot's Get of a key and its Ttl. Static: the node's threads
  // may read it until teardown.
  static SteppingClock clock(1000, 1);
  DataNode* n1 = StartNode("n1", 65536, /*tiered=*/false, &clock);
  constexpr uint64_t kKeys = 8;
  for (uint64_t i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(
        n1->db->cache()->SetEx("tk" + std::to_string(i), "v", 200 + i).ok());
  }
  Client cli;
  ASSERT_TRUE(cli.Connect("127.0.0.1", n1->port()).ok());
  RespValue v;
  // Page through snapshots until every key has expired. A shipped TTL of
  // 0 would tell the replica "no expiry": it would keep the key forever.
  for (int call = 0;; ++call) {
    ASSERT_LT(call, 1000);
    ASSERT_TRUE(cli.Call({"REPLSNAPSHOT", "0", "100"}, &v).ok());
    ASSERT_FALSE(v.IsError()) << v.str;
    ASSERT_EQ((v.elements.size() - 2) % 3, 0u);
    if (v.elements.size() == 2) break;
    for (size_t i = 2; i < v.elements.size(); i += 3) {
      const int64_t ttl = v.elements[i + 2].integer;
      EXPECT_GT(ttl, 0) << v.elements[i].str << ", call " << call;
      EXPECT_LE(ttl, static_cast<int64_t>(200 + kKeys))
          << v.elements[i].str << ", call " << call;
    }
  }
}

TEST_F(ClusterNetTest, FailoverPromotesReplicaAndClientsConverge) {
  StartCoordinator();
  DataNode* n1 = StartNode("n1");
  DataNode* n2 = StartNode("n2");
  DataNode* r1 = StartNode("r1");
  ASSERT_TRUE(Register(*n1).ok());
  ASSERT_TRUE(Register(*n2).ok());
  ASSERT_TRUE(Register(*r1, "n1").ok());

  auto client = SmartClient();
  const int kKeys = 100;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(
        client->Set("f" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  // Let the replica drain the stream before the kill.
  Client cli;
  ASSERT_TRUE(cli.Connect("127.0.0.1", n1->port()).ok());
  RespValue v;
  ASSERT_TRUE(cli.Call({"WAIT", "1", "5000"}, &v).ok());
  ASSERT_GE(v.integer, 1);
  cli.Close();

  const uint64_t epoch_before = coordinator_->epoch();
  const uint64_t refreshes_before = client->GetStats().route_refreshes;

  // Kill the master. The next op routed to it fails, the client reports
  // the failure, the coordinator promotes r1 and bumps the epoch, and the
  // retried op lands on the promoted replica — no client restart.
  n1->srv->Stop();
  std::string value;
  int served = 0;
  for (int i = 0; i < kKeys; ++i) {
    Status s = client->Get("f" + std::to_string(i), &value);
    if (s.ok()) {
      EXPECT_EQ("v" + std::to_string(i), value);
      ++served;
    }
  }
  // The lost-update window is bounded: every key survives because the
  // replica was caught up at kill time.
  EXPECT_EQ(kKeys, served);
  // Failover costs one routing refresh, not one per key: after the first
  // failed op the refreshed snapshot points every later read at r1.
  EXPECT_LE(client->GetStats().route_refreshes, refreshes_before + 5);
  EXPECT_GT(coordinator_->epoch(), epoch_before);
  EXPECT_EQ(1u, coordinator_->failovers());
  EXPECT_FALSE(r1->cluster->is_replica());

  // Promotion is observable via CLUSTER EPOCH and INFO role.
  Client rcli;
  ASSERT_TRUE(rcli.Connect("127.0.0.1", r1->port()).ok());
  ASSERT_TRUE(rcli.Call({"CLUSTER", "EPOCH"}, &v).ok());
  EXPECT_EQ(static_cast<int64_t>(coordinator_->epoch()), v.integer);
  ASSERT_TRUE(rcli.Call({"INFO"}, &v).ok());
  EXPECT_NE(std::string::npos, v.str.find("role:master"));

  // Writes to the shard now land on the promoted node.
  ASSERT_TRUE(client->Set("f0", "after-failover").ok());
  ASSERT_TRUE(client->Get("f0", &value).ok());
  EXPECT_EQ("after-failover", value);
}

TEST_F(ClusterNetTest, ClusterOfTieredNodes) {
  // Three write-through TierBase data nodes, each over its own LSM shard,
  // behind the coordinator and a smart client: the full Figure 3 topology.
  StartCoordinator();
  for (int n = 0; n < 3; ++n) {
    DataNode* node = StartNode("tb" + std::to_string(n), 65536,
                               /*tiered=*/true);
    ASSERT_TRUE(Register(*node).ok());
  }
  auto client = SmartClient();
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(
        client->Set("key" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  std::string value;
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE(client->Get("key" + std::to_string(i), &value).ok());
    ASSERT_EQ(value, "v" + std::to_string(i));
  }
  // Every shard's storage tier holds a share of the data.
  for (auto& node : nodes_) {
    ASSERT_TRUE(node->db->WaitIdle().ok());
    EXPECT_GT(node->storage->GetUsage().keys, 0u) << node->id;
  }
}

TEST_F(ClusterNetTest, KillMasterUnderYcsbKeepsServing) {
  StartCoordinator();
  DataNode* n1 = StartNode("n1");
  DataNode* n2 = StartNode("n2");
  DataNode* r1 = StartNode("r1");
  ASSERT_TRUE(Register(*n1).ok());
  ASSERT_TRUE(Register(*n2).ok());
  ASSERT_TRUE(Register(*r1, "n1").ok());

  auto client = SmartClient();
  workload::YcsbOptions options = workload::WorkloadA();
  options.record_count = 2000;
  options.operation_count = 6000;
  workload::RunnerOptions runner;
  runner.batch_size = 8;

  workload::RunResult load = workload::RunLoadPhase(client.get(), options,
                                                    runner);
  ASSERT_EQ(0u, load.errors);
  Client cli;
  ASSERT_TRUE(cli.Connect("127.0.0.1", n1->port()).ok());
  RespValue v;
  ASSERT_TRUE(cli.Call({"WAIT", "1", "5000"}, &v).ok());
  ASSERT_GE(v.integer, 1);
  cli.Close();

  // Kill n1 mid-run from a side thread.
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    n1->srv->Stop();
  });
  workload::RunResult run = workload::RunPhase(client.get(), options, runner);
  killer.join();

  // The run completes; ops that raced the kill are the only casualties
  // (bounded by one batch per retry budget), and service continued on the
  // promoted replica + surviving master.
  EXPECT_EQ(options.operation_count, run.ops);
  EXPECT_LT(run.errors, options.operation_count / 10);
  EXPECT_EQ(1u, coordinator_->failovers());
  EXPECT_FALSE(r1->cluster->is_replica());

  // And the cluster still serves everything afterwards.
  workload::RunResult after = workload::RunPhase(client.get(), options,
                                                 runner);
  EXPECT_EQ(0u, after.errors);
}

TEST_F(ClusterNetTest, ProxyServesNaiveClientsAndScatterGathers) {
  StartCoordinator();
  DataNode* n1 = StartNode("n1");
  DataNode* n2 = StartNode("n2");
  ASSERT_TRUE(Register(*n1).ok());
  ASSERT_TRUE(Register(*n2).ok());

  ClusterProxy::Options options;
  options.port = 0;
  // Two loops: the scatter-gather path must behave identically regardless
  // of reactor shard count.
  options.io_threads = 2;
  options.backend.coordinators.push_back(
      "127.0.0.1:" + std::to_string(coordinator_->port()));
  ClusterProxy proxy(options);
  ASSERT_TRUE(proxy.Start().ok());

  Client cli;
  ASSERT_TRUE(cli.Connect("127.0.0.1", proxy.port()).ok());
  RespValue v;
  ASSERT_TRUE(cli.Call({"PING"}, &v).ok());
  EXPECT_EQ("PONG", v.str);

  // Point ops, batch ops, and rich-type forwards, all through the proxy.
  ASSERT_TRUE(cli.Call({"SET", "pk", "pv"}, &v).ok());
  EXPECT_EQ("OK", v.str);
  ASSERT_TRUE(cli.Call({"GET", "pk"}, &v).ok());
  EXPECT_EQ("pv", v.str);
  ASSERT_TRUE(cli.Call({"MSET", "a", "1", "b", "2", "c", "3"}, &v).ok());
  EXPECT_EQ("OK", v.str);
  ASSERT_TRUE(cli.Call({"MGET", "a", "b", "c", "nope"}, &v).ok());
  ASSERT_EQ(4u, v.elements.size());
  EXPECT_EQ("1", v.elements[0].str);
  EXPECT_EQ("3", v.elements[2].str);
  EXPECT_TRUE(v.elements[3].IsNull());
  ASSERT_TRUE(cli.Call({"INCR", "counter"}, &v).ok());
  EXPECT_EQ(1, v.integer);
  ASSERT_TRUE(cli.Call({"LPUSH", "list", "x", "y"}, &v).ok());
  EXPECT_EQ(2, v.integer);
  ASSERT_TRUE(cli.Call({"LRANGE", "list", "0", "-1"}, &v).ok());
  ASSERT_EQ(2u, v.elements.size());
  ASSERT_TRUE(cli.Call({"DEL", "a", "b", "nope"}, &v).ok());
  EXPECT_EQ(2, v.integer);

  // A pipelined GET train becomes one cluster scatter–gather.
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(
        cli.Call({"SET", "pp" + std::to_string(i), std::to_string(i)}, &v)
            .ok());
  }
  for (int i = 0; i < 32; ++i) cli.Append({"GET", "pp" + std::to_string(i)});
  ASSERT_TRUE(cli.Flush().ok());
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(cli.ReadReply(&v).ok());
    EXPECT_EQ(std::to_string(i), v.str);
  }

  // INFO reports per-node routed-batch counters.
  ASSERT_TRUE(cli.Call({"INFO"}, &v).ok());
  EXPECT_NE(std::string::npos, v.str.find("routed_batches_n1:"));
  EXPECT_NE(std::string::npos, v.str.find("routed_batches_n2:"));

  // Both nodes got a share of the writes.
  EXPECT_GT(n1->db->cache()->GetUsage().keys, 0u);
  EXPECT_GT(n2->db->cache()->GetUsage().keys, 0u);

  proxy.Stop();
}

TEST_F(ClusterNetTest, ProxyTrainOfMsetsShipsOneSubBatchPerNode) {
  StartCoordinator();
  DataNode* n1 = StartNode("n1");
  DataNode* n2 = StartNode("n2");
  ASSERT_TRUE(Register(*n1).ok());
  ASSERT_TRUE(Register(*n2).ok());

  ClusterProxy::Options options;
  options.port = 0;
  options.backend.coordinators.push_back(
      "127.0.0.1:" + std::to_string(coordinator_->port()));
  ClusterProxy proxy(options);
  ASSERT_TRUE(proxy.Start().ok());

  Client cli;
  ASSERT_TRUE(cli.Connect("127.0.0.1", proxy.port()).ok());
  RespValue v;
  ASSERT_TRUE(cli.Call({"PING"}, &v).ok());
  const std::map<std::string, uint64_t> before =
      proxy.backend()->GetStats().node_batches;

  // Eight MSETs in one write, each with keys on both nodes: one train, so
  // one MSET sub-batch per node rather than eight.
  constexpr int kMsets = 8;
  for (int m = 0; m < kMsets; ++m) {
    std::vector<std::string> args = {"MSET"};
    for (int k = 0; k < 8; ++k) {
      args.push_back("t" + std::to_string(m * 8 + k));
      args.push_back(std::to_string(m));
    }
    cli.Append(std::vector<Slice>(args.begin(), args.end()));
  }
  ASSERT_TRUE(cli.Flush().ok());
  for (int m = 0; m < kMsets; ++m) {
    ASSERT_TRUE(cli.ReadReply(&v).ok());
    EXPECT_EQ("OK", v.str) << v.str;
  }
  const std::map<std::string, uint64_t> after =
      proxy.backend()->GetStats().node_batches;
  for (const char* node : {"n1", "n2"}) {
    const uint64_t had = before.count(node) ? before.at(node) : 0;
    ASSERT_TRUE(after.count(node)) << node;
    EXPECT_EQ(had + 1, after.at(node)) << node;
  }

  // The same holds for a train of MGETs, and every value came through.
  for (int m = 0; m < kMsets; ++m) {
    std::vector<std::string> args = {"MGET"};
    for (int k = 0; k < 8; ++k) args.push_back("t" + std::to_string(m * 8 + k));
    cli.Append(std::vector<Slice>(args.begin(), args.end()));
  }
  ASSERT_TRUE(cli.Flush().ok());
  for (int m = 0; m < kMsets; ++m) {
    ASSERT_TRUE(cli.ReadReply(&v).ok());
    ASSERT_EQ(8u, v.elements.size()) << v.str;
    for (const RespValue& e : v.elements) EXPECT_EQ(std::to_string(m), e.str);
  }
  const std::map<std::string, uint64_t> last =
      proxy.backend()->GetStats().node_batches;
  for (const char* node : {"n1", "n2"}) {
    EXPECT_EQ(after.at(node) + 1, last.at(node)) << node;
  }

  proxy.Stop();
}

TEST_F(ClusterNetTest, YcsbThroughProxyAndSmartClientMatchOpCounts) {
  StartCoordinator();
  DataNode* n1 = StartNode("n1");
  DataNode* n2 = StartNode("n2");
  ASSERT_TRUE(Register(*n1).ok());
  ASSERT_TRUE(Register(*n2).ok());

  ClusterProxy::Options proxy_options;
  proxy_options.port = 0;
  // Run the proxy's client side on the multi-reactor core so the YCSB
  // equivalence check also covers cross-loop accept distribution.
  proxy_options.io_threads = 2;
  proxy_options.backend.coordinators.push_back(
      "127.0.0.1:" + std::to_string(coordinator_->port()));
  ClusterProxy proxy(proxy_options);
  ASSERT_TRUE(proxy.Start().ok());

  auto smart = SmartClient();
  auto remote = server::RemoteEngine::Connect("127.0.0.1", proxy.port());
  ASSERT_TRUE(remote.ok());

  // Every standard mix, through the smart client and through the proxy,
  // must account for exactly the same op counts as in-process execution.
  for (char name : {'A', 'B', 'C', 'D', 'E', 'F'}) {
    workload::YcsbOptions options;
    ASSERT_TRUE(workload::WorkloadByName(name, &options));
    options.record_count = 300;
    options.operation_count = 400;
    options.dataset.num_records = 300;
    workload::RunnerOptions runner;
    runner.batch_size = (name == 'A') ? 8 : 1;  // Exercise scatter-gather.

    TierBaseOptions local_options;
    local_options.cache.shards = 4;
    auto local = TierBase::Open(local_options, nullptr);
    ASSERT_TRUE(local.ok());
    workload::RunResult local_load =
        workload::RunLoadPhase(local->get(), options, runner);
    workload::RunResult local_run =
        workload::RunPhase(local->get(), options, runner);

    workload::RunResult smart_load =
        workload::RunLoadPhase(smart.get(), options, runner);
    workload::RunResult smart_run =
        workload::RunPhase(smart.get(), options, runner);
    EXPECT_EQ(local_load.ops, smart_load.ops) << "workload " << name;
    EXPECT_EQ(local_run.ops, smart_run.ops) << "workload " << name;
    EXPECT_EQ(0u, smart_load.errors + smart_run.errors)
        << "workload " << name;

    workload::RunResult proxy_load =
        workload::RunLoadPhase(remote->get(), options, runner);
    workload::RunResult proxy_run =
        workload::RunPhase(remote->get(), options, runner);
    EXPECT_EQ(local_load.ops, proxy_load.ops) << "workload " << name;
    EXPECT_EQ(local_run.ops, proxy_run.ops) << "workload " << name;
    EXPECT_EQ(0u, proxy_load.errors + proxy_run.errors)
        << "workload " << name;
  }

  proxy.Stop();
}

// ---------------------------------------------------------------------------
// Telemetry: every cluster binary's INFO parses and its counters move.
// ---------------------------------------------------------------------------

/// Parses an INFO body into section -> key -> value.
std::map<std::string, std::map<std::string, std::string>> ParseInfo(
    const std::string& body) {
  std::map<std::string, std::map<std::string, std::string>> out;
  std::string section;
  size_t pos = 0;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line[0] == '#') {
      section = line.substr(line.find_first_not_of("# "));
      continue;
    }
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    out[section][line.substr(0, colon)] = line.substr(colon + 1);
  }
  return out;
}

// A lone smart-client Get, Set and Delete each reach the owning node as its
// own verb, never as an MGET or MSET of one key.
TEST_F(ClusterNetTest, SmartClientSingleKeyOpsSendTheirOwnVerbs) {
  StartCoordinator();
  DataNode* n1 = StartNode("n1");
  DataNode* n2 = StartNode("n2");
  ASSERT_TRUE(Register(*n1).ok());
  ASSERT_TRUE(Register(*n2).ok());
  auto client = SmartClient();

  // A node's cmd_<verb>_latency_us sample counts, from its INFO.
  auto counts = [](const DataNode& node) {
    Client cli;
    EXPECT_TRUE(cli.Connect("127.0.0.1", node.port()).ok());
    RespValue v;
    EXPECT_TRUE(cli.Call({"INFO"}, &v).ok());
    auto info = ParseInfo(v.str);
    std::map<std::string, uint64_t> out;
    for (const char* verb : {"get", "set", "del", "mget", "mset"}) {
      const std::string& row =
          info["Commandstats"][std::string("cmd_") + verb + "_latency_us"];
      out[verb] = row.rfind("cnt=", 0) == 0 ? std::stoull(row.substr(4)) : 0;
    }
    return out;
  };

  const auto n1_before = counts(*n1);
  const auto n2_before = counts(*n2);
  ASSERT_TRUE(client->Set("lone", "v").ok());
  DataNode* owner = n1->db->cache()->Exists("lone") ? n1 : n2;
  DataNode* other = owner == n1 ? n2 : n1;
  auto expected = owner == n1 ? n1_before : n2_before;
  ++expected["set"];
  EXPECT_EQ(expected, counts(*owner));
  EXPECT_EQ(other == n1 ? n1_before : n2_before, counts(*other));

  std::string value;
  ASSERT_TRUE(client->Get("lone", &value).ok());
  EXPECT_EQ("v", value);
  ++expected["get"];
  EXPECT_EQ(expected, counts(*owner));

  ASSERT_TRUE(client->Delete("lone").ok());
  ++expected["del"];
  EXPECT_EQ(expected, counts(*owner));
  EXPECT_FALSE(owner->db->cache()->Exists("lone"));
}

TEST_F(ClusterNetTest, ProxyAndCoordinatorInfoParseWithLiveCounters) {
  StartCoordinator();
  DataNode* n1 = StartNode("n1");
  DataNode* n2 = StartNode("n2");
  ASSERT_TRUE(Register(*n1).ok());
  ASSERT_TRUE(Register(*n2).ok());

  ClusterProxy::Options options;
  options.port = 0;
  options.backend.coordinators.push_back(
      "127.0.0.1:" + std::to_string(coordinator_->port()));
  ClusterProxy proxy(options);
  ASSERT_TRUE(proxy.Start().ok());

  Client cli;
  ASSERT_TRUE(cli.Connect("127.0.0.1", proxy.port()).ok());
  RespValue v;
  ASSERT_TRUE(cli.Call({"INFO"}, &v).ok());
  ASSERT_EQ(RespValue::Type::kBulkString, v.type);
  auto info = ParseInfo(v.str);
  for (const char* section :
       {"Server", "Stats", "Commandstats", "Cluster", "Robustness"}) {
    EXPECT_TRUE(info.count(section)) << "missing section " << section;
  }
  for (const char* key : {"total_commands_processed", "dispatch_batches",
                          "coalesced_commands"}) {
    ASSERT_TRUE(info["Stats"].count(key)) << key;
  }
  ASSERT_TRUE(info["Server"].count("connected_clients"));
  ASSERT_TRUE(info["Commandstats"].count("cmd_get_latency_us"));
  EXPECT_TRUE(info["Cluster"].count("route_refreshes"));
  EXPECT_TRUE(info["Robustness"].count("backoff_waits"));
  const uint64_t commands_before =
      std::stoull(info["Stats"]["total_commands_processed"]);

  // Drive a scatter-gather train; the GET histogram and the command
  // counter must both see it.
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(
        cli.Call({"SET", "ti" + std::to_string(i), "v"}, &v).ok());
  }
  for (int i = 0; i < 16; ++i) cli.Append({"GET", "ti" + std::to_string(i)});
  ASSERT_TRUE(cli.Flush().ok());
  for (int i = 0; i < 16; ++i) ASSERT_TRUE(cli.ReadReply(&v).ok());

  ASSERT_TRUE(cli.Call({"INFO"}, &v).ok());
  auto after = ParseInfo(v.str);
  EXPECT_GE(std::stoull(after["Stats"]["total_commands_processed"]),
            commands_before + 32);
  EXPECT_EQ(0u, after["Commandstats"]["cmd_get_latency_us"].find("cnt="));
  EXPECT_NE("cnt=0,", after["Commandstats"]["cmd_get_latency_us"].substr(0, 6));

  // The proxy's Prometheus exposition carries the same instruments.
  ASSERT_TRUE(cli.Call({"METRICS"}, &v).ok());
  ASSERT_EQ(RespValue::Type::kBulkString, v.type);
  EXPECT_NE(std::string::npos,
            v.str.find("tierbase_total_commands_processed "));
  EXPECT_NE(std::string::npos,
            v.str.find("# TYPE tierbase_cmd_get_latency_us histogram"));
  EXPECT_NE(std::string::npos,
            v.str.find("tierbase_cmd_get_latency_us_count "));

  // The coordinator speaks the same surface on its control port.
  Client coord;
  ASSERT_TRUE(coord.Connect("127.0.0.1", coordinator_->port()).ok());
  ASSERT_TRUE(coord.Call({"INFO"}, &v).ok());
  ASSERT_EQ(RespValue::Type::kBulkString, v.type);
  auto cinfo = ParseInfo(v.str);
  ASSERT_TRUE(cinfo.count("Coordinator"));
  for (const char* key : {"cluster_epoch", "known_nodes", "failovers",
                          "probes_sent", "probe_failures"}) {
    ASSERT_TRUE(cinfo["Coordinator"].count(key)) << key;
  }
  EXPECT_EQ("2", cinfo["Coordinator"]["known_nodes"]);
  EXPECT_GE(std::stoull(cinfo["Coordinator"]["cluster_epoch"]), 1u);
  ASSERT_TRUE(coord.Call({"METRICS"}, &v).ok());
  EXPECT_NE(std::string::npos, v.str.find("tierbase_cluster_epoch "));
  EXPECT_NE(std::string::npos,
            v.str.find("# TYPE tierbase_known_nodes gauge"));

  proxy.Stop();
}

/// Count of `key`'s latency histogram in a server's own registry.
uint64_t HistogramCount(server::Server* srv, const std::string& key) {
  metrics::LatencyHistogram* hist =
      srv->commands()->registry()->FindHistogram(key);
  return hist == nullptr ? 0 : hist->Snapshot().Count();
}

TEST_F(ClusterNetTest, ProxyServesItsOwnVerbSetThroughTheCommandTable) {
  StartCoordinator();
  DataNode* n1 = StartNode("n1");
  DataNode* n2 = StartNode("n2");
  ASSERT_TRUE(Register(*n1).ok());
  ASSERT_TRUE(Register(*n2).ok());

  ClusterProxy::Options options;
  options.port = 0;
  options.backend.coordinators.push_back(
      "127.0.0.1:" + std::to_string(coordinator_->port()));
  ClusterProxy proxy(options);
  ASSERT_TRUE(proxy.Start().ok());

  Router router = coordinator_->Routing().BuildRouter();
  std::string n1_key, n2_key;
  for (int i = 0; n1_key.empty() || n2_key.empty(); ++i) {
    ASSERT_LT(i, 10000);
    std::string key = "key" + std::to_string(i);
    (router.Route(key) == "n1" ? n1_key : n2_key) = key;
  }

  Client cli;
  ASSERT_TRUE(cli.Connect("127.0.0.1", proxy.port()).ok());
  RespValue v;
  ASSERT_TRUE(cli.Call({"SET", n1_key, "1"}, &v).ok());
  ASSERT_TRUE(cli.Call({"SET", n2_key, "2"}, &v).ok());

  // EXISTS across nodes fans out per key: no stale-route retries.
  const uint64_t moved_before = proxy.backend()->GetStats().moved_redirects;
  ASSERT_TRUE(cli.Call({"EXISTS", n1_key, n2_key, "absent"}, &v).ok());
  ASSERT_EQ(RespValue::Type::kInteger, v.type) << v.str;
  EXPECT_EQ(2, v.integer);
  EXPECT_EQ(moved_before, proxy.backend()->GetStats().moved_redirects);

  // Arity is checked at the proxy with the node's text.
  ASSERT_TRUE(cli.Call({"GET"}, &v).ok());
  ASSERT_TRUE(v.IsError());
  EXPECT_EQ("ERR wrong number of arguments for 'get' command", v.str);

  // Node-local verbs are not forwarded by args[1].
  const uint64_t epoch = coordinator_->epoch();
  for (std::vector<Slice> args : std::vector<std::vector<Slice>>{
           {"SCAN", "0"}, {"WAIT", "0", "10"}, {"REPLICAOF", "NO", "ONE"}}) {
    ASSERT_TRUE(cli.Call(args, &v).ok());
    ASSERT_TRUE(v.IsError()) << args[0].ToString();
    EXPECT_EQ(0u, v.str.find("ERR unknown command '")) << v.str;
  }
  EXPECT_EQ(epoch, coordinator_->epoch());
  EXPECT_EQ(epoch, n1->cluster->epoch());
  EXPECT_FALSE(n1->cluster->is_replica());
  EXPECT_FALSE(n2->cluster->is_replica());

  // PERF traces a GET train through the cluster client's fan-out.
  ASSERT_TRUE(cli.Call({"PERF", "ON"}, &v).ok());
  EXPECT_EQ("OK", v.str);
  const int kTrain = 16;
  for (int i = 0; i < kTrain; ++i) cli.Append({"GET", i % 2 ? n1_key : n2_key});
  ASSERT_TRUE(cli.Flush().ok());
  for (int i = 0; i < kTrain; ++i) {
    ASSERT_TRUE(cli.ReadReply(&v).ok());
    EXPECT_EQ(i % 2 ? "1" : "2", v.str);
  }
  ASSERT_TRUE(cli.Call({"PERF", "GET"}, &v).ok());
  const size_t at = v.str.find("net_fanout_calls:");
  ASSERT_NE(std::string::npos, at) << v.str;
  EXPECT_GT(std::stoull(v.str.substr(at + strlen("net_fanout_calls:"))), 0u);

  // SLOWLOG and LATENCY come from the proxy's own table: its GET histogram
  // counts every GET sent here (the wrong-arity one and the train), and no
  // node sees either verb.
  ASSERT_TRUE(cli.Call({"LATENCY", "HISTOGRAM", "get"}, &v).ok());
  ASSERT_EQ(2u, v.elements.size()) << v.str;
  EXPECT_EQ("cmd_get_latency_us", v.elements[0].str);
  EXPECT_EQ(0u, v.elements[1].str.find("cnt=" + std::to_string(kTrain + 1) +
                                       ","))
      << v.elements[1].str;
  ASSERT_TRUE(cli.Call({"SLOWLOG", "LEN"}, &v).ok());
  ASSERT_EQ(RespValue::Type::kInteger, v.type) << v.str;
  const int64_t slowlog_len = v.integer;
  ASSERT_TRUE(cli.Call({"INFO"}, &v).ok());
  auto info = ParseInfo(v.str);
  ASSERT_TRUE(info["Keyspace"].count("slowlog_len"));
  EXPECT_EQ(std::to_string(slowlog_len), info["Keyspace"]["slowlog_len"]);
  for (DataNode* node : {n1, n2}) {
    EXPECT_EQ(0u, HistogramCount(node->srv.get(), "cmd_slowlog_latency_us"));
    EXPECT_EQ(0u, HistogramCount(node->srv.get(), "cmd_latency_latency_us"));
  }

  proxy.Stop();
}

TEST_F(ClusterNetTest, ProxyThatFailsToListenKeepsNoBackend) {
  StartCoordinator();
  DataNode* n1 = StartNode("n1");
  ASSERT_TRUE(Register(*n1).ok());

  ClusterProxy::Options options;
  options.port = n1->port();  // Already bound by the node.
  options.backend.coordinators.push_back(
      "127.0.0.1:" + std::to_string(coordinator_->port()));
  ClusterProxy proxy(options);
  EXPECT_FALSE(proxy.Start().ok());
  EXPECT_EQ(nullptr, proxy.backend());
}

TEST_F(ClusterNetTest, CoordinatorRejectsJunkAddNodePorts) {
  StartCoordinator();
  DataNode* n1 = StartNode("n1");
  ASSERT_TRUE(Register(*n1).ok());
  const uint64_t epoch = coordinator_->epoch();

  Client coord;
  ASSERT_TRUE(coord.Connect("127.0.0.1", coordinator_->port()).ok());
  RespValue v;
  for (const char* port : {"6390abc", " 6390", "0", "65536"}) {
    ASSERT_TRUE(
        coord.Call({"CLUSTER", "ADDNODE", "n9", "127.0.0.1", port}, &v).ok());
    ASSERT_TRUE(v.IsError()) << "port '" << port << "'";
    EXPECT_EQ("ERR invalid node port", v.str);
  }
  EXPECT_EQ(epoch, coordinator_->epoch());
  EXPECT_EQ(1u, coordinator_->Routing().nodes.size());

  // PING is the shared built-in: it echoes its argument.
  ASSERT_TRUE(coord.Call({"PING", "hello"}, &v).ok());
  EXPECT_EQ("hello", v.str);
}

}  // namespace
}  // namespace cluster_net
}  // namespace tierbase
