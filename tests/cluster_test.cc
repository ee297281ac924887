// Tests for the consistent-hash router (src/cluster_net/router.h): ring
// placement, determinism, virtual-node balance, and how keys move when a
// routing snapshot marks a shard down.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster_net/router.h"
#include "cluster_net/routing.h"

namespace tierbase {
namespace cluster_net {
namespace {

/// A routing snapshot of masters `up` (healthy) and `down` (failed, no
/// replica promoted): the wire stack's only way to drop a shard.
WireRouting Snapshot(uint64_t epoch, int vnodes,
                     const std::vector<std::string>& up,
                     const std::vector<std::string>& down = {}) {
  WireRouting routing;
  routing.epoch = epoch;
  routing.virtual_nodes = vnodes;
  uint16_t port = 7000;
  for (const std::string& id : up) {
    routing.nodes.push_back({id, "127.0.0.1", ++port, false, id, true});
  }
  for (const std::string& id : down) {
    routing.nodes.push_back({id, "127.0.0.1", ++port, false, id, false});
  }
  return routing;
}

TEST(RouterTest, EmptyRingRoutesNowhere) {
  Router router;
  EXPECT_EQ(router.Route("key"), "");
  EXPECT_TRUE(router.OwnershipShares().empty());
}

TEST(RouterTest, SingleInstanceOwnsEverything) {
  Router router;
  router.AddInstance("only");
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(router.Route("key" + std::to_string(i)), "only");
  }
}

TEST(RouterTest, RoutingIsDeterministic) {
  Router a, b;
  for (const char* id : {"n1", "n2", "n3"}) {
    a.AddInstance(id);
    b.AddInstance(id);
  }
  for (int i = 0; i < 200; ++i) {
    std::string key = "key" + std::to_string(i);
    EXPECT_EQ(a.Route(key), b.Route(key));
  }
}

TEST(RouterTest, LoadIsRoughlyBalanced) {
  Router router(128);
  for (int n = 0; n < 4; ++n) router.AddInstance("node" + std::to_string(n));
  std::map<std::string, int> counts;
  for (int i = 0; i < 40000; ++i) {
    ++counts[router.Route("key" + std::to_string(i))];
  }
  for (const auto& [id, count] : counts) {
    // Each of 4 nodes expects 10000; virtual nodes keep it within ~2x.
    EXPECT_GT(count, 5000) << id;
    EXPECT_LT(count, 20000) << id;
  }
  auto shares = router.OwnershipShares();
  double total = 0;
  for (const auto& [id, share] : shares) total += share;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(RouterTest, DuplicateAddIsNoop) {
  // A ring built a, b, a must be the ring built a, b: a second add that
  // inserted extra points would tilt ownership toward "a" (about 2/3).
  Router once, twice;
  once.AddInstance("a");
  once.AddInstance("b");
  twice.AddInstance("a");
  twice.AddInstance("b");
  twice.AddInstance("a");
  auto once_shares = once.OwnershipShares();
  auto twice_shares = twice.OwnershipShares();
  ASSERT_EQ(2u, twice_shares.size());
  for (const char* id : {"a", "b"}) {
    EXPECT_DOUBLE_EQ(once_shares[id], twice_shares[id]) << id;
  }
  for (int i = 0; i < 5000; ++i) {
    std::string key = "key" + std::to_string(i);
    EXPECT_EQ(once.Route(key), twice.Route(key)) << key;
  }
}

TEST(RouterTest, VirtualNodesBoundOwnershipSkew) {
  // With 128 vnodes per instance, no instance's uniform-keyspace share may
  // stray past 2x from the fair 1/4 — the even-sharding tolerance the
  // scatter-gather batch split relies on for balanced sub-batches.
  Router router(128);
  for (int n = 0; n < 4; ++n) router.AddInstance("node" + std::to_string(n));
  auto shares = router.OwnershipShares();
  ASSERT_EQ(4u, shares.size());
  double min_share = 1.0, max_share = 0.0;
  for (const auto& [id, share] : shares) {
    min_share = std::min(min_share, share);
    max_share = std::max(max_share, share);
  }
  EXPECT_GT(min_share, 0.25 / 2);
  EXPECT_LT(max_share, 0.25 * 2);
  EXPECT_LT(max_share / min_share, 3.0);
}

TEST(RouterTest, StaleSnapshotStillRoutesToDownShard) {
  // A client holding the previous epoch's snapshot keeps routing to a
  // shard that has since gone down — exactly what produces failed
  // connects / -MOVED until the epoch-bump refresh.
  WireRouting stale = Snapshot(1, 64, {"n1", "n2"});
  Router stale_router = stale.BuildRouter();
  std::string n1_key;
  for (int i = 0; n1_key.empty(); ++i) {
    ASSERT_LT(i, 10000);
    std::string key = "key" + std::to_string(i);
    if (stale_router.Route(key) == "n1") n1_key = key;
  }

  WireRouting fresh = Snapshot(2, 64, {"n2"}, {"n1"});
  EXPECT_EQ("n1", stale_router.Route(n1_key));
  EXPECT_GT(fresh.epoch, stale.epoch);
  EXPECT_EQ("n2", fresh.BuildRouter().Route(n1_key));
}

TEST(RouterTest, DownShardKeysFallToSuccessorsOnly) {
  Router before = Snapshot(1, 64, {"a", "b", "c", "d"}).BuildRouter();
  Router after = Snapshot(2, 64, {"a", "c", "d"}, {"b"}).BuildRouter();
  int moved = 0;
  for (int i = 0; i < 5000; ++i) {
    std::string key = "key" + std::to_string(i);
    std::string owner = before.Route(key);
    std::string now = after.Route(key);
    if (owner == "b") {
      EXPECT_NE("b", now);
      ++moved;
    } else {
      // Consistent hashing: keys on surviving shards must not remap.
      EXPECT_EQ(owner, now) << key;
    }
  }
  EXPECT_GT(moved, 0);
}

TEST(RouterTest, SingleShardRingSurvivesOthersGoingDown) {
  // Shrinking to one shard must leave it owning everything (the degenerate
  // ring the cluster passes through during rolling kills).
  Router one = Snapshot(3, 64, {"a"}, {"b"}).BuildRouter();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ("a", one.Route("key" + std::to_string(i)));
  }
  EXPECT_EQ("", Snapshot(4, 64, {}, {"a", "b"}).BuildRouter().Route("key"));
}

}  // namespace
}  // namespace cluster_net
}  // namespace tierbase
