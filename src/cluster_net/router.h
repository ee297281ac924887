// Router: consistent-hash ring mapping keys to shard ids (§3 "client
// tier" / "cache tier" sharding). Virtual nodes smooth the key distribution
// so that adding or dropping one shard only remaps ~1/N of the keyspace,
// matching the even-sharding assumption of the cost model (Definition 1).
//
// Routers are built from a WireRouting snapshot (WireRouting::BuildRouter)
// and never mutated afterwards: a node leaves the ring by being marked
// down in the next epoch's snapshot, not by removal from a live Router.

#ifndef TIERBASE_CLUSTER_NET_ROUTER_H_
#define TIERBASE_CLUSTER_NET_ROUTER_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/slice.h"

namespace tierbase::cluster_net {

class Router {
 public:
  explicit Router(int virtual_nodes_per_instance = 64);

  /// Adds `instance_id` to the ring; no-op if already present.
  void AddInstance(const std::string& instance_id);

  /// Returns the owning instance id, or empty string if the ring is empty.
  std::string Route(const Slice& key) const;

  /// Fraction of a uniform keyspace owned by each instance (diagnostics for
  /// the even-sharding tolerance ratios of §2.1).
  std::map<std::string, double> OwnershipShares() const;

 private:
  int virtual_nodes_;
  // hash point -> instance id.
  std::map<uint64_t, std::string> ring_;
};

}  // namespace tierbase::cluster_net

#endif  // TIERBASE_CLUSTER_NET_ROUTER_H_
