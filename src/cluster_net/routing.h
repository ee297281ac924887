// Wire routing table for the networked cluster (§3: the coordinator
// cluster owns the routing table; clients pull refreshed snapshots on
// epoch bumps).
//
// The ring hashes *shard* identities, not physical endpoints: a shard is
// born with its first master's id and keeps that identity across
// failovers, so promoting a replica repoints the shard's endpoint without
// remapping any keys (the consistent-hash positions are unchanged). Every
// participant — coordinator, data node, smart client, proxy — builds its
// Router from the same serialized node list, so all of them agree on key
// ownership at a given epoch.
//
// The serialization doubles as the CLUSTER NODES reply and as the payload
// the coordinator pushes to data nodes via CLUSTER SETSLOTS.

#ifndef TIERBASE_CLUSTER_NET_ROUTING_H_
#define TIERBASE_CLUSTER_NET_ROUTING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cluster_net/router.h"
#include "common/status.h"

namespace tierbase::cluster_net {

struct NodeRecord {
  std::string id;      // Unique per process ("n1", "r1", ...).
  std::string host;
  uint16_t port = 0;
  bool is_replica = false;
  std::string shard;   // Shard served; == id for a shard's first master.
  bool healthy = true;

  std::string endpoint() const { return host + ":" + std::to_string(port); }
};

struct WireRouting {
  /// Upper bound on virtual_nodes. Parse rejects larger values: the field
  /// arrives off the wire, and every BuildRouter inserts that many ring
  /// points per shard.
  static constexpr int kMaxVirtualNodes = 4096;

  uint64_t epoch = 0;
  int virtual_nodes = 64;
  std::vector<NodeRecord> nodes;

  /// Text form:
  ///   epoch:<n> vnodes:<v>
  ///   <id> <host>:<port> <master|replica> <shard> <up|down>
  std::string Serialize() const;
  static Status Parse(const std::string& text, WireRouting* out);

  /// Ring over every shard that currently has a healthy master.
  Router BuildRouter() const;

  const NodeRecord* FindNode(const std::string& id) const;
  /// The healthy master serving `shard`, or nullptr while failed over.
  const NodeRecord* MasterOfShard(const std::string& shard) const;
  /// A healthy replica of `shard` (promotion candidate), or nullptr.
  const NodeRecord* ReplicaOfShard(const std::string& shard) const;
};

}  // namespace tierbase::cluster_net

#endif  // TIERBASE_CLUSTER_NET_ROUTING_H_
