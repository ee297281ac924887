#include "cluster_net/router.h"

#include "common/hash.h"

namespace tierbase::cluster_net {

Router::Router(int virtual_nodes_per_instance)
    : virtual_nodes_(virtual_nodes_per_instance < 1
                         ? 1
                         : virtual_nodes_per_instance) {}

void Router::AddInstance(const std::string& instance_id) {
  // A repeated add hashes to the same points, which emplace leaves as-is.
  for (int v = 0; v < virtual_nodes_; ++v) {
    std::string point = instance_id + "#" + std::to_string(v);
    ring_.emplace(Hash64(point.data(), point.size()), instance_id);
  }
}

std::string Router::Route(const Slice& key) const {
  if (ring_.empty()) return {};
  uint64_t h = Hash64(key);
  auto it = ring_.lower_bound(h);
  if (it == ring_.end()) it = ring_.begin();  // Wrap around the ring.
  return it->second;
}

std::map<std::string, double> Router::OwnershipShares() const {
  std::map<std::string, double> shares;
  if (ring_.empty()) return shares;
  // Each ring point owns the arc from the previous point (exclusive) to
  // itself (inclusive); the first point also owns the wrap-around arc.
  const double full = 18446744073709551616.0;  // 2^64.
  uint64_t prev = ring_.rbegin()->first;
  for (const auto& [point, id] : ring_) {
    uint64_t arc = point - prev;  // Unsigned wrap-around is intentional.
    shares[id] += static_cast<double>(arc) / full;
    prev = point;
  }
  return shares;
}

}  // namespace tierbase::cluster_net
