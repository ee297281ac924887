#include "cluster_net/routing.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

namespace tierbase::cluster_net {

namespace {

/// Parses "epoch:<n> vnodes:<v>". strtoull/strtol report overflow (sscanf's
/// %d would be undefined behaviour on it), and vnodes must lie in
/// [1, kMaxVirtualNodes].
bool ParseHeader(const std::string& line, uint64_t* epoch, int* vnodes) {
  const char* p = line.c_str();
  if (strncmp(p, "epoch:", 6) != 0 ||
      !isdigit(static_cast<unsigned char>(p[6]))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  unsigned long long e = strtoull(p + 6, &end, 10);
  if (errno == ERANGE || strncmp(end, " vnodes:", 8) != 0) return false;
  p = end + 8;
  if (!isdigit(static_cast<unsigned char>(*p))) return false;
  long v = strtol(p, &end, 10);
  if (errno == ERANGE || v < 1 || v > WireRouting::kMaxVirtualNodes ||
      (*end != '\0' && !isspace(static_cast<unsigned char>(*end)))) {
    return false;
  }
  *epoch = e;
  *vnodes = static_cast<int>(v);
  return true;
}

}  // namespace

std::string WireRouting::Serialize() const {
  std::string out;
  char header[64];
  snprintf(header, sizeof(header), "epoch:%llu vnodes:%d\n",
           static_cast<unsigned long long>(epoch), virtual_nodes);
  out += header;
  for (const NodeRecord& n : nodes) {
    out += n.id;
    out += ' ';
    out += n.endpoint();
    out += ' ';
    out += n.is_replica ? "replica" : "master";
    out += ' ';
    out += n.shard;
    out += ' ';
    out += n.healthy ? "up" : "down";
    out += '\n';
  }
  return out;
}

Status WireRouting::Parse(const std::string& text, WireRouting* out) {
  *out = WireRouting();
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line)) {
    return Status::Corruption("empty routing payload");
  }
  if (!ParseHeader(line, &out->epoch, &out->virtual_nodes)) {
    return Status::Corruption("bad routing header: " + line);
  }
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    NodeRecord rec;
    std::string endpoint, role, health;
    if (!(fields >> rec.id >> endpoint >> role >> rec.shard >> health)) {
      return Status::Corruption("bad routing line: " + line);
    }
    size_t colon = endpoint.rfind(':');
    if (colon == std::string::npos || colon == 0) {
      return Status::Corruption("bad endpoint: " + endpoint);
    }
    rec.host = endpoint.substr(0, colon);
    unsigned long port = strtoul(endpoint.c_str() + colon + 1, nullptr, 10);
    if (port == 0 || port > 65535) {
      return Status::Corruption("bad port in endpoint: " + endpoint);
    }
    rec.port = static_cast<uint16_t>(port);
    if (role == "replica") {
      rec.is_replica = true;
    } else if (role != "master") {
      return Status::Corruption("bad role: " + role);
    }
    if (health == "down") {
      rec.healthy = false;
    } else if (health != "up") {
      return Status::Corruption("bad health: " + health);
    }
    out->nodes.push_back(std::move(rec));
  }
  return Status::OK();
}

Router WireRouting::BuildRouter() const {
  Router router(virtual_nodes);
  for (const NodeRecord& n : nodes) {
    if (!n.is_replica && n.healthy) router.AddInstance(n.shard);
  }
  return router;
}

const NodeRecord* WireRouting::FindNode(const std::string& id) const {
  for (const NodeRecord& n : nodes) {
    if (n.id == id) return &n;
  }
  return nullptr;
}

const NodeRecord* WireRouting::MasterOfShard(const std::string& shard) const {
  for (const NodeRecord& n : nodes) {
    if (!n.is_replica && n.healthy && n.shard == shard) return &n;
  }
  return nullptr;
}

const NodeRecord* WireRouting::ReplicaOfShard(const std::string& shard) const {
  for (const NodeRecord& n : nodes) {
    if (n.is_replica && n.healthy && n.shard == shard) return &n;
  }
  return nullptr;
}

}  // namespace tierbase::cluster_net
