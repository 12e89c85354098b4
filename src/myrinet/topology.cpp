#include "vmmc/myrinet/topology.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace vmmc::myrinet {

namespace {

Status Wire(Status st) {
  // Topology builders own the port bookkeeping; a wiring conflict is a
  // builder bug, not a user error, but surface it as a Status anyway so
  // callers see which shape failed.
  return st;
}

Result<TopologyPlan> BuildFatTree(Fabric& fabric, const TopologyConfig& cfg) {
  const int p = cfg.switch_ports;
  const int down = p / 2;    // NIC slots per leaf
  const int spines = p / 2;  // one uplink per spine from every leaf
  const int leaves = (cfg.num_nodes + down - 1) / down;
  // A spine has p ports, one per leaf, so the tree caps at p leaves:
  // (p/2) * p nodes total.
  if (leaves > p) {
    return InvalidArgument("fat tree of " + std::to_string(p) +
                           "-port switches caps at " +
                           std::to_string(down * p) + " nodes");
  }
  // Leaves get ids 0..leaves-1, spines leaves..leaves+spines-1.
  for (int l = 0; l < leaves; ++l) fabric.AddSwitch(p);
  for (int s = 0; s < spines; ++s) fabric.AddSwitch(p);
  for (int l = 0; l < leaves; ++l) {
    for (int s = 0; s < spines; ++s) {
      // Leaf l uplink port (down + s) <-> spine s port l.
      Status st = Wire(fabric.ConnectSwitches(l, down + s, leaves + s, l));
      if (!st.ok()) return st;
    }
  }

  // Dispersive deterministic routing: inter-leaf traffic for (src, dst)
  // always climbs to spine (src + dst) % spines. Symmetric (the reply
  // uses the same spine), independent of BFS tie-breaking, and spreads a
  // permutation's flows across all spines.
  fabric.SetRouteOracle([down, spines](int src, int dst) -> Result<Route> {
    const int src_leaf = src / down;
    const int dst_leaf = dst / down;
    const auto dst_port = static_cast<std::uint8_t>(dst % down);
    if (src_leaf == dst_leaf) return Route{dst_port};
    const int spine = (src + dst) % spines;
    const std::uint8_t hops[] = {static_cast<std::uint8_t>(down + spine),
                                 static_cast<std::uint8_t>(dst_leaf), dst_port};
    return Route::FromBytes(hops);
  });

  TopologyPlan plan;
  for (int n = 0; n < cfg.num_nodes; ++n) {
    plan.nic_slots.push_back({n / down, n % down});
  }
  return plan;
}

Result<TopologyPlan> BuildChainOrRing(Fabric& fabric, const TopologyConfig& cfg,
                                      bool ring) {
  const int p = cfg.switch_ports;
  const int per = p - 2;  // ports p-2 (to next) and p-1 (to previous) reserved
  if (per < 1) return InvalidArgument("need at least 3 ports per switch");
  int count = cfg.num_switches;
  if (count == 0) count = (cfg.num_nodes + per - 1) / per;
  count = std::max(count, 1);
  if (count * per < cfg.num_nodes) {
    return InvalidArgument("chain/ring of " + std::to_string(count) +
                           " switches holds only " +
                           std::to_string(count * per) + " nodes");
  }
  for (int s = 0; s < count; ++s) fabric.AddSwitch(p);
  for (int s = 0; s + 1 < count; ++s) {
    Status st = Wire(fabric.ConnectSwitches(s, p - 2, s + 1, p - 1));
    if (!st.ok()) return st;
  }
  if (ring && count > 1) {
    // Close the cycle; BFS then routes the shorter way around.
    Status st = Wire(fabric.ConnectSwitches(count - 1, p - 2, 0, p - 1));
    if (!st.ok()) return st;
  }
  TopologyPlan plan;
  for (int n = 0; n < cfg.num_nodes; ++n) {
    plan.nic_slots.push_back({n / per, n % per});
  }
  return plan;
}

Result<TopologyPlan> BuildMesh(Fabric& fabric, const TopologyConfig& cfg) {
  const int p = cfg.switch_ports;
  const int per = p - 4;  // four ports for the N/E/S/W neighbors
  if (per < 1) return InvalidArgument("mesh needs at least 5 ports per switch");
  int rows = cfg.mesh_rows;
  int cols = cfg.mesh_cols;
  if (rows == 0 || cols == 0) {
    const int switches =
        std::max(1, (cfg.num_nodes + per - 1) / per);
    rows = static_cast<int>(std::sqrt(static_cast<double>(switches)));
    rows = std::max(rows, 1);
    cols = (switches + rows - 1) / rows;
  }
  if (rows * cols * per < cfg.num_nodes) {
    return InvalidArgument("mesh " + std::to_string(rows) + "x" +
                           std::to_string(cols) + " holds only " +
                           std::to_string(rows * cols * per) + " nodes");
  }
  // Switch (r, c) has id r*cols + c. Neighbor ports: p-4 east, p-3 west,
  // p-2 south, p-1 north; no wraparound (mesh, not torus).
  for (int i = 0; i < rows * cols; ++i) fabric.AddSwitch(p);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const int id = r * cols + c;
      if (c + 1 < cols) {
        Status st = Wire(fabric.ConnectSwitches(id, p - 4, id + 1, p - 3));
        if (!st.ok()) return st;
      }
      if (r + 1 < rows) {
        Status st = Wire(fabric.ConnectSwitches(id, p - 2, id + cols, p - 1));
        if (!st.ok()) return st;
      }
    }
  }
  TopologyPlan plan;
  for (int n = 0; n < cfg.num_nodes; ++n) {
    plan.nic_slots.push_back({n / per, n % per});
  }
  return plan;
}

}  // namespace

Result<TopologyConfig> ParseTopologySpec(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  if (colon == std::string::npos) {
    return InvalidArgument("topology spec must be kind:nodes[@ports]");
  }
  const std::string kind = spec.substr(0, colon);
  std::string rest = spec.substr(colon + 1);
  TopologyConfig cfg;
  if (kind == "single") {
    cfg.kind = TopologyKind::kSingleSwitch;
  } else if (kind == "chain") {
    cfg.kind = TopologyKind::kChain;
  } else if (kind == "fattree") {
    cfg.kind = TopologyKind::kFatTree;
  } else if (kind == "ring") {
    cfg.kind = TopologyKind::kRing;
  } else if (kind == "mesh") {
    cfg.kind = TopologyKind::kMesh;
  } else {
    return InvalidArgument("unknown topology kind '" + kind + "'");
  }
  const std::size_t at = rest.find('@');
  std::string ports;
  if (at != std::string::npos) {
    ports = rest.substr(at + 1);
    rest = rest.substr(0, at);
  }
  char* end = nullptr;
  const long nodes = std::strtol(rest.c_str(), &end, 10);
  if (rest.empty() || *end != '\0' || nodes < 1) {
    return InvalidArgument("bad node count '" + rest + "'");
  }
  cfg.num_nodes = static_cast<int>(nodes);
  if (!ports.empty()) {
    const long pp = std::strtol(ports.c_str(), &end, 10);
    if (*end != '\0' || pp < 2 || pp > 64) {
      return InvalidArgument("bad port count '" + ports + "'");
    }
    cfg.switch_ports = static_cast<int>(pp);
  }
  return cfg;
}

std::string TopologySpecString(const TopologyConfig& config) {
  const char* kind = "single";
  switch (config.kind) {
    case TopologyKind::kSingleSwitch: kind = "single"; break;
    case TopologyKind::kChain: kind = "chain"; break;
    case TopologyKind::kFatTree: kind = "fattree"; break;
    case TopologyKind::kRing: kind = "ring"; break;
    case TopologyKind::kMesh: kind = "mesh"; break;
  }
  return std::string(kind) + ":" + std::to_string(config.num_nodes) + "@" +
         std::to_string(config.switch_ports);
}

Result<TopologyPlan> BuildTopology(Fabric& fabric, const TopologyConfig& config) {
  if (fabric.num_switches() != 0) {
    return FailedPrecondition("fabric already has switches");
  }
  if (config.num_nodes < 1) return InvalidArgument("need at least one node");
  if (config.switch_ports < 2) return InvalidArgument("need >= 2 ports");
  switch (config.kind) {
    case TopologyKind::kSingleSwitch: {
      if (config.num_nodes > config.switch_ports) {
        return InvalidArgument("single switch holds only " +
                               std::to_string(config.switch_ports) + " nodes");
      }
      return BuildSingleSwitch(fabric, config.switch_ports);
    }
    case TopologyKind::kChain:
      return BuildChainOrRing(fabric, config, /*ring=*/false);
    case TopologyKind::kRing:
      return BuildChainOrRing(fabric, config, /*ring=*/true);
    case TopologyKind::kFatTree:
      return BuildFatTree(fabric, config);
    case TopologyKind::kMesh:
      return BuildMesh(fabric, config);
  }
  return InvalidArgument("unknown topology kind");
}

}  // namespace vmmc::myrinet
