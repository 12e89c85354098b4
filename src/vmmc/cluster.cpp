#include "vmmc/vmmc/cluster.h"

#include <cassert>

#include "vmmc/myrinet/topology.h"
#include "vmmc/util/log.h"
#include "vmmc/vmmc/mapper.h"

namespace vmmc::vmmc_core {

Result<ClusterOptions> ClusterOptions::FromSpec(const std::string& spec) {
  auto cfg = myrinet::ParseTopologySpec(spec);
  if (!cfg.ok()) return cfg.status();
  ClusterOptions opts;
  opts.num_nodes = cfg.value().num_nodes;
  opts.switch_ports = cfg.value().switch_ports;
  switch (cfg.value().kind) {
    case myrinet::TopologyKind::kSingleSwitch:
      opts.topology = Topology::kSingleSwitch;
      break;
    case myrinet::TopologyKind::kChain:
      opts.topology = Topology::kSwitchChain;
      opts.chain_switches = std::max(
          1, (opts.num_nodes + opts.switch_ports - 3) / (opts.switch_ports - 2));
      break;
    case myrinet::TopologyKind::kFatTree:
      opts.topology = Topology::kFatTree;
      break;
    case myrinet::TopologyKind::kRing:
      opts.topology = Topology::kRing;
      break;
    case myrinet::TopologyKind::kMesh:
      opts.topology = Topology::kMesh;
      break;
  }
  return opts;
}

Cluster::Cluster(sim::Simulator& sim, const Params& params,
                 ClusterOptions options)
    : sim_(sim), params_(params), options_(options) {
  fabric_ = std::make_unique<myrinet::Fabric>(sim_, params_.net);
  ethernet_ = std::make_unique<ethernet::Segment>(sim_, params_.ethernet);
  Assemble();
}

void Cluster::Assemble() {
  myrinet::TopologyPlan plan;
  switch (options_.topology) {
    case Topology::kSingleSwitch: {
      // One 8-port switch cannot host more than 8 nodes; chain switches
      // automatically for larger clusters.
      if (options_.num_nodes <= 8) {
        plan = myrinet::BuildSingleSwitch(*fabric_, 8);
      } else {
        const int per = 6;
        const int switches = (options_.num_nodes + per - 1) / per;
        plan = myrinet::BuildSwitchChain(*fabric_, switches, per);
      }
      break;
    }
    case Topology::kSwitchChain: {
      // Spread nodes across the chain so inter-switch routes are exercised.
      const int per = std::max(
          1, (options_.num_nodes + options_.chain_switches - 1) /
                 options_.chain_switches);
      plan = myrinet::BuildSwitchChain(*fabric_, options_.chain_switches, per);
      break;
    }
    case Topology::kFatTree:
    case Topology::kRing:
    case Topology::kMesh: {
      myrinet::TopologyConfig cfg;
      cfg.kind = options_.topology == Topology::kFatTree
                     ? myrinet::TopologyKind::kFatTree
                     : (options_.topology == Topology::kRing
                            ? myrinet::TopologyKind::kRing
                            : myrinet::TopologyKind::kMesh);
      cfg.num_nodes = options_.num_nodes;
      cfg.switch_ports = options_.switch_ports;
      auto built = myrinet::BuildTopology(*fabric_, cfg);
      assert(built.ok() && "topology cannot host the requested node count");
      plan = std::move(built).value();
      break;
    }
  }
  assert(static_cast<int>(plan.nic_slots.size()) >= options_.num_nodes &&
         "topology too small for requested node count");

  nodes_.resize(static_cast<std::size_t>(options_.num_nodes));
  for (int i = 0; i < options_.num_nodes; ++i) {
    Node& n = nodes_[static_cast<std::size_t>(i)];
    n.machine = std::make_unique<host::Machine>(sim_, params_, i,
                                                options_.mem_bytes_per_node);
    n.nic = std::make_unique<lanai::NicCard>(sim_, params_, *n.machine, *fabric_);
    const auto& slot = plan.nic_slots[static_cast<std::size_t>(i)];
    Status attached = n.nic->AttachToFabric(slot.switch_id, slot.port);
    assert(attached.ok());
    (void)attached;
    assert(n.nic->nic_id() == i && "nic id must equal node id");
    n.eth = &ethernet_->AddInterface(i);
    n.daemon = std::make_unique<VmmcDaemon>(params_, i, n.machine->kernel(),
                                            *n.nic, *n.eth);
  }
}

Status Cluster::Boot() {
  if (booted_) return FailedPrecondition("already booted");

  // Phase 1: every daemon loads the network-mapping LCP (§4.3).
  std::vector<MappingLcp*> mappers;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    auto mapper = std::make_unique<MappingLcp>(sim_);
    mappers.push_back(mapper.get());
    nodes_[i].nic->LoadLcp(std::move(mapper));
  }

  // Phase 2: map the network from every node, verifying each route with a
  // live probe.
  struct MapJob {
    bool done = false;
    Status status = OkStatus();
    RouteTable routes;
  };
  std::vector<MapJob> jobs(nodes_.size());
  struct Runner {
    static sim::Process Map(lanai::NicCard& nic, MappingLcp& lcp, int nodes,
                            MapJob& job) {
      auto result = co_await MapNetwork(nic, lcp, nodes);
      if (result.ok()) {
        job.routes = std::move(result).value();
      } else {
        job.status = result.status();
      }
      job.done = true;
    }
  };
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    sim_.Spawn(Runner::Map(*nodes_[i].nic, *mappers[i], num_nodes(), jobs[i]));
  }
  const bool mapped = sim_.RunUntil([&] {
    for (const MapJob& j : jobs) {
      if (!j.done) return false;
    }
    return true;
  });
  if (!mapped) return InternalError("network mapping did not converge");
  for (MapJob& j : jobs) {
    if (!j.status.ok()) return j.status;
  }

  // Phase 3: replace the mapping LCP with the VMMC LCP (§4.3).
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    mappers[i]->RequestStop(*nodes_[i].nic);
  }
  const bool stopped = sim_.RunUntil([&] {
    for (MappingLcp* m : mappers) {
      if (!m->stopped().is_set()) return false;
    }
    return true;
  });
  if (!stopped) return InternalError("mapping LCPs did not stop");

  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Node& n = nodes_[i];
    n.routes = jobs[i].routes;
    auto lcp = std::make_unique<VmmcLcp>(sim_, params_, static_cast<int>(i),
                                         n.routes);
    n.lcp = lcp.get();
    n.nic->LoadLcp(std::move(lcp));
  }
  const bool lcps_up = sim_.RunUntil([&] {
    for (Node& n : nodes_) {
      if (!n.lcp->running()) return false;
    }
    return true;
  });
  if (!lcps_up) return InternalError("VMMC LCPs did not start");

  // Phase 4: install drivers, start daemons.
  for (Node& n : nodes_) {
    n.driver = std::make_unique<VmmcDriver>(params_, n.machine->kernel(),
                                            *n.nic, *n.lcp);
    n.driver->Install();
    Status s = n.daemon->Start(n.lcp);
    if (!s.ok()) return s;
  }

  booted_ = true;
  boot_time_ = sim_.now();
  VMMC_LOG(kInfo, "cluster") << "booted " << num_nodes() << " nodes in "
                             << sim::ToMicroseconds(boot_time_) << " us";
  return OkStatus();
}

Result<std::unique_ptr<Endpoint>> Cluster::OpenEndpoint(int node_id,
                                                        const std::string& name) {
  if (!booted_) return FailedPrecondition("cluster not booted");
  if (node_id < 0 || node_id >= num_nodes()) {
    return InvalidArgument("bad node id");
  }
  Node& n = nodes_[static_cast<std::size_t>(node_id)];
  host::UserProcess& proc = n.machine->kernel().CreateProcess(name);
  return Endpoint::Open(params_, *n.machine, *n.lcp, *n.driver, *n.daemon, proc);
}

}  // namespace vmmc::vmmc_core
