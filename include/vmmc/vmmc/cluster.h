// Cluster assembly: the paper's experimental platform — PCI PCs with
// Myrinet interfaces on a Myrinet switch, plus an Ethernet for the daemons
// (§5.1). Boot() performs the §4.3 sequence: load the mapping LCP on every
// interface, map and verify the network, then replace the mapping LCP with
// the VMMC LCP and start daemons and drivers. Every component of every
// node runs on the one Simulator the cluster is built on.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "vmmc/ethernet/ethernet.h"
#include "vmmc/host/machine.h"
#include "vmmc/lanai/nic_card.h"
#include "vmmc/myrinet/fabric.h"
#include "vmmc/params.h"
#include "vmmc/sim/simulator.h"
#include "vmmc/vmmc/api.h"
#include "vmmc/vmmc/daemon.h"
#include "vmmc/vmmc/driver.h"
#include "vmmc/vmmc/lcp.h"

namespace vmmc::vmmc_core {

// Fabric shape the cluster stands up. The first two predate the general
// topology builder (myrinet/topology.h) and keep their historical
// behaviour; the rest map straight onto TopologyKind and scale to
// tens of nodes (fat tree of 8-port switches: 32; of 16-port: 128).
enum class Topology { kSingleSwitch, kSwitchChain, kFatTree, kRing, kMesh };

struct ClusterOptions {
  int num_nodes = 4;  // the paper's testbed size
  Topology topology = Topology::kSingleSwitch;
  int chain_switches = 2;  // for kSwitchChain
  int switch_ports = 8;    // crossbar radix for kFatTree/kRing/kMesh
  std::uint64_t mem_bytes_per_node = 16ull * 1024 * 1024;

  // Shorthand for the scaling topologies: "fattree:16@8" etc., see
  // myrinet::ParseTopologySpec.
  static Result<ClusterOptions> FromSpec(const std::string& spec);
};

class Cluster {
 public:
  struct Node {
    std::unique_ptr<host::Machine> machine;
    std::unique_ptr<lanai::NicCard> nic;
    ethernet::Interface* eth = nullptr;
    std::unique_ptr<VmmcDaemon> daemon;
    std::unique_ptr<VmmcDriver> driver;
    VmmcLcp* lcp = nullptr;  // owned by the NIC once loaded
    RouteTable routes;
  };

  Cluster(sim::Simulator& sim, const Params& params, ClusterOptions options);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Runs the boot sequence to completion (drives the simulator).
  Status Boot();
  bool booted() const { return booted_; }
  sim::Tick boot_time() const { return boot_time_; }

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  Node& node(int i) { return nodes_.at(static_cast<std::size_t>(i)); }
  sim::Simulator& simulator() { return sim_; }

  myrinet::Fabric& fabric() { return *fabric_; }
  ethernet::Segment& ethernet() { return *ethernet_; }
  const Params& params() const { return params_; }
  // Tests and benches tweak fault-injection knobs after boot (the fabric
  // and machines read these parameters live).
  Params& mutable_params() { return params_; }

  // Creates a user process on `node_id` and opens a VMMC endpoint for it.
  Result<std::unique_ptr<Endpoint>> OpenEndpoint(int node_id,
                                                 const std::string& name);

 private:
  // Topology, nodes, interfaces, daemons.
  void Assemble();

  sim::Simulator& sim_;
  Params params_;
  ClusterOptions options_;
  std::unique_ptr<myrinet::Fabric> fabric_;
  std::unique_ptr<ethernet::Segment> ethernet_;
  std::vector<Node> nodes_;
  bool booted_ = false;
  sim::Tick boot_time_ = 0;
};

}  // namespace vmmc::vmmc_core
