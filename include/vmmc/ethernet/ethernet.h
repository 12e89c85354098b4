// The Ethernet that connects the PCs besides Myrinet (§5.1). The VMMC
// daemons use it as their control channel for export/import matching
// (§4.1), and the SunRPC/UDP baseline in src/vrpc runs over it.
//
// Model: a shared 10 Mb/s segment; a frame owns the medium for its
// serialization time; messages larger than the MTU are fragmented and pay
// per-frame overhead. Delivery is per-node mailboxes.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "vmmc/params.h"
#include "vmmc/sim/process.h"
#include "vmmc/sim/simulator.h"
#include "vmmc/sim/sync.h"
#include "vmmc/util/status.h"

namespace vmmc::ethernet {

struct Datagram {
  int src_node = -1;
  int dst_node = -1;
  std::uint16_t dst_port = 0;
  std::uint16_t src_port = 0;
  std::vector<std::uint8_t> payload;
};

class Segment;

// One node's Ethernet interface; datagrams arrive demultiplexed by port.
class Interface {
 public:
  Interface(sim::Simulator& sim, Segment& segment, int node_id)
      : sim_(sim), segment_(segment), node_id_(node_id) {}

  int node_id() const { return node_id_; }

  // Binds a port; returns the mailbox datagrams to that port land in.
  Result<sim::Mailbox<Datagram>*> Bind(std::uint16_t port);
  Status Unbind(std::uint16_t port);

  // Sends a datagram (UDP-like: unreliable in principle, reliable in this
  // model). Charges the kernel stack cost to the caller and the medium
  // serialization to the segment.
  sim::Process SendTo(int dst_node, std::uint16_t dst_port,
                      std::uint16_t src_port, std::vector<std::uint8_t> payload);

  // Called by the segment on delivery.
  void Deliver(Datagram dgram);

  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t dropped_no_port() const { return dropped_no_port_; }

 private:
  sim::Simulator& sim_;
  Segment& segment_;
  int node_id_;
  std::unordered_map<std::uint16_t, std::unique_ptr<sim::Mailbox<Datagram>>> ports_;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_no_port_ = 0;
};

// The shared segment.
class Segment {
 public:
  Segment(sim::Simulator& sim, const EthernetParams& params)
      : sim_(sim), params_(params), medium_(sim, 1) {}
  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;

  const EthernetParams& params() const { return params_; }

  Interface& AddInterface(int node_id);
  Interface* FindInterface(int node_id);

  // Transmits `dgram` on the shared medium: acquires it, holds it for the
  // fragment serialization time, then delivers. In-order per segment.
  sim::Process Transmit(Datagram dgram);

 private:
  sim::Simulator& sim_;
  const EthernetParams& params_;
  sim::Semaphore medium_;
  std::vector<std::unique_ptr<Interface>> interfaces_;
};

}  // namespace vmmc::ethernet
