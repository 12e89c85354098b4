// The Myrinet switching fabric: point-to-point links and crossbar switches
// (8 ports on the paper's M2F-SW8, configurable here) with source
// (cut-through / wormhole) routing and in-order delivery (§3). Switches
// compose into arbitrary multi-switch networks; the canned topologies
// (single crossbar, chain, 2-level fat tree, ring, mesh) live in
// topology.h.
//
// Timing model: a link serializes a packet at 160 MB/s and is occupied for
// the serialization time; the head of the packet arrives after the link
// propagation delay and a switch forwards it after its cut-through latency,
// so a multi-hop path pays the serialization cost once plus per-hop
// latencies — the wormhole approximation.
//
// Congestion model: each switch output port owns a bounded byte queue
// (NetParams::switch_port_queue_bytes — the analog of wormhole flit
// buffers). A routed packet that finds its output wire busy waits in that
// queue (counted as queue_wait); a packet that finds the queue *full*
// cannot leave its inbound wire, so that upstream link stalls until the
// output drains — head-of-line blocking — and every later packet from
// that wire waits behind it, whatever its output port, so packets that
// share a wire never overtake each other. Incast and tree saturation
// therefore emerge from the model instead of being scripted; see
// DESIGN.md "Multi-switch fabrics".
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "vmmc/myrinet/packet.h"
#include "vmmc/obs/metrics.h"
#include "vmmc/params.h"
#include "vmmc/sim/fault.h"
#include "vmmc/sim/simulator.h"
#include "vmmc/util/ring.h"
#include "vmmc/util/status.h"

namespace vmmc::myrinet {

class Link;

// Anything a link can terminate at. `head_time` is when the call happens;
// `tail_time` (ns, absolute sim time) is when the last byte will have
// arrived.
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  // Head arrival of one packet. `from` is the delivering link (so a switch
  // can hold the packet on it and stall it for backpressure).
  virtual void OnPacket(Packet packet, sim::Tick tail_time, Link* from) = 0;

  // Backward drop notification: the fabric tells the *source* NIC when a
  // switch discarded one of its packets (empty or invalid route), so the
  // loss is handled by the sender's recovery path instead of silence. The
  // packet is the dropped one, with the route bytes consumed so far gone.
  virtual void OnPacketDropped(const Packet& packet) { (void)packet; }
};

// Unidirectional link: serializes packets at NetParams::link_mb_s, delivers
// heads after link_latency, preserves injection order. Counts into
// fabric.link<id>.{packets,bytes,ser_ns,blocked_ns}.
class Link {
 public:
  Link(sim::Simulator& sim, const NetParams& params, int id);

  void set_destination(Endpoint* dst) { dst_ = dst; }
  Endpoint* destination() const { return dst_; }

  // Fabric-assigned identity, used to address this link in a FaultPlan
  // (fault.h): flat id plus (origin switch, port) or origin NIC.
  void set_site(const sim::LinkSite& site) { site_ = site; }
  const sim::LinkSite& site() const { return site_; }
  int id() const { return site_.link_id; }

  // Injects `packet`; honours occupancy (back-to-back packets queue on the
  // wire) and in-order delivery. The simulator's FaultPlan may flip a bit
  // (the CRC then fails at the receiver, as on real hardware), drop the
  // packet or delay it.
  void Send(Packet packet);

  // First instant the wire is free again (ns, absolute sim time; <= now
  // means idle).
  sim::Tick busy_until() const { return busy_until_; }

  // Backpressure from the downstream switch: the wire stays occupied until
  // `t` (ns, absolute) because its in-flight packet cannot be buffered —
  // wormhole stalling. Monotone (never shortens existing occupancy).
  void StallUntil(sim::Tick t) {
    if (t > busy_until_) busy_until_ = t;
  }

  // Packets whose head reached the downstream switch but that wait on
  // this wire for room in output `port`'s queue, oldest first. Nothing
  // behind them on the wire may pass them (Switch::Enqueue).
  struct Held {
    int port;
    Packet packet;
  };
  util::Ring<Held>& held() { return held_; }

  std::uint64_t packets_sent() const { return packets_.value(); }
  // Total busy time spent serializing packets (ns) — the numerator of this
  // link's utilization.
  sim::Tick serialize_time() const {
    return static_cast<sim::Tick>(ser_ns_.value());
  }

 private:
  sim::Simulator& sim_;
  const NetParams& params_;
  Endpoint* dst_ = nullptr;
  sim::LinkSite site_;
  sim::Tick busy_until_ = 0;
  util::Ring<Held> held_;
  obs::Counter& packets_;
  obs::Counter& bytes_;
  obs::Counter& ser_ns_;
  obs::Counter& blocked_ns_;  // time packets waited for the wire
};

// Crossbar switch (8 ports on the M2F-SW8; radix configurable). Consumes
// the first route byte to select the output port; a packet with an empty
// or invalid route is dropped (counted, and reported to the source NIC
// through the fabric's drop handler). Each output port owns a bounded
// queue; see the congestion model note at the top of this file. Counts
// into fabric.switch<id>.{forwarded,dropped,queue_wait_ns,hol_stalls,
// hol_stall_ns}.
class Switch : public Endpoint {
 public:
  // Aborts if params.switch_port_queue_bytes is 0: the queues have no
  // unbounded mode.
  Switch(sim::Simulator& sim, const NetParams& params, int id, int num_ports);

  int id() const { return id_; }
  int num_ports() const { return static_cast<int>(out_links_.size()); }
  void AttachOutput(int port, Link* link) {
    out_links_.at(static_cast<std::size_t>(port)) = link;
  }
  Link* output(int port) const { return out_links_.at(static_cast<std::size_t>(port)); }

  void OnPacket(Packet packet, sim::Tick tail_time, Link* from) override;

  // Installed by the Fabric: invoked with every packet this switch
  // discards, so the drop can be propagated back to the source NIC.
  void set_drop_handler(std::function<void(Packet&&)> handler) {
    drop_handler_ = std::move(handler);
  }

  std::uint64_t dropped() const { return dropped_.value(); }
  // Total time routed packets sat in this switch's output queues waiting
  // for their wire (ns) — congestion that did not block upstream traffic.
  sim::Tick queue_wait() const {
    return static_cast<sim::Tick>(queue_wait_ns_.value());
  }
  // Times a packet could not even be buffered and stalled its inbound link
  // (wormhole backpressure), and the total upstream time lost to it (ns).
  std::uint64_t hol_stalls() const { return hol_stalls_.value(); }
  sim::Tick hol_stall_time() const {
    return static_cast<sim::Tick>(hol_stall_ns_.value());
  }

 private:
  struct Queued {
    Packet packet;
    sim::Tick enqueued_at;
  };
  // One output port's buffered packets (wire-bytes bounded by
  // switch_port_queue_bytes) with their enqueue times.
  struct OutPort {
    util::Ring<Queued> queue;
    std::size_t bytes = 0;
    bool draining = false;
  };
  // Places a routed packet in `port`'s queue; holds it on `from` (behind
  // any packet already held there) when it may not enter yet.
  void Enqueue(int port, Packet packet, Link* from);
  bool Fits(int port, const Packet& packet) const;
  void Place(int port, Packet packet);
  // Counts a head-of-line stall of `from`'s front held packet and
  // schedules the Release of `from` once `port`'s wire frees up. While
  // `from` holds packets exactly one Release of it is scheduled.
  void Stall(Link* from, int port);
  // Moves `from`'s held packets into their queues, in order, until one
  // does not fit.
  void Release(Link* from);
  // Sends queued packets onto `port`'s wire as it frees up, in order.
  void DrainPort(int port);

  sim::Simulator& sim_;
  const NetParams& params_;
  int id_;
  std::vector<Link*> out_links_;
  std::vector<OutPort> ports_;
  std::function<void(Packet&&)> drop_handler_;
  obs::Counter& forwarded_;
  obs::Counter& dropped_;
  obs::Counter& queue_wait_ns_;
  obs::Counter& hol_stalls_;
  obs::Counter& hol_stall_ns_;
};

// The fabric: a container of switches, NIC attachment points and links,
// plus the topology graph the mapping phase explores.
class Fabric {
 public:
  Fabric(sim::Simulator& sim, const NetParams& params)
      : sim_(sim),
        params_(params),
        drop_notices_(sim.metrics().GetCounter("fabric.drop_notices")) {}
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  const NetParams& params() const { return params_; }

  // --- topology construction ---
  // Adds a crossbar of `num_ports` ports; returns its switch id (0-based).
  int AddSwitch(int num_ports = 8);
  // Registers a NIC endpoint; returns its nic id (0-based, == node id by
  // convention).
  int AddNic(Endpoint* nic);
  // Wires NIC <-> switch port with a link pair.
  Status ConnectNic(int nic_id, int switch_id, int port);
  // Wires switch a, port pa <-> switch b, port pb with a link pair.
  Status ConnectSwitches(int a, int pa, int b, int pb);

  int num_nics() const { return static_cast<int>(nics_.size()); }
  int num_switches() const { return static_cast<int>(switches_.size()); }
  Switch& switch_at(int id) { return *switches_.at(static_cast<std::size_t>(id)); }
  int num_links() const { return static_cast<int>(links_.size()); }
  const Link& link_at(int id) const { return *links_.at(static_cast<std::size_t>(id)); }

  // Flat link id of the link leaving output `port` of `switch_id`, or -1
  // if that port is unwired — the lookup FaultPlan writers use to pin a
  // rule to a topological position (the rule can also carry (switch, port)
  // directly; see fault.h).
  int LinkIdAt(int switch_id, int port) const;

  // --- use ---
  // NIC `nic_id` puts a packet on its outgoing link.
  Status Inject(int nic_id, Packet packet);

  // Graph query used by the network-mapping phase (see mapper.h): the
  // source route from one NIC to another, as the sequence of switch
  // output-port bytes consumed hop by hop. Deterministic: the installed
  // route oracle if a topology builder provided one (fat trees spread
  // traffic across spines this way), else BFS over the fabric graph with
  // fixed tie-breaking. Fails with kNotFound if disconnected, and with
  // kOutOfRange if every path is longer than Route::kCapacity switches.
  Result<Route> ComputeRoute(int src_nic, int dst_nic) const;

  // A topology builder's closed-form routing function (src nic, dst nic)
  // -> route; consulted by ComputeRoute before the BFS fallback. The
  // oracle may assume nic i sits in the builder's slot i (the cluster
  // assembly keeps that invariant).
  using RouteOracle = std::function<Result<Route>(int src_nic, int dst_nic)>;
  void SetRouteOracle(RouteOracle oracle) { oracle_ = std::move(oracle); }

  std::uint64_t total_link_packets() const;
  std::uint64_t drop_notices() const { return drop_notices_.value(); }
  // Fabric-wide congestion totals (sums over switches; ns / counts).
  sim::Tick total_queue_wait() const;
  std::uint64_t total_hol_stalls() const;
  sim::Tick total_hol_stall_time() const;

  // Test hook: overwrite the first route byte of the next `count` packets
  // `nic_id` injects with an invalid port, so the first switch discards
  // them — a deterministic way to exercise the misroute drop-notice path.
  void CorruptNextRoutes(int nic_id, int count);

 private:
  sim::Simulator& sim_;
  const NetParams& params_;

  std::vector<std::unique_ptr<Switch>> switches_;
  struct NicAttachment {
    Endpoint* endpoint = nullptr;
    Link* to_switch = nullptr;   // nic -> fabric
    Link* from_switch = nullptr; // fabric -> nic
    int switch_id = -1;
    int switch_port = -1;
  };
  std::vector<NicAttachment> nics_;
  std::vector<std::unique_ptr<Link>> links_;
  RouteOracle oracle_;
  obs::Counter& drop_notices_;
  std::vector<int> corrupt_next_;  // per-nic pending route corruptions

  // A new link, numbered in creation order.
  Link* NewLink();
  // Delivers a switch-dropped packet back to its source NIC's
  // OnPacketDropped (through the event queue, so ordering stays FIFO).
  void NotifyDrop(Packet&& packet);
};

// Topology builders create the switch mesh and return the switch/port slot
// where the i-th NIC should attach (the cluster assembly registers the NIC
// endpoints and calls ConnectNic). The general builders — fat tree, ring,
// mesh, plus a text spec — live in topology.h; the two below predate them
// and remain for the paper-scale setups.
struct TopologyPlan {
  struct Slot {
    int switch_id;
    int port;
  };
  std::vector<Slot> nic_slots;
};

// All NICs on one 8-port switch (the paper's setup: 4 PCs on an M2F-SW8).
TopologyPlan BuildSingleSwitch(Fabric& fabric, int max_nics = 8);
// A chain of 8-port switches with `per_switch` NIC slots each (multi-hop
// routes).
TopologyPlan BuildSwitchChain(Fabric& fabric, int num_switches, int per_switch);

}  // namespace vmmc::myrinet
