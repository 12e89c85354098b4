#include "vmmc/myrinet/fabric.h"

#include <cassert>
#include <string>

#include "vmmc/util/log.h"

namespace vmmc::myrinet {

namespace {
// Sinks for links constructed outside a Fabric (unit tests), so Send
// never branches on whether metrics are bound.
obs::Counter g_unbound_packets;
obs::Counter g_unbound_bytes;
obs::Counter g_unbound_ser;
obs::Counter g_unbound_blocked;
}  // namespace

Link::Link(sim::Simulator& sim, const NetParams& params, sim::Rng& rng)
    : sim_(sim),
      params_(params),
      rng_(rng),
      packets_m_(&g_unbound_packets),
      bytes_m_(&g_unbound_bytes),
      ser_ns_m_(&g_unbound_ser),
      blocked_ns_m_(&g_unbound_blocked) {}

void Link::BindMetrics(obs::Counter* packets, obs::Counter* bytes,
                       obs::Counter* ser_ns, obs::Counter* blocked_ns) {
  packets_m_ = packets != nullptr ? packets : &g_unbound_packets;
  bytes_m_ = bytes != nullptr ? bytes : &g_unbound_bytes;
  ser_ns_m_ = ser_ns != nullptr ? ser_ns : &g_unbound_ser;
  blocked_ns_m_ = blocked_ns != nullptr ? blocked_ns : &g_unbound_blocked;
}

void Link::Send(Packet packet) {
  assert(dst_ != nullptr && "link not wired");
  ++packets_;
  bytes_ += packet.wire_bytes();
  packets_m_->Inc();
  bytes_m_->Inc(packet.wire_bytes());

  // Error injection: flip one payload byte; the receiver's CRC hardware
  // detects it (the paper checks CRCs but never recovers, §4.2).
  if (params_.packet_error_rate > 0.0 && !packet.payload.empty() &&
      rng_.Bernoulli(params_.packet_error_rate)) {
    const std::size_t i =
        static_cast<std::size_t>(rng_.UniformU64(packet.payload.size()));
    packet.payload.MutableData()[i] ^= 0x01u << rng_.UniformU64(8);
  }

  // Planned fault injection (sim/fault.h): bit flips, wire drops and
  // delivery jitter, decided per packet from the injector's own seeded
  // stream. Only the payload is touched — route bytes stay intact, so an
  // injected fault can never redirect a DMA to the wrong node.
  sim::FaultInjector::LinkVerdict fate;
  if (sim_.faults().active()) {
    fate = sim_.faults().OnLinkTransmit(site_, packet.payload);
  }

  // Blocked time: how long the packet waited for the wire to free up.
  const sim::Tick start = std::max(sim_.now(), busy_until_);
  const sim::Tick blocked = start - sim_.now();
  blocked_ += blocked;
  blocked_ns_m_->Inc(static_cast<std::uint64_t>(blocked));
  const sim::Tick ser = sim::NsForBytes(packet.wire_bytes(), params_.link_mb_s);
  ser_ += ser;
  ser_ns_m_->Inc(static_cast<std::uint64_t>(ser));
  busy_until_ = start + ser;
  // A dropped packet occupied the wire but its tail never arrives anywhere;
  // recovery is the sender's retransmission timeout, exactly as for a real
  // mid-flight loss.
  if (fate.drop) return;
  const sim::Tick head = start + params_.link_latency + fate.extra_delay;
  const sim::Tick tail = start + ser + params_.link_latency + fate.extra_delay;
  sim_.At(head, [this, pkt = std::move(packet), tail]() mutable {
    dst_->OnPacket(std::move(pkt), tail, this);
  });
}

void Switch::OnPacket(Packet packet, sim::Tick tail_time, Link* from) {
  if (packet.route.empty()) {
    ++dropped_;
    if (dropped_m_ != nullptr) dropped_m_->Inc();
    VMMC_LOG(kWarn, "switch") << "switch " << id_ << ": packet with empty route dropped";
    if (drop_handler_) drop_handler_(std::move(packet));
    return;
  }
  const int port = packet.route[0];
  packet.route.PopFront();
  if (port >= num_ports() || out_links_[static_cast<std::size_t>(port)] == nullptr) {
    ++dropped_;
    if (dropped_m_ != nullptr) dropped_m_->Inc();
    VMMC_LOG(kWarn, "switch") << "switch " << id_ << ": invalid output port "
                              << port << ", packet dropped";
    if (drop_handler_) drop_handler_(std::move(packet));
    return;
  }
  ++forwarded_;
  if (forwarded_m_ != nullptr) forwarded_m_->Inc();
  // Cut-through: the head reaches the output port after the switch
  // latency; tail_time of this hop is implicit (the downstream link
  // recomputes serialization).
  (void)tail_time;
  sim_.In(params_.switch_latency,
          [this, port, pkt = std::move(packet), from]() mutable {
            Enqueue(port, std::move(pkt), from);
          });
}

void Switch::Enqueue(int port, Packet packet, Link* from) {
  OutPort& op = ports_[static_cast<std::size_t>(port)];
  Link* out = out_links_[static_cast<std::size_t>(port)];
  const std::size_t cap = params_.switch_port_queue_bytes;
  const std::size_t wire = packet.wire_bytes();
  if (cap != 0 && !op.queue.empty() && op.bytes + wire > cap) {
    // No buffer space: wormhole backpressure. The packet cannot leave its
    // inbound wire, which stays occupied — stalling everything behind it
    // (head-of-line blocking) — until the contended output frees up.
    ++hol_stalls_;
    if (hol_stalls_m_ != nullptr) hol_stalls_m_->Inc();
    const sim::Tick retry = std::max(out->busy_until(), sim_.now() + 1);
    const sim::Tick stalled = retry - sim_.now();
    hol_stall_ += stalled;
    if (hol_stall_ns_m_ != nullptr) {
      hol_stall_ns_m_->Inc(static_cast<std::uint64_t>(stalled));
    }
    if (from != nullptr) from->StallUntil(retry);
    sim_.At(retry, [this, port, pkt = std::move(packet), from]() mutable {
      Enqueue(port, std::move(pkt), from);
    });
    return;
  }
  op.queue.push_back(Queued{std::move(packet), sim_.now()});
  op.bytes += wire;
  if (!op.draining) {
    op.draining = true;
    DrainPort(port);
  }
}

void Switch::DrainPort(int port) {
  OutPort& op = ports_[static_cast<std::size_t>(port)];
  Link* out = out_links_[static_cast<std::size_t>(port)];
  if (op.queue.empty()) {
    op.draining = false;
    return;
  }
  if (out->busy_until() > sim_.now()) {
    sim_.At(out->busy_until(), [this, port] { DrainPort(port); });
    return;
  }
  Packet pkt = std::move(op.queue.front().packet);
  const sim::Tick waited = sim_.now() - op.queue.front().enqueued_at;
  op.queue.pop_front();
  op.bytes -= pkt.wire_bytes();
  queue_wait_ += waited;
  if (queue_wait_ns_m_ != nullptr) {
    queue_wait_ns_m_->Inc(static_cast<std::uint64_t>(waited));
  }
  out->Send(std::move(pkt));
  // The wire is now busy until this packet's tail leaves; come back then.
  sim_.At(out->busy_until(), [this, port] { DrainPort(port); });
}

void Fabric::NotifyDrop(Packet&& packet) {
  if (packet.src_nic < 0 || packet.src_nic >= num_nics()) return;
  Endpoint* src = nics_[static_cast<std::size_t>(packet.src_nic)].endpoint;
  if (src == nullptr) return;
  ++drop_notices_;
  sim_.metrics().GetCounter("fabric.drop_notices").Inc();
  // Through the event queue: the switch is mid-OnPacket here, and the
  // notice models an out-of-band backward signal, not a synchronous call
  // into the source NIC.
  sim_.Post([src, pkt = std::move(packet)]() { src->OnPacketDropped(pkt); });
}

Link* Fabric::NewLink() {
  const std::string prefix =
      "fabric.link" + std::to_string(links_.size()) + ".";
  links_.push_back(std::make_unique<Link>(sim_, params_, rng_));
  sim::LinkSite site;
  site.link_id = static_cast<int>(links_.size()) - 1;
  links_.back()->set_site(site);
  obs::Registry& m = sim_.metrics();
  links_.back()->BindMetrics(&m.GetCounter(prefix + "packets"),
                             &m.GetCounter(prefix + "bytes"),
                             &m.GetCounter(prefix + "ser_ns"),
                             &m.GetCounter(prefix + "blocked_ns"));
  return links_.back().get();
}

int Fabric::AddSwitch(int num_ports) {
  const int id = num_switches();
  switches_.push_back(std::make_unique<Switch>(sim_, params_, id, num_ports));
  const std::string prefix = "fabric.switch" + std::to_string(id) + ".";
  obs::Registry& m = sim_.metrics();
  switches_.back()->BindMetrics(&m.GetCounter(prefix + "forwarded"),
                                &m.GetCounter(prefix + "dropped"),
                                &m.GetCounter(prefix + "queue_wait_ns"),
                                &m.GetCounter(prefix + "hol_stalls"),
                                &m.GetCounter(prefix + "hol_stall_ns"));
  switches_.back()->set_drop_handler(
      [this](Packet&& pkt) { NotifyDrop(std::move(pkt)); });
  return id;
}

int Fabric::AddNic(Endpoint* nic) {
  NicAttachment att;
  att.endpoint = nic;
  nics_.push_back(att);
  return num_nics() - 1;
}

Status Fabric::ConnectNic(int nic_id, int switch_id, int port) {
  if (nic_id < 0 || nic_id >= num_nics()) return InvalidArgument("bad nic id");
  if (switch_id < 0 || switch_id >= num_switches()) {
    return InvalidArgument("bad switch id");
  }
  NicAttachment& att = nics_[static_cast<std::size_t>(nic_id)];
  if (att.to_switch != nullptr) return AlreadyExists("nic already connected");
  Switch& sw = *switches_[static_cast<std::size_t>(switch_id)];
  if (port < 0 || port >= sw.num_ports()) return InvalidArgument("bad port");
  if (sw.output(port) != nullptr) return AlreadyExists("switch port in use");

  att.to_switch = NewLink();
  att.to_switch->set_destination(&sw);
  {
    sim::LinkSite site = att.to_switch->site();
    site.src_nic = nic_id;
    att.to_switch->set_site(site);
  }
  att.from_switch = NewLink();
  att.from_switch->set_destination(att.endpoint);
  {
    sim::LinkSite site = att.from_switch->site();
    site.switch_id = switch_id;
    site.port = port;
    att.from_switch->set_site(site);
  }
  sw.AttachOutput(port, att.from_switch);
  att.switch_id = switch_id;
  att.switch_port = port;
  return OkStatus();
}

Status Fabric::ConnectSwitches(int a, int pa, int b, int pb) {
  if (a < 0 || a >= num_switches() || b < 0 || b >= num_switches()) {
    return InvalidArgument("bad switch id");
  }
  Switch& sa = *switches_[static_cast<std::size_t>(a)];
  Switch& sb = *switches_[static_cast<std::size_t>(b)];
  if (pa < 0 || pa >= sa.num_ports() || pb < 0 || pb >= sb.num_ports()) {
    return InvalidArgument("bad port");
  }
  if (sa.output(pa) != nullptr || sb.output(pb) != nullptr) {
    return AlreadyExists("switch port in use");
  }
  Link* ab = NewLink();
  ab->set_destination(&sb);
  {
    sim::LinkSite site = ab->site();
    site.switch_id = a;
    site.port = pa;
    ab->set_site(site);
  }
  sa.AttachOutput(pa, ab);
  Link* ba = NewLink();
  ba->set_destination(&sa);
  {
    sim::LinkSite site = ba->site();
    site.switch_id = b;
    site.port = pb;
    ba->set_site(site);
  }
  sb.AttachOutput(pb, ba);
  return OkStatus();
}

int Fabric::LinkIdAt(int switch_id, int port) const {
  for (const auto& l : links_) {
    const sim::LinkSite& s = l->site();
    if (s.switch_id == switch_id && s.port == port) return s.link_id;
  }
  return -1;
}

Status Fabric::Inject(int nic_id, Packet packet) {
  if (nic_id < 0 || nic_id >= num_nics()) return InvalidArgument("bad nic id");
  NicAttachment& att = nics_[static_cast<std::size_t>(nic_id)];
  if (att.to_switch == nullptr) return FailedPrecondition("nic not connected");
  packet.src_nic = nic_id;
  if (static_cast<std::size_t>(nic_id) < corrupt_next_.size() &&
      corrupt_next_[static_cast<std::size_t>(nic_id)] > 0) {
    --corrupt_next_[static_cast<std::size_t>(nic_id)];
    if (!packet.route.empty()) packet.route.front() = 0x3F;  // invalid port
  }
  packet.StampCrc();
  att.to_switch->Send(std::move(packet));
  return OkStatus();
}

void Fabric::CorruptNextRoutes(int nic_id, int count) {
  if (nic_id < 0 || nic_id >= num_nics()) return;
  if (corrupt_next_.size() < static_cast<std::size_t>(num_nics())) {
    corrupt_next_.resize(static_cast<std::size_t>(num_nics()), 0);
  }
  corrupt_next_[static_cast<std::size_t>(nic_id)] = count;
}

Result<Route> Fabric::ComputeRoute(int src_nic, int dst_nic) const {
  if (src_nic < 0 || src_nic >= num_nics() || dst_nic < 0 || dst_nic >= num_nics()) {
    return InvalidArgument("bad nic id");
  }
  const NicAttachment& src = nics_[static_cast<std::size_t>(src_nic)];
  const NicAttachment& dst = nics_[static_cast<std::size_t>(dst_nic)];
  if (src.switch_id < 0 || dst.switch_id < 0) {
    return FailedPrecondition("nic not connected");
  }
  if (src_nic == dst_nic) {
    // Self route: out to the switch and straight back.
    return Route{static_cast<std::uint8_t>(src.switch_port)};
  }

  // A topology builder's closed-form routing (deterministic path spreading
  // on fat trees) takes precedence over the generic BFS.
  if (oracle_) {
    Result<Route> r = oracle_(src_nic, dst_nic);
    if (r.ok()) return r;
  }

  // BFS over switches from the source's switch to the destination's
  // switch, recording each switch's parent and the parent's output port.
  // The route is the port byte consumed at each traversed switch; the
  // final byte exits to the destination NIC. Deterministic: switches and
  // ports are explored in id order, so ties always resolve the same way.
  const auto at = [](int id) { return static_cast<std::size_t>(id); };
  std::vector<int> parent(at(num_switches()), -1);
  std::vector<int> via_port(at(num_switches()), -1);
  std::vector<int> order{src.switch_id};  // BFS queue; `next` is its head
  parent[at(src.switch_id)] = src.switch_id;
  for (std::size_t next = 0;
       next < order.size() && parent[at(dst.switch_id)] < 0; ++next) {
    const Switch& sw = *switches_[at(order[next])];
    for (int port = 0; port < sw.num_ports(); ++port) {
      const Link* out = sw.output(port);
      if (out == nullptr) continue;
      // Is the far end another switch?
      for (int s2 = 0; s2 < num_switches(); ++s2) {
        if (out->destination() == switches_[at(s2)].get() &&
            parent[at(s2)] < 0) {
          parent[at(s2)] = order[next];
          via_port[at(s2)] = port;
          order.push_back(s2);
        }
      }
    }
  }
  if (parent[at(dst.switch_id)] < 0) return NotFound("no route between nics");

  std::size_t hops = 1;  // the exit port to the destination NIC
  for (int s = dst.switch_id; s != src.switch_id; s = parent[at(s)]) ++hops;
  if (hops > Route::kCapacity) {
    return OutOfRange("the route from nic " + std::to_string(src_nic) +
                      " to nic " + std::to_string(dst_nic) + " crosses " +
                      std::to_string(hops) + " switches, over the " +
                      std::to_string(Route::kCapacity) + "-hop limit");
  }
  std::uint8_t bytes[Route::kCapacity];
  std::size_t i = hops;
  bytes[--i] = static_cast<std::uint8_t>(dst.switch_port);
  for (int s = dst.switch_id; s != src.switch_id; s = parent[at(s)]) {
    bytes[--i] = static_cast<std::uint8_t>(via_port[at(s)]);
  }
  return Route::FromBytes({bytes, hops});
}

std::uint64_t Fabric::total_link_packets() const {
  std::uint64_t n = 0;
  for (const auto& l : links_) n += l->packets_sent();
  return n;
}

sim::Tick Fabric::total_queue_wait() const {
  sim::Tick n = 0;
  for (const auto& s : switches_) n += s->queue_wait();
  return n;
}

std::uint64_t Fabric::total_hol_stalls() const {
  std::uint64_t n = 0;
  for (const auto& s : switches_) n += s->hol_stalls();
  return n;
}

sim::Tick Fabric::total_hol_stall_time() const {
  sim::Tick n = 0;
  for (const auto& s : switches_) n += s->hol_stall_time();
  return n;
}

TopologyPlan BuildSingleSwitch(Fabric& fabric, int max_nics) {
  TopologyPlan plan;
  const int sw = fabric.AddSwitch(max_nics);
  for (int i = 0; i < max_nics; ++i) plan.nic_slots.push_back({sw, i});
  return plan;
}

TopologyPlan BuildSwitchChain(Fabric& fabric, int num_switches, int per_switch) {
  assert(per_switch + 2 <= 8);
  TopologyPlan plan;
  for (int s = 0; s < num_switches; ++s) fabric.AddSwitch(8);
  // Ports: 0..per_switch-1 for NICs, 6 to next switch, 7 to previous.
  for (int s = 0; s + 1 < num_switches; ++s) {
    Status st = fabric.ConnectSwitches(s, 6, s + 1, 7);
    assert(st.ok());
    (void)st;
  }
  for (int s = 0; s < num_switches; ++s) {
    for (int i = 0; i < per_switch; ++i) plan.nic_slots.push_back({s, i});
  }
  return plan;
}

}  // namespace vmmc::myrinet
