#include "vmmc/ethernet/ethernet.h"

#include <cassert>

namespace vmmc::ethernet {

Result<sim::Mailbox<Datagram>*> Interface::Bind(std::uint16_t port) {
  auto& slot = ports_[port];
  if (slot != nullptr) return AlreadyExists("port already bound");
  slot = std::make_unique<sim::Mailbox<Datagram>>(sim_);
  return slot.get();
}

Status Interface::Unbind(std::uint16_t port) {
  return ports_.erase(port) > 0 ? OkStatus() : NotFound("port not bound");
}

sim::Process Interface::SendTo(int dst_node, std::uint16_t dst_port,
                               std::uint16_t src_port,
                               std::vector<std::uint8_t> payload) {
  // Kernel socket path (syscall + UDP/IP stack).
  co_await sim_.Delay(segment_.params().udp_stack);
  Datagram d;
  d.src_node = node_id_;
  d.dst_node = dst_node;
  d.dst_port = dst_port;
  d.src_port = src_port;
  d.payload = std::move(payload);
  co_await segment_.Transmit(std::move(d));
}

void Interface::Deliver(Datagram dgram) {
  auto it = ports_.find(dgram.dst_port);
  if (it == ports_.end()) {
    ++dropped_no_port_;
    return;
  }
  ++delivered_;
  it->second->Put(std::move(dgram));
}

Interface& Segment::AddInterface(int node_id) {
  assert(FindInterface(node_id) == nullptr && "duplicate node id");
  interfaces_.push_back(std::make_unique<Interface>(sim_, *this, node_id));
  return *interfaces_.back();
}

Interface* Segment::FindInterface(int node_id) {
  for (auto& i : interfaces_) {
    if (i->node_id() == node_id) return i.get();
  }
  return nullptr;
}

sim::Process Segment::Transmit(Datagram dgram) {
  auto lock = co_await sim::ScopedAcquire(medium_);
  const std::uint64_t size = dgram.payload.size();
  const std::uint64_t frames = size == 0 ? 1 : (size + params_.mtu - 1) / params_.mtu;
  co_await sim_.Delay(static_cast<sim::Tick>(frames) * params_.frame_latency +
                      sim::NsForBytes(size, params_.bandwidth_mb_s));
  Interface* dst = FindInterface(dgram.dst_node);
  // Unknown destinations vanish, as on a real wire.
  if (dst == nullptr) co_return;
  dst->Deliver(std::move(dgram));
}

}  // namespace vmmc::ethernet
