#include "vmmc/lanai/nic_card.h"

#include <cassert>
#include <string>

namespace vmmc::lanai {

namespace {
// node<N>.<leaf>, N being the machine's node id.
std::string NodeMetric(const host::Machine& machine, const std::string& leaf) {
  return "node" + std::to_string(machine.node_id()) + "." + leaf;
}

obs::Counter& NodeCounter(sim::Simulator& sim, const host::Machine& machine,
                          const std::string& leaf) {
  return sim.metrics().GetCounter(NodeMetric(machine, leaf));
}
}  // namespace

NicCard::NicCard(sim::Simulator& sim, const Params& params,
                 host::Machine& machine, myrinet::Fabric& fabric)
    : sim_(sim),
      params_(params),
      machine_(machine),
      fabric_(fabric),
      sram_(params.lanai.sram_bytes),
      cpu_(sim, params.lanai, NodeCounter(sim, machine, "lanai.exec_ns")),
      rx_queue_(sim),
      work_tokens_(sim, 0),
      host_dma_engine_(sim, 1),
      net_tx_engine_(sim, 1),
      crc_errors_(NodeCounter(sim, machine, "nic.crc_errors")),
      packets_received_(NodeCounter(sim, machine, "nic.packets_received")),
      packets_sent_(NodeCounter(sim, machine, "nic.packets_sent")),
      host_dma_obs_(BindEngine(sim, NodeMetric(machine, "dma.host"))),
      net_tx_obs_(BindEngine(sim, NodeMetric(machine, "dma.nettx"))) {}

NicCard::EngineObs NicCard::BindEngine(sim::Simulator& sim,
                                       const std::string& prefix) {
  obs::Registry& m = sim.metrics();
  return EngineObs{m.GetCounter(prefix + ".ops"),
                   m.GetCounter(prefix + ".bytes"),
                   m.GetCounter(prefix + ".busy_ns"),
                   m.GetGauge(prefix + ".utilization"),
                   sim.tracer().RegisterTrack(prefix)};
}

Status NicCard::AttachToFabric(int switch_id, int port) {
  if (nic_id_ >= 0) return FailedPrecondition("already attached");
  nic_id_ = fabric_.AddNic(this);
  Status s = fabric_.ConnectNic(nic_id_, switch_id, port);
  if (!s.ok()) nic_id_ = -1;
  return s;
}

// Closes out one engine occupancy interval: op/byte/busy counters plus the
// derived utilization gauge (busy time over total sim time so far).
void NicCard::FinishEngineOp(EngineObs& e, sim::Tick t0, std::uint64_t bytes) {
  const sim::Tick now = sim_.now();
  e.ops.Inc();
  e.bytes.Inc(bytes);
  e.busy_ns.Inc(static_cast<std::uint64_t>(now - t0));
  if (now > 0) {
    e.utilization.Set(now, static_cast<double>(e.busy_ns.value()) /
                               static_cast<double>(now));
  }
}

void NicCard::LoadLcp(std::unique_ptr<Lcp> lcp) {
  lcp_ = std::move(lcp);
  Lcp* raw = lcp_.get();
  sim_.Spawn(raw->Run(*this));
}

void NicCard::OnPacket(myrinet::Packet packet, sim::Tick tail_time,
                       myrinet::Link* /*from*/) {
  // The packet is complete (and its CRC checkable) only once the tail has
  // been DMAed into SRAM by the receive engine.
  const sim::Tick done =
      tail_time + params_.lanai.net_dma_init - sim_.now();
  sim_.In(done > 0 ? done : 0, [this, pkt = std::move(packet)]() mutable {
    ReceivedPacket rp;
    rp.crc_ok = pkt.CrcOk();
    if (!rp.crc_ok) crc_errors_.Inc();
    packets_received_.Inc();
    rp.packet = std::move(pkt);
    rx_queue_.Put(std::move(rp));
    NotifyWork();
  });
}

void NicCard::OnPacketDropped(const myrinet::Packet& packet) {
  if (lcp_ != nullptr) lcp_->OnDropNotice(packet);
}

sim::Process NicCard::NetSend(myrinet::Packet packet) {
  auto lock = co_await sim::ScopedAcquire(net_tx_engine_);
  auto span = sim_.tracer().Scope(net_tx_obs_.track, "net_send");
  const sim::Tick t0 = sim_.now();
  co_await sim_.Delay(params_.lanai.net_dma_init);
  const std::size_t wire = packet.wire_bytes();
  Status s = fabric_.Inject(nic_id_, std::move(packet));
  assert(s.ok() && "NIC not attached to fabric");
  (void)s;
  packets_sent_.Inc();
  // The tx engine streams from SRAM for the serialization time; the link
  // model accounts occupancy on the wire, the engine is held equally long
  // so back-to-back sends pipeline correctly.
  co_await sim_.Delay(sim::NsForBytes(wire, params_.net.link_mb_s));
  FinishEngineOp(net_tx_obs_, t0, wire);
}

sim::Process NicCard::HostDmaRead(mem::PhysAddr src,
                                  std::span<std::uint8_t> out) {
  auto lock = co_await sim::ScopedAcquire(host_dma_engine_);
  auto span = sim_.tracer().Scope(host_dma_obs_.track, "host_dma_read");
  const sim::Tick t0 = sim_.now();
  // Injected DMA-engine stall (sim/fault.h): the engine holds the transfer
  // until the stall window closes.
  if (const sim::Tick stall = sim_.faults().DmaStallDelay(nic_id_); stall > 0) {
    co_await sim_.Delay(stall);
  }
  co_await machine_.pci().Dma(out.size());
  Status s = machine_.memory().Read(src, out);
  assert(s.ok() && "host DMA read from bad physical address");
  (void)s;
  FinishEngineOp(host_dma_obs_, t0, out.size());
}

sim::Process NicCard::HostDmaWrite(mem::PhysAddr dst,
                                   std::span<const std::uint8_t> in) {
  auto lock = co_await sim::ScopedAcquire(host_dma_engine_);
  auto span = sim_.tracer().Scope(host_dma_obs_.track, "host_dma_write");
  const sim::Tick t0 = sim_.now();
  if (const sim::Tick stall = sim_.faults().DmaStallDelay(nic_id_); stall > 0) {
    co_await sim_.Delay(stall);
  }
  co_await machine_.pci().Dma(in.size());
  Status s = machine_.memory().Write(dst, in);
  assert(s.ok() && "host DMA write to bad physical address");
  (void)s;
  FinishEngineOp(host_dma_obs_, t0, in.size());
}

void NicCard::RaiseHostInterrupt() {
  machine_.kernel().RaiseIrq(kIrq);
}

}  // namespace vmmc::lanai
