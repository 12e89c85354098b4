// The Myrinet PCI network interface (M2F-PCI32, §3): a 33 MHz LANai 4.1
// control processor, 256 KB SRAM, and three DMA engines — two between the
// network and SRAM (tx, rx) and one between SRAM and host memory over PCI.
// The LANai runs a control program (LCP); which LCP is loaded determines
// the interface's protocol (network mapping, VMMC, or one of the baseline
// message layers in src/compat).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "vmmc/host/machine.h"
#include "vmmc/lanai/sram.h"
#include "vmmc/myrinet/fabric.h"
#include "vmmc/obs/metrics.h"
#include "vmmc/params.h"
#include "vmmc/sim/process.h"
#include "vmmc/sim/simulator.h"
#include "vmmc/sim/sync.h"
#include "vmmc/util/status.h"

namespace vmmc::lanai {

// LANai processor cost accounting (33 MHz; §3).
class LanaiCpu {
 public:
  LanaiCpu(sim::Simulator& sim, const LanaiParams& params)
      : sim_(sim), params_(params) {}

  const LanaiParams& params() const { return params_; }

  // Executes LCP work costing `t`: books the busy time and returns the
  // awaiter that holds the caller for it (`co_await cpu.Exec(t)`).
  sim::Simulator::DelayAwaiter Exec(sim::Tick t) {
    busy_ += t;
    if (exec_ns_m_ != nullptr) exec_ns_m_->Inc(static_cast<std::uint64_t>(t));
    return sim_.Delay(t);
  }

  sim::Tick busy_time() const { return busy_; }

  // Mirrors busy time into a registry counter (node<N>.lanai.exec_ns).
  void BindMetrics(obs::Counter* exec_ns) { exec_ns_m_ = exec_ns; }

 private:
  sim::Simulator& sim_;
  const LanaiParams& params_;
  sim::Tick busy_ = 0;
  obs::Counter* exec_ns_m_ = nullptr;
};

// A packet as handed to the LCP after the receive hardware ran its CRC
// check (§3: mismatches are reported, not corrected).
struct ReceivedPacket {
  myrinet::Packet packet;
  bool crc_ok = true;
};

class NicCard;

// A LANai control program. Loaded onto a NIC and run as a coroutine.
class Lcp {
 public:
  virtual ~Lcp() = default;
  virtual sim::Process Run(NicCard& nic) = 0;

  // The fabric reported that a packet this NIC injected was discarded at
  // a switch (misroute / empty route). Called from the event queue, not
  // from LCP coroutine context; default: ignore, as the paper's LCP does.
  virtual void OnDropNotice(const myrinet::Packet& packet) { (void)packet; }
};

class NicCard : public myrinet::Endpoint {
 public:
  NicCard(sim::Simulator& sim, const Params& params, host::Machine& machine,
          myrinet::Fabric& fabric)
      : sim_(sim),
        params_(params),
        machine_(machine),
        fabric_(fabric),
        sram_(params.lanai.sram_bytes),
        cpu_(sim, params.lanai),
        rx_queue_(sim),
        work_tokens_(sim, 0),
        host_dma_engine_(sim, 1),
        net_tx_engine_(sim, 1) {}

  sim::Simulator& simulator() { return sim_; }
  const Params& params() const { return params_; }
  host::Machine& machine() { return machine_; }
  myrinet::Fabric& fabric() { return fabric_; }
  Sram& sram() { return sram_; }
  LanaiCpu& cpu() { return cpu_; }
  int nic_id() const { return nic_id_; }

  // Registers with the fabric at the given switch slot.
  Status AttachToFabric(int switch_id, int port);

  // Loads and starts a control program (replacing any previous one is not
  // supported mid-flight; the mapping LCP finishes before the VMMC LCP is
  // loaded, as in §4.3).
  void LoadLcp(std::unique_ptr<Lcp> lcp);

  // ---- network side ----
  // Endpoint: head arrival of a packet destined for this NIC.
  void OnPacket(myrinet::Packet packet, sim::Tick tail_time,
                myrinet::Link* from) override;

  // Endpoint: a packet this NIC injected was dropped at a switch; relayed
  // to the loaded LCP so its recovery path (if any) can react.
  void OnPacketDropped(const myrinet::Packet& packet) override;

  // Transmit: holds the net-tx DMA engine for init + serialization, then
  // injects into the fabric. `extra_tx_cost` models per-packet LCP work
  // that must happen with the engine held.
  sim::Process NetSend(myrinet::Packet packet);

  // Received packets, in arrival order, for the LCP.
  sim::Mailbox<ReceivedPacket>& rx_queue() { return rx_queue_; }
  std::uint64_t crc_errors() const { return crc_errors_; }
  std::uint64_t packets_received() const { return packets_received_; }
  std::uint64_t packets_sent() const { return packets_sent_; }

  // ---- host side ----
  // DMA between host physical memory and LANai SRAM buffers. Timing goes
  // through the machine's PCI bus; bytes move for real so end-to-end data
  // integrity is testable.
  sim::Process HostDmaRead(mem::PhysAddr src, std::vector<std::uint8_t>& out,
                           std::size_t len);
  // Zero-copy variant: DMAs straight into caller-owned storage (e.g. the
  // data region of a pooled payload buffer) — no intermediate vector.
  sim::Process HostDmaRead(mem::PhysAddr src, std::span<std::uint8_t> out);
  sim::Process HostDmaWrite(mem::PhysAddr dst, std::span<const std::uint8_t> in);

  // Raises the NIC's interrupt line (driver service requests: software-TLB
  // miss, notification delivery; §4.5).
  void RaiseHostInterrupt();
  static constexpr int kIrq = 11;

  // ---- LCP wake-up ----
  // Work tokens: the host rings after posting a send request; the rx path
  // rings on packet arrival. The LCP main loop blocks on AwaitWork.
  void NotifyWork() { work_tokens_.Release(); }
  auto AwaitWork() { return work_tokens_.Acquire(); }
  bool work_pending() const { return work_tokens_.available() > 0; }
  // Consumes one pending token without blocking (an LCP that drained a
  // packet directly can retire the token that arrival posted, so the
  // token level keeps reflecting undrained work).
  bool TryConsumeWorkToken() { return work_tokens_.TryAcquire(); }

 private:
  sim::Simulator& sim_;
  const Params& params_;
  host::Machine& machine_;
  myrinet::Fabric& fabric_;
  Sram sram_;
  LanaiCpu cpu_;
  int nic_id_ = -1;

  std::unique_ptr<Lcp> lcp_;
  sim::Mailbox<ReceivedPacket> rx_queue_;
  sim::Semaphore work_tokens_;
  sim::Semaphore host_dma_engine_;
  sim::Semaphore net_tx_engine_;

  std::uint64_t crc_errors_ = 0;
  std::uint64_t packets_received_ = 0;
  std::uint64_t packets_sent_ = 0;

  // Observability: bound when the NIC learns its id (AttachToFabric);
  // a NIC never attached to a fabric (unit tests) reports nothing.
  struct EngineObs {
    obs::Counter* ops = nullptr;
    obs::Counter* bytes = nullptr;
    obs::Counter* busy_ns = nullptr;
    obs::Gauge* utilization = nullptr;
    int track = -1;
  };
  void BindObs();
  void FinishEngineOp(EngineObs& e, sim::Tick t0, std::uint64_t bytes);
  EngineObs host_dma_obs_;
  EngineObs net_tx_obs_;
  obs::Counter* packets_sent_m_ = nullptr;
  obs::Counter* packets_received_m_ = nullptr;
  obs::Counter* crc_errors_m_ = nullptr;
  bool obs_bound_ = false;
};

}  // namespace vmmc::lanai
