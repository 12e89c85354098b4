#include "vmmc/compat/fm.h"

#include <cassert>

namespace vmmc::compat {

using vmmc_core::ChunkHeader;
using vmmc_core::DecodeChunk;
using vmmc_core::EncodeChunk;
using vmmc_core::PacketType;

FmEndpoint::FmEndpoint(Testbed& testbed, int node)
    : testbed_(testbed), node_(node) {
  auto lcp = std::make_unique<FmLcp>(testbed.params());
  lcp_ = lcp.get();
  testbed.nic(node).LoadLcp(std::move(lcp));
}

void FmEndpoint::RegisterHandler(std::uint16_t id, Handler handler) {
  handlers_[id] = std::move(handler);
}

sim::Task<Status> FmEndpoint::Send(int dst_node, std::uint16_t id,
                                   std::vector<std::uint8_t> data) {
  sim::Simulator& sim = testbed_.simulator();
  co_await sim.Delay(800);  // thin library entry (FM favours low latency)

  // Fragment into 128-byte frames, PIO-copying each to the interface: no
  // send-side DMA and no pinning, but bandwidth is capped by the PIO rate.
  const std::uint32_t total = static_cast<std::uint32_t>(data.size());
  std::uint32_t offset = 0;
  do {
    const std::uint32_t n = std::min(kFrameBytes, total - offset);
    FmLcp::Frame frame;
    frame.dst_node = dst_node;
    frame.handler = id;
    frame.msg_len = total;
    frame.last = offset + n == total;
    frame.data.assign(data.begin() + offset, data.begin() + offset + n);
    // Frame header (2 words) + payload, all programmed I/O.
    const int words = 2 + static_cast<int>((n + 3) / 4);
    co_await testbed_.machine(node_).pci().PioWrite(words);
    lcp_->PostFrame(std::move(frame));
    offset += n;
  } while (offset < total);
  co_return OkStatus();
}

sim::Task<int> FmEndpoint::Extract() {
  sim::Simulator& sim = testbed_.simulator();
  host::HostCpu& cpu = testbed_.machine(node_).cpu();
  co_await sim.Delay(500);  // poll call
  int handled = 0;

  // Reassemble complete messages at the front of the ring.
  auto& ring = lcp_->rx_ring();
  while (!ring.empty()) {
    // Find a complete message prefix.
    std::size_t frames = 0;
    bool complete = false;
    for (; frames < ring.size(); ++frames) {
      if (ring[frames].last) {
        complete = true;
        ++frames;
        break;
      }
    }
    if (!complete) break;

    std::vector<std::uint8_t> message;
    message.reserve(ring[0].msg_len);
    const std::uint16_t handler_id = ring[0].handler;
    for (std::size_t i = 0; i < frames; ++i) {
      message.insert(message.end(), ring[i].data.begin(), ring[i].data.end());
    }
    ring.erase(ring.begin(), ring.begin() + static_cast<std::ptrdiff_t>(frames));

    // The handler copies data from the pinned ring into user structures —
    // the copy VMMC's exported buffers avoid (§7).
    co_await cpu.Bcopy(message.size());
    co_await sim.Delay(1200);  // handler dispatch
    auto it = handlers_.find(handler_id);
    if (it != handlers_.end()) it->second(message);
    ++messages_received_;
    ++handled;
  }
  co_return handled;
}

void FmLcp::PostFrame(Frame frame) {
  tx_queue_.push_back(std::move(frame));
  if (nic_ != nullptr) nic_->NotifyWork();
}

sim::Process FmLcp::Run(lanai::NicCard& nic) {
  nic_ = &nic;
  // The pinned receive ring (allocated by the driver at module load).
  ring_pa_ = mem::PageAddr(nic.machine().memory().AllocFrame().value());
  const LanaiParams& lp = params_.lanai;
  for (;;) {
    co_await nic.AwaitWork();
    while (nic.work_pending()) co_await nic.AwaitWork();
    co_await nic.cpu().Exec(lp.main_loop_poll);
    for (;;) {
      if (auto rp = nic.rx_queue().TryGet()) {
        // Frame arrival: DMA it into the pinned receive ring.
        co_await nic.cpu().Exec(lp.recv_process);
        if (!rp->crc_ok) continue;
        auto decoded = DecodeChunk(rp->packet.payload);
        if (!decoded.has_value()) continue;
        std::vector<std::uint8_t> staged(decoded->data.begin(),
                                         decoded->data.end());
        co_await nic.HostDmaWrite(ring_pa_, staged);  // pinned receive ring
        RingSlot slot;
        slot.handler = static_cast<std::uint16_t>(decoded->header.tag);
        slot.msg_len = decoded->header.msg_len;
        slot.last = decoded->header.last_chunk();
        slot.data = std::move(staged);
        rx_ring_.push_back(std::move(slot));
        continue;
      }
      if (!tx_queue_.empty()) {
        Frame frame = std::move(tx_queue_.front());
        tx_queue_.pop_front();
        co_await nic.cpu().Exec(1000);  // frame pickup + header
        ChunkHeader h;
        h.type = PacketType::kData;
        h.flags = frame.last ? ChunkHeader::kFlagLastChunk : 0;
        h.src_node = static_cast<std::uint16_t>(nic.nic_id());
        h.msg_len = frame.msg_len;
        h.chunk_len = static_cast<std::uint32_t>(frame.data.size());
        h.tag = frame.handler;
        myrinet::Packet pkt;
        pkt.route = nic.fabric().ComputeRoute(nic.nic_id(), frame.dst_node).value();
        pkt.payload = EncodeChunk(h, frame.data);
        co_await nic.NetSend(std::move(pkt));
        continue;
      }
      break;
    }
  }
}

}  // namespace vmmc::compat
