#include "vmmc/vmmc/mapper.h"

#include "vmmc/util/log.h"

namespace vmmc::vmmc_core {

sim::Process MappingLcp::Run(lanai::NicCard& nic) {
  for (;;) {
    co_await nic.AwaitWork();
    if (stop_) break;
    while (auto rp = nic.rx_queue().TryGet()) {
      co_await nic.cpu().Exec(2000);  // mapping LCP packet handling
      if (!rp->crc_ok) continue;
      auto decoded = DecodeChunk(rp->packet.payload);
      if (!decoded.has_value()) continue;
      const ChunkHeader& h = decoded->header;
      if (h.type == PacketType::kMapProbe) {
        // The probe's data is the return route; answer along it. A route
        // read off the wire can be longer than a Route holds (a prober
        // rejects such routes before probing, so only a corrupt probe
        // carries one): leave it unanswered.
        auto back = myrinet::Route::FromBytes(decoded->data);
        if (!back.ok()) {
          VMMC_LOG(kWarn, "mapper") << "node " << nic.nic_id()
                                    << ": probe not answered: "
                                    << back.status().ToString();
          continue;
        }
        ++probes_answered_;
        ChunkHeader reply;
        reply.type = PacketType::kMapReply;
        reply.src_node = static_cast<std::uint16_t>(nic.nic_id());
        reply.tag = h.tag;
        myrinet::Packet pkt;
        pkt.route = back.value();
        pkt.payload = EncodeChunk(reply, {});
        co_await nic.NetSend(std::move(pkt));
      } else if (h.type == PacketType::kMapReply) {
        replies_.Put(h.tag);
      }
    }
  }
  stopped_.Set();
}

sim::Task<Result<RouteTable>> MapNetwork(lanai::NicCard& nic, MappingLcp& lcp,
                                         int num_nodes) {
  RouteTable table(static_cast<std::size_t>(num_nodes));
  myrinet::Fabric& fabric = nic.fabric();
  const int self = nic.nic_id();

  for (int dst = 0; dst < num_nodes; ++dst) {
    auto forward = fabric.ComputeRoute(self, dst);
    if (!forward.ok()) co_return Result<RouteTable>(forward.status());
    table[static_cast<std::size_t>(dst)] = forward.value();
    if (dst == self) continue;  // self-route needs no verification

    auto back = fabric.ComputeRoute(dst, self);
    if (!back.ok()) co_return Result<RouteTable>(back.status());

    // Verify the pair with a live probe.
    ChunkHeader probe;
    probe.type = PacketType::kMapProbe;
    probe.src_node = static_cast<std::uint16_t>(self);
    probe.tag = static_cast<std::uint32_t>((self << 16) | dst);
    probe.chunk_len = static_cast<std::uint32_t>(back.value().size());
    myrinet::Packet pkt;
    pkt.route = forward.value();
    pkt.payload = EncodeChunk(probe, back.value());
    co_await nic.NetSend(std::move(pkt));

    const std::uint32_t tag = co_await lcp.replies().Get();
    if (tag != probe.tag) {
      co_return Result<RouteTable>(
          InternalError("mapping reply tag mismatch — network misrouted"));
    }
    VMMC_LOG(kDebug, "mapper") << "node " << self << ": route to " << dst
                               << " verified (" << forward.value().size()
                               << " hops)";
  }
  co_return table;
}

}  // namespace vmmc::vmmc_core
