#include "vmmc/vrpc/udp_transport.h"

namespace vmmc::vrpc {

sim::Process UdpServerTransport::Serve(RawHandler handler) {
  auto box = eth_.Bind(port_);
  if (!box.ok()) co_return;  // port already in use
  for (;;) {
    ethernet::Datagram dgram = co_await box.value()->Get();
    // Kernel-to-user crossing plus the classic (uncollapsed) SunRPC
    // server layers.
    co_await sim_.Delay(params_.vrpc.server_dispatch * 3);
    co_await sim_.Delay(params_.vrpc.xdr_per_call +
                        sim::NsForBytes(dgram.payload.size(), params_.vrpc.xdr_mb_s));
    std::vector<std::uint8_t> reply = co_await handler(std::move(dgram.payload));
    co_await sim_.Delay(params_.vrpc.xdr_per_call +
                        sim::NsForBytes(reply.size(), params_.vrpc.xdr_mb_s));
    co_await eth_.SendTo(dgram.src_node, dgram.src_port, port_, std::move(reply));
  }
}

namespace {
std::uint16_t NextEphemeralPort() {
  static std::uint16_t next = 32000;
  return next++;
}
}  // namespace

UdpClientTransport::UdpClientTransport(const Params& params, sim::Simulator& sim,
                                       ethernet::Interface& eth, int server_node,
                                       std::uint16_t server_port)
    : params_(params),
      sim_(sim),
      eth_(eth),
      server_node_(server_node),
      server_port_(server_port),
      local_port_(NextEphemeralPort()) {
  auto box = eth_.Bind(local_port_);
  if (box.ok()) inbox_ = box.value();
}

sim::Task<Result<std::vector<std::uint8_t>>> UdpClientTransport::RoundTrip(
    std::vector<std::uint8_t> request) {
  using Out = Result<std::vector<std::uint8_t>>;
  if (inbox_ == nullptr) co_return Out(Unavailable("socket bind failed"));
  // Classic client-side socket layers.
  co_await sim_.Delay(params_.vrpc.client_stub * 2);
  co_await eth_.SendTo(server_node_, server_port_, local_port_, std::move(request));
  ethernet::Datagram reply = co_await inbox_->Get();
  co_return std::move(reply.payload);
}

}  // namespace vmmc::vrpc
