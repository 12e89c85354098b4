#include "vmmc/vrpc/vrpc.h"

namespace vmmc::vrpc {

void RpcServer::Register(std::uint32_t prog, std::uint32_t vers,
                         std::uint32_t proc, ProcHandler handler) {
  procedures_[{prog, vers, proc}] = std::move(handler);
}

void RpcServer::Attach(sim::Simulator& sim, ServerTransport* transport) {
  sim.Spawn(transport->Serve(
      [this](std::vector<std::uint8_t> request) { return Handle(std::move(request)); }));
}

sim::Task<std::vector<std::uint8_t>> RpcServer::Handle(
    std::vector<std::uint8_t> request) {
  auto call = DecodeCall(request);
  ReplyMessage reply;
  if (!call.has_value()) {
    reply.stat = AcceptStat::kGarbageArgs;
    co_return EncodeReply(reply);
  }
  reply.xid = call->xid;

  auto it = procedures_.find({call->prog, call->vers, call->proc});
  if (it == procedures_.end()) {
    bool prog_known = false;
    for (const auto& [key, _] : procedures_) {
      if (std::get<0>(key) == call->prog) prog_known = true;
    }
    reply.stat = prog_known ? AcceptStat::kProcUnavail : AcceptStat::kProgUnavail;
    co_return EncodeReply(reply);
  }

  ++calls_served_;
  auto result = co_await it->second(call->args);
  if (!result.ok()) {
    reply.stat = AcceptStat::kGarbageArgs;
    co_return EncodeReply(reply);
  }
  reply.results = std::move(result).value();
  co_return EncodeReply(reply);
}

sim::Task<Result<std::vector<std::uint8_t>>> RpcClient::Call(
    std::uint32_t prog, std::uint32_t vers, std::uint32_t proc,
    std::vector<std::uint8_t> args) {
  const VrpcParams& vp = params_.vrpc;
  calls_.Inc();
  const sim::Tick t0 = sim_.now();
  // Client stub + runtime layers (collapsed into one thin layer, §5.4).
  co_await sim_.Delay(fast_path_ ? vp.fast_client_stub : vp.client_stub);

  CallMessage call;
  call.xid = next_xid_++;
  call.prog = prog;
  call.vers = vers;
  call.proc = proc;
  call.args = std::move(args);
  // Overlapping calls (several clients, async use) would break strict span
  // nesting, so round trips are async events keyed by xid.
  sim_.tracer().AsyncBegin(track_, "call", call.xid);
  const auto finish = [this, t0, xid = call.xid] {
    rtt_us_.Observe(static_cast<double>(sim_.now() - t0) / 1000.0);
    sim_.tracer().AsyncEnd(track_, "call", xid);
  };

  // XDR marshalling.
  co_await sim_.Delay(vp.xdr_per_call +
                      sim::NsForBytes(call.args.size(), vp.xdr_mb_s));
  std::vector<std::uint8_t> wire;
  EncodeCallInto(call, wire);

  auto response = co_await transport_->RoundTrip(std::move(wire));
  if (!response.ok()) {
    finish();
    co_return Result<std::vector<std::uint8_t>>(response.status());
  }

  co_await sim_.Delay(vp.xdr_per_call +
                      sim::NsForBytes(response.value().size(), vp.xdr_mb_s));
  finish();
  auto reply = DecodeReply(response.value());
  if (!reply.has_value()) {
    co_return Result<std::vector<std::uint8_t>>(
        InternalError("malformed RPC reply"));
  }
  if (reply->xid != call.xid) {
    co_return Result<std::vector<std::uint8_t>>(InternalError("xid mismatch"));
  }
  if (reply->stat != AcceptStat::kSuccess) {
    co_return Result<std::vector<std::uint8_t>>(
        NotFound("server rejected the call"));
  }
  co_return std::move(reply->results);
}

}  // namespace vmmc::vrpc
