// vRPC (§5.4): an RPC library implementing the SunRPC standard with VMMC
// as its low-level network interface. Strategy per the paper: change only
// the runtime library, stay wire-compatible with SunRPC, reimplement the
// network layer directly on the new interface, and collapse layers into a
// thin one. A server can serve both the new (VMMC) and the old (UDP)
// protocols; the same handler code runs over either transport.
//
// Three transports:
//  * VmmcTransport (compat) — requests land in exported server slots;
//    one copy on every receive keeps SunRPC semantics (the paper's 66 us
//    round trip, bandwidth reduced by a ~50 MB/s bcopy);
//  * VmmcTransport (fast)   — drops compatibility: zero-copy in-place
//    decode, thinner layers ([2]: bandwidth close to raw VMMC);
//  * UdpTransport           — classic SunRPC over the Ethernet.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "vmmc/obs/metrics.h"
#include "vmmc/obs/trace.h"
#include "vmmc/params.h"
#include "vmmc/sim/process.h"
#include "vmmc/sim/simulator.h"
#include "vmmc/sim/task.h"
#include "vmmc/util/status.h"
#include "vmmc/vrpc/rpc_message.h"

namespace vmmc::vrpc {

// Transport-neutral request processor: raw call bytes in, raw reply bytes
// out (used by the server over any transport).
using RawHandler =
    std::function<sim::Task<std::vector<std::uint8_t>>(std::vector<std::uint8_t>)>;

class ClientTransport {
 public:
  virtual ~ClientTransport() = default;
  // Sends the encoded call and returns the encoded reply.
  virtual sim::Task<Result<std::vector<std::uint8_t>>> RoundTrip(
      std::vector<std::uint8_t> request) = 0;
};

class ServerTransport {
 public:
  virtual ~ServerTransport() = default;
  // Runs forever, feeding requests through `handler` and returning the
  // replies to their callers.
  virtual sim::Process Serve(RawHandler handler) = 0;
};

// Procedure handler: XDR-encoded args in, XDR-encoded results out.
using ProcHandler = std::function<sim::Task<Result<std::vector<std::uint8_t>>>(
    std::span<const std::uint8_t> args)>;

class RpcServer {
 public:
  explicit RpcServer(const Params& params) : params_(params) {}

  void Register(std::uint32_t prog, std::uint32_t vers, std::uint32_t proc,
                ProcHandler handler);

  // Attaches a transport; a server may serve several (§5.4: old and new
  // protocols side by side). Starts the transport's serve loop.
  void Attach(sim::Simulator& sim, ServerTransport* transport);

  std::uint64_t calls_served() const { return calls_served_; }

 private:
  sim::Task<std::vector<std::uint8_t>> Handle(std::vector<std::uint8_t> request);

  const Params& params_;
  std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>, ProcHandler>
      procedures_;
  std::uint64_t calls_served_ = 0;
};

class RpcClient {
 public:
  RpcClient(const Params& params, sim::Simulator& sim,
            std::unique_ptr<ClientTransport> transport, bool fast_path = false)
      : params_(params),
        sim_(sim),
        transport_(std::move(transport)),
        fast_path_(fast_path),
        calls_(sim.metrics().GetCounter("vrpc.client.calls")),
        rtt_us_(sim.metrics().GetHisto("vrpc.client.rtt_us")),
        track_(sim.tracer().RegisterTrack("vrpc.client")) {}

  // One remote procedure call; returns the XDR-encoded results.
  sim::Task<Result<std::vector<std::uint8_t>>> Call(
      std::uint32_t prog, std::uint32_t vers, std::uint32_t proc,
      std::vector<std::uint8_t> args);

 private:
  const Params& params_;
  sim::Simulator& sim_;
  std::unique_ptr<ClientTransport> transport_;
  bool fast_path_;
  std::uint32_t next_xid_ = 1;

  // Round-trip accounting (vrpc.client.*), shared by every client of the
  // simulator; overlapping calls show up as async spans keyed by xid.
  obs::Counter& calls_;
  obs::Histo& rtt_us_;
  int track_;
};

}  // namespace vmmc::vrpc
