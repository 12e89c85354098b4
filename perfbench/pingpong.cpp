// pingpong: the paper's testbed shape, 2 nodes on one switch. One client
// coroutine on node 0 runs a closed loop of round trips against an echo
// server on node 1. Each op takes one path (raw Endpoint::SendMsg,
// P2pChannel Send/RecvInto, or a vRPC call over the SunRPC-compatible
// VmmcClientTransport) and one size from 4 B to 64 KB. Every sampled size
// runs once on every path, so the paths compare at equal sizes.
#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "vmmc/vmmc/p2p.h"
#include "vmmc/vrpc/vmmc_transport.h"
#include "vmmc/vrpc/vrpc.h"

namespace perfbench {
namespace {

using vmmc::Params;
using vmmc::Result;
using vmmc::Status;
using vmmc::mem::VirtAddr;
using vmmc::sim::kMillisecond;
using vmmc::sim::Process;
using vmmc::sim::Simulator;
using vmmc::sim::Task;
using vmmc::vmmc_core::Cluster;
using vmmc::vmmc_core::ClusterOptions;
using vmmc::vmmc_core::Endpoint;
using vmmc::vmmc_core::ExportOptions;
using vmmc::vmmc_core::ImportOptions;
using vmmc::vmmc_core::P2pChannel;
using vmmc::vmmc_core::ProxyAddr;
using vmmc::vrpc::RpcClient;
using vmmc::vrpc::RpcServer;
using vmmc::vrpc::VmmcClientTransport;
using vmmc::vrpc::VmmcServerTransport;

enum Path : int { kRaw = 0, kP2p = 1, kVrpc = 2 };
const char* const kOpSpan[] = {"op.raw", "op.p2p", "op.vrpc"};

constexpr std::uint32_t kMaxLen = 64 * 1024;
constexpr std::uint32_t kProg = 0x2000'0101, kVers = 1, kProcEcho = 1;
constexpr Tick kOpDeadline = 50 * kMillisecond;
constexpr Tick kSetupLimit = 10'000 * kMillisecond;

// Sizes per class: both sides of short_send_max (128 B) and eager_max
// (448 B), weighted toward small. Each size runs on all three paths.
struct SizeClass {
  std::uint32_t lo;
  std::uint32_t hi;
  int count;
};
constexpr SizeClass kClasses[] = {
    {4, 128, 504}, {129, 448, 432}, {449, 8192, 360}, {8193, kMaxLen, 144}};

struct PlanOp {
  Path path;
  std::uint32_t len;
  int group;
};

struct Pingpong {
  explicit Pingpong(SpanLog& span_log) : log(span_log) {}

  Simulator sim;
  Params params;
  SpanLog& log;
  std::uint64_t seed = 0;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<Endpoint> cli;
  std::unique_ptr<Endpoint> srv;
  VirtAddr cli_src = 0;  // client send source (raw and p2p)
  VirtAddr cli_raw = 0;  // client's exported echo target
  VirtAddr cli_dst = 0;  // client's P2pChannel receive buffer
  VirtAddr srv_raw = 0;  // server's exported receive buffer
  VirtAddr srv_p2p = 0;  // server's P2pChannel receive/echo buffer
  ProxyAddr cli_to_srv = 0;
  ProxyAddr srv_to_cli = 0;
  std::unique_ptr<P2pChannel> cli_ch;
  std::unique_ptr<P2pChannel> srv_ch;
  std::unique_ptr<RpcServer> rpc_server;
  std::unique_ptr<VmmcServerTransport> rpc_transport;
  std::unique_ptr<RpcClient> rpc;

  std::vector<PlanOp> plan;  // warm-up ops first, then the measured ops
  std::size_t warmup = 0;
  std::vector<OpRecord> records;  // one per plan op
  std::vector<int> op_span;       // op span id per plan op (traced runs)
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> scratch;
  int pending = 0;
  Tick issue = -1;  // the client's outstanding op, -1 when idle
  std::string setup_error;
};

// Spins (the paper's user-level wait) until `tag` lands at `va`.
Task<bool> SpinOnTag(Simulator& sim, Endpoint& ep, VirtAddr va,
                     std::uint32_t tag, Tick poll) {
  std::uint8_t word[4];
  for (;;) {
    if (!ep.ReadBuffer(va, word).ok()) co_return false;
    if (LoadTag(word) == tag) co_return true;
    co_await sim.Delay(poll);
  }
}

Status ClearTag(Endpoint& ep, VirtAddr va) {
  const std::uint8_t zero[4] = {0, 0, 0, 0};
  return ep.WriteBuffer(va, zero);
}

// Compares `len` bytes at `va` with the payload the client sent.
OpStatus CheckEcho(Pingpong& pp, Endpoint& ep, VirtAddr va, std::uint32_t len) {
  pp.scratch.resize(len);
  if (!ep.ReadBuffer(va, {pp.scratch.data(), len}).ok()) return OpStatus::kError;
  return std::equal(pp.scratch.begin(), pp.scratch.end(), pp.payload.begin())
             ? OpStatus::kOk
             : OpStatus::kBadData;
}

// --- client side -------------------------------------------------------

Task<OpStatus> RawRoundTrip(Pingpong& pp, std::size_t i, int op_span) {
  const std::uint32_t len = pp.plan[i].len;
  const auto op = static_cast<std::int64_t>(i);
  const int send = pp.log.Begin("vmmc", "Endpoint::SendMsg", pp.sim.now(), op,
                                 op_span, len);
  Status s = co_await pp.cli->SendMsg(pp.cli_src, pp.cli_to_srv, len);
  pp.log.End(send, pp.sim.now());
  if (!s.ok()) co_return OpStatus::kError;
  const VirtAddr tag_va = pp.cli_raw + len - 4;
  bool landed = co_await SpinOnTag(pp.sim, *pp.cli, tag_va, TagFor(op),
                                   pp.params.host.spin_poll);
  if (!landed) co_return OpStatus::kError;
  const OpStatus checked = CheckEcho(pp, *pp.cli, pp.cli_raw, len);
  if (!ClearTag(*pp.cli, tag_va).ok()) co_return OpStatus::kError;
  co_return checked;
}

Task<OpStatus> P2pRoundTrip(Pingpong& pp, std::size_t i, int op_span) {
  const std::uint32_t len = pp.plan[i].len;
  const auto op = static_cast<std::int64_t>(i);
  const int send = pp.log.Begin("p2p", "P2pChannel::Send", pp.sim.now(), op,
                                 op_span, len);
  Status s = co_await pp.cli_ch->Send(pp.cli_src, len);
  pp.log.End(send, pp.sim.now());
  if (!s.ok()) co_return OpStatus::kError;
  const int recv = pp.log.Begin("p2p", "P2pChannel::RecvInto", pp.sim.now(),
                                 op, op_span, len);
  Result<std::uint32_t> got = co_await pp.cli_ch->RecvInto(pp.cli_dst, kMaxLen);
  pp.log.End(recv, pp.sim.now());
  if (!got.ok()) co_return OpStatus::kError;
  if (got.value() != len) co_return OpStatus::kBadData;
  co_return CheckEcho(pp, *pp.cli, pp.cli_dst, len);
}

Task<OpStatus> VrpcRoundTrip(Pingpong& pp, std::size_t i, int op_span) {
  const std::uint32_t len = pp.plan[i].len;
  const int call = pp.log.Begin("vrpc", "RpcClient::Call", pp.sim.now(),
                                 static_cast<std::int64_t>(i), op_span, len);
  Result<std::vector<std::uint8_t>> reply = co_await pp.rpc->Call(
      kProg, kVers, kProcEcho,
      std::vector<std::uint8_t>(pp.payload.begin(), pp.payload.end()));
  pp.log.End(call, pp.sim.now());
  if (!reply.ok()) co_return OpStatus::kError;
  co_return reply.value() == pp.payload ? OpStatus::kOk : OpStatus::kBadData;
}

Process Client(Pingpong& pp, std::size_t first, std::size_t last) {
  for (std::size_t i = first; i < last; ++i) {
    const PlanOp& op = pp.plan[i];
    const auto id = static_cast<std::int64_t>(i);
    FillPayload(pp.payload, op.len, Mix(pp.seed, i), TagFor(id));
    if (op.path != kVrpc && !pp.cli->WriteBuffer(pp.cli_src, pp.payload).ok()) {
      continue;  // never completes: counted as failed
    }
    OpRecord& rec = pp.records[i];
    rec.issue = pp.sim.now();
    pp.issue = rec.issue;
    const int span =
        pp.log.Begin("bench", kOpSpan[op.path], rec.issue, id, -1, op.len, op.path);
    pp.op_span[i] = span;
    OpStatus status = OpStatus::kError;
    switch (op.path) {
      case kRaw:
        status = co_await RawRoundTrip(pp, i, span);
        break;
      case kP2p:
        status = co_await P2pRoundTrip(pp, i, span);
        break;
      case kVrpc:
        status = co_await VrpcRoundTrip(pp, i, span);
        break;
    }
    rec.Finish(pp.sim.now(), status);
    pp.log.End(span, rec.done);
    pp.issue = -1;
  }
  --pp.pending;
}

// --- echo server ---------------------------------------------------------

// Knows the plan, as both ends of a benchmark ping-pong do. vRPC ops are
// served by the RpcServer's own loop. A failed echo shows up as the
// client's missed deadline.
Process EchoServer(Pingpong& pp, std::size_t first, std::size_t last) {
  for (std::size_t i = first; i < last; ++i) {
    const PlanOp& op = pp.plan[i];
    const auto id = static_cast<std::int64_t>(i);
    if (op.path == kRaw) {
      const VirtAddr tag_va = pp.srv_raw + op.len - 4;
      bool landed = co_await SpinOnTag(pp.sim, *pp.srv, tag_va, TagFor(id),
                                       pp.params.host.spin_poll);
      if (!landed) continue;
      const int send = pp.log.Begin("vmmc", "Endpoint::SendMsg", pp.sim.now(),
                                     id, pp.op_span[i], op.len);
      Status s = co_await pp.srv->SendMsg(pp.srv_raw, pp.srv_to_cli, op.len);
      pp.log.End(send, pp.sim.now());
      if (s.ok()) (void)ClearTag(*pp.srv, tag_va);
    } else if (op.path == kP2p) {
      const int recv = pp.log.Begin("p2p", "P2pChannel::RecvInto", pp.sim.now(),
                                     id, pp.op_span[i], op.len);
      Result<std::uint32_t> got = co_await pp.srv_ch->RecvInto(pp.srv_p2p, kMaxLen);
      pp.log.End(recv, pp.sim.now());
      if (!got.ok()) continue;
      const int send = pp.log.Begin("p2p", "P2pChannel::Send", pp.sim.now(), id,
                                     pp.op_span[i], got.value());
      Status s = co_await pp.srv_ch->Send(pp.srv_p2p, got.value());
      pp.log.End(send, pp.sim.now());
      (void)s;
    }
  }
}

Task<Result<std::vector<std::uint8_t>>> Echo(std::span<const std::uint8_t> args) {
  co_return std::vector<std::uint8_t>(args.begin(), args.end());
}

// --- setup ---------------------------------------------------------------

bool Alloc(Endpoint& ep, VirtAddr* out) {
  auto va = ep.AllocBuffer(kMaxLen);
  if (!va.ok()) return false;
  *out = va.value();
  return true;
}

Process ConnectBuffers(Pingpong& pp) {
  if (!Alloc(*pp.cli, &pp.cli_src) || !Alloc(*pp.cli, &pp.cli_raw) ||
      !Alloc(*pp.cli, &pp.cli_dst) || !Alloc(*pp.srv, &pp.srv_raw) ||
      !Alloc(*pp.srv, &pp.srv_p2p)) {
    pp.setup_error = "AllocBuffer failed";
    co_return;
  }
  ExportOptions srv_export;
  srv_export.name = "pp-srv-raw";
  auto e1 = co_await pp.srv->ExportBuffer(pp.srv_raw, kMaxLen, std::move(srv_export));
  ExportOptions cli_export;
  cli_export.name = "pp-cli-raw";
  auto e2 = co_await pp.cli->ExportBuffer(pp.cli_raw, kMaxLen, std::move(cli_export));
  if (!e1.ok() || !e2.ok()) {
    pp.setup_error = "ExportBuffer: " + (e1.ok() ? e2.status() : e1.status()).ToString();
    co_return;
  }
  ImportOptions wait;
  wait.wait = true;
  auto to_srv = co_await pp.cli->ImportBuffer(1, "pp-srv-raw", wait);
  auto to_cli = co_await pp.srv->ImportBuffer(0, "pp-cli-raw", wait);
  if (!to_srv.ok() || !to_cli.ok()) {
    pp.setup_error =
        "ImportBuffer: " + (to_srv.ok() ? to_cli.status() : to_srv.status()).ToString();
    co_return;
  }
  pp.cli_to_srv = to_srv.value().proxy_base;
  pp.srv_to_cli = to_cli.value().proxy_base;
  --pp.pending;
}

Process CreateChannel(Pingpong& pp, Endpoint* ep, int peer,
                      std::unique_ptr<P2pChannel>* out) {
  auto ch = co_await P2pChannel::Create(*ep, peer, "pp", pp.params.vmmc.p2p);
  if (!ch.ok()) {
    pp.setup_error = "P2pChannel::Create: " + ch.status().ToString();
    co_return;
  }
  *out = std::move(ch).value();
  --pp.pending;
}

Process ConnectRpc(Pingpong& pp) {
  auto server = co_await VmmcServerTransport::Create(*pp.cluster, 1, "pp-rpc", 1,
                                                     /*compat=*/true);
  if (!server.ok()) {
    pp.setup_error = "VmmcServerTransport::Create: " + server.status().ToString();
    co_return;
  }
  pp.rpc_transport = std::move(server).value();
  pp.rpc_server->Attach(pp.sim, pp.rpc_transport.get());
  auto client = co_await VmmcClientTransport::Connect(*pp.cluster, 0, 1, "pp-rpc",
                                                      0, /*compat=*/true);
  if (!client.ok()) {
    pp.setup_error = "VmmcClientTransport::Connect: " + client.status().ToString();
    co_return;
  }
  pp.rpc = std::make_unique<RpcClient>(pp.params, pp.sim, std::move(client).value());
  --pp.pending;
}

void BuildPlan(Pingpong& pp) {
  Rng rng(Mix(pp.seed, 0x9196));
  // Untimed warm-up, so TLB fills and first registrations land in setup:
  // one op per path at the largest size, one eager P2pChannel op, and one
  // rendezvous op at every whole page count, largest first. The last part
  // works around a RegCache bug: a cache hit hands back the region with
  // the byte length of the range's first registration, so a later, longer
  // message of the same page count would fail RdmaRead's bounds check
  // (OUT_OF_RANGE). Registering each page count at its full length first
  // keeps every later hit long enough.
  pp.plan = {{kRaw, kMaxLen, -1}, {kVrpc, kMaxLen, -1}, {kP2p, 256, -1}};
  for (std::uint32_t pages = kMaxLen / 4096; pages >= 1; --pages) {
    pp.plan.push_back({kP2p, pages * 4096, -1});
  }
  pp.warmup = pp.plan.size();
  std::vector<PlanOp> measured;
  int group = 0;
  for (const SizeClass& c : kClasses) {
    for (std::uint32_t len : StratifiedLogSizes(rng, c.count, c.lo, c.hi)) {
      for (Path path : {kRaw, kP2p, kVrpc}) measured.push_back({path, len, group});
      ++group;
    }
  }
  Shuffle(measured, rng);
  pp.plan.insert(pp.plan.end(), measured.begin(), measured.end());
  pp.records.assign(pp.plan.size(), OpRecord{});
  pp.op_span.assign(pp.plan.size(), -1);
  for (std::size_t i = 0; i < pp.plan.size(); ++i) {
    pp.records[i].kind = pp.plan[i].path;
    pp.records[i].group = pp.plan[i].group;
    pp.records[i].bytes = pp.plan[i].len;
  }
}

// One-way latencies by path, and the extra cost each library adds over
// raw SendMsg at the same size (each size ran once on every path).
void PathMetrics(const std::vector<OpRecord>& ops, std::uint32_t eager_max,
                 std::vector<LayerValue>& out) {
  std::vector<Tick> raw_rt, eager_rt, rdv_rt;
  std::map<int, std::array<Tick, 3>> by_group;
  std::map<int, std::uint32_t> group_len;
  for (const OpRecord& op : ops) {
    if (!op.ok) continue;
    const Tick rt = op.done - op.issue;
    if (op.kind == kRaw) raw_rt.push_back(rt);
    if (op.kind == kP2p) (op.bytes <= eager_max ? eager_rt : rdv_rt).push_back(rt);
    auto [it, fresh] = by_group.try_emplace(op.group, std::array<Tick, 3>{-1, -1, -1});
    (void)fresh;
    it->second[static_cast<std::size_t>(op.kind)] = rt;
    group_len[op.group] = op.bytes;
  }
  std::vector<double> eager_extra, rdv_extra, vrpc_extra;
  for (const auto& [group, rt] : by_group) {
    if (rt[kRaw] < 0) continue;
    if (rt[kP2p] >= 0) {
      const double extra = static_cast<double>(rt[kP2p] - rt[kRaw]) / 2000.0;
      (group_len[group] <= eager_max ? eager_extra : rdv_extra).push_back(extra);
    }
    if (rt[kVrpc] >= 0) {
      vrpc_extra.push_back(static_cast<double>(rt[kVrpc] - rt[kRaw]) / 1000.0);
    }
  }
  auto one_way = [](std::string name, std::vector<Tick> rts) {
    LayerValue v = P50Us(std::move(name), std::move(rts));
    v.value /= 2;
    return v;
  };
  auto median = [](std::string name, const std::vector<double>& v) {
    return LayerValue{std::move(name), Median(v), static_cast<long>(v.size()), false};
  };
  out.push_back(one_way("vmmc.raw_oneway_us_p50", raw_rt));
  out.push_back(one_way("p2p.eager_oneway_us_p50", eager_rt));
  out.push_back(one_way("p2p.rdv_oneway_us_p50", rdv_rt));
  out.push_back(median("p2p.eager_extra_us", eager_extra));
  out.push_back(median("p2p.rdv_extra_us", rdv_extra));
  out.push_back(median("vrpc.extra_us", vrpc_extra));
}

// Runs plan ops [first, last): the client and the echo server side by side.
bool RunOps(Pingpong& pp, std::size_t first, std::size_t last) {
  pp.pending = 1;
  pp.sim.Spawn(EchoServer(pp, first, last));
  pp.sim.Spawn(Client(pp, first, last));
  return Drive(
      pp.sim, [&pp] { return pp.pending == 0; },
      [&pp] { return pp.issue >= 0 && pp.sim.now() > pp.issue + kOpDeadline; },
      kMillisecond);
}

}  // namespace

Outcome RunPingpong(std::uint64_t seed, SpanLog& log) {
  const double t0 = WallNow();
  Outcome out;
  // Never torn down: suspended coroutines still point into it when the
  // run ends, and the driver process exits right after.
  Pingpong& pp = *new Pingpong(log);
  pp.seed = seed;
  BuildPlan(pp);
  ClusterOptions options;
  options.num_nodes = 2;
  pp.cluster = std::make_unique<Cluster>(pp.sim, pp.params, options);
  Simulator& sim = pp.sim;

  const int boot = log.Begin("vmmc", "Cluster::Boot", sim.now());
  Status booted = pp.cluster->Boot();
  log.End(boot, sim.now());
  if (!booted.ok()) {
    out.error = "boot failed: " + booted.ToString();
    return out;
  }
  out.boot_sim = pp.cluster->boot_time();

  const int connect = log.Begin("vmmc", "setup.connect", sim.now());
  auto cli = pp.cluster->OpenEndpoint(0, "pp-client");
  auto srv = pp.cluster->OpenEndpoint(1, "pp-echo");
  if (!cli.ok() || !srv.ok()) {
    out.error = "OpenEndpoint failed";
    return out;
  }
  pp.cli = std::move(cli).value();
  pp.srv = std::move(srv).value();
  pp.pending = 1;
  sim.Spawn(ConnectBuffers(pp));
  const bool connected =
      RunPhase(sim, log, "vmmc", "export/import", pp.pending, kSetupLimit);
  log.End(connect, sim.now());
  if (!connected) {
    out.error = "buffer export/import failed: " + pp.setup_error;
    return out;
  }

  pp.pending = 2;
  sim.Spawn(CreateChannel(pp, pp.cli.get(), 1, &pp.cli_ch));
  sim.Spawn(CreateChannel(pp, pp.srv.get(), 0, &pp.srv_ch));
  if (!RunPhase(sim, log, "p2p", "P2pChannel::Create", pp.pending, kSetupLimit)) {
    out.error = "channel setup failed: " + pp.setup_error;
    return out;
  }

  pp.rpc_server = std::make_unique<RpcServer>(pp.params);
  pp.rpc_server->Register(kProg, kVers, kProcEcho, Echo);
  pp.pending = 1;
  sim.Spawn(ConnectRpc(pp));
  if (!RunPhase(sim, log, "vrpc", "vrpc.connect", pp.pending, kSetupLimit)) {
    out.error = "vRPC connect failed: " + pp.setup_error;
    return out;
  }

  const int warm = log.Begin("bench", "setup.warmup", sim.now());
  const bool warmed = RunOps(pp, 0, pp.warmup);
  log.End(warm, sim.now());
  for (std::size_t i = 0; i < pp.warmup; ++i) {
    if (!warmed || !pp.records[i].ok) {
      out.error = "warm-up op failed";
      return out;
    }
  }

  out.nodes = pp.cluster->num_nodes();
  out.sram_used_max = MaxSramUsed(*pp.cluster);
  out.before = Snapshot::Take(*pp.cluster);
  out.measure_sim_begin = sim.now();
  const double t1 = WallNow();
  out.setup_wall_s = t1 - t0;
  // A stall or a missed deadline ends the phase early; the ops it left
  // unfinished count as failed.
  RunOps(pp, pp.warmup, pp.plan.size());
  out.measure_wall_s = WallNow() - t1;
  out.after = Snapshot::Take(*pp.cluster);
  out.ops.assign(pp.records.begin() + static_cast<std::ptrdiff_t>(pp.warmup),
                 pp.records.end());
  PathMetrics(out.ops, pp.params.vmmc.p2p.eager_max, out.layer);
  return out;
}

}  // namespace perfbench
