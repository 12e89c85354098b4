// bulk-lossy: 2 nodes on one switch. Four client processes on node 0,
// each one coroutine with its own endpoint, run closed loops of pushes and
// pulls of 4 KB to 1 MB, lengths that are not page multiples included. A
// push is Endpoint::SendMsg into the client's buffer exported by node 1; a
// pull is Endpoint::RdmaRead from a node-1 region registered with
// RegisterMemory. Once setup is done, every link drops 2% of packets and
// flips a bit in 1% (the BM_MacroFaultSweepReplay rates), so go-back-N
// retransmits, RTO timers and copy-on-write payloads run on the hot path.
#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "vmmc/sim/fault.h"
#include "vmmc/sim/sync.h"

namespace perfbench {
namespace {

using vmmc::Params;
using vmmc::Status;
using vmmc::mem::VirtAddr;
using vmmc::sim::Event;
using vmmc::sim::FaultPlan;
using vmmc::sim::kMillisecond;
using vmmc::sim::LinkFaultRule;
using vmmc::sim::Process;
using vmmc::sim::Simulator;
using vmmc::vmmc_core::Cluster;
using vmmc::vmmc_core::ClusterOptions;
using vmmc::vmmc_core::Endpoint;
using vmmc::vmmc_core::ExportOptions;
using vmmc::vmmc_core::ImportOptions;
using vmmc::vmmc_core::MemRegion;
using vmmc::vmmc_core::ProxyAddr;
using vmmc::vmmc_core::RegIntent;
using vmmc::vmmc_core::RemoteTarget;

enum Kind : int { kPush = 0, kPull = 1 };
const char* const kOpSpan[] = {"op.push", "op.pull"};

constexpr int kClients = 4;
constexpr int kOpsPerClient = 512;  // half pushes, half pulls
constexpr std::uint32_t kPage = 4096;
constexpr std::uint32_t kMinLen = 4 * 1024;
constexpr std::uint32_t kMaxLen = 1024 * 1024;
constexpr std::uint32_t kSourceBytes = 2 * kMaxLen;  // pull source region
constexpr double kDropRate = 0.02;
constexpr double kBitflipRate = 0.01;
constexpr Tick kOpDeadline = 2000 * kMillisecond;
constexpr Tick kSetupLimit = 10'000 * kMillisecond;

struct BulkOp {
  Kind kind;
  std::uint32_t len;
  std::uint32_t offset;  // pulls: offset into the source region
};

struct Client {
  std::unique_ptr<Endpoint> ep;
  VirtAddr src = 0;          // push source
  VirtAddr dst = 0;          // pull destination
  MemRegion dst_region{};
  VirtAddr push_buf = 0;     // node 1's exported push target for this client
  ProxyAddr push_target = 0;
  std::vector<BulkOp> plan;  // warm-up ops first, then the measured ops
  std::vector<OpRecord> records;
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> scratch;
  Tick issue = -1;
  // The push node 1's verifier is waiting for.
  bool push_pending = false;
  std::uint32_t push_len = 0;
  std::uint32_t push_tag = 0;
  OpStatus push_status = OpStatus::kError;
  Tick push_done = -1;
  std::unique_ptr<Event> verified;
};

struct Bulk {
  explicit Bulk(SpanLog& span_log) : log(span_log) {}

  Simulator sim;
  Params params;
  SpanLog& log;
  std::uint64_t seed = 0;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<Endpoint> store;  // node 1: push targets, pull source
  VirtAddr source = 0;
  MemRegion source_region{};
  std::vector<std::uint8_t> source_bytes;
  std::array<Client, kClients> clients;
  std::size_t warmup = 0;  // warm-up ops per client
  std::unique_ptr<Event> push_posted;
  int pending = 0;
  std::vector<std::uint8_t> scratch;  // the verifier's
  std::string setup_error;
};

Status ClearTag(Endpoint& ep, VirtAddr va) {
  const std::uint8_t zero[4] = {0, 0, 0, 0};
  return ep.WriteBuffer(va, zero);
}

// Node 1's side of every push: spins on the last word of each client's
// expected push, checks the bytes once it lands, and releases the client.
// Sleeps while no push is outstanding.
Process Verifier(Bulk& bk) {
  Endpoint& store = *bk.store;
  for (;;) {
    bool waiting = false;
    for (Client& c : bk.clients) {
      if (!c.push_pending) continue;
      const VirtAddr tag_va = c.push_buf + c.push_len - 4;
      std::uint8_t word[4];
      if (!store.ReadBuffer(tag_va, word).ok() || LoadTag(word) != c.push_tag) {
        waiting = true;
        continue;
      }
      bk.scratch.resize(c.push_len);
      OpStatus status = OpStatus::kError;
      if (store.ReadBuffer(c.push_buf, {bk.scratch.data(), c.push_len}).ok() &&
          ClearTag(store, tag_va).ok()) {
        status = std::equal(bk.scratch.begin(), bk.scratch.end(), c.payload.begin())
                     ? OpStatus::kOk
                     : OpStatus::kBadData;
      }
      c.push_status = status;
      c.push_done = bk.sim.now();
      c.push_pending = false;
      c.verified->Set();
    }
    if (waiting) {
      co_await bk.sim.Delay(bk.params.vmmc.p2p.poll);
    } else {
      bk.push_posted->Reset();
      co_await bk.push_posted->Wait();
    }
  }
}

vmmc::sim::Task<OpStatus> Push(Bulk& bk, Client& c, std::size_t i, std::int64_t id,
                               int op_span) {
  const std::uint32_t len = c.plan[i].len;
  const std::uint32_t tag = TagFor(static_cast<std::int64_t>(i));
  FillPayload(c.payload, len, Mix(bk.seed, static_cast<std::uint64_t>(id)), tag);
  if (!c.ep->WriteBuffer(c.src, c.payload).ok()) co_return OpStatus::kError;
  c.push_len = len;
  c.push_tag = tag;
  c.push_pending = true;
  c.verified->Reset();
  bk.push_posted->Set();
  const int send = bk.log.Begin("vmmc", "Endpoint::SendMsg", bk.sim.now(), id,
                                 op_span, len);
  Status s = co_await c.ep->SendMsg(c.src, c.push_target, len);
  bk.log.End(send, bk.sim.now());
  if (!s.ok()) {
    c.push_pending = false;
    co_return OpStatus::kError;
  }
  co_await c.verified->Wait();
  co_return c.push_status;
}

vmmc::sim::Task<OpStatus> Pull(Bulk& bk, Client& c, std::size_t i, std::int64_t id,
                               int op_span) {
  const BulkOp& op = c.plan[i];
  const int read = bk.log.Begin("vmmc", "Endpoint::RdmaRead", bk.sim.now(), id,
                                 op_span, op.len);
  Status s = co_await c.ep->RdmaRead(
      RemoteTarget{1, bk.source_region.rtag, op.offset}, op.len, c.dst_region, 0);
  bk.log.End(read, bk.sim.now());
  if (!s.ok()) co_return OpStatus::kError;
  c.scratch.resize(op.len);
  if (!c.ep->ReadBuffer(c.dst, {c.scratch.data(), op.len}).ok()) {
    co_return OpStatus::kError;
  }
  co_return std::equal(c.scratch.begin(), c.scratch.end(),
                       bk.source_bytes.begin() + op.offset)
      ? OpStatus::kOk
      : OpStatus::kBadData;
}

Process RunClient(Bulk& bk, int index, std::size_t first, std::size_t last) {
  Client& c = bk.clients[static_cast<std::size_t>(index)];
  for (std::size_t i = first; i < last; ++i) {
    const BulkOp& op = c.plan[i];
    const auto id = static_cast<std::int64_t>(
        static_cast<std::size_t>(index) * c.plan.size() + i);
    OpRecord& rec = c.records[i];
    rec.issue = bk.sim.now();
    c.issue = rec.issue;
    const int span =
        bk.log.Begin("bench", kOpSpan[op.kind], rec.issue, id, -1, op.len, op.kind);
    OpStatus status = OpStatus::kError;
    if (op.kind == kPush) {
      status = co_await Push(bk, c, i, id, span);
      rec.Finish(status == OpStatus::kError ? bk.sim.now() : c.push_done, status);
    } else {
      status = co_await Pull(bk, c, i, id, span);
      rec.Finish(bk.sim.now(), status);
    }
    bk.log.End(span, rec.done);
    c.issue = -1;
  }
  --bk.pending;
}

bool RunOps(Bulk& bk, std::size_t first, std::size_t last) {
  bk.pending = kClients;
  for (int k = 0; k < kClients; ++k) bk.sim.Spawn(RunClient(bk, k, first, last));
  auto overdue = [&bk] {
    for (const Client& c : bk.clients) {
      if (c.issue >= 0 && bk.sim.now() > c.issue + kOpDeadline) return true;
    }
    return false;
  };
  return Drive(bk.sim, [&bk] { return bk.pending == 0; }, overdue, kMillisecond);
}

// Sizes stratified over [4 KB, 1 MB]; every other one a page multiple.
std::vector<std::uint32_t> BulkSizes(Rng& rng, int count) {
  std::vector<std::uint32_t> sizes = StratifiedLogSizes(rng, count, kMinLen, kMaxLen);
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    std::uint32_t& len = sizes[k];
    if (k % 2 == 0) {
      len = std::max(kMinLen, len / kPage * kPage);
    } else if (len % kPage == 0) {
      len = len == kMaxLen ? len - 1 : len + 1;
    }
  }
  return sizes;
}

void BuildPlan(Bulk& bk) {
  Rng rng(Mix(bk.seed, 0xB01C));
  bk.source_bytes.resize(kSourceBytes);
  for (std::uint8_t& b : bk.source_bytes) b = static_cast<std::uint8_t>(rng.Next());
  for (Client& c : bk.clients) {
    // Warm-up: one push and one pull at the largest size.
    c.plan = {{kPush, kMaxLen, 0}, {kPull, kMaxLen, 0}};
    std::vector<BulkOp> measured;
    for (Kind kind : {kPush, kPull}) {
      for (std::uint32_t len : BulkSizes(rng, kOpsPerClient / 2)) {
        const auto offset =
            kind == kPull ? static_cast<std::uint32_t>(rng.Below(kSourceBytes - len + 1))
                          : 0u;
        measured.push_back({kind, len, offset});
      }
    }
    Shuffle(measured, rng);
    c.plan.insert(c.plan.end(), measured.begin(), measured.end());
    c.records.assign(c.plan.size(), OpRecord{});
    for (std::size_t i = 0; i < c.plan.size(); ++i) {
      c.records[i].kind = c.plan[i].kind;
      c.records[i].bytes = c.plan[i].len;
    }
  }
  bk.warmup = 2;
}

Process Connect(Bulk& bk) {
  Endpoint& store = *bk.store;
  auto failed = [&bk](const char* call, const Status& s) {
    bk.setup_error = std::string(call) + ": " + s.ToString();
  };
  auto source = store.AllocBuffer(kSourceBytes);
  if (!source.ok()) {
    failed("AllocBuffer", source.status());
    co_return;
  }
  bk.source = source.value();
  if (Status w = store.WriteBuffer(bk.source, bk.source_bytes); !w.ok()) {
    failed("WriteBuffer", w);
    co_return;
  }
  auto region = co_await store.RegisterMemory(bk.source, kSourceBytes, RegIntent::kRecv);
  if (!region.ok()) {
    failed("RegisterMemory", region.status());
    co_return;
  }
  bk.source_region = region.value();
  for (int k = 0; k < kClients; ++k) {
    Client& c = bk.clients[static_cast<std::size_t>(k)];
    auto push_buf = store.AllocBuffer(kMaxLen);
    auto src = c.ep->AllocBuffer(kMaxLen);
    auto dst = c.ep->AllocBuffer(kMaxLen);
    if (!push_buf.ok() || !src.ok() || !dst.ok()) {
      failed("AllocBuffer", vmmc::ResourceExhausted("out of buffer memory"));
      co_return;
    }
    c.push_buf = push_buf.value();
    c.src = src.value();
    c.dst = dst.value();
    ExportOptions ex;
    ex.name = "bulk-push-" + std::to_string(k);
    auto exported = co_await store.ExportBuffer(c.push_buf, kMaxLen, std::move(ex));
    if (!exported.ok()) {
      failed("ExportBuffer", exported.status());
      co_return;
    }
    auto dst_region = co_await c.ep->RegisterMemory(c.dst, kMaxLen, RegIntent::kRecv);
    if (!dst_region.ok()) {
      failed("RegisterMemory", dst_region.status());
      co_return;
    }
    c.dst_region = dst_region.value();
    ImportOptions wait;
    wait.wait = true;
    auto imported =
        co_await c.ep->ImportBuffer(1, "bulk-push-" + std::to_string(k), wait);
    if (!imported.ok()) {
      failed("ImportBuffer", imported.status());
      co_return;
    }
    c.push_target = imported.value().proxy_base;
  }
  --bk.pending;
}

}  // namespace

Outcome RunBulkLossy(std::uint64_t seed, SpanLog& log) {
  const double t0 = WallNow();
  Outcome out;
  // Never torn down: suspended coroutines still point into it when the
  // run ends, and the driver process exits right after.
  Bulk& bk = *new Bulk(log);
  bk.seed = seed;
  BuildPlan(bk);
  ClusterOptions options;
  options.num_nodes = 2;
  bk.cluster = std::make_unique<Cluster>(bk.sim, bk.params, options);
  Simulator& sim = bk.sim;

  const int boot = log.Begin("vmmc", "Cluster::Boot", sim.now());
  Status booted = bk.cluster->Boot();
  log.End(boot, sim.now());
  if (!booted.ok()) {
    out.error = "boot failed: " + booted.ToString();
    return out;
  }
  out.boot_sim = bk.cluster->boot_time();

  const int connect = log.Begin("vmmc", "setup.connect", sim.now());
  auto store = bk.cluster->OpenEndpoint(1, "bulk-store");
  if (!store.ok()) {
    out.error = "OpenEndpoint(store) failed: " + store.status().ToString();
    return out;
  }
  bk.store = std::move(store).value();
  for (int k = 0; k < kClients; ++k) {
    auto ep = bk.cluster->OpenEndpoint(0, "bulk-client-" + std::to_string(k));
    if (!ep.ok()) {
      out.error = "OpenEndpoint(client) failed: " + ep.status().ToString();
      return out;
    }
    Client& c = bk.clients[static_cast<std::size_t>(k)];
    c.ep = std::move(ep).value();
    c.verified = std::make_unique<Event>(sim);
  }
  bk.push_posted = std::make_unique<Event>(sim);
  bk.pending = 1;
  sim.Spawn(Connect(bk));
  const bool connected =
      RunPhase(sim, log, "vmmc", "export/register/import", bk.pending, kSetupLimit);
  log.End(connect, sim.now());
  if (!connected) {
    out.error = "buffer export/registration/import failed: " + bk.setup_error;
    return out;
  }
  sim.Spawn(Verifier(bk));

  const int warm = log.Begin("bench", "setup.warmup", sim.now());
  const bool warmed = RunOps(bk, 0, bk.warmup);
  log.End(warm, sim.now());
  for (const Client& c : bk.clients) {
    for (std::size_t i = 0; i < bk.warmup; ++i) {
      if (!warmed || !c.records[i].ok) {
        out.error = "warm-up op failed";
        return out;
      }
    }
  }

  // Faults start with the measured phase; setup ran on clean links.
  LinkFaultRule rule;
  rule.drop_rate = kDropRate;
  rule.bitflip_rate = kBitflipRate;
  sim.faults().Configure(FaultPlan::AllLinks(rule, Mix(seed, 0xFA017)));

  out.nodes = bk.cluster->num_nodes();
  out.sram_used_max = MaxSramUsed(*bk.cluster);
  out.before = Snapshot::Take(*bk.cluster);
  out.measure_sim_begin = sim.now();
  const double t1 = WallNow();
  out.setup_wall_s = t1 - t0;
  // A stall or a missed deadline ends the phase early; the ops it left
  // unfinished count as failed.
  RunOps(bk, bk.warmup, bk.clients[0].plan.size());
  out.measure_wall_s = WallNow() - t1;
  out.after = Snapshot::Take(*bk.cluster);
  for (const Client& c : bk.clients) {
    out.ops.insert(out.ops.end(),
                   c.records.begin() + static_cast<std::ptrdiff_t>(bk.warmup),
                   c.records.end());
  }
  return out;
}

}  // namespace perfbench
