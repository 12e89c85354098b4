// Fault-matrix tests for the go-back-N reliability layer: deterministic
// fault injection (sim/fault.h) across {bit-flip, drop, delay, DMA-stall}
// × {low, high} rates × seeds, asserting that every VMMC send is delivered
// exactly once, intact and in order, with no deadlock — for raw sends,
// one-sided RDMA writes and reads, vRPC round trips, and a collective.
// Also pins down run-to-run determinism (same seed + plan ⇒ identical
// metrics and trace) and the fabric drop-notice path (misroutes reach the
// LCP retransmit logic).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "co_test_util.h"
#include "vmmc/coll/communicator.h"
#include "vmmc/sim/fault.h"
#include "vmmc/vmmc/cluster.h"
#include "vmmc/vrpc/vmmc_transport.h"
#include "vmmc/vrpc/vrpc.h"
#include "vmmc/vrpc/xdr.h"

namespace vmmc::vmmc_core {
namespace {

using sim::DmaStallRule;
using sim::FaultPlan;
using sim::LinkFaultRule;
using sim::Tick;

enum class FaultKind { kBitFlip, kDrop, kDelay, kDmaStall };

const char* KindName(FaultKind k) {
  switch (k) {
    case FaultKind::kBitFlip: return "bitflip";
    case FaultKind::kDrop: return "drop";
    case FaultKind::kDelay: return "delay";
    case FaultKind::kDmaStall: return "dmastall";
  }
  return "?";
}

// One matrix cell: what goes wrong, how often, under which seed.
struct FaultCase {
  FaultKind kind = FaultKind::kDrop;
  bool high = false;
  std::uint64_t seed = 1;

  std::string Name() const {
    return std::string(KindName(kind)) + (high ? "_high" : "_low") + "_s" +
           std::to_string(seed);
  }

  FaultPlan Plan() const {
    FaultPlan plan;
    plan.seed = seed;
    LinkFaultRule rule;
    switch (kind) {
      case FaultKind::kBitFlip:
        rule.bitflip_rate = high ? 0.20 : 0.02;
        plan.links.push_back(rule);
        break;
      case FaultKind::kDrop:
        rule.drop_rate = high ? 0.20 : 0.02;
        plan.links.push_back(rule);
        break;
      case FaultKind::kDelay:
        rule.delay_rate = high ? 0.50 : 0.05;
        rule.max_delay = high ? 20'000 : 5'000;
        plan.links.push_back(rule);
        break;
      case FaultKind::kDmaStall: {
        DmaStallRule stall;
        stall.start = 0;
        stall.duration = high ? 400'000 : 50'000;
        stall.period = 1'000'000;
        plan.dma_stalls.push_back(stall);
        break;
      }
    }
    return plan;
  }
};

std::vector<FaultCase> FullMatrix() {
  std::vector<FaultCase> cases;
  for (FaultKind kind : {FaultKind::kBitFlip, FaultKind::kDrop,
                         FaultKind::kDelay, FaultKind::kDmaStall}) {
    for (bool high : {false, true}) {
      for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
        cases.push_back(FaultCase{kind, high, seed});
      }
    }
  }
  return cases;
}

// Runs `sim` until `pred` holds or simulated time reaches `deadline`, and
// returns pred(): a data-path hang fails at the deadline instead of
// spinning until the test times out.
template <typename Pred>
bool RunUntilBy(sim::Simulator& sim, Tick deadline, Pred&& pred) {
  sim.RunUntil([&] { return pred() || sim.now() >= deadline; });
  return pred();
}

std::vector<std::uint8_t> MakePayload(std::uint64_t tag, std::uint32_t len) {
  std::vector<std::uint8_t> v(len);
  std::uint32_t x = static_cast<std::uint32_t>(tag * 2654435761u + 1);
  for (std::uint32_t i = 0; i < len; ++i) {
    x = x * 1664525u + 1013904223u;
    v[i] = static_cast<std::uint8_t>(x >> 24);
  }
  return v;
}

// ---------------------------------------------------------------------------
// Raw VMMC sends under the full fault matrix.
// ---------------------------------------------------------------------------

class FaultMatrixTest : public ::testing::TestWithParam<FaultCase> {};

TEST_P(FaultMatrixTest, SendsDeliverExactlyOnceInOrder) {
  const FaultCase& fc = GetParam();
  sim::Simulator sim;
  Params params;
  ClusterOptions options;
  options.num_nodes = 2;
  Cluster cluster(sim, params, options);
  ASSERT_TRUE(cluster.Boot().ok());
  // Faults start after boot: the mapping phase models a healthy bring-up.
  sim.faults().Configure(fc.Plan());

  auto recv = cluster.OpenEndpoint(1, "r");
  auto send = cluster.OpenEndpoint(0, "s");
  ASSERT_TRUE(recv.ok() && send.ok());

  // Mix of short (inline), single-chunk, and multi-chunk messages; each
  // goes to its own 16 KB slice of the exported region. The final slice is
  // written kOverwrites times with different patterns — in-order delivery
  // means the last pattern wins.
  const std::vector<std::uint32_t> kLens = {17,   100,  128,  129,
                                            1000, 4096, 5000, 16000};
  const std::uint32_t kSlice = 16384;
  const int kOverwrites = 4;
  const std::uint32_t region =
      kSlice * static_cast<std::uint32_t>(kLens.size() + 1);

  mem::VirtAddr rbuf = 0;
  bool done = false;
  auto prog = [&]() -> sim::Process {
    auto buf = recv.value()->AllocBuffer(region);
    CO_ASSERT_TRUE(buf.ok());
    rbuf = buf.value();
    ExportOptions opts;
    opts.name = "faulty";
    auto id = co_await recv.value()->ExportBuffer(rbuf, region, std::move(opts));
    CO_ASSERT_TRUE(id.ok());
    ImportOptions wait;
    wait.wait = true;
    auto imp = co_await send.value()->ImportBuffer(1, "faulty", wait);
    CO_ASSERT_TRUE(imp.ok());
    auto src = send.value()->AllocBuffer(kSlice);
    CO_ASSERT_TRUE(src.ok());
    for (std::size_t i = 0; i < kLens.size(); ++i) {
      auto payload = MakePayload(i, kLens[i]);
      CO_ASSERT_TRUE(send.value()->WriteBuffer(src.value(), payload).ok());
      Status s = co_await send.value()->SendMsg(
          src.value(), imp.value().proxy_base + static_cast<ProxyAddr>(i) * kSlice,
          kLens[i]);
      CO_ASSERT_TRUE(s.ok());
    }
    const ProxyAddr last =
        imp.value().proxy_base + static_cast<ProxyAddr>(kLens.size()) * kSlice;
    for (int n = 0; n < kOverwrites; ++n) {
      auto payload = MakePayload(100 + static_cast<std::uint64_t>(n), 8000);
      CO_ASSERT_TRUE(send.value()->WriteBuffer(src.value(), payload).ok());
      Status s = co_await send.value()->SendMsg(src.value(), last, 8000);
      CO_ASSERT_TRUE(s.ok());
    }
    done = true;
  };
  sim.Spawn(prog());
  // No deadlock: the whole exchange finishes in bounded simulated time
  // (the slowest case, bitflip_high_s33, needs 7.3 ms).
  const Tick deadline = sim.now() + sim::Milliseconds(50);
  ASSERT_TRUE(RunUntilBy(sim, deadline, [&] { return done; })) << fc.Name();
  // Drain: sender completion is local, the tail chunks (and their
  // retransmissions) may still be in flight.
  const auto& rstats = cluster.node(1).lcp->metrics();
  std::uint64_t expect_bytes = 0;
  for (std::uint32_t len : kLens) expect_bytes += len;
  expect_bytes += static_cast<std::uint64_t>(kOverwrites) * 8000;
  ASSERT_TRUE(RunUntilBy(sim, deadline, [&] {
    return rstats.bytes_received.value() >= expect_bytes;
  }))
      << fc.Name() << ": delivered " << rstats.bytes_received.value() << "/"
      << expect_bytes;

  // Exactly once: accepted bytes match sent bytes despite retransmissions.
  EXPECT_EQ(rstats.bytes_received.value(), expect_bytes) << fc.Name();

  // Intact: every slice matches its payload byte for byte.
  for (std::size_t i = 0; i < kLens.size(); ++i) {
    auto payload = MakePayload(i, kLens[i]);
    std::vector<std::uint8_t> got(kLens[i]);
    ASSERT_TRUE(recv.value()->ReadBuffer(rbuf + i * kSlice, got).ok());
    EXPECT_EQ(got, payload) << fc.Name() << " slice " << i;
  }
  // In order: the last overwrite is what remains.
  auto last_payload =
      MakePayload(100 + static_cast<std::uint64_t>(kOverwrites) - 1, 8000);
  std::vector<std::uint8_t> got(8000);
  ASSERT_TRUE(recv.value()->ReadBuffer(rbuf + kLens.size() * kSlice, got).ok());
  EXPECT_EQ(got, last_payload) << fc.Name();

  // The plan actually did something (and the recovery machinery ran).
  // Only asserted for high-rate cells: at the low rates a particular seed
  // can legitimately draw zero faults over this short workload, and
  // delay jitter reorders nothing on a FIFO link so it needs no recovery.
  if (fc.high) {
    const obs::Registry& m = sim.metrics();
    const auto& sstats = cluster.node(0).lcp->metrics();
    switch (fc.kind) {
      case FaultKind::kBitFlip:
        EXPECT_GT(m.CounterValue("fault.injected.bitflips"), 0u) << fc.Name();
        EXPECT_GT(sstats.retransmits.value() +
                      cluster.node(1).lcp->metrics().retransmits.value(),
                  0u)
            << fc.Name();
        break;
      case FaultKind::kDrop:
        EXPECT_GT(m.CounterValue("fault.injected.drops"), 0u) << fc.Name();
        EXPECT_GT(sstats.retransmits.value() +
                      cluster.node(1).lcp->metrics().retransmits.value(),
                  0u)
            << fc.Name();
        break;
      case FaultKind::kDelay:
        EXPECT_GT(m.CounterValue("fault.injected.delays"), 0u) << fc.Name();
        break;
      case FaultKind::kDmaStall:
        EXPECT_GT(m.CounterValue("fault.injected.dma_stalls"), 0u) << fc.Name();
        break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FaultMatrixTest, ::testing::ValuesIn(FullMatrix()),
    [](const ::testing::TestParamInfo<FaultCase>& param_info) {
      return param_info.param.Name();
    });

// ---------------------------------------------------------------------------
// vRPC round trips under faults: the reliable layer is transparent to the
// transport, so calls complete with correct results under loss.
// ---------------------------------------------------------------------------

class FaultVrpcTest : public ::testing::TestWithParam<FaultCase> {};

TEST_P(FaultVrpcTest, CallsCompleteUnderFaults) {
  const FaultCase& fc = GetParam();
  sim::Simulator sim;
  Params params;
  ClusterOptions options;
  options.num_nodes = 2;
  Cluster cluster(sim, params, options);
  ASSERT_TRUE(cluster.Boot().ok());
  sim.faults().Configure(fc.Plan());

  vrpc::RpcServer server(params);
  constexpr std::uint32_t kProg = 7, kVers = 1, kEcho = 1;
  server.Register(kProg, kVers, kEcho,
                  [&sim](std::span<const std::uint8_t> args)
                      -> sim::Task<Result<std::vector<std::uint8_t>>> {
                    co_await sim.Delay(0);
                    co_return std::vector<std::uint8_t>(args.begin(),
                                                        args.end());
                  });

  bool done = false;
  auto prog = [&]() -> sim::Process {
    auto st = co_await vrpc::VmmcServerTransport::Create(cluster, 1, "svc", 2);
    CO_ASSERT_TRUE(st.ok());
    server.Attach(sim, st.value().get());
    auto ct = co_await vrpc::VmmcClientTransport::Connect(cluster, 0, 1, "svc", 0);
    CO_ASSERT_TRUE(ct.ok());
    vrpc::RpcClient client(params, sim, std::move(ct).value());
    for (int i = 0; i < 8; ++i) {
      auto blob = MakePayload(static_cast<std::uint64_t>(i) + 7, 600);
      auto r = co_await client.Call(kProg, kVers, kEcho, blob);
      CO_ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.value(), blob) << fc.Name() << " call " << i;
    }
    done = true;
    for (;;) co_await sim.Delay(sim::Seconds(1));  // keep transports alive
  };
  sim.Spawn(prog());
  // The slowest case, bitflip_high_s5, needs 15.3 ms.
  const Tick deadline = sim.now() + sim::Milliseconds(100);
  ASSERT_TRUE(RunUntilBy(sim, deadline, [&] { return done; })) << fc.Name();
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FaultVrpcTest,
    ::testing::Values(FaultCase{FaultKind::kBitFlip, true, 5},
                      FaultCase{FaultKind::kDrop, true, 5},
                      FaultCase{FaultKind::kDelay, true, 5},
                      FaultCase{FaultKind::kDmaStall, true, 5},
                      FaultCase{FaultKind::kDrop, false, 6},
                      FaultCase{FaultKind::kDrop, true, 7}),
    [](const ::testing::TestParamInfo<FaultCase>& param_info) {
      return param_info.param.Name();
    });

// ---------------------------------------------------------------------------
// A collective (broadcast) under faults: many concurrent reliable flows.
// ---------------------------------------------------------------------------

class FaultCollTest : public ::testing::TestWithParam<FaultCase> {};

TEST_P(FaultCollTest, BroadcastDeliversUnderFaults) {
  const FaultCase& fc = GetParam();
  sim::Simulator sim;
  Params params;
  ClusterOptions options;
  const int size = 4;
  options.num_nodes = size;
  Cluster cluster(sim, params, options);
  ASSERT_TRUE(cluster.Boot().ok());
  sim.faults().Configure(fc.Plan());

  std::vector<std::unique_ptr<coll::Communicator>> comms(size);
  int created = 0;
  auto create = [&](int r) -> sim::Process {
    auto c = co_await coll::Communicator::Create(cluster, r, size);
    CO_ASSERT_TRUE(c.ok());
    comms[static_cast<std::size_t>(r)] = std::move(c).value();
    ++created;
  };
  for (int r = 0; r < size; ++r) sim.Spawn(create(r));
  // Creation needs 7.8 ms, the slowest broadcast (bitflip) 8.6 ms.
  const Tick create_deadline = sim.now() + sim::Milliseconds(50);
  ASSERT_TRUE(RunUntilBy(sim, create_deadline, [&] { return created == size; }))
      << fc.Name();

  auto payload = MakePayload(99, 10'000);
  std::vector<std::vector<std::uint8_t>> got(static_cast<std::size_t>(size));
  int done = 0;
  auto prog = [&](int r) -> sim::Process {
    std::vector<std::uint8_t>& mine = got[static_cast<std::size_t>(r)];
    if (r == 0) mine = payload;
    Status s = co_await comms[static_cast<std::size_t>(r)]->Broadcast(0, mine);
    CO_ASSERT_TRUE(s.ok());
    ++done;
  };
  for (int r = 0; r < size; ++r) sim.Spawn(prog(r));
  const Tick deadline = sim.now() + sim::Milliseconds(50);
  ASSERT_TRUE(RunUntilBy(sim, deadline, [&] { return done == size; }))
      << fc.Name();
  for (int r = 0; r < size; ++r) {
    EXPECT_EQ(got[static_cast<std::size_t>(r)], payload)
        << fc.Name() << " rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FaultCollTest,
    ::testing::Values(FaultCase{FaultKind::kBitFlip, true, 3},
                      FaultCase{FaultKind::kDrop, true, 3},
                      FaultCase{FaultKind::kDelay, true, 3},
                      FaultCase{FaultKind::kDmaStall, true, 3}),
    [](const ::testing::TestParamInfo<FaultCase>& param_info) {
      return param_info.param.Name();
    });

// ---------------------------------------------------------------------------
// One-sided RDMA under faults: a write's fin chunk and a read's request,
// data and fin chunks are go-back-N packets like any other.
// ---------------------------------------------------------------------------

class FaultRdmaTest : public ::testing::TestWithParam<FaultCase> {};

TEST_P(FaultRdmaTest, WriteWithFinAndReadBackUnderFaults) {
  const FaultCase& fc = GetParam();
  sim::Simulator sim;
  Params params;
  ClusterOptions options;
  options.num_nodes = 2;
  Cluster cluster(sim, params, options);
  ASSERT_TRUE(cluster.Boot().ok());
  sim.faults().Configure(fc.Plan());
  auto a = cluster.OpenEndpoint(0, "a");
  auto b = cluster.OpenEndpoint(1, "b");
  ASSERT_TRUE(a.ok() && b.ok());
  Endpoint& ea = *a.value();
  Endpoint& eb = *b.value();

  // Every transfer lands 50 bytes before a page boundary: on node 1 for
  // the write, on node 0 for the read back.
  const std::vector<std::uint32_t> kLens = {100, 4096, 20'000};
  const std::uint64_t kOffset = mem::kPageSize - 50;
  const std::uint32_t kRegion = 6 * static_cast<std::uint32_t>(mem::kPageSize);
  bool done = false;
  auto prog = [&]() -> sim::Process {
    auto src = ea.AllocBuffer(kRegion);
    auto back = ea.AllocBuffer(kRegion);
    auto dst = eb.AllocBuffer(kRegion);
    auto fin = eb.AllocBuffer(static_cast<std::uint32_t>(mem::kPageSize));
    CO_ASSERT_TRUE(src.ok() && back.ok() && dst.ok() && fin.ok());
    auto back_reg = co_await ea.RegisterMemory(back.value(), kRegion,
                                               RegIntent::kRecv);
    auto dst_reg = co_await eb.RegisterMemory(dst.value(), kRegion,
                                              RegIntent::kRecv);
    auto fin_reg = co_await eb.RegisterMemory(fin.value(), mem::kPageSize,
                                              RegIntent::kRecv);
    CO_ASSERT_TRUE(back_reg.ok() && dst_reg.ok() && fin_reg.ok());
    for (std::size_t i = 0; i < kLens.size(); ++i) {
      const std::uint32_t len = kLens[i];
      auto payload = MakePayload(200 + i, len);
      CO_ASSERT_TRUE(ea.WriteBuffer(src.value(), payload).ok());
      RdmaOptions opts;
      opts.fin_rtag = fin_reg.value().rtag;
      opts.fin_offset = 4 * i;
      opts.fin_value = 0xF1A0 + static_cast<std::uint32_t>(i);
      Status w = co_await ea.RdmaWrite(
          src.value(), RemoteTarget{1, dst_reg.value().rtag, kOffset}, len,
          opts);
      CO_ASSERT_TRUE(w.ok());
      // The fin is sequenced after the data: once it lands, so has the
      // whole payload.
      for (;;) {
        auto word = eb.memory().ReadU32(fin.value() + opts.fin_offset);
        CO_ASSERT_TRUE(word.ok());
        if (word.value() != 0) {
          EXPECT_EQ(word.value(), opts.fin_value)
              << fc.Name() << " len " << len;
          break;
        }
        co_await sim.Delay(1'000);
      }
      std::vector<std::uint8_t> got(len);
      CO_ASSERT_TRUE(eb.ReadBuffer(dst.value() + kOffset, got).ok());
      EXPECT_EQ(got, payload) << fc.Name() << " write of " << len;

      Status r = co_await ea.RdmaRead(
          RemoteTarget{1, dst_reg.value().rtag, kOffset}, len,
          back_reg.value(), kOffset);
      CO_ASSERT_TRUE(r.ok());
      CO_ASSERT_TRUE(ea.ReadBuffer(back.value() + kOffset, got).ok());
      EXPECT_EQ(got, payload) << fc.Name() << " read of " << len;
    }
    done = true;
  };
  sim.Spawn(prog());
  // Bounded in simulated time: a lost fin or read chunk fails here
  // instead of spinning forever.
  const Tick deadline = sim.now() + sim::Seconds(1);
  ASSERT_TRUE(RunUntilBy(sim, deadline, [&] { return done; }))
      << fc.Name() << " did not finish by the deadline";
  EXPECT_GT(cluster.node(0).lcp->metrics().retransmits.value() +
                cluster.node(1).lcp->metrics().retransmits.value(),
            0u)
      << fc.Name();
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FaultRdmaTest,
    ::testing::Values(FaultCase{FaultKind::kBitFlip, true, 11},
                      FaultCase{FaultKind::kBitFlip, true, 22},
                      FaultCase{FaultKind::kDrop, true, 11},
                      FaultCase{FaultKind::kDrop, true, 22}),
    [](const ::testing::TestParamInfo<FaultCase>& param_info) {
      return param_info.param.Name();
    });

// ---------------------------------------------------------------------------
// Determinism: same seed + plan ⇒ byte-identical metrics dump and trace.
// ---------------------------------------------------------------------------

struct RunArtifacts {
  std::string metrics_json;
  std::string trace_json;
  std::uint64_t events = 0;
};

RunArtifacts RunSeededWorkload(std::uint64_t seed) {
  sim::Simulator sim;
  sim.tracer().Enable();
  Params params;
  ClusterOptions options;
  options.num_nodes = 2;
  Cluster cluster(sim, params, options);
  EXPECT_TRUE(cluster.Boot().ok());
  FaultPlan plan;
  plan.seed = seed;
  LinkFaultRule rule;
  rule.drop_rate = 0.10;
  rule.bitflip_rate = 0.05;
  rule.delay_rate = 0.10;
  rule.max_delay = 3'000;
  plan.links.push_back(rule);
  sim.faults().Configure(plan);

  auto recv = cluster.OpenEndpoint(1, "r");
  auto send = cluster.OpenEndpoint(0, "s");
  EXPECT_TRUE(recv.ok() && send.ok());
  bool done = false;
  auto prog = [&]() -> sim::Process {
    auto buf = recv.value()->AllocBuffer(1 << 16);
    CO_ASSERT_TRUE(buf.ok());
    ExportOptions opts;
    opts.name = "det";
    auto id = co_await recv.value()->ExportBuffer(buf.value(), 1 << 16,
                                                  std::move(opts));
    CO_ASSERT_TRUE(id.ok());
    ImportOptions wait;
    wait.wait = true;
    auto imp = co_await send.value()->ImportBuffer(1, "det", wait);
    CO_ASSERT_TRUE(imp.ok());
    auto src = send.value()->AllocBuffer(1 << 14);
    CO_ASSERT_TRUE(src.ok());
    for (int i = 0; i < 6; ++i) {
      auto payload = MakePayload(static_cast<std::uint64_t>(i), 9000);
      CO_ASSERT_TRUE(send.value()->WriteBuffer(src.value(), payload).ok());
      Status s = co_await send.value()->SendMsg(
          src.value(), imp.value().proxy_base + static_cast<ProxyAddr>(i) * 10'000,
          9000);
      CO_ASSERT_TRUE(s.ok());
    }
    done = true;
  };
  sim.Spawn(prog());
  // Either seed finishes within 3.0 ms.
  const Tick deadline = sim.now() + sim::Milliseconds(20);
  EXPECT_TRUE(RunUntilBy(sim, deadline, [&] { return done; }));
  const auto& rstats = cluster.node(1).lcp->metrics();
  EXPECT_TRUE(RunUntilBy(sim, deadline, [&] {
    return rstats.bytes_received.value() >= 6 * 9000;
  }));

  RunArtifacts out;
  out.metrics_json = sim.metrics().ToJson(sim.now());
  out.trace_json = sim.tracer().ToChromeJson();
  out.events = sim.events_processed();
  return out;
}

TEST(FaultDeterminismTest, SameSeedSamePlanIdenticalRun) {
  RunArtifacts a = RunSeededWorkload(0xC0FFEE);
  RunArtifacts b = RunSeededWorkload(0xC0FFEE);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.trace_json, b.trace_json);
}

TEST(FaultDeterminismTest, DifferentSeedDifferentFaultSchedule) {
  RunArtifacts a = RunSeededWorkload(0xC0FFEE);
  RunArtifacts b = RunSeededWorkload(0xBEEF);
  // Both complete (asserted inside); the fault schedules differ, which a
  // 10% drop + 5% flip workload makes visible in the metrics.
  EXPECT_NE(a.metrics_json, b.metrics_json);
}

// ---------------------------------------------------------------------------
// Fabric drop notices: a misrouted packet is reported back to the source
// LCP, which fast-retransmits instead of waiting out the RTO.
// ---------------------------------------------------------------------------

TEST(DropNoticeTest, MisrouteTriggersFastRetransmitAndDelivery) {
  sim::Simulator sim;
  Params params;
  ClusterOptions options;
  options.num_nodes = 2;
  Cluster cluster(sim, params, options);
  ASSERT_TRUE(cluster.Boot().ok());

  auto recv = cluster.OpenEndpoint(1, "r");
  auto send = cluster.OpenEndpoint(0, "s");
  ASSERT_TRUE(recv.ok() && send.ok());

  mem::VirtAddr rbuf = 0;
  bool ready = false;
  bool sent = false;
  auto setup = [&]() -> sim::Process {
    auto buf = recv.value()->AllocBuffer(1 << 14);
    CO_ASSERT_TRUE(buf.ok());
    rbuf = buf.value();
    ExportOptions opts;
    opts.name = "mis";
    auto id =
        co_await recv.value()->ExportBuffer(rbuf, 1 << 14, std::move(opts));
    CO_ASSERT_TRUE(id.ok());
    ready = true;
  };
  sim.Spawn(setup());
  ASSERT_TRUE(sim.RunUntil([&] { return ready; }, 100'000'000));

  auto payload = MakePayload(42, 12'000);
  auto sender = [&]() -> sim::Process {
    ImportOptions wait;
    wait.wait = true;
    auto imp = co_await send.value()->ImportBuffer(1, "mis", wait);
    CO_ASSERT_TRUE(imp.ok());
    auto src = send.value()->AllocBuffer(1 << 14);
    CO_ASSERT_TRUE(src.ok());
    CO_ASSERT_TRUE(send.value()->WriteBuffer(src.value(), payload).ok());
    // Corrupt the route of node 0's NEXT injected packets: point them at a
    // nonexistent switch port. The switch discards them (the silent-drop
    // path this PR made loud) and notifies the source NIC.
    cluster.node(0).nic->fabric().CorruptNextRoutes(0, 3);
    Status s = co_await send.value()->SendMsg(src.value(),
                                              imp.value().proxy_base, 12'000);
    CO_ASSERT_TRUE(s.ok());
    sent = true;
  };
  sim.Spawn(sender());
  ASSERT_TRUE(sim.RunUntil([&] { return sent; }, 500'000'000));

  const auto& rstats = cluster.node(1).lcp->metrics();
  ASSERT_TRUE(sim.RunUntil(
      [&] { return rstats.bytes_received.value() >= 12'000; }, 500'000'000));

  // The misroutes were observed, reported, and repaired.
  EXPECT_GT(cluster.node(0).nic->fabric().drop_notices(), 0u);
  const auto& sstats = cluster.node(0).lcp->metrics();
  EXPECT_GT(sstats.drop_notices.value(), 0u);
  EXPECT_GT(sstats.retransmits.value(), 0u);
  // Repair came from the drop notice, not the 250 µs RTO: the whole
  // exchange fits well inside one RTO after the drop.
  EXPECT_EQ(sstats.retransmit_timeouts.value(), 0u);

  std::vector<std::uint8_t> got(12'000);
  ASSERT_TRUE(recv.value()->ReadBuffer(rbuf, got).ok());
  EXPECT_EQ(got, payload);
}

}  // namespace
}  // namespace vmmc::vmmc_core
