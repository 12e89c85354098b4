// M1: wall-clock throughput of the simulation engine itself (the one bench
// where wall time is the right metric), using google-benchmark.
//
// The BM_Macro* entries run whole-stack workloads (boot, mapping, LCP,
// multi-switch fabric) and report events/sec next to their wall time per
// iteration — scripts/check_wallclock.py records the time per iteration
// (and the engine microbenches' events/sec) in BENCH_sim.json and gates
// regressions in ctest.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench_common.h"
#include "vmmc/vmmc/p2p.h"
#include "vmmc/coll/communicator.h"
#include "vmmc/myrinet/topology.h"
#include "vmmc/sim/fault.h"
#include "vmmc/sim/process.h"
#include "vmmc/sim/rng.h"
#include "vmmc/sim/simulator.h"
#include "vmmc/sim/sync.h"

namespace {

using namespace vmmc::sim;

void BM_EventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    for (int i = 0; i < 10000; ++i) sim.At(i, [] {});
    benchmark::DoNotOptimize(sim.Run());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventDispatch);

// Same dispatch loop with the per-event observability cost the hot paths
// pay when tracing is compiled in but disabled: one counter increment and
// one inert span. Compare against BM_EventDispatch for the overhead.
void BM_EventDispatchInstrumented(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    vmmc::obs::Counter& events = sim.metrics().GetCounter("bench.events");
    const int track = sim.tracer().RegisterTrack("bench");
    for (int i = 0; i < 10000; ++i) {
      sim.At(i, [&sim, &events, track] {
        events.Inc();
        auto span = sim.tracer().Scope(track, "event");
        benchmark::DoNotOptimize(span);
      });
    }
    benchmark::DoNotOptimize(sim.Run());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventDispatchInstrumented);

Process Chain(Simulator& sim, int hops) {
  for (int i = 0; i < hops; ++i) co_await sim.Delay(1);
}

void BM_CoroutineDelayChain(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    for (int p = 0; p < 100; ++p) sim.Spawn(Chain(sim, 100));
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * 100 * 100);
}
BENCHMARK(BM_CoroutineDelayChain);

Process Yielder(Simulator& sim, int n) {
  for (int i = 0; i < n; ++i) co_await sim.Delay(0);
}

// The dominant event kind in the stack: a coroutine wake-up through the
// queue. Delay(0) is exactly one Simulator::Resume per iteration.
void BM_CoroutineResume(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    sim.Spawn(Yielder(sim, 10000));
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_CoroutineResume);

Process Producer(Simulator& sim, Mailbox<int>& box, int n) {
  for (int i = 0; i < n; ++i) {
    box.Put(i);
    co_await sim.Delay(1);
  }
}

Process Consumer(Mailbox<int>& box, int n) {
  for (int i = 0; i < n; ++i) {
    int v = co_await box.Get();
    benchmark::DoNotOptimize(v);
  }
}

void BM_MailboxHandoff(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    Mailbox<int> box(sim);
    sim.Spawn(Producer(sim, box, 5000));
    sim.Spawn(Consumer(box, 5000));
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * 5000);
}
BENCHMARK(BM_MailboxHandoff);

void BM_Rng(benchmark::State& state) {
  Rng rng(42);
  for (auto _ : state) benchmark::DoNotOptimize(rng.NextU64());
}
BENCHMARK(BM_Rng);

// ---------------------------------------------------------------------------
// Macro benchmarks: whole-stack workloads, gated on wall time per iteration.
// ---------------------------------------------------------------------------

// 64-node fat-tree ring allreduce (the coll_scale_test workload at full
// scale): boot + network mapping + lazy links + one allreduce of 64 int64
// per rank. ~10.6M events per iteration.
void BM_MacroAllreduce64(benchmark::State& state) {
  using vmmc::coll::CommOptions;
  using vmmc::coll::Communicator;
  using vmmc::vmmc_core::Cluster;
  using vmmc::vmmc_core::ClusterOptions;
  constexpr int kNodes = 64;
  constexpr std::size_t kElems = 64;
  std::uint64_t events = 0;
  for (auto _ : state) {
    Simulator sim;
    vmmc::Params params;
    auto options = ClusterOptions::FromSpec("fattree:64@16");
    if (!options.ok()) {
      state.SkipWithError("cluster spec failed");
      return;
    }
    Cluster cluster(sim, params, options.value());
    if (!cluster.Boot().ok()) {
      state.SkipWithError("boot failed");
      return;
    }
    std::vector<std::unique_ptr<Communicator>> comms(kNodes);
    int created = 0;
    auto create = [&cluster, &comms, &created](int r) -> Process {
      CommOptions copts;
      copts.lazy_links = true;
      auto c = co_await Communicator::Create(cluster, r, kNodes, "world", copts);
      if (c.ok()) comms[static_cast<std::size_t>(r)] = std::move(c).value();
      ++created;
    };
    for (int r = 0; r < kNodes; ++r) sim.Spawn(create(r));
    sim.RunUntil([&] { return created == kNodes; }, 10'000'000'000ll);
    int finished = 0;
    auto run = [&comms, &finished](int r) -> Process {
      std::vector<std::int64_t> values(kElems * kNodes,
                                       static_cast<std::int64_t>(r));
      (void)co_await comms[static_cast<std::size_t>(r)]->AllReduceSum(values);
      ++finished;
    };
    for (int r = 0; r < kNodes; ++r) sim.Spawn(run(r));
    if (!sim.RunUntil([&] { return finished == kNodes; }, 60'000'000'000ll)) {
      state.SkipWithError("allreduce did not finish");
      return;
    }
    events += sim.events_processed();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_MacroAllreduce64)->Unit(benchmark::kMillisecond);

// Fault-sweep replay: a two-node reliable stream under 2% injected packet
// loss — go-back-N retransmission, RTO timers and COW payload bit-flips
// all on the hot path.
void BM_MacroFaultSweepReplay(benchmark::State& state) {
  using namespace vmmc;
  using namespace vmmc::bench;
  constexpr std::uint32_t kLen = 4096;
  constexpr int kIters = 200;
  std::uint64_t events = 0;
  for (auto _ : state) {
    TwoNodeFixture fx(DefaultParams(), 2 * 1024 * 1024);
    LinkFaultRule rule;
    rule.drop_rate = 0.02;
    rule.bitflip_rate = 0.01;
    fx.sim().faults().Configure(
        FaultPlan::AllLinks(rule, /*seed=*/0xAB1FA017ull));
    const auto& rstats = fx.cluster().node(1).lcp->metrics();
    const std::uint64_t expect =
        rstats.bytes_received.value() +
        static_cast<std::uint64_t>(kLen) * kIters;
    bool sends_done = false;
    auto stream = [&]() -> Process {
      std::vector<std::uint8_t> payload(kLen, 0x5A);
      (void)fx.a().WriteBuffer(fx.a_src(), payload);
      for (int i = 0; i < kIters; ++i) {
        (void)co_await fx.a().SendMsg(fx.a_src(), fx.a_to_b(), kLen);
      }
      sends_done = true;
    };
    fx.sim().Spawn(stream());
    if (!fx.sim().RunUntil(
            [&] { return sends_done && rstats.bytes_received.value() >= expect; },
            Seconds(10))) {
      state.SkipWithError("stream stalled");
      return;
    }
    events += fx.sim().events_processed();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_MacroFaultSweepReplay)->Unit(benchmark::kMillisecond);

// Rendezvous stream: a two-node point-to-point channel pushing 64 KB
// messages — RTS posting, reader-pull RdmaRead serving, completion fins
// and the registration cache all on the hot path.
void BM_MacroRendezvousStream(benchmark::State& state) {
  using namespace vmmc;
  using namespace vmmc::bench;
  using vmmc_core::P2pChannel;
  constexpr std::uint32_t kLen = 64 * 1024;
  constexpr int kIters = 200;
  std::uint64_t events = 0;
  for (auto _ : state) {
    TwoNodeFixture fx(DefaultParams(), 2 * 1024 * 1024);
    std::unique_ptr<P2pChannel> ca, cb;
    int ready = 0;
    auto make = [&fx, &ready](vmmc_core::Endpoint& ep, int peer,
                              std::unique_ptr<P2pChannel>* dst) -> Process {
      auto c = co_await P2pChannel::Create(ep, peer, "bm",
                                           DefaultParams().vmmc.p2p);
      if (c.ok()) *dst = std::move(c).value();
      ++ready;
    };
    fx.sim().Spawn(make(fx.a(), 1, &ca));
    fx.sim().Spawn(make(fx.b(), 0, &cb));
    if (!fx.sim().RunUntil([&] { return ready == 2; }, Seconds(10)) || !ca ||
        !cb) {
      state.SkipWithError("channel setup failed");
      return;
    }
    bool done = false;
    auto sender = [&]() -> Process {
      for (int i = 0; i < kIters; ++i) {
        (void)co_await ca->Send(fx.a_src(), kLen);
        (void)co_await ca->Flush();
      }
      done = true;
    };
    auto receiver = [&]() -> Process {
      for (int i = 0; i < kIters; ++i) {
        (void)co_await cb->RecvInto(fx.b_recv_va(), kLen);
      }
    };
    fx.sim().Spawn(receiver());
    fx.sim().Spawn(sender());
    if (!fx.sim().RunUntil([&] { return done; }, Seconds(60))) {
      state.SkipWithError("stream stalled");
      return;
    }
    events += fx.sim().events_processed();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_MacroRendezvousStream)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
