// Fault ablation: goodput of a one-way stream as the injected packet-loss
// rate sweeps 0..10%. The go-back-N layer (lcp.cpp) must keep every byte
// flowing; what degrades is goodput, via retransmitted windows and RTO
// stalls. The 0% row doubles as a regression anchor: it also runs the
// Figure 3 ping-pong measurement and should match fig3_bandwidth.
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "vmmc/sim/fault.h"

namespace {

using namespace vmmc;
using namespace vmmc::bench;

struct StreamResult {
  double goodput_mb_s = 0;
  double elapsed_ms = 0;
  std::uint64_t injected_drops = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
};

// Streams `iters` messages of `len` bytes a -> b and waits until the
// receiving LCP has accepted every payload byte (delivery, not send
// completion: under loss the interesting time is when the retransmission
// machinery actually gets the data across).
StreamResult RunLossyStream(double drop_rate, std::uint32_t len, int iters) {
  TwoNodeFixture fx(DefaultParams(), 2 * 1024 * 1024);
  // Configure after boot so the mapping phase runs fault-free and every
  // run measures the same steady-state workload.
  if (drop_rate > 0) {
    sim::LinkFaultRule rule;
    rule.drop_rate = drop_rate;
    fx.sim().faults().Configure(
        sim::FaultPlan::AllLinks(rule, /*seed=*/0xAB1FA017ull));
  }

  const auto& rstats = fx.cluster().node(1).lcp->metrics();
  const std::uint64_t base_bytes = rstats.bytes_received.value();
  const std::uint64_t expect =
      base_bytes + static_cast<std::uint64_t>(len) * iters;

  bool sends_done = false;
  auto stream = [&]() -> sim::Process {
    std::vector<std::uint8_t> payload(len, 0x5A);
    (void)fx.a().WriteBuffer(fx.a_src(), payload);
    for (int i = 0; i < iters; ++i) {
      Status s = co_await fx.a().SendMsg(fx.a_src(), fx.a_to_b(), len);
      if (!s.ok()) std::abort();
    }
    sends_done = true;
  };

  const sim::Tick t0 = fx.sim().now();
  fx.sim().Spawn(stream());
  if (!fx.sim().RunUntil(
          [&] { return sends_done && rstats.bytes_received.value() >= expect; },
          sim::Seconds(10))) {
    std::fprintf(stderr, "stream stalled at drop_rate=%.2f\n", drop_rate);
    std::abort();
  }
  const sim::Tick elapsed = fx.sim().now() - t0;

  StreamResult r;
  r.goodput_mb_s =
      sim::MBPerSec(static_cast<std::uint64_t>(len) * iters, elapsed);
  r.elapsed_ms = sim::ToMicroseconds(elapsed) / 1000.0;
  const obs::Registry& m = fx.sim().metrics();
  r.injected_drops = m.CounterValue("fault.injected.drops");
  r.retransmits = m.SumCounters("node", ".lcp.retransmits");
  r.timeouts = m.SumCounters("node", ".lcp.retransmit_timeouts");
  return r;
}

}  // namespace

int main() {
  std::printf("Ablation: goodput under injected packet loss (go-back-N LCP)\n");
  std::printf("(one-way stream, 32 x 64 KB; drops injected on every link)\n\n");

  Table table({"loss", "goodput MB/s", "elapsed ms", "drops", "retx", "RTOs"});
  for (double rate : {0.0, 0.01, 0.02, 0.05, 0.10}) {
    StreamResult r = RunLossyStream(rate, 64 * 1024, 32);
    char loss[16];
    std::snprintf(loss, sizeof(loss), "%.0f%%", rate * 100.0);
    table.AddRow({loss, FormatDouble(r.goodput_mb_s, 1),
                  FormatDouble(r.elapsed_ms, 2), std::to_string(r.injected_drops),
                  std::to_string(r.retransmits), std::to_string(r.timeouts)});
  }
  table.Print();

  // Fault-free anchor: the Figure 3 ping-pong measurement with the
  // reliability layer on must still land on the paper's ~108.4 MB/s.
  TwoNodeFixture fx(DefaultParams());
  PingPongResult pp;
  RunPingPong(fx, 1 << 20, 8, pp);
  std::printf("\nfault-free fig3 check (1 MB ping-pong): %s MB/s\n",
              FormatDouble(pp.bandwidth_mb_s, 1).c_str());
  return 0;
}
