// Fault-injection demo: the quickstart exchange on a hostile network.
//
// A two-node cluster streams messages while the fault injector drops,
// corrupts and delays packets on every link. The go-back-N layer in the
// LCP (sequence numbers, cumulative ACKs, SRAM retransmit buffer) repairs
// every loss, so the payloads land intact and in order — what the faults
// cost is time, visible in the per-run counters printed at the end.
//
// Build & run:   ./build/examples/fault_demo
//
// VMMC_FAULT_SEED=1234  picks a different (but still deterministic) fault
//                       schedule; the same seed always replays the same
//                       drops at the same points.
// VMMC_TRACE=out.json   records a Chrome/Perfetto trace of the run;
//                       retransmissions show up as repeated spans.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "vmmc/obs/trace.h"
#include "vmmc/sim/fault.h"
#include "vmmc/vmmc/cluster.h"

using namespace vmmc;
using namespace vmmc::vmmc_core;

namespace {

std::uint64_t SeedFromEnv() {
  const char* env = std::getenv("VMMC_FAULT_SEED");
  if (env == nullptr || *env == '\0') return sim::FaultPlan{}.seed;
  return std::strtoull(env, nullptr, 0);
}

sim::Process Exchange(sim::Simulator& sim, Endpoint& sender, Endpoint& receiver,
                      bool& done) {
  auto inbox = receiver.AllocBuffer(64 * 1024);
  auto src = sender.AllocBuffer(64 * 1024);
  if (!inbox.ok() || !src.ok()) co_return;

  ExportOptions ex;
  ex.name = "inbox";
  auto id = co_await receiver.ExportBuffer(inbox.value(), 64 * 1024, std::move(ex));
  if (!id.ok()) co_return;

  ImportOptions wait;
  wait.wait = true;
  auto imported = co_await sender.ImportBuffer(1, "inbox", wait);
  if (!imported.ok()) co_return;

  // Ten 16 KB messages into the same window; every byte of every message
  // has to survive the fault schedule.
  const std::uint32_t len = 16 * 1024;
  for (int i = 0; i < 10; ++i) {
    std::vector<std::uint8_t> payload(len, static_cast<std::uint8_t>(0x40 + i));
    (void)sender.WriteBuffer(src.value(), payload);
    Status s = co_await sender.SendMsg(src.value(), imported.value().proxy_base, len);
    if (!s.ok()) {
      std::printf("send %d failed: %s\n", i, s.ToString().c_str());
      co_return;
    }
    // SendMsg returns when the NIC has accepted the message; under loss
    // the retransmission machinery may still be landing it. Poll remote
    // memory until the whole payload is there (bounded: a dropped chunk
    // is repaired within one RTO, well under a millisecond here).
    bool intact = false;
    std::vector<std::uint8_t> got(len);
    for (int spin = 0; spin < 10'000 && !intact; ++spin) {
      (void)receiver.ReadBuffer(inbox.value(), got);
      intact = got == payload;
      if (!intact) co_await sim.Delay(sim::Microseconds(1));
    }
    std::printf("[%9.1f us] message %2d: %s\n", sim::ToMicroseconds(sim.now()),
                i, intact ? "delivered intact" : "NOT DELIVERED");
    if (!intact) co_return;
  }
  done = true;
}

}  // namespace

int main() {
  sim::Simulator sim;
  obs::TraceEnvGuard trace(sim.tracer());  // VMMC_TRACE=file.json to record

  Params params;
  ClusterOptions options;
  options.num_nodes = 2;
  Cluster cluster(sim, params, options);
  Status booted = cluster.Boot();
  if (!booted.ok()) {
    std::printf("boot failed: %s\n", booted.ToString().c_str());
    return 1;
  }

  // A deliberately nasty schedule: 8% drops, 4% bit flips, 10% of packets
  // jittered by up to 4 us — on every link, in both directions.
  sim::LinkFaultRule rule;
  rule.drop_rate = 0.08;
  rule.bitflip_rate = 0.04;
  rule.delay_rate = 0.10;
  rule.max_delay = 4'000;
  sim::FaultPlan plan = sim::FaultPlan::AllLinks(rule, SeedFromEnv());
  sim.faults().Configure(plan);
  std::printf("fault plan: seed 0x%llx, drop 8%%, bitflip 4%%, jitter 10%%\n\n",
              static_cast<unsigned long long>(plan.seed));

  auto receiver = cluster.OpenEndpoint(1, "receiver");
  auto sender = cluster.OpenEndpoint(0, "sender");
  if (!receiver.ok() || !sender.ok()) return 1;

  bool done = false;
  sim.Spawn(Exchange(sim, *sender.value(), *receiver.value(), done));
  sim.Run();
  if (!done) {
    std::printf("exchange did not complete\n");
    return 1;
  }

  const obs::Registry& m = sim.metrics();
  const auto& tx = cluster.node(0).lcp->metrics();
  std::printf("\ninjected: %llu drops, %llu bit flips, %llu delays\n",
              static_cast<unsigned long long>(m.CounterValue("fault.injected.drops")),
              static_cast<unsigned long long>(m.CounterValue("fault.injected.bitflips")),
              static_cast<unsigned long long>(m.CounterValue("fault.injected.delays")));
  std::printf("repaired: %llu retransmits (%llu via timeout), %llu duplicate "
              "chunks discarded\n",
              static_cast<unsigned long long>(tx.retransmits.value()),
              static_cast<unsigned long long>(tx.retransmit_timeouts.value()),
              static_cast<unsigned long long>(
                  cluster.node(1).lcp->metrics().duplicate_chunks.value()));
  return 0;
}
