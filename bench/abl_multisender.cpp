// Extension bench: multiple sender processes sharing one interface.
//
// The paper's key protection claim (§7): "VMMC provides protection between
// senders on one node, as each sender has its own send queue. This design
// works well on both uniprocessor and SMP nodes." The cost (§6): "Picking
// up a send request in Myrinet requires scanning send queues of all
// possible senders." This bench shows the aggregate bandwidth and fairness
// as senders are added, plus the per-process scan cost in small-message
// latency.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.h"

namespace {

using namespace vmmc;
using namespace vmmc::bench;

// One 512 KB exported region per sender.
constexpr std::uint32_t kRegion = 512 * 1024;

// A booted two-node cluster with a receiver on node 1 and `senders`
// sender processes on node 0, each with an exported sink region on the
// receiver. Opening an endpoint fails with RESOURCE_EXHAUSTED once node
// 0's LANai SRAM cannot hold another process's structures; `status`
// keeps that answer.
struct SenderCluster {
  sim::Simulator sim;
  vmmc_core::Cluster cluster;
  std::unique_ptr<vmmc_core::Endpoint> recv;
  std::vector<std::unique_ptr<vmmc_core::Endpoint>> eps;
  Status status = OkStatus();

  SenderCluster(int senders, const std::string& prefix)
      : cluster(sim, Params{}, {.num_nodes = 2}) {
    if (!cluster.Boot().ok()) std::abort();
    auto r = cluster.OpenEndpoint(1, "receiver");
    if (!r.ok()) std::abort();
    recv = std::move(r).value();
    for (int s = 0; s < senders; ++s) {
      auto ep = cluster.OpenEndpoint(0, prefix + std::to_string(s));
      if (!ep.ok()) {
        status = ep.status();
        return;
      }
      eps.push_back(std::move(ep).value());
    }
    int ready = 0;
    auto setup = [&](int s) -> sim::Process {
      auto buf = recv->AllocBuffer(kRegion);
      vmmc_core::ExportOptions opts;
      opts.name = "sink-" + std::to_string(s);
      auto id = co_await recv->ExportBuffer(buf.value(), kRegion,
                                            std::move(opts));
      if (!id.ok()) std::abort();
      ++ready;
    };
    for (int s = 0; s < senders; ++s) sim.Spawn(setup(s));
    sim.RunUntil([&] { return ready == senders; });
  }
};

// Aggregate bandwidth: every sender pushes 4 MB of 64 KB messages.
Result<double> AggregateMbS(int senders) {
  SenderCluster c(senders, "sender");
  if (!c.status.ok()) return c.status;
  sim::Simulator& sim = c.sim;
  const std::uint64_t kTotal = 4ull << 20;
  std::vector<std::uint64_t> sent(static_cast<std::size_t>(senders), 0);
  int finished = 0;
  sim::Tick t0 = sim.now();
  auto stream = [&](int s) -> sim::Process {
    vmmc_core::Endpoint& ep = *c.eps[static_cast<std::size_t>(s)];
    vmmc_core::ImportOptions wait;
    wait.wait = true;
    auto imp = co_await ep.ImportBuffer(1, "sink-" + std::to_string(s), wait);
    if (!imp.ok()) std::abort();
    auto src = ep.AllocBuffer(64 * 1024);
    while (sent[static_cast<std::size_t>(s)] < kTotal) {
      Status st = co_await ep.SendMsg(src.value(), imp.value().proxy_base,
                                      64 * 1024);
      if (!st.ok()) std::abort();
      sent[static_cast<std::size_t>(s)] += 64 * 1024;
    }
    ++finished;
  };
  for (int s = 0; s < senders; ++s) sim.Spawn(stream(s));
  sim.RunUntil([&] { return finished == senders; });
  return sim::MBPerSec(kTotal * static_cast<std::uint64_t>(senders),
                       sim.now() - t0);
}

// Fairness: min/max of per-sender progress after 50 ms of saturation.
Result<double> Fairness(int senders) {
  SenderCluster c(senders, "s");
  if (!c.status.ok()) return c.status;
  sim::Simulator& sim = c.sim;
  std::vector<std::uint64_t> progress(static_cast<std::size_t>(senders), 0);
  auto stream = [&](int s) -> sim::Process {
    vmmc_core::Endpoint& ep = *c.eps[static_cast<std::size_t>(s)];
    vmmc_core::ImportOptions wait;
    wait.wait = true;
    auto imp = co_await ep.ImportBuffer(1, "sink-" + std::to_string(s), wait);
    auto src = ep.AllocBuffer(64 * 1024);
    for (;;) {
      Status st = co_await ep.SendMsg(src.value(), imp.value().proxy_base,
                                      64 * 1024);
      if (!st.ok()) std::abort();
      progress[static_cast<std::size_t>(s)] += 64 * 1024;
    }
  };
  for (int s = 0; s < senders; ++s) sim.Spawn(stream(s));
  sim.RunUntilTime(sim.now() + 50 * sim::kMillisecond);
  std::uint64_t lo = UINT64_MAX, hi = 0;
  for (auto p : progress) {
    lo = std::min(lo, p);
    hi = std::max(hi, p);
  }
  return hi == 0 ? 0.0 : static_cast<double>(lo) / static_cast<double>(hi);
}

// Small-message latency with the queues of the other senders registered
// (the per-process scan cost).
Result<double> SmallLatencyUs(int senders) {
  TwoNodeFixture fx;
  // Register extra idle processes so the scan is longer.
  std::vector<std::unique_ptr<vmmc_core::Endpoint>> idle;
  for (int s = 1; s < senders; ++s) {
    auto ep = fx.cluster().OpenEndpoint(0, "idle" + std::to_string(s));
    if (!ep.ok()) return ep.status();
    idle.push_back(std::move(ep).value());
  }
  PingPongResult r;
  RunPingPong(fx, 4, 100, r);
  return r.one_way_us;
}

// The measured value, or the status that kept the configuration from
// running.
std::string Cell(const Result<double>& r, int digits) {
  return r.ok() ? FormatDouble(r.value(), digits) : r.status().ToString();
}

}  // namespace

int main() {
  std::printf("Extension: multiple sender processes per interface (sections 6/7)\n\n");
  Table table({"senders", "aggregate MB/s", "fairness (min/max)",
               "1-word latency (us)"});
  for (int senders : {1, 2, 4, 7}) {
    table.AddRow({std::to_string(senders), Cell(AggregateMbS(senders), 1),
                  Cell(Fairness(senders), 2), Cell(SmallLatencyUs(senders), 2)});
  }
  table.Print();
  std::printf("\n(each registered process adds SRAM structures and queue-scan "
              "time; fairness comes from round-robin pickup;\n an endpoint "
              "whose structures no longer fit in the LANai SRAM is refused "
              "with RESOURCE_EXHAUSTED)\n");
  return 0;
}
