// Ablation A1: the cost of software-TLB misses (§4.5). A long send from
// cold pages interrupts the host; the driver pins and inserts up to 32
// translations per interrupt. This bench compares cold vs warm sends and
// sweeps the fill batch size the paper fixes at 32.
#include <cstdio>

#include "bench_common.h"

namespace {

using namespace vmmc;
using namespace vmmc::bench;

struct ColdWarm {
  double cold_us = 0;
  double warm_us = 0;
  std::uint64_t interrupts = 0;
};

ColdWarm MeasureColdWarm(std::uint32_t fill_batch, std::uint32_t len) {
  Params params = DefaultParams();
  params.vmmc.tlb_fill_batch = fill_batch;
  TwoNodeFixture fx(params);
  ColdWarm out;
  bool done = false;
  auto prog = [&]() -> sim::Process {
    std::vector<std::uint8_t> payload(len, 1);
    (void)fx.a().WriteBuffer(fx.a_src(), payload);
    sim::Tick t0 = fx.sim().now();
    Status s = co_await fx.a().SendMsg(fx.a_src(), fx.a_to_b(), len);
    out.cold_us = sim::ToMicroseconds(fx.sim().now() - t0);
    if (!s.ok()) std::abort();
    co_await fx.sim().Delay(sim::Milliseconds(2));
    t0 = fx.sim().now();
    s = co_await fx.a().SendMsg(fx.a_src(), fx.a_to_b(), len);
    out.warm_us = sim::ToMicroseconds(fx.sim().now() - t0);
    if (!s.ok()) std::abort();
    out.interrupts = fx.cluster().node(0).lcp->metrics().tlb_miss_interrupts.value();
    done = true;
  };
  fx.sim().Spawn(prog());
  fx.RunUntilDone(done);
  return out;
}

}  // namespace

int main() {
  std::printf("Ablation: software-TLB miss service (section 4.5)\n");
  std::printf("(256 KB send, cold vs warm translations; paper fills 32/interrupt)\n\n");

  Table table({"fill batch", "cold send (us)", "warm send (us)", "interrupts"});
  for (std::uint32_t batch : {1u, 4u, 8u, 16u, 32u, 64u}) {
    ColdWarm r = MeasureColdWarm(batch, 256 * 1024);
    table.AddRow({std::to_string(batch), FormatDouble(r.cold_us, 1),
                  FormatDouble(r.warm_us, 1), std::to_string(r.interrupts)});
  }
  table.Print();
  return 0;
}
