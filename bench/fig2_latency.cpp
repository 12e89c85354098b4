// Figure 2: "VMMC latency for short messages" — one-way ping-pong latency
// (synchronous send, alternating traffic) for messages of 4..512 bytes.
//
// Paper anchors: one-word latency 9.8 us; messages up to 32 words (128 B)
// are PIO-copied into the SRAM send queue, longer ones switch to host DMA.
#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace vmmc;
  using namespace vmmc::bench;

  std::printf("Figure 2: VMMC latency for short messages (ping-pong)\n");
  std::printf("(paper: 9.8 us one-word; slow growth to 128 B, then the long-send protocol)\n\n");

  Table table({"bytes", "one-way latency (us)"});
  for (std::uint32_t len : {4u, 8u, 16u, 32u, 64u, 96u, 128u, 160u, 192u,
                            256u, 384u, 512u}) {
    TwoNodeFixture fx(DefaultParams(), 2 * 1024 * 1024);
    PingPongResult r;
    RunPingPong(fx, len, /*iters=*/200, r);
    table.AddRow({FormatSize(len), FormatDouble(r.one_way_us, 2)});
  }
  table.Print();
  return 0;
}
