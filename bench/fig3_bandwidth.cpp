// Figure 3: "VMMC bandwidth for different message sizes" — ping-pong and
// bidirectional bandwidth from 4 B to 1 MB.
//
// Paper anchors: ping-pong peak 108.4 MB/s (98% of the 110 MB/s limit
// imposed by 4 KB-unit host DMA); bidirectional total 91 MB/s, lower
// because the LCP cannot stay in its tight sending loop and each PCI bus
// carries traffic both ways.
#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace vmmc;
  using namespace vmmc::bench;

  std::printf("Figure 3: VMMC bandwidth vs message size\n");
  std::printf("(paper: ping-pong peak 108.4 MB/s; bidirectional total 91 MB/s)\n\n");

  Table table({"bytes", "ping-pong MB/s", "bidirectional MB/s (total)"});
  for (std::uint32_t len : {16u, 64u, 256u, 1024u, 4096u, 8192u, 16384u,
                            65536u, 262144u, 1048576u}) {
    const int iters = len >= 262144 ? 8 : (len >= 4096 ? 32 : 100);
    PingPongResult pp;
    {
      TwoNodeFixture fx(DefaultParams(), 2 * 1024 * 1024);
      RunPingPong(fx, len, iters, pp);
    }
    double bidir = 0;
    {
      TwoNodeFixture fx(DefaultParams(), 2 * 1024 * 1024);
      bidir = RunBidirectional(fx, len, iters);
    }
    table.AddRow({FormatSize(len), FormatDouble(pp.bandwidth_mb_s, 1),
                  FormatDouble(bidir, 1)});
  }
  table.Print();
  return 0;
}
