// Figure 4: "Overhead of the synchronous and asynchronous send operations"
// — time until the send call returns, one-way traffic to an idle receiver.
//
// Paper anchors: sync short-send overhead ~3 us, growing slowly to 128 B;
// a jump past 128 B where the protocol switches to host DMA; async long
// sends slightly cheaper than async short sends (fixed-size request, no
// PIO data copy); sync == async for short sends.
#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace vmmc;
  using namespace vmmc::bench;

  std::printf("Figure 4: synchronous vs asynchronous send overhead\n");
  std::printf("(paper: ~3 us short sync, jump past the 128 B threshold;\n");
  std::printf(" async long < async short; sync short == async short)\n\n");

  Table table({"bytes", "sync (us)", "async (us)"});
  for (std::uint32_t len : {4u, 16u, 32u, 64u, 96u, 128u, 160u, 256u, 512u,
                            1024u, 2048u, 4096u}) {
    TwoNodeFixture fx(DefaultParams(), 2 * 1024 * 1024);
    OverheadResult r;
    RunSendOverhead(fx, len, /*iters=*/100, r);
    table.AddRow({FormatSize(len), FormatDouble(r.sync_us, 2),
                  FormatDouble(r.async_us, 2)});
  }
  table.Print();
  return 0;
}
