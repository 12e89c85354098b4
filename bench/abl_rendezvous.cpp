// Ablation A8: the point-to-point eager/rendezvous crossover and the
// pin-down (registration) cache.
//
// Part 1 sweeps the message size with the protocol forced each way
// (eager_max = 64 KB forces copy-through, eager_max = 0 forces reader-pull
// rendezvous) and reports the steady-state one-way latency of a channel
// ping-pong. The crossover justifies P2pParams::eager_max: below it the
// two host bcopies are cheaper than the rendezvous control round-trips
// (RTS + read request + fin); above it zero-copy wins and keeps winning
// by a growing margin.
//
// Part 2 repeats a 64 KB rendezvous send from the same source buffer with
// the registration cache on and off. Warm sends skip the pin-down syscall
// and page walk (§4.5 — the paper pins the receive buffer once at export
// time; the cache buys the same amortization for one-sided sources), which
// shows up directly as lower host send overhead.
#include <cstdio>

#include "bench_common.h"
#include "vmmc/vmmc/p2p.h"

namespace {

using namespace vmmc;
using namespace vmmc::bench;
using vmmc_core::P2pChannel;

struct ChannelPair {
  std::unique_ptr<P2pChannel> a, b;
};

// Builds a channel pair between fx.a() and fx.b().
ChannelPair MakeChannels(TwoNodeFixture& fx, const P2pParams& p) {
  ChannelPair out;
  int ready = 0;
  auto make = [&fx, &ready, &p](vmmc_core::Endpoint& ep, int peer,
                                std::unique_ptr<P2pChannel>* dst)
      -> sim::Process {
    auto c = co_await P2pChannel::Create(ep, peer, "abl", p);
    if (!c.ok()) {
      std::fprintf(stderr, "channel failed: %s\n",
                   c.status().ToString().c_str());
      std::abort();
    }
    *dst = std::move(c).value();
    ++ready;
  };
  fx.sim().Spawn(make(fx.a(), 1, &out.a));
  fx.sim().Spawn(make(fx.b(), 0, &out.b));
  if (!fx.sim().RunUntil([&ready] { return ready == 2; })) {
    std::fprintf(stderr, "channel setup deadlocked\n");
    std::abort();
  }
  return out;
}

// Steady-state one-way channel latency: one warm round (registrations,
// software TLB) outside the timed window, then `iters` timed rounds.
double OneWayUs(TwoNodeFixture& fx, ChannelPair& ch, std::uint32_t len,
                int iters) {
  bool done = false;
  double us = 0;
  auto ping = [&]() -> sim::Process {
    for (int i = 0; i < iters + 1; ++i) {
      if (i == 1) us = -sim::ToMicroseconds(fx.sim().now());
      Status s = co_await ch.a->Send(fx.a_src(), len);
      if (!s.ok()) std::abort();
      auto n = co_await ch.a->RecvInto(fx.a_recv_va(), len);
      if (!n.ok()) std::abort();
    }
    us = (us + sim::ToMicroseconds(fx.sim().now())) / (2.0 * iters);
    done = true;
  };
  auto pong = [&]() -> sim::Process {
    for (int i = 0; i < iters + 1; ++i) {
      auto n = co_await ch.b->RecvInto(fx.b_recv_va(), len);
      if (!n.ok()) std::abort();
      Status s = co_await ch.b->Send(fx.b_src(), len);
      if (!s.ok()) std::abort();
    }
  };
  fx.sim().Spawn(pong());
  fx.sim().Spawn(ping());
  fx.RunUntilDone(done);
  return us;
}

struct RegResult {
  double send_us = 0;  // mean host overhead of Send() after the warm-up
  std::uint64_t hits = 0, misses = 0, evictions = 0;
};

// Repeated 64 KB rendezvous sends from one source buffer; Send() returns
// once the RTS is posted, so its duration is pure host overhead
// (registration + descriptor build), not wire time. Flush() between sends
// keeps exactly one message in flight and retires the registration.
RegResult RunRegAblation(bool cache_enabled) {
  Params params = DefaultParams();
  params.vmmc.regcache.enabled = cache_enabled;
  TwoNodeFixture fx(params);
  ChannelPair ch = MakeChannels(fx, params.vmmc.p2p);
  constexpr std::uint32_t kLen = 64 * 1024;
  constexpr int kIters = 50;

  RegResult out;
  bool done = false;
  auto sender = [&]() -> sim::Process {
    sim::Tick timed = 0;
    for (int i = 0; i < kIters + 1; ++i) {
      const sim::Tick t0 = fx.sim().now();
      Status s = co_await ch.a->Send(fx.a_src(), kLen);
      if (!s.ok()) std::abort();
      if (i > 0) timed += fx.sim().now() - t0;  // round 0 warms the cache
      Status f = co_await ch.a->Flush();
      if (!f.ok()) std::abort();
    }
    out.send_us = sim::ToMicroseconds(timed) / kIters;
    done = true;
  };
  auto receiver = [&]() -> sim::Process {
    for (int i = 0; i < kIters + 1; ++i) {
      auto n = co_await ch.b->RecvInto(fx.b_recv_va(), kLen);
      if (!n.ok()) std::abort();
    }
  };
  fx.sim().Spawn(receiver());
  fx.sim().Spawn(sender());
  fx.RunUntilDone(done);

  const obs::Registry& m = fx.sim().metrics();
  out.hits = m.CounterValue("node0.regcache.hit");
  out.misses = m.CounterValue("node0.regcache.miss");
  out.evictions = m.CounterValue("node0.regcache.evict");
  return out;
}

}  // namespace

int main() {
  std::printf("Ablation: eager/rendezvous crossover and pin-down cache\n");
  std::printf("(steady-state channel ping-pong, warm registration cache)\n\n");

  Table table({"size", "eager (us)", "rendezvous (us)", "winner"});
  std::uint32_t crossover = 0;
  for (std::uint32_t len : {256u, 384u, 512u, 1024u, 2048u, 4096u, 8192u,
                            16384u, 65536u}) {
    Params eager_params = DefaultParams();
    eager_params.vmmc.p2p.eager_max = 64 * 1024;  // force copy-through
    Params rdv_params = DefaultParams();
    rdv_params.vmmc.p2p.eager_max = 0;  // force rendezvous
    double eager_us = 0, rdv_us = 0;
    {
      TwoNodeFixture fx(eager_params);
      ChannelPair ch = MakeChannels(fx, eager_params.vmmc.p2p);
      eager_us = OneWayUs(fx, ch, len, 50);
    }
    {
      TwoNodeFixture fx(rdv_params);
      ChannelPair ch = MakeChannels(fx, rdv_params.vmmc.p2p);
      rdv_us = OneWayUs(fx, ch, len, 50);
    }
    const bool rdv_wins = rdv_us < eager_us;
    if (rdv_wins && crossover == 0) crossover = len;
    table.AddRow({FormatSize(len), FormatDouble(eager_us, 2),
                  FormatDouble(rdv_us, 2),
                  rdv_wins ? "rendezvous" : "eager"});
  }
  table.Print();
  if (crossover != 0) {
    std::printf("\nfirst size where rendezvous wins: %s "
                "(P2pParams::eager_max should sit just below)\n",
                FormatSize(crossover).c_str());
  }

  std::printf("\nPin-down cache: repeated 64 KB rendezvous sends, "
              "same source buffer\n\n");
  const RegResult warm = RunRegAblation(/*cache_enabled=*/true);
  const RegResult cold = RunRegAblation(/*cache_enabled=*/false);
  Table reg({"regcache", "send overhead (us)", "hits", "misses", "evictions"});
  reg.AddRow({"on", FormatDouble(warm.send_us, 2), std::to_string(warm.hits),
              std::to_string(warm.misses), std::to_string(warm.evictions)});
  reg.AddRow({"off", FormatDouble(cold.send_us, 2), std::to_string(cold.hits),
              std::to_string(cold.misses), std::to_string(cold.evictions)});
  reg.Print();
  if (cold.send_us > 0) {
    std::printf("\nwarm sends cost %.0f%% of cold-pin sends\n",
                100.0 * warm.send_us / cold.send_us);
  }
  return 0;
}
