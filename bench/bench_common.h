// Shared fixtures for the paper-reproduction benches: a two-node cluster
// with cross-imported receive buffers, plus the ping-pong / streaming
// drivers used by Figures 2-4. All "measurements" are simulated time.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "vmmc/params.h"
#include "vmmc/sim/simulator.h"
#include "vmmc/util/stats.h"
#include "vmmc/vmmc/cluster.h"

namespace vmmc::bench {

using vmmc_core::Cluster;
using vmmc_core::ClusterOptions;
using vmmc_core::Endpoint;
using vmmc_core::ExportOptions;
using vmmc_core::ImportedBuffer;
using vmmc_core::ImportOptions;
using vmmc_core::ProxyAddr;

// Two endpoints (node 0 "a", node 1 "b") with a receive buffer exported on
// each side and imported by the other.
class TwoNodeFixture {
 public:
  explicit TwoNodeFixture(const Params& params = DefaultParams(),
                          std::uint32_t buffer_bytes = 2 * 1024 * 1024)
      : params_(params), cluster_(sim_, params_, {.num_nodes = 2}) {
    Status booted = cluster_.Boot();
    if (!booted.ok()) {
      std::fprintf(stderr, "boot failed: %s\n", booted.ToString().c_str());
      std::abort();
    }
    a_ = Open(0, "a");
    b_ = Open(1, "b");
    SetupBuffers(buffer_bytes);
  }

  sim::Simulator& sim() { return sim_; }
  Cluster& cluster() { return cluster_; }
  Endpoint& a() { return *a_; }
  Endpoint& b() { return *b_; }
  // Proxy address (in a's proxy space) of b's receive buffer, and vice
  // versa, plus the local VAs of the exported buffers.
  ProxyAddr a_to_b() const { return a_to_b_.proxy_base; }
  ProxyAddr b_to_a() const { return b_to_a_.proxy_base; }
  mem::VirtAddr a_recv_va() const { return a_recv_va_; }
  mem::VirtAddr b_recv_va() const { return b_recv_va_; }
  mem::VirtAddr a_src() const { return a_src_; }
  mem::VirtAddr b_src() const { return b_src_; }
  std::uint32_t buffer_bytes() const { return buffer_bytes_; }

  // Runs the simulation until `done` turns true; aborts if it drains.
  void RunUntilDone(const bool& done) {
    if (!sim_.RunUntil([&] { return done; })) {
      std::fprintf(stderr, "bench deadlocked (event queue drained)\n");
      std::abort();
    }
  }

 private:
  std::unique_ptr<Endpoint> Open(int node, const char* name) {
    auto ep = cluster_.OpenEndpoint(node, name);
    if (!ep.ok()) {
      std::fprintf(stderr, "endpoint failed: %s\n", ep.status().ToString().c_str());
      std::abort();
    }
    return std::move(ep).value();
  }

  void SetupBuffers(std::uint32_t bytes) {
    buffer_bytes_ = bytes;
    bool done = false;
    auto setup = [&]() -> sim::Process {
      a_recv_va_ = a_->AllocBuffer(bytes).value();
      b_recv_va_ = b_->AllocBuffer(bytes).value();
      a_src_ = a_->AllocBuffer(bytes).value();
      b_src_ = b_->AllocBuffer(bytes).value();
      ExportOptions ea;
      ea.name = "a-ring";
      auto ida = co_await a_->ExportBuffer(a_recv_va_, bytes, std::move(ea));
      ExportOptions eb;
      eb.name = "b-ring";
      auto idb = co_await b_->ExportBuffer(b_recv_va_, bytes, std::move(eb));
      ImportOptions wait;
      wait.wait = true;
      auto iab = co_await a_->ImportBuffer(1, "b-ring", wait);
      auto iba = co_await b_->ImportBuffer(0, "a-ring", wait);
      a_to_b_ = iab.value();
      b_to_a_ = iba.value();
      (void)ida;
      (void)idb;
      done = true;
    };
    sim_.Spawn(setup());
    RunUntilDone(done);
  }

  // Declaration order is construction order: the simulator outlives the
  // cluster and the endpoints built on it.
  sim::Simulator sim_;
  Params params_;
  Cluster cluster_;
  std::unique_ptr<Endpoint> a_, b_;
  ImportedBuffer a_to_b_{}, b_to_a_{};
  mem::VirtAddr a_recv_va_ = 0, b_recv_va_ = 0, a_src_ = 0, b_src_ = 0;
  std::uint32_t buffer_bytes_ = 0;
};

// --- measurement drivers -------------------------------------------------

// Spin-waits (as the paper's programs do) until the byte at `va + offset`
// equals `expected`.
inline sim::Process SpinOnByte(sim::Simulator& sim, Endpoint& ep,
                               mem::VirtAddr va, std::uint8_t expected,
                               sim::Tick poll = 250) {
  for (;;) {
    std::uint8_t byte = 0;
    (void)ep.ReadBuffer(va, {&byte, 1});
    if (byte == expected) co_return;
    co_await sim.Delay(poll);
  }
}

// Classic ping-pong (§5.3: synchronous send, alternating traffic). Returns
// the one-way latency in ns through `result`.
struct PingPongResult {
  double one_way_us = 0;
  double bandwidth_mb_s = 0;
};

inline void RunPingPong(TwoNodeFixture& fx, std::uint32_t len, int iters,
                        PingPongResult& result) {
  bool done = false;
  // Sequence byte at the end of the message marks arrival (the last byte
  // of a message is written last: chunks and scatter pieces are in order).
  auto ping = [&]() -> sim::Process {
    const mem::VirtAddr flag = fx.a_recv_va() + len - 1;
    sim::Tick t0 = fx.sim().now();
    for (int i = 1; i <= iters; ++i) {
      const auto seq = static_cast<std::uint8_t>(i & 0xFF);
      std::vector<std::uint8_t> payload(len, seq);
      (void)fx.a().WriteBuffer(fx.a_src(), payload);
      Status s = co_await fx.a().SendMsg(fx.a_src(), fx.a_to_b(), len);
      if (!s.ok()) std::abort();
      co_await SpinOnByte(fx.sim(), fx.a(), flag, seq);
    }
    const sim::Tick elapsed = fx.sim().now() - t0;
    result.one_way_us =
        sim::ToMicroseconds(elapsed) / (2.0 * static_cast<double>(iters));
    result.bandwidth_mb_s = sim::MBPerSec(
        static_cast<std::uint64_t>(len) * static_cast<std::uint64_t>(iters) * 2,
        elapsed);
    done = true;
  };
  auto pong = [&]() -> sim::Process {
    const mem::VirtAddr flag = fx.b_recv_va() + len - 1;
    for (int i = 1; i <= iters; ++i) {
      const auto seq = static_cast<std::uint8_t>(i & 0xFF);
      co_await SpinOnByte(fx.sim(), fx.b(), flag, seq);
      std::vector<std::uint8_t> payload(len, seq);
      (void)fx.b().WriteBuffer(fx.b_src(), payload);
      Status s = co_await fx.b().SendMsg(fx.b_src(), fx.b_to_a(), len);
      if (!s.ok()) std::abort();
    }
  };
  fx.sim().Spawn(pong());
  fx.sim().Spawn(ping());
  fx.RunUntilDone(done);
}

// Bidirectional traffic (§5.3): both nodes send simultaneously, wait for
// the peer's message, then iterate. Returns the TOTAL bandwidth of both
// senders, as in Figure 3.
inline double RunBidirectional(TwoNodeFixture& fx, std::uint32_t len, int iters) {
  int finished = 0;
  bool done = false;
  auto side = [&](Endpoint& ep, mem::VirtAddr src, ProxyAddr dst,
                  mem::VirtAddr recv_va) -> sim::Process {
    const mem::VirtAddr flag = recv_va + len - 1;
    for (int i = 1; i <= iters; ++i) {
      const auto seq = static_cast<std::uint8_t>(i & 0xFF);
      std::vector<std::uint8_t> payload(len, seq);
      (void)ep.WriteBuffer(src, payload);
      Status s = co_await ep.SendMsg(src, dst, len);
      if (!s.ok()) std::abort();
      co_await SpinOnByte(fx.sim(), ep, flag, seq);
    }
    if (++finished == 2) done = true;
  };
  const sim::Tick t0 = fx.sim().now();
  fx.sim().Spawn(side(fx.a(), fx.a_src(), fx.a_to_b(), fx.a_recv_va()));
  fx.sim().Spawn(side(fx.b(), fx.b_src(), fx.b_to_a(), fx.b_recv_va()));
  fx.RunUntilDone(done);
  const sim::Tick elapsed = fx.sim().now() - t0;
  return sim::MBPerSec(
      2ull * static_cast<std::uint64_t>(len) * static_cast<std::uint64_t>(iters),
      elapsed);
}

// Send overhead (§5.3, Figure 4): time until SendMsg / SendMsgAsync
// returns, one-way traffic to an idle receiver.
struct OverheadResult {
  double sync_us = 0;
  double async_us = 0;
};

inline void RunSendOverhead(TwoNodeFixture& fx, std::uint32_t len, int iters,
                            OverheadResult& result) {
  bool done = false;
  auto prog = [&]() -> sim::Process {
    std::vector<std::uint8_t> payload(len, 0x5A);
    (void)fx.a().WriteBuffer(fx.a_src(), payload);

    // Warm the TLB so overhead excludes miss service (§5.3: "we make sure
    // that it is present in the LANai software TLB").
    Status warm = co_await fx.a().SendMsg(fx.a_src(), fx.a_to_b(), len);
    if (!warm.ok()) std::abort();

    sim::Tick sync_total = 0;
    for (int i = 0; i < iters; ++i) {
      const sim::Tick t0 = fx.sim().now();
      Status s = co_await fx.a().SendMsg(fx.a_src(), fx.a_to_b(), len);
      sync_total += fx.sim().now() - t0;
      if (!s.ok()) std::abort();
      co_await fx.sim().Delay(sim::Milliseconds(1));  // let the NIC drain
    }

    sim::Tick async_total = 0;
    std::vector<vmmc_core::SendHandle> handles;
    for (int i = 0; i < iters; ++i) {
      const sim::Tick t0 = fx.sim().now();
      auto h = co_await fx.a().SendMsgAsync(fx.a_src(), fx.a_to_b(), len);
      async_total += fx.sim().now() - t0;
      if (!h.ok()) std::abort();
      (void)co_await fx.a().WaitSend(h.value());
      co_await fx.sim().Delay(sim::Milliseconds(1));
    }

    result.sync_us = sim::ToMicroseconds(sync_total) / iters;
    result.async_us = sim::ToMicroseconds(async_total) / iters;
    done = true;
  };
  fx.sim().Spawn(prog());
  fx.RunUntilDone(done);
}

}  // namespace vmmc::bench
