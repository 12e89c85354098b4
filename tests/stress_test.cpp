// System-level property and stress tests: random traffic integrity across
// a full cluster, determinism of whole-cluster runs, backpressure under
// send-queue flooding, and daemon robustness against malformed control
// traffic. Lossy links are fault_test.cpp's.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "co_test_util.h"
#include "vmmc/vmmc/cluster.h"

namespace vmmc::vmmc_core {
namespace {

using sim::Tick;

// Deterministic payload for (sender, receiver, message index, length).
std::vector<std::uint8_t> MakePayload(int src, int dst, int n, std::uint32_t len) {
  std::vector<std::uint8_t> v(len);
  std::uint32_t x = static_cast<std::uint32_t>(src * 7919 + dst * 104729 + n * 31 + 1);
  for (std::uint32_t i = 0; i < len; ++i) {
    x = x * 1664525u + 1013904223u;
    v[i] = static_cast<std::uint8_t>(x >> 24);
  }
  return v;
}

struct RandomTrafficResult {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t mismatches = 0;
  Tick finished_at = 0;
  std::uint64_t events = 0;
};

// Every node sends `per_pair` messages of random size to every other node,
// into per-(src,dst,msg) offsets of a large exported region; afterwards the
// contents are verified byte for byte.
RandomTrafficResult RunRandomTraffic(int nodes, int per_pair, std::uint64_t seed) {
  sim::Simulator sim;
  Params params;
  ClusterOptions options;
  options.num_nodes = nodes;
  Cluster cluster(sim, params, options);
  EXPECT_TRUE(cluster.Boot().ok());

  RandomTrafficResult result;
  // Region layout: each (src, msg) pair gets a 4 KB-aligned slice.
  const std::uint32_t kSlice = 8192;
  const std::uint32_t region =
      static_cast<std::uint32_t>(nodes) * static_cast<std::uint32_t>(per_pair) * kSlice;

  std::vector<std::unique_ptr<Endpoint>> eps;
  std::vector<mem::VirtAddr> regions(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    auto ep = cluster.OpenEndpoint(n, "stress-" + std::to_string(n));
    EXPECT_TRUE(ep.ok());
    eps.push_back(std::move(ep).value());
  }

  int setups_done = 0;
  auto setup = [&](int n) -> sim::Process {
    auto buf = eps[static_cast<std::size_t>(n)]->AllocBuffer(region);
    CO_ASSERT_TRUE(buf.ok());
    regions[static_cast<std::size_t>(n)] = buf.value();
    ExportOptions opts;
    opts.name = "region-" + std::to_string(n);
    auto id = co_await eps[static_cast<std::size_t>(n)]->ExportBuffer(
        buf.value(), region, std::move(opts));
    CO_ASSERT_TRUE(id.ok());
    ++setups_done;
  };
  for (int n = 0; n < nodes; ++n) sim.Spawn(setup(n));
  EXPECT_TRUE(sim.RunUntil([&] { return setups_done == nodes; }, 50'000'000));

  int senders_done = 0;
  auto sender = [&](int src) -> sim::Process {
    Endpoint& ep = *eps[static_cast<std::size_t>(src)];
    sim::Rng rng(seed * 1000 + static_cast<std::uint64_t>(src));
    // Import every peer's region.
    std::map<int, ProxyAddr> proxies;
    for (int dst = 0; dst < nodes; ++dst) {
      if (dst == src) continue;
      ImportOptions wait;
      wait.wait = true;
      auto imp = co_await ep.ImportBuffer(dst, "region-" + std::to_string(dst), wait);
      CO_ASSERT_TRUE(imp.ok());
      proxies[dst] = imp.value().proxy_base;
    }
    auto staging = ep.AllocBuffer(kSlice);
    CO_ASSERT_TRUE(staging.ok());
    for (int n = 0; n < per_pair; ++n) {
      for (int dst = 0; dst < nodes; ++dst) {
        if (dst == src) continue;
        // Mix of short and long messages, odd lengths included.
        const std::uint32_t len =
            1 + static_cast<std::uint32_t>(rng.UniformU64(kSlice - 1));
        auto payload = MakePayload(src, dst, n, len);
        CO_ASSERT_TRUE(ep.WriteBuffer(staging.value(), payload).ok());
        const std::uint32_t slot =
            (static_cast<std::uint32_t>(src) * static_cast<std::uint32_t>(per_pair) +
             static_cast<std::uint32_t>(n)) *
            kSlice;
        Status s = co_await ep.SendMsg(staging.value(), proxies[dst] + slot, len);
        CO_ASSERT_TRUE(s.ok());
        result.messages++;
        result.bytes += len;
        co_await sim.Delay(rng.UniformU64(20'000));
      }
    }
    ++senders_done;
  };
  for (int src = 0; src < nodes; ++src) sim.Spawn(sender(src));
  EXPECT_TRUE(sim.RunUntil([&] { return senders_done == nodes; }, 200'000'000));
  sim.Run(10'000'000);  // drain in-flight deliveries
  result.finished_at = sim.now();
  result.events = sim.events_processed();

  // Verify every slice.
  for (int dst = 0; dst < nodes; ++dst) {
    for (int src = 0; src < nodes; ++src) {
      if (src == dst) continue;
      sim::Rng rng(seed * 1000 + static_cast<std::uint64_t>(src));
      // Reproduce the sender's length sequence: lengths were drawn in the
      // same (n, dst) order.
      std::map<std::pair<int, int>, std::uint32_t> lengths;
      for (int n = 0; n < per_pair; ++n) {
        for (int d = 0; d < nodes; ++d) {
          if (d == src) continue;
          const std::uint32_t len =
              1 + static_cast<std::uint32_t>(rng.UniformU64(kSlice - 1));
          lengths[{n, d}] = len;
          rng.UniformU64(20'000);  // the pacing draw
        }
      }
      for (int n = 0; n < per_pair; ++n) {
        const std::uint32_t len = lengths[{n, dst}];
        const std::uint32_t slot =
            (static_cast<std::uint32_t>(src) * static_cast<std::uint32_t>(per_pair) +
             static_cast<std::uint32_t>(n)) *
            kSlice;
        std::vector<std::uint8_t> got(len);
        EXPECT_TRUE(eps[static_cast<std::size_t>(dst)]
                        ->ReadBuffer(regions[static_cast<std::size_t>(dst)] + slot, got)
                        .ok());
        if (got != MakePayload(src, dst, n, len)) ++result.mismatches;
      }
    }
  }
  return result;
}

class RandomTrafficTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomTrafficTest, AllPayloadsArriveIntact) {
  RandomTrafficResult r = RunRandomTraffic(/*nodes=*/4, /*per_pair=*/6, GetParam());
  EXPECT_EQ(r.mismatches, 0u);
  EXPECT_EQ(r.messages, 4u * 3u * 6u);
  EXPECT_GT(r.bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTrafficTest, ::testing::Values(1u, 7u, 99u));

TEST(DeterminismStressTest, WholeClusterRunsAreBitIdentical) {
  RandomTrafficResult a = RunRandomTraffic(3, 4, 5);
  RandomTrafficResult b = RunRandomTraffic(3, 4, 5);
  EXPECT_EQ(a.finished_at, b.finished_at);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.mismatches, 0u);
  EXPECT_EQ(b.mismatches, 0u);
}

TEST(BackpressureTest, AsyncFloodIsBoundedByQueueSlots) {
  sim::Simulator sim;
  Params params;
  ClusterOptions options;
  options.num_nodes = 2;
  Cluster cluster(sim, params, options);
  ASSERT_TRUE(cluster.Boot().ok());
  auto recv = cluster.OpenEndpoint(1, "r");
  auto send = cluster.OpenEndpoint(0, "s");
  ASSERT_TRUE(recv.ok() && send.ok());

  mem::VirtAddr rbuf = 0;
  int phase = 0;
  auto receiver = [&]() -> sim::Process {
    auto buf = recv.value()->AllocBuffer(1 << 20);
    CO_ASSERT_TRUE(buf.ok());
    rbuf = buf.value();
    ExportOptions opts;
    opts.name = "flood";
    auto id = co_await recv.value()->ExportBuffer(rbuf, 1 << 20, std::move(opts));
    CO_ASSERT_TRUE(id.ok());
    phase = 1;
  };
  sim.Spawn(receiver());
  ASSERT_TRUE(sim.RunUntil([&] { return phase == 1; }, 10'000'000));

  // Post 4x more async sends than there are queue slots; every post must
  // eventually succeed (flow control blocks, never fails), and all data
  // must arrive.
  const int kSends = static_cast<int>(params.vmmc.send_queue_entries) * 4;
  int completed = 0;
  auto flood = [&]() -> sim::Process {
    Endpoint& ep = *send.value();
    ImportOptions wait;
    wait.wait = true;
    auto imp = co_await ep.ImportBuffer(1, "flood", wait);
    CO_ASSERT_TRUE(imp.ok());
    auto src = ep.AllocBuffer(16384);
    CO_ASSERT_TRUE(src.ok());
    std::vector<vmmc_core::SendHandle> handles;
    for (int i = 0; i < kSends; ++i) {
      auto h = co_await ep.SendMsgAsync(src.value(),
                                        imp.value().proxy_base +
                                            static_cast<std::uint32_t>(i % 64) * 16384,
                                        16384);
      CO_ASSERT_TRUE(h.ok());
      handles.push_back(h.value());
      // Reap older handles to recycle completion slots.
      if (handles.size() >= params.vmmc.send_queue_entries / 2) {
        Status s = co_await ep.WaitSend(handles.front());
        CO_ASSERT_TRUE(s.ok());
        handles.erase(handles.begin());
        ++completed;
      }
    }
    for (auto& h : handles) {
      Status s = co_await ep.WaitSend(h);
      CO_ASSERT_TRUE(s.ok());
      ++completed;
    }
  };
  sim.Spawn(flood());
  sim.Run(100'000'000);
  EXPECT_EQ(completed, kSends);
  EXPECT_EQ(cluster.node(0).lcp->metrics().sends.value(),
            static_cast<std::uint64_t>(kSends));
}

TEST(DaemonRobustnessTest, MalformedControlTrafficIsIgnored) {
  sim::Simulator sim;
  Params params;
  ClusterOptions options;
  options.num_nodes = 2;
  Cluster cluster(sim, params, options);
  ASSERT_TRUE(cluster.Boot().ok());

  // Fire garbage datagrams at the daemon port from node 0.
  auto fuzz = [&]() -> sim::Process {
    sim::Rng rng(0xF422);
    for (int i = 0; i < 50; ++i) {
      std::vector<std::uint8_t> junk(rng.UniformU64(64));
      for (auto& b : junk) b = static_cast<std::uint8_t>(rng.NextU64());
      co_await cluster.node(0).eth->SendTo(1, VmmcDaemon::kPort, 31337,
                                           std::move(junk));
    }
  };
  sim.Spawn(fuzz());
  sim.Run(20'000'000);

  // The daemon must still serve a real export/import afterwards.
  auto recv = cluster.OpenEndpoint(1, "r");
  auto send = cluster.OpenEndpoint(0, "s");
  ASSERT_TRUE(recv.ok() && send.ok());
  bool ok = false;
  auto prog = [&]() -> sim::Process {
    auto buf = recv.value()->AllocBuffer(4096);
    CO_ASSERT_TRUE(buf.ok());
    ExportOptions opts;
    opts.name = "after-fuzz";
    auto id = co_await recv.value()->ExportBuffer(buf.value(), 4096, std::move(opts));
    CO_ASSERT_TRUE(id.ok());
    ImportOptions wait;
    wait.wait = true;
    auto imp = co_await send.value()->ImportBuffer(1, "after-fuzz", wait);
    ok = imp.ok();
  };
  sim.Spawn(prog());
  sim.Run(50'000'000);
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace vmmc::vmmc_core
