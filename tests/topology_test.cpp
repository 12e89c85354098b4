// Tests for the multi-switch topology builders (topology.h) and the
// congestion machinery the bounded switch output queues add to the
// fabric: spec parsing, all-pairs delivery on every shape, fat-tree spine
// diversity, route consume/strip over 1/2/3 hops (including truncated
// routes), the route-length bound, (switch, port)-addressed fault rules,
// emergent incast congestion, and bitwise run-to-run determinism.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <set>
#include <span>
#include <vector>

#include "vmmc/myrinet/topology.h"
#include "vmmc/params.h"
#include "vmmc/sim/fault.h"
#include "vmmc/sim/simulator.h"

namespace vmmc::myrinet {
namespace {

using sim::Tick;

TEST(TopologySpecTest, ParsesKindNodesAndPorts) {
  auto cfg = ParseTopologySpec("fattree:16@8");
  ASSERT_TRUE(cfg.ok());
  EXPECT_EQ(cfg.value().kind, TopologyKind::kFatTree);
  EXPECT_EQ(cfg.value().num_nodes, 16);
  EXPECT_EQ(cfg.value().switch_ports, 8);

  auto defaults = ParseTopologySpec("ring:12");
  ASSERT_TRUE(defaults.ok());
  EXPECT_EQ(defaults.value().kind, TopologyKind::kRing);
  EXPECT_EQ(defaults.value().num_nodes, 12);
  EXPECT_EQ(defaults.value().switch_ports, 8);

  EXPECT_EQ(ParseTopologySpec("single:4").value().kind,
            TopologyKind::kSingleSwitch);
  EXPECT_EQ(ParseTopologySpec("chain:6@8").value().kind, TopologyKind::kChain);
  EXPECT_EQ(ParseTopologySpec("mesh:9@8").value().kind, TopologyKind::kMesh);
}

TEST(TopologySpecTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(ParseTopologySpec("").ok());
  EXPECT_FALSE(ParseTopologySpec("fattree").ok());
  EXPECT_FALSE(ParseTopologySpec("torus:8").ok());
  EXPECT_FALSE(ParseTopologySpec("ring:").ok());
  EXPECT_FALSE(ParseTopologySpec("ring:0").ok());
  EXPECT_FALSE(ParseTopologySpec("ring:abc").ok());
  EXPECT_FALSE(ParseTopologySpec("ring:8@1").ok());
  EXPECT_FALSE(ParseTopologySpec("ring:8@x").ok());
}

TEST(TopologySpecTest, RoundTripsThroughSpecString) {
  for (const char* spec : {"single:4@8", "chain:12@8", "fattree:32@8",
                           "ring:8@8", "mesh:24@8"}) {
    auto cfg = ParseTopologySpec(spec);
    ASSERT_TRUE(cfg.ok()) << spec;
    EXPECT_EQ(TopologySpecString(cfg.value()), spec);
  }
}

TEST(TopologyBuildTest, RejectsOversubscribedShapes) {
  Params params;
  {
    sim::Simulator sim;
    Fabric fabric(sim, params.net);
    TopologyConfig cfg;
    cfg.kind = TopologyKind::kFatTree;
    cfg.num_nodes = 33;  // 8-port fat tree caps at (8/2) * 8 = 32
    EXPECT_FALSE(BuildTopology(fabric, cfg).ok());
  }
  {
    sim::Simulator sim;
    Fabric fabric(sim, params.net);
    TopologyConfig cfg;
    cfg.kind = TopologyKind::kSingleSwitch;
    cfg.num_nodes = 9;
    EXPECT_FALSE(BuildTopology(fabric, cfg).ok());
  }
  {
    sim::Simulator sim;
    Fabric fabric(sim, params.net);
    TopologyConfig cfg;
    cfg.kind = TopologyKind::kRing;
    cfg.num_nodes = 13;
    cfg.num_switches = 2;  // 2 * (8-2) = 12 slots
    EXPECT_FALSE(BuildTopology(fabric, cfg).ok());
  }
}

class RecordingSink : public Endpoint {
 public:
  explicit RecordingSink(sim::Simulator& sim) : sim_(sim) {}
  void OnPacket(Packet packet, Tick, Link*) override {
    packets.push_back(std::move(packet));
  }
  void OnPacketDropped(const Packet& packet) override {
    dropped.push_back(packet);
  }
  sim::Simulator& sim_;
  std::vector<Packet> packets;
  std::vector<Packet> dropped;
};

// Builds the shape, attaches one sink per node, returns the sinks.
std::vector<std::unique_ptr<RecordingSink>> Stand(sim::Simulator& sim,
                                                  Fabric& fabric,
                                                  const TopologyConfig& cfg) {
  auto built = BuildTopology(fabric, cfg);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  std::vector<std::unique_ptr<RecordingSink>> sinks;
  for (int i = 0; i < cfg.num_nodes; ++i) {
    sinks.push_back(std::make_unique<RecordingSink>(sim));
    const int id = fabric.AddNic(sinks.back().get());
    EXPECT_EQ(id, i);
    const auto& slot = built.value().nic_slots[static_cast<std::size_t>(i)];
    EXPECT_TRUE(fabric.ConnectNic(id, slot.switch_id, slot.port).ok());
  }
  return sinks;
}

class TopologyDeliveryTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(TopologyDeliveryTest, AllPairsComputedRoutesDeliver) {
  sim::Simulator sim;
  Params params;
  Fabric fabric(sim, params.net);
  auto cfg = ParseTopologySpec(GetParam());
  ASSERT_TRUE(cfg.ok());
  auto sinks = Stand(sim, fabric, cfg.value());
  const int n = cfg.value().num_nodes;

  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d) {
      if (s == d) continue;
      auto route = fabric.ComputeRoute(s, d);
      ASSERT_TRUE(route.ok()) << s << "->" << d;
      Packet p;
      p.route = route.value();
      p.payload = {static_cast<std::uint8_t>(s), static_cast<std::uint8_t>(d)};
      ASSERT_TRUE(fabric.Inject(s, std::move(p)).ok());
    }
  }
  sim.Run();
  for (int d = 0; d < n; ++d) {
    auto& got = sinks[static_cast<std::size_t>(d)]->packets;
    ASSERT_EQ(got.size(), static_cast<std::size_t>(n - 1)) << "dst " << d;
    for (const Packet& p : got) {
      EXPECT_TRUE(p.CrcOk());
      EXPECT_TRUE(p.route.empty()) << "route fully consumed";
      EXPECT_EQ(p.payload[1], static_cast<std::uint8_t>(d)) << "misrouted";
    }
  }
  EXPECT_EQ(fabric.drop_notices(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Shapes, TopologyDeliveryTest,
                         ::testing::Values("fattree:16@8", "fattree:32@8",
                                           "ring:8@8", "ring:16@8", "mesh:16@8",
                                           "chain:12@8", "fattree:24@16"));

TEST(FatTreeTest, RoutesSpreadAcrossSpines) {
  sim::Simulator sim;
  Params params;
  Fabric fabric(sim, params.net);
  auto cfg = ParseTopologySpec("fattree:16@8");
  ASSERT_TRUE(cfg.ok());
  auto sinks = Stand(sim, fabric, cfg.value());

  // 8-port fat tree: 4 NICs per leaf, 4 spines, uplinks on ports 4..7.
  // Inter-leaf routes are 3 hops and the chosen spine is (src + dst) % 4,
  // so a traffic mix must exercise more than one spine — BFS alone would
  // send everything through the first.
  std::set<std::uint8_t> uplinks_used;
  for (int s = 0; s < 16; ++s) {
    for (int d = 0; d < 16; ++d) {
      if (s / 4 == d / 4) continue;
      auto route = fabric.ComputeRoute(s, d).value();
      ASSERT_EQ(route.size(), 3u);
      EXPECT_EQ(route[0], static_cast<std::uint8_t>(4 + (s + d) % 4));
      EXPECT_EQ(route[1], static_cast<std::uint8_t>(d / 4));
      EXPECT_EQ(route[2], static_cast<std::uint8_t>(d % 4));
      uplinks_used.insert(route[0]);
    }
  }
  EXPECT_EQ(uplinks_used.size(), 4u) << "all spines carry traffic";

  // Same-leaf routes stay 1 hop.
  EXPECT_EQ(fabric.ComputeRoute(0, 1).value().size(), 1u);
}

// 3 switches of 4 ports, 2 NICs each: nodes 0-1 on switch 0, 2-3 on
// switch 1, 4-5 on switch 2; inter-switch links on ports 2 (next) and 3
// (previous).
TopologyConfig ThreeSwitchChain() {
  TopologyConfig cfg;
  cfg.kind = TopologyKind::kChain;
  cfg.num_nodes = 6;
  cfg.switch_ports = 4;
  cfg.num_switches = 3;
  return cfg;
}

TEST(RouteStripTest, ConsumesOneByteAtEachSwitch) {
  // Routes of length 1, 2 and 3 from NIC 0 depending on how far the
  // destination sits; every traversed switch strips exactly its own byte.
  sim::Simulator sim;
  Params params;
  Fabric fabric(sim, params.net);
  auto sinks = Stand(sim, fabric, ThreeSwitchChain());

  for (int dst : {1, 2, 4}) {  // same switch, next switch, last switch
    auto route = fabric.ComputeRoute(0, dst).value();
    const std::size_t hops = route.size();
    EXPECT_EQ(hops, static_cast<std::size_t>(dst / 2 + 1));
    Packet p;
    p.route = route;
    p.payload = {0xAB};
    ASSERT_TRUE(fabric.Inject(0, std::move(p)).ok());
    sim.Run();
    auto& got = sinks[static_cast<std::size_t>(dst)]->packets;
    ASSERT_EQ(got.size(), 1u) << "dst " << dst;
    EXPECT_TRUE(got.back().route.empty())
        << hops << "-hop route fully consumed";
    EXPECT_TRUE(got.back().CrcOk());
  }
}

// A chain of 1-node switches: node i sits on switch i, so the route from
// node 0 to node n-1 crosses all n switches.
TopologyConfig LongChain(int switches) {
  TopologyConfig cfg;
  cfg.kind = TopologyKind::kChain;
  cfg.num_nodes = switches;
  cfg.switch_ports = 3;
  return cfg;
}

TEST(RouteCapacityTest, RouteOverTheBoundIsAnErrorNotAnAbort) {
  constexpr int kMax = static_cast<int>(Route::kCapacity);
  sim::Simulator sim;
  Params params;
  Fabric fabric(sim, params.net);
  auto sinks = Stand(sim, fabric, LongChain(kMax + 2));

  // kCapacity switches: the longest route that fits, and it delivers.
  auto longest = fabric.ComputeRoute(0, kMax - 1);
  ASSERT_TRUE(longest.ok()) << longest.status().ToString();
  EXPECT_EQ(longest.value().size(), Route::kCapacity);
  Packet p;
  p.route = longest.value();
  p.payload = {0x5A};
  ASSERT_TRUE(fabric.Inject(0, std::move(p)).ok());
  sim.Run();
  ASSERT_EQ(sinks[kMax - 1]->packets.size(), 1u);
  EXPECT_TRUE(sinks[kMax - 1]->packets.back().route.empty());

  // One or two switches more: a typed error, both ways.
  for (int dst : {kMax, kMax + 1}) {
    auto over = fabric.ComputeRoute(0, dst);
    ASSERT_FALSE(over.ok()) << "dst " << dst;
    EXPECT_EQ(over.status().code(), ErrorCode::kOutOfRange);
    EXPECT_EQ(fabric.ComputeRoute(dst, 0).status().code(),
              ErrorCode::kOutOfRange);
  }

  // A route read from raw bytes (the mapper's probe reply) is checked too.
  const std::vector<std::uint8_t> bytes(Route::kCapacity + 1, 0);
  EXPECT_EQ(Route::FromBytes(bytes).status().code(), ErrorCode::kOutOfRange);
  auto fits = Route::FromBytes(std::span(bytes).first(Route::kCapacity));
  ASSERT_TRUE(fits.ok());
  EXPECT_EQ(fits.value().size(), Route::kCapacity);
}

TEST(RouteCapacityTest, PacketStaysOneCacheLine) {
  // Inline route, payload and CRC stamp: the event captures that carry a
  // Packet across each hop fit InlineFn without a heap allocation.
  EXPECT_EQ(sizeof(Packet), 64u);
  Packet p;
  p.route = {3, 1, 4};
  p.route.PopFront();
  EXPECT_EQ(p.route.size(), 2u);
  EXPECT_EQ(p.route[0], 1);
  EXPECT_EQ(p.route[1], 4);
  EXPECT_EQ(p.wire_bytes(), 2u + 0u + 1u);
}

TEST(RouteStripTest, TruncatedRouteDropsWithNotice) {
  sim::Simulator sim;
  Params params;
  Fabric fabric(sim, params.net);
  auto sinks = Stand(sim, fabric, ThreeSwitchChain());

  // Full route to NIC 4 is 3 bytes; truncations die at the switch whose
  // byte is missing (empty-route drop), and the source NIC hears about it.
  auto full = fabric.ComputeRoute(0, 4).value();
  ASSERT_EQ(full.size(), 3u);
  for (std::size_t keep = 0; keep < full.size(); ++keep) {
    Packet p;
    p.route.assign(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(keep));
    p.payload = {static_cast<std::uint8_t>(keep)};
    ASSERT_TRUE(fabric.Inject(0, std::move(p)).ok());
    sim.Run();
  }
  EXPECT_EQ(fabric.drop_notices(), 3u);
  EXPECT_EQ(sinks[0]->dropped.size(), 3u);
  for (const auto& s : sinks) EXPECT_TRUE(s->packets.empty());
  // Truncated at 1 byte: consumed by switch 0, dies at switch 1; the total
  // dropped count spreads across the chain.
  EXPECT_EQ(fabric.switch_at(0).dropped(), 1u);
  EXPECT_EQ(fabric.switch_at(1).dropped(), 1u);
  EXPECT_EQ(fabric.switch_at(2).dropped(), 1u);
}

TEST(LinkSiteFaultTest, RulesSelectBySwitchAndPort) {
  // Two flows on a chain: 0 -> 4 crosses the switch0-to-switch1 link;
  // 0 -> 1 stays on switch 0. A drop rule pinned to (switch 0, inter-switch
  // port) must kill only the crossing flow.
  sim::Simulator sim;
  Params params;
  Fabric fabric(sim, params.net);
  auto sinks = Stand(sim, fabric, ThreeSwitchChain());

  // The chain builder wires "to next switch" on port 2 (= ports - 2).
  ASSERT_NE(fabric.LinkIdAt(0, 2), -1);
  sim::FaultPlan plan;
  sim::LinkFaultRule rule;
  rule.switch_id = 0;
  rule.port = 2;
  rule.drop_rate = 1.0;
  plan.links.push_back(rule);
  sim.faults().Configure(plan);

  for (int i = 0; i < 5; ++i) {
    Packet far;
    far.route = fabric.ComputeRoute(0, 4).value();
    far.payload = {1};
    ASSERT_TRUE(fabric.Inject(0, std::move(far)).ok());
    Packet near;
    near.route = fabric.ComputeRoute(0, 1).value();
    near.payload = {2};
    ASSERT_TRUE(fabric.Inject(0, std::move(near)).ok());
  }
  sim.Run();
  EXPECT_EQ(sinks[4]->packets.size(), 0u) << "crossing flow dropped";
  EXPECT_EQ(sinks[1]->packets.size(), 5u) << "local flow untouched";
}

TEST(LinkSiteFaultTest, RulesSelectBySourceNic) {
  sim::Simulator sim;
  Params params;
  Fabric fabric(sim, params.net);
  auto cfg = ParseTopologySpec("single:4@8");
  ASSERT_TRUE(cfg.ok());
  auto sinks = Stand(sim, fabric, cfg.value());

  sim::FaultPlan plan;
  sim::LinkFaultRule rule;
  rule.src_nic = 1;  // only NIC 1's injection link
  rule.drop_rate = 1.0;
  plan.links.push_back(rule);
  sim.faults().Configure(plan);

  for (int src : {0, 1, 2}) {
    Packet p;
    p.route = fabric.ComputeRoute(src, 3).value();
    p.payload = {static_cast<std::uint8_t>(src)};
    ASSERT_TRUE(fabric.Inject(src, std::move(p)).ok());
  }
  sim.Run();
  ASSERT_EQ(sinks[3]->packets.size(), 2u);
  for (const Packet& p : sinks[3]->packets) {
    EXPECT_NE(p.payload[0], 1) << "NIC 1's packet should have been dropped";
  }
}

TEST(CongestionTest, IncastFillsOutputQueue) {
  // 7 senders blast the same destination port of one crossbar: the port
  // serializes at link speed, so packets pile up in its output queue and
  // queue_wait must grow. The queue is large enough here that nothing
  // stalls upstream.
  sim::Simulator sim;
  Params params;
  Fabric fabric(sim, params.net);
  auto cfg = ParseTopologySpec("single:8@8");
  ASSERT_TRUE(cfg.ok());
  auto sinks = Stand(sim, fabric, cfg.value());

  for (int src = 1; src < 8; ++src) {
    Packet p;
    p.route = fabric.ComputeRoute(src, 0).value();
    p.payload.assign(1024, static_cast<std::uint8_t>(src));
    ASSERT_TRUE(fabric.Inject(src, std::move(p)).ok());
  }
  sim.Run();
  EXPECT_EQ(sinks[0]->packets.size(), 7u);
  EXPECT_GT(fabric.switch_at(0).queue_wait(), 0) << "incast must queue";
  EXPECT_EQ(fabric.total_hol_stalls(), 0u);
}

TEST(CongestionTest, FullQueueStallsUpstreamLink) {
  // Shrink the output queue below two packets' wire size: the second
  // packet racing for the hot port cannot be buffered, so it must stall
  // its inbound link (wormhole backpressure) until the port drains.
  sim::Simulator sim;
  Params params;
  params.net.switch_port_queue_bytes = 2048;
  Fabric fabric(sim, params.net);
  auto cfg = ParseTopologySpec("single:8@8");
  ASSERT_TRUE(cfg.ok());
  auto sinks = Stand(sim, fabric, cfg.value());

  for (int src = 1; src < 8; ++src) {
    for (int burst = 0; burst < 2; ++burst) {
      Packet p;
      p.route = fabric.ComputeRoute(src, 0).value();
      p.payload.assign(1500, static_cast<std::uint8_t>(src));
      ASSERT_TRUE(fabric.Inject(src, std::move(p)).ok());
    }
  }
  sim.Run();
  EXPECT_EQ(sinks[0]->packets.size(), 14u) << "backpressure loses nothing";
  EXPECT_GT(fabric.total_hol_stalls(), 0u);
  EXPECT_GT(fabric.total_hol_stall_time(), 0);
}

TEST(CongestionTest, ZeroCapDisablesBackpressure) {
  sim::Simulator sim;
  Params params;
  params.net.switch_port_queue_bytes = 0;  // infinite buffering
  Fabric fabric(sim, params.net);
  auto cfg = ParseTopologySpec("single:8@8");
  ASSERT_TRUE(cfg.ok());
  auto sinks = Stand(sim, fabric, cfg.value());

  for (int src = 1; src < 8; ++src) {
    for (int burst = 0; burst < 4; ++burst) {
      Packet p;
      p.route = fabric.ComputeRoute(src, 0).value();
      p.payload.assign(4000, static_cast<std::uint8_t>(src));
      ASSERT_TRUE(fabric.Inject(src, std::move(p)).ok());
    }
  }
  sim.Run();
  EXPECT_EQ(sinks[0]->packets.size(), 28u);
  EXPECT_EQ(fabric.total_hol_stalls(), 0u);
}

// One full fabric exercise, returning a fingerprint of everything timing-
// or counter-visible.
struct Fingerprint {
  Tick end_time = 0;
  std::uint64_t link_packets = 0;
  Tick queue_wait = 0;
  std::uint64_t hol_stalls = 0;
  Tick hol_stall_time = 0;

  bool operator==(const Fingerprint&) const = default;
};

Fingerprint RunIncastOnce() {
  sim::Simulator sim;
  Params params;
  params.net.switch_port_queue_bytes = 4096;
  Fabric fabric(sim, params.net);
  auto cfg = ParseTopologySpec("fattree:16@8");
  auto sinks = Stand(sim, fabric, cfg.value());
  for (int round = 0; round < 3; ++round) {
    for (int src = 1; src < 16; ++src) {
      Packet p;
      p.route = fabric.ComputeRoute(src, 0).value();
      p.payload.assign(2000, static_cast<std::uint8_t>(src));
      EXPECT_TRUE(fabric.Inject(src, std::move(p)).ok());
    }
  }
  sim.Run();
  EXPECT_EQ(sinks[0]->packets.size(), 45u);
  Fingerprint fp;
  fp.end_time = sim.now();
  fp.link_packets = fabric.total_link_packets();
  fp.queue_wait = fabric.total_queue_wait();
  fp.hol_stalls = fabric.total_hol_stalls();
  fp.hol_stall_time = fabric.total_hol_stall_time();
  return fp;
}

TEST(CongestionTest, IncastIsDeterministic) {
  const Fingerprint a = RunIncastOnce();
  const Fingerprint b = RunIncastOnce();
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_TRUE(a == b) << "same seed, same topology => identical congestion";
  EXPECT_GT(a.hol_stalls, 0u) << "fat-tree incast must backpressure";
}

}  // namespace
}  // namespace vmmc::myrinet
