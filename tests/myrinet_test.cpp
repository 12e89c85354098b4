// Tests for the Myrinet fabric: CRC-8 hardware, the packet's lazy CRC
// check, link timing/occupancy, switch routing, multi-hop topologies and
// error injection.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <numeric>
#include <vector>

#include "vmmc/myrinet/crc8.h"
#include "vmmc/myrinet/fabric.h"
#include "vmmc/params.h"
#include "vmmc/sim/fault.h"
#include "vmmc/sim/rng.h"
#include "vmmc/sim/simulator.h"

namespace vmmc::myrinet {
namespace {

using sim::Tick;

TEST(Crc8Test, KnownVectors) {
  // CRC-8 (poly 0x07, init 0) of "123456789" is 0xF4.
  const std::uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc8(digits), 0xF4);
  EXPECT_EQ(Crc8({}), 0x00);
  const std::uint8_t zero[4] = {0, 0, 0, 0};
  EXPECT_EQ(Crc8(zero), 0x00);
}

TEST(Crc8Test, IncrementalMatchesOneShot) {
  std::vector<std::uint8_t> data(257);
  std::iota(data.begin(), data.end(), 0);
  std::uint8_t inc = 0;
  inc = Crc8Update(inc, std::span(data).subspan(0, 100));
  inc = Crc8Update(inc, std::span(data).subspan(100));
  EXPECT_EQ(inc, Crc8(data));
}

// Bit-at-a-time shift register, MSB first: the hardware definition the
// table-driven Crc8Update must reproduce.
std::uint8_t Crc8Bitwise(std::uint8_t crc, std::span<const std::uint8_t> data) {
  for (std::uint8_t byte : data) {
    for (int bit = 7; bit >= 0; --bit) {
      const bool feedback = ((crc >> 7) ^ (byte >> bit)) & 1;
      crc = static_cast<std::uint8_t>(crc << 1);
      if (feedback) crc ^= 0x07;
    }
  }
  return crc;
}

TEST(Crc8Test, SlicedMatchesBitwiseReference) {
  // Eight bytes per step plus a bytewise tail: every length up to 4200
  // (so every tail length), random start offsets and initial CRCs.
  sim::Rng rng(0xC8C8);
  std::vector<std::uint8_t> data(4200 + 64);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.UniformU64(256));
  for (std::size_t len = 0; len <= 4200; ++len) {
    const std::size_t off = static_cast<std::size_t>(rng.UniformU64(64));
    const auto init = static_cast<std::uint8_t>(rng.UniformU64(256));
    const std::span<const std::uint8_t> bytes(data.data() + off, len);
    ASSERT_EQ(Crc8Update(init, bytes), Crc8Bitwise(init, bytes))
        << "len " << len << " offset " << off << " init " << int{init};
    ASSERT_EQ(Crc8(bytes), Crc8Bitwise(0, bytes)) << "len " << len;
  }
}

TEST(Crc8Test, DetectsByteSwapsAndTruncation) {
  // CRC-8 is position-sensitive: reordering or shortening the message
  // changes the checksum (the properties the NIC relies on to reject
  // misassembled packets).
  std::vector<std::uint8_t> data = {0x10, 0x32, 0x54, 0x76, 0x98};
  const std::uint8_t good = Crc8(data);
  auto swapped = data;
  std::swap(swapped[1], swapped[3]);
  EXPECT_NE(Crc8(swapped), good);
  EXPECT_NE(Crc8(std::span(data).subspan(0, 4)), good);
  // Incremental over an empty prefix is the identity.
  EXPECT_EQ(Crc8Update(Crc8Update(0, {}), data), good);
}

TEST(Crc8Test, DetectsSingleBitFlips) {
  std::vector<std::uint8_t> data(64, 0xA5);
  const std::uint8_t good = Crc8(data);
  for (int byte = 0; byte < 64; byte += 7) {
    for (int bit = 0; bit < 8; ++bit) {
      auto bad = data;
      bad[static_cast<size_t>(byte)] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(Crc8(bad), good);
    }
  }
}

TEST(PacketTest, WireSizeAndCrcStamp) {
  Packet p;
  p.route = {1, 2};
  p.payload = {10, 20, 30};
  EXPECT_EQ(p.wire_bytes(), 2u + 3u + 1u);
  p.StampCrc();
  EXPECT_TRUE(p.CrcOk());
  p.payload.MutableData()[1] ^= 0x40;
  EXPECT_FALSE(p.CrcOk());
}

// The eager CRC check the lazy one must reproduce exactly: a packet
// passes iff its payload's CRC equals the CRC of the bytes it held at its
// last StampCrc().
struct OraclePacket {
  Packet p;
  std::vector<std::uint8_t> stamped;  // payload bytes at the last stamp

  void Stamp() {
    p.StampCrc();
    stamped.assign(p.payload.begin(), p.payload.end());
  }
  bool EagerCrcOk() const { return Crc8(p.payload) == Crc8(stamped); }
};

std::vector<std::uint8_t> RandomBytes(sim::Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.UniformU64(256));
  return bytes;
}

void FlipBit(Packet& p, std::size_t byte, std::uint8_t mask) {
  p.payload.MutableData()[byte] ^= mask;
}

TEST(PacketTest, LazyCrcMatchesEagerOracleUnderRandomEdits) {
  constexpr std::size_t kMaxPayload = 4136;
  sim::Rng rng(0xC7C8);
  int failing_verdicts = 0;
  for (int trial = 0; trial < 300; ++trial) {
    // The packet and its copies, as a switch queue or retx record holds
    // them: each shares the payload block until one of them writes.
    std::vector<OraclePacket> copies(1);
    copies[0].p.payload = RandomBytes(rng, rng.UniformU64(kMaxPayload + 1));
    copies[0].Stamp();
    for (int step = 0; step < 24; ++step) {
      const std::size_t pick = rng.UniformU64(copies.size());
      switch (rng.UniformU64(6)) {
        case 0:
          if (copies.size() < 6) copies.push_back(copies[pick]);
          break;
        case 1: {
          OraclePacket& c = copies[pick];
          if (c.p.payload.empty()) break;
          FlipBit(c.p, rng.UniformU64(c.p.payload.size()),
                  static_cast<std::uint8_t>(1u << rng.UniformU64(8)));
          break;
        }
        case 2: {
          OraclePacket& c = copies[pick];
          c.p.payload.resize(rng.UniformU64(c.p.payload.size() + 1));
          break;
        }
        case 3: {
          OraclePacket& c = copies[pick];
          const std::size_t size = c.p.payload.size();
          c.p.payload.resize(size + rng.UniformU64(kMaxPayload - size + 1));
          break;
        }
        case 4:
          copies[pick].p.payload.assign(
              RandomBytes(rng, rng.UniformU64(kMaxPayload + 1)));
          break;
        case 5:
          copies[pick].Stamp();
          break;
      }
      for (std::size_t i = 0; i < copies.size(); ++i) {
        const bool eager = copies[i].EagerCrcOk();
        ASSERT_EQ(copies[i].p.CrcOk(), eager)
            << "trial " << trial << " step " << step << " copy " << i;
        if (!eager) ++failing_verdicts;
      }
    }
  }
  EXPECT_GT(failing_verdicts, 0) << "sanity: the edits did corrupt packets";
}

TEST(PacketTest, LazyCrcSeesThroughUndoneAndUndetectableFlips) {
  sim::Rng rng(0x5EED);
  OraclePacket c;
  c.p.payload = RandomBytes(rng, 256);
  c.Stamp();
  const OraclePacket retained = c;  // a retx record's copy
  auto flip = [&](std::size_t byte, std::uint8_t mask) {
    FlipBit(c.p, byte, mask);
    EXPECT_EQ(c.p.CrcOk(), c.EagerCrcOk());
    EXPECT_TRUE(retained.p.CrcOk());
    EXPECT_TRUE(retained.p.payload == retained.stamped);
  };

  // A flip undone by a second flip of the same bit: the payload now lives
  // in a fresh block, but its bytes (and so its CRC) are the stamped ones.
  flip(7, 0x10);
  EXPECT_FALSE(c.p.CrcOk());
  flip(7, 0x10);
  EXPECT_NE(c.p.payload.data(), retained.p.payload.data());
  EXPECT_TRUE(c.p.CrcOk());

  // Two flips 127 bit positions apart (MSB of byte 125, LSB of byte 140):
  // x^127 = 1 modulo CRC-8's polynomial, so the link CRC cannot see them.
  flip(125, 0x80);
  EXPECT_FALSE(c.p.CrcOk());
  flip(140, 0x01);
  EXPECT_FALSE(c.p.payload == retained.p.payload);
  EXPECT_TRUE(c.p.CrcOk()) << "CRC-8 misses this error, and so must CrcOk";
}

// Test endpoint recording deliveries.
class Sink : public Endpoint {
 public:
  explicit Sink(sim::Simulator& sim) : sim_(sim) {}
  void OnPacket(Packet packet, Tick tail_time, Link*) override {
    head_times.push_back(sim_.now());
    tail_times.push_back(tail_time);
    packets.push_back(std::move(packet));
  }
  sim::Simulator& sim_;
  std::vector<Packet> packets;
  std::vector<Tick> head_times;
  std::vector<Tick> tail_times;
};

class FabricTest : public ::testing::Test {
 protected:
  sim::Simulator sim_;
  Params params_;
};

TEST_F(FabricTest, SingleSwitchDeliveryTimingAndIntegrity) {
  Fabric fabric(sim_, params_.net);
  TopologyPlan plan = BuildSingleSwitch(fabric);
  Sink a(sim_), b(sim_);
  int na = fabric.AddNic(&a);
  int nb = fabric.AddNic(&b);
  ASSERT_TRUE(fabric.ConnectNic(na, plan.nic_slots[0].switch_id, plan.nic_slots[0].port).ok());
  ASSERT_TRUE(fabric.ConnectNic(nb, plan.nic_slots[1].switch_id, plan.nic_slots[1].port).ok());

  auto route = fabric.ComputeRoute(na, nb);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(route.value().size(), 1u);  // one switch traversed

  Packet p;
  p.route = route.value();
  p.payload.resize(1000);
  std::iota(p.payload.MutableData(), p.payload.MutableData() + 1000,
            std::uint8_t{0});
  auto sent_payload = p.payload;
  ASSERT_TRUE(fabric.Inject(na, std::move(p)).ok());
  sim_.Run();

  ASSERT_EQ(b.packets.size(), 1u);
  EXPECT_TRUE(b.packets[0].CrcOk());
  EXPECT_EQ(b.packets[0].payload, sent_payload);
  EXPECT_TRUE(b.packets[0].route.empty()) << "route fully consumed";
  EXPECT_EQ(a.packets.size(), 0u);

  // Timing: wire = 1 route byte + 1000 payload + crc on first link; the
  // second link carries 1001 bytes (route byte consumed). Head through two
  // links and one switch; tail = head + serialization of the last hop.
  const Tick ser1 = sim::NsForBytes(1002, params_.net.link_mb_s);
  const Tick ser2 = sim::NsForBytes(1001, params_.net.link_mb_s);
  const Tick expect_head =
      params_.net.link_latency + params_.net.switch_latency + params_.net.link_latency;
  EXPECT_EQ(b.head_times[0], expect_head);
  EXPECT_EQ(b.tail_times[0], expect_head + ser2);
  (void)ser1;
}

TEST_F(FabricTest, InOrderDeliveryUnderBackToBackTraffic) {
  Fabric fabric(sim_, params_.net);
  TopologyPlan plan = BuildSingleSwitch(fabric);
  Sink a(sim_), b(sim_);
  int na = fabric.AddNic(&a);
  int nb = fabric.AddNic(&b);
  ASSERT_TRUE(fabric.ConnectNic(na, plan.nic_slots[0].switch_id, plan.nic_slots[0].port).ok());
  ASSERT_TRUE(fabric.ConnectNic(nb, plan.nic_slots[1].switch_id, plan.nic_slots[1].port).ok());
  auto route = fabric.ComputeRoute(na, nb).value();

  for (std::uint8_t i = 0; i < 100; ++i) {
    Packet p;
    p.route = route;
    p.payload.assign(200, i);
    ASSERT_TRUE(fabric.Inject(na, std::move(p)).ok());
  }
  sim_.Run();
  ASSERT_EQ(b.packets.size(), 100u);
  for (std::uint8_t i = 0; i < 100; ++i) {
    EXPECT_EQ(b.packets[i].payload[0], i) << "out of order delivery";
  }
  // Tails must be spaced at least one serialization time apart (occupancy).
  const Tick ser = sim::NsForBytes(201, params_.net.link_mb_s);
  for (size_t i = 1; i < b.tail_times.size(); ++i) {
    EXPECT_GE(b.tail_times[i] - b.tail_times[i - 1], ser - 1);
  }
}

TEST_F(FabricTest, LinkBandwidthApproaches160MBs) {
  Fabric fabric(sim_, params_.net);
  TopologyPlan plan = BuildSingleSwitch(fabric);
  Sink a(sim_), b(sim_);
  int na = fabric.AddNic(&a);
  int nb = fabric.AddNic(&b);
  ASSERT_TRUE(fabric.ConnectNic(na, plan.nic_slots[0].switch_id, plan.nic_slots[0].port).ok());
  ASSERT_TRUE(fabric.ConnectNic(nb, plan.nic_slots[1].switch_id, plan.nic_slots[1].port).ok());
  auto route = fabric.ComputeRoute(na, nb).value();

  const int kPackets = 256;
  const std::size_t kBytes = 4096;
  for (int i = 0; i < kPackets; ++i) {
    Packet p;
    p.route = route;
    p.payload.assign(kBytes, 0x55);
    ASSERT_TRUE(fabric.Inject(na, std::move(p)).ok());
  }
  sim_.Run();
  ASSERT_EQ(b.packets.size(), static_cast<size_t>(kPackets));
  const double bw = sim::MBPerSec(kPackets * kBytes, b.tail_times.back());
  EXPECT_GT(bw, 150.0);
  EXPECT_LE(bw, 160.5);
}

TEST_F(FabricTest, SwitchChainMultiHopRoutes) {
  Fabric fabric(sim_, params_.net);
  TopologyPlan plan = BuildSwitchChain(fabric, /*num_switches=*/3, /*per_switch=*/2);
  ASSERT_EQ(plan.nic_slots.size(), 6u);
  std::vector<std::unique_ptr<Sink>> sinks;
  for (size_t i = 0; i < plan.nic_slots.size(); ++i) {
    sinks.push_back(std::make_unique<Sink>(sim_));
    int id = fabric.AddNic(sinks.back().get());
    ASSERT_TRUE(fabric.ConnectNic(id, plan.nic_slots[i].switch_id,
                                  plan.nic_slots[i].port).ok());
  }
  // NIC 0 is on switch 0, NIC 5 on switch 2: the route crosses 3 switches.
  auto route = fabric.ComputeRoute(0, 5);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(route.value().size(), 3u);

  // All-pairs connectivity.
  for (int s = 0; s < 6; ++s) {
    for (int d = 0; d < 6; ++d) {
      if (s == d) continue;
      auto r = fabric.ComputeRoute(s, d);
      ASSERT_TRUE(r.ok()) << s << "->" << d;
      Packet p;
      p.route = r.value();
      p.payload = {static_cast<std::uint8_t>(s), static_cast<std::uint8_t>(d)};
      ASSERT_TRUE(fabric.Inject(s, std::move(p)).ok());
    }
  }
  sim_.Run();
  for (int d = 0; d < 6; ++d) {
    EXPECT_EQ(sinks[static_cast<size_t>(d)]->packets.size(), 5u) << "nic " << d;
    for (const auto& p : sinks[static_cast<size_t>(d)]->packets) {
      EXPECT_EQ(p.payload[1], d) << "misrouted packet";
      EXPECT_TRUE(p.CrcOk());
    }
  }
}

TEST_F(FabricTest, InvalidRouteDropsAtSwitch) {
  Fabric fabric(sim_, params_.net);
  TopologyPlan plan = BuildSingleSwitch(fabric);
  Sink a(sim_);
  int na = fabric.AddNic(&a);
  ASSERT_TRUE(fabric.ConnectNic(na, plan.nic_slots[0].switch_id, plan.nic_slots[0].port).ok());

  Packet p;
  p.route = {7};  // unconnected port
  p.payload = {1};
  ASSERT_TRUE(fabric.Inject(na, std::move(p)).ok());
  Packet q;  // empty route
  q.payload = {2};
  ASSERT_TRUE(fabric.Inject(na, std::move(q)).ok());
  sim_.Run();
  EXPECT_EQ(fabric.switch_at(0).dropped(), 2u);
  EXPECT_EQ(a.packets.size(), 0u);
}

TEST_F(FabricTest, ErrorInjectionCorruptsCrcButDelivers) {
  sim::LinkFaultRule rule;
  rule.bitflip_rate = 1.0;  // every packet corrupted on every link
  sim_.faults().Configure(sim::FaultPlan::AllLinks(rule, /*seed=*/5));
  Fabric fabric(sim_, params_.net);
  TopologyPlan plan = BuildSingleSwitch(fabric);
  Sink a(sim_), b(sim_);
  int na = fabric.AddNic(&a);
  int nb = fabric.AddNic(&b);
  ASSERT_TRUE(fabric.ConnectNic(na, plan.nic_slots[0].switch_id, plan.nic_slots[0].port).ok());
  ASSERT_TRUE(fabric.ConnectNic(nb, plan.nic_slots[1].switch_id, plan.nic_slots[1].port).ok());
  auto route = fabric.ComputeRoute(na, nb).value();
  Packet p;
  p.route = route;
  p.payload.assign(100, 0xEE);
  ASSERT_TRUE(fabric.Inject(na, std::move(p)).ok());
  sim_.Run();
  ASSERT_EQ(b.packets.size(), 1u);
  EXPECT_FALSE(b.packets[0].CrcOk()) << "hardware CRC must flag the corruption";
}

// Checks every delivered packet's CrcOk() against the eager verdict on the
// bytes its source injected. Packets between one pair of NICs share a
// path, and a switch never lets a packet overtake an earlier one from the
// same wire, so they arrive in injection order even when full output
// queues hold packets back.
class OracleSink : public Endpoint {
 public:
  void OnPacket(Packet packet, Tick, Link*) override {
    std::deque<Buffer>& queue = expected[packet.src_nic];
    ASSERT_FALSE(queue.empty()) << "unexpected packet from nic " << packet.src_nic;
    const Buffer sent = std::move(queue.front());
    queue.pop_front();
    const bool eager = Crc8(packet.payload) == Crc8(sent);
    EXPECT_EQ(packet.CrcOk(), eager);
    ++delivered;
    if (packet.payload.data() != sent.data()) ++flipped;
    if (!eager) ++crc_failures;
  }
  std::map<int, std::deque<Buffer>> expected;  // by source NIC
  int delivered = 0;
  int flipped = 0;  // payload left its injected block on some hop
  int crc_failures = 0;
};

TEST_F(FabricTest, LazyCrcMatchesEagerOracleAcrossFaultyHops) {
  Fabric fabric(sim_, params_.net);
  TopologyPlan plan = BuildSwitchChain(fabric, /*num_switches=*/3, /*per_switch=*/2);
  sim::LinkFaultRule rule;
  rule.bitflip_rate = 0.5;  // a flip on half of all link transmissions
  sim_.faults().Configure(sim::FaultPlan::AllLinks(rule, /*seed=*/21));
  std::vector<std::unique_ptr<OracleSink>> sinks;
  for (const auto& slot : plan.nic_slots) {
    sinks.push_back(std::make_unique<OracleSink>());
    const int id = fabric.AddNic(sinks.back().get());
    ASSERT_TRUE(fabric.ConnectNic(id, slot.switch_id, slot.port).ok());
  }

  // Short payloads make a second flip of an already flipped bit likely.
  sim::Rng rng(0xFAB);
  int injected = 0;
  for (int round = 0; round < 20; ++round) {
    for (int s = 0; s < 6; ++s) {
      for (int d = 0; d < 6; ++d) {
        if (s == d) continue;
        Packet p;
        p.route = fabric.ComputeRoute(s, d).value();
        const std::size_t n = rng.UniformU64(2) != 0 ? 1 + rng.UniformU64(2)
                                                    : 1 + rng.UniformU64(2048);
        p.payload = RandomBytes(rng, n);
        sinks[static_cast<std::size_t>(d)]->expected[s].push_back(p.payload);
        ASSERT_TRUE(fabric.Inject(s, std::move(p)).ok());
        ++injected;
      }
    }
  }
  sim_.Run();

  int delivered = 0, flipped = 0, crc_failures = 0;
  for (const auto& sink : sinks) {
    delivered += sink->delivered;
    flipped += sink->flipped;
    crc_failures += sink->crc_failures;
  }
  EXPECT_EQ(delivered, injected);
  EXPECT_GT(flipped, injected / 2) << "the fault plan must flip most packets";
  EXPECT_GT(flipped, crc_failures) << "some flips must cancel out in flight";
  EXPECT_GT(crc_failures, 0);
}

TEST_F(FabricTest, BadIdsRejected) {
  Fabric fabric(sim_, params_.net);
  BuildSingleSwitch(fabric);
  EXPECT_FALSE(fabric.ConnectNic(0, 0, 0).ok());  // no such nic
  Sink a(sim_);
  int na = fabric.AddNic(&a);
  EXPECT_FALSE(fabric.ConnectNic(na, 5, 0).ok());   // no such switch
  EXPECT_FALSE(fabric.ConnectNic(na, 0, 99).ok());  // no such port
  EXPECT_FALSE(fabric.Inject(na, Packet{}).ok());   // not connected yet
  EXPECT_FALSE(fabric.ComputeRoute(na, na + 1).ok());
  ASSERT_TRUE(fabric.ConnectNic(na, 0, 3).ok());
  EXPECT_FALSE(fabric.ConnectNic(na, 0, 4).ok()) << "double connect";
}

}  // namespace
}  // namespace vmmc::myrinet
