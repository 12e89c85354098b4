// Property-based tests: randomized inputs checked against reference
// models / invariants.
//
//  * random connected switch topologies: every route the fabric computes
//    must actually deliver a probe packet (checked by transmission, not by
//    re-running the same graph algorithm);
//  * the software TLB behaves exactly like a reference map with 2-way-LRU
//    eviction;
//  * the SRAM allocator never overlaps regions, never exceeds capacity,
//    and always satisfies a request that fits after coalescing;
//  * XDR round-trips arbitrary structures;
//  * CRC-8 detects all single- and double-bit errors within a byte span.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include <deque>

#include "vmmc/lanai/sram.h"
#include "vmmc/myrinet/fabric.h"
#include "vmmc/sim/rng.h"
#include "vmmc/vmmc/go_back_n.h"
#include "vmmc/vmmc/sw_tlb.h"
#include "vmmc/vrpc/xdr.h"

namespace vmmc {
namespace {

// ---------------------------------------------------------------------------
// Random topologies
// ---------------------------------------------------------------------------

class TopologyPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

class CollectingSink : public myrinet::Endpoint {
 public:
  void OnPacket(myrinet::Packet packet, sim::Tick, myrinet::Link*) override {
    packets.push_back(std::move(packet));
  }
  std::vector<myrinet::Packet> packets;
};

TEST_P(TopologyPropertyTest, EveryComputedRouteDelivers) {
  sim::Simulator sim;
  Params params;
  myrinet::Fabric fabric(sim, params.net);
  sim::Rng rng(GetParam());

  // Random connected switch graph: spanning tree + extra edges.
  const int switches = 2 + static_cast<int>(rng.UniformU64(5));
  std::vector<int> next_port(static_cast<std::size_t>(switches), 0);
  for (int s = 0; s < switches; ++s) fabric.AddSwitch(8);
  for (int s = 1; s < switches; ++s) {
    const int parent = static_cast<int>(rng.UniformU64(static_cast<std::uint64_t>(s)));
    ASSERT_TRUE(fabric.ConnectSwitches(parent, next_port[static_cast<std::size_t>(parent)]++,
                                       s, next_port[static_cast<std::size_t>(s)]++).ok());
  }
  // A few random extra links (cycles are legal; BFS picks shortest).
  for (int e = 0; e < switches / 2; ++e) {
    const int a = static_cast<int>(rng.UniformU64(static_cast<std::uint64_t>(switches)));
    const int b = static_cast<int>(rng.UniformU64(static_cast<std::uint64_t>(switches)));
    if (a == b) continue;
    if (next_port[static_cast<std::size_t>(a)] >= 7 ||
        next_port[static_cast<std::size_t>(b)] >= 7) {
      continue;
    }
    (void)fabric.ConnectSwitches(a, next_port[static_cast<std::size_t>(a)]++, b,
                                 next_port[static_cast<std::size_t>(b)]++);
  }

  // One NIC per switch (where a port is free).
  std::vector<std::unique_ptr<CollectingSink>> sinks;
  std::vector<int> nic_ids;
  for (int s = 0; s < switches; ++s) {
    if (next_port[static_cast<std::size_t>(s)] >= 8) continue;
    sinks.push_back(std::make_unique<CollectingSink>());
    const int id = fabric.AddNic(sinks.back().get());
    ASSERT_TRUE(fabric.ConnectNic(id, s, next_port[static_cast<std::size_t>(s)]++).ok());
    nic_ids.push_back(id);
  }
  ASSERT_GE(nic_ids.size(), 2u);

  // Property: for every ordered pair, the computed route delivers.
  for (std::size_t i = 0; i < nic_ids.size(); ++i) {
    for (std::size_t j = 0; j < nic_ids.size(); ++j) {
      if (i == j) continue;
      auto route = fabric.ComputeRoute(nic_ids[i], nic_ids[j]);
      ASSERT_TRUE(route.ok()) << "spanning tree guarantees connectivity";
      myrinet::Packet p;
      p.route = route.value();
      p.payload = {static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(j)};
      ASSERT_TRUE(fabric.Inject(nic_ids[i], std::move(p)).ok());
    }
  }
  sim.Run();
  for (std::size_t j = 0; j < nic_ids.size(); ++j) {
    EXPECT_EQ(sinks[j]->packets.size(), nic_ids.size() - 1) << "sink " << j;
    for (const auto& p : sinks[j]->packets) {
      EXPECT_EQ(p.payload[1], static_cast<std::uint8_t>(j)) << "misrouted";
      EXPECT_TRUE(p.CrcOk());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopologyPropertyTest,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

// ---------------------------------------------------------------------------
// Software TLB vs a reference 2-way LRU model
// ---------------------------------------------------------------------------

class TlbPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TlbPropertyTest, MatchesReferenceLruModel) {
  constexpr std::uint32_t kEntries = 32;
  constexpr std::uint32_t kWays = 2;
  const std::uint32_t sets = kEntries / kWays;
  obs::Registry reg;
  vmmc_core::SwTlb tlb(kEntries, kWays,
                       {reg.GetCounter("tlb.hit"), reg.GetCounter("tlb.miss"),
                        reg.GetCounter("tlb.eviction")});

  // Reference: per set, a list of (vpn, pfn) ordered LRU-first.
  std::vector<std::vector<std::pair<mem::Vpn, mem::Pfn>>> ref(sets);
  sim::Rng rng(GetParam());

  for (int step = 0; step < 5000; ++step) {
    const mem::Vpn vpn = rng.UniformU64(200);
    const std::size_t set = static_cast<std::size_t>(vpn % sets);
    auto& entries = ref[set];
    auto it = std::find_if(entries.begin(), entries.end(),
                           [&](const auto& e) { return e.first == vpn; });

    if (rng.Bernoulli(0.5)) {
      // Lookup.
      mem::Pfn pfn = 0;
      const bool hit = tlb.Lookup(vpn, &pfn);
      if (it != entries.end()) {
        ASSERT_TRUE(hit) << "step " << step;
        ASSERT_EQ(pfn, it->second);
        auto e = *it;  // move to MRU
        entries.erase(it);
        entries.push_back(e);
      } else {
        ASSERT_FALSE(hit) << "step " << step << " vpn " << vpn;
      }
    } else {
      // Insert.
      const mem::Pfn pfn = rng.UniformU64(1 << 20);
      tlb.Insert(vpn, pfn);
      if (it != entries.end()) {
        entries.erase(it);
      } else if (entries.size() == kWays) {
        entries.erase(entries.begin());  // evict LRU
      }
      entries.push_back({vpn, pfn});
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TlbPropertyTest, ::testing::Values(1u, 2u, 3u, 4u));

// ---------------------------------------------------------------------------
// SRAM allocator invariants
// ---------------------------------------------------------------------------

class SramPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SramPropertyTest, NoOverlapNoLeakAlwaysFitsAfterCoalesce) {
  constexpr std::uint32_t kSize = 64 * 1024;
  lanai::Sram sram(kSize);
  sim::Rng rng(GetParam());
  std::map<std::uint32_t, std::uint32_t> live;  // offset -> padded size

  auto padded = [](std::uint32_t n) { return (n + 7u) & ~7u; };

  for (int step = 0; step < 2000; ++step) {
    if (live.empty() || rng.Bernoulli(0.55)) {
      const std::uint32_t want =
          1 + static_cast<std::uint32_t>(rng.UniformU64(4096));
      auto r = sram.Allocate("blk", want);
      if (r.ok()) {
        const std::uint32_t off = r.value();
        // Invariant: inside the SRAM and no overlap with live regions.
        ASSERT_LE(off + padded(want), kSize);
        for (const auto& [o, l] : live) {
          ASSERT_TRUE(off + padded(want) <= o || o + l <= off)
              << "overlap at step " << step;
        }
        live[off] = padded(want);
      }
      // else: refusal under fragmentation is legal for first-fit; the
      // full-drain check below verifies coalescing eliminates it.
    } else {
      const std::size_t idx = static_cast<std::size_t>(rng.UniformU64(live.size()));
      auto it = live.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(idx));
      ASSERT_TRUE(sram.Free(it->first).ok());
      live.erase(it);
    }
    std::uint32_t used = 0;
    for (const auto& [off, len] : live) used += len;
    ASSERT_EQ(sram.used_bytes(), used) << "accounting drift at step " << step;
  }

  // Drain everything: after full coalescing one max-size allocation fits.
  for (const auto& [off, len] : live) ASSERT_TRUE(sram.Free(off).ok());
  EXPECT_EQ(sram.used_bytes(), 0u);
  auto all = sram.Allocate("everything", kSize);
  EXPECT_TRUE(all.ok()) << "free list failed to coalesce";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SramPropertyTest,
                         ::testing::Values(5u, 6u, 7u, 8u));

// ---------------------------------------------------------------------------
// XDR round-trips random structures
// ---------------------------------------------------------------------------

class XdrPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(XdrPropertyTest, RandomStructuresRoundTrip) {
  sim::Rng rng(GetParam());
  for (int iter = 0; iter < 200; ++iter) {
    // A random sequence of typed fields.
    enum Field { kU32, kU64, kBool, kOpaque, kString };
    std::vector<int> kinds;
    std::vector<std::uint64_t> ints;
    std::vector<std::vector<std::uint8_t>> blobs;
    std::vector<std::string> strings;

    vrpc::XdrWriter w;
    const int fields = 1 + static_cast<int>(rng.UniformU64(12));
    for (int f = 0; f < fields; ++f) {
      const int kind = static_cast<int>(rng.UniformU64(5));
      kinds.push_back(kind);
      switch (kind) {
        case kU32: {
          const auto v = static_cast<std::uint32_t>(rng.NextU64());
          ints.push_back(v);
          w.PutU32(v);
          break;
        }
        case kU64: {
          const std::uint64_t v = rng.NextU64();
          ints.push_back(v);
          w.PutU64(v);
          break;
        }
        case kBool: {
          const bool v = rng.Bernoulli(0.5);
          ints.push_back(v);
          w.PutBool(v);
          break;
        }
        case kOpaque: {
          std::vector<std::uint8_t> blob(rng.UniformU64(100));
          for (auto& b : blob) b = static_cast<std::uint8_t>(rng.NextU64());
          w.PutOpaque(blob);
          blobs.push_back(std::move(blob));
          break;
        }
        case kString: {
          std::string s(rng.UniformU64(40), 'x');
          for (auto& c : s) c = static_cast<char>('a' + rng.UniformU64(26));
          w.PutString(s);
          strings.push_back(std::move(s));
          break;
        }
      }
    }
    ASSERT_EQ(w.size() % 4, 0u);

    vrpc::XdrReader r(w.bytes());
    std::size_t ii = 0, bi = 0, si = 0;
    for (int kind : kinds) {
      switch (kind) {
        case kU32:
          ASSERT_EQ(r.GetU32(), static_cast<std::uint32_t>(ints[ii++]));
          break;
        case kU64:
          ASSERT_EQ(r.GetU64(), ints[ii++]);
          break;
        case kBool:
          ASSERT_EQ(r.GetBool(), ints[ii++] != 0);
          break;
        case kOpaque:
          ASSERT_EQ(r.GetOpaque(), blobs[bi++]);
          break;
        case kString:
          ASSERT_EQ(r.GetString(), strings[si++]);
          break;
      }
    }
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r.remaining(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XdrPropertyTest, ::testing::Values(9u, 10u));

// ---------------------------------------------------------------------------
// CRC-8 error detection
// ---------------------------------------------------------------------------

TEST(CrcPropertyTest, DetectsAllDoubleBitErrorsInShortSpans) {
  sim::Rng rng(77);
  std::vector<std::uint8_t> data(32);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.NextU64());
  const std::uint8_t good = myrinet::Crc8(data);

  const std::size_t bits = data.size() * 8;
  int undetected = 0;
  for (std::size_t i = 0; i < bits; ++i) {
    for (std::size_t j = i + 1; j < std::min(bits, i + 64); ++j) {
      auto corrupt = data;
      corrupt[i / 8] ^= static_cast<std::uint8_t>(1u << (i % 8));
      corrupt[j / 8] ^= static_cast<std::uint8_t>(1u << (j % 8));
      if (myrinet::Crc8(corrupt) == good) ++undetected;
    }
  }
  // CRC-8 with poly 0x07 detects all double-bit errors within its burst
  // guarantee; any undetected pair here would break the paper's §4.2
  // reliance on CRC detection.
  EXPECT_EQ(undetected, 0);
}

// ---------------------------------------------------------------------------
// Go-back-N state machines (vmmc/go_back_n.h) against a reference in-order
// channel under random loss: everything sent is delivered exactly once, in
// order, with no duplicates — for any window size, loss rate and seed.
// ---------------------------------------------------------------------------

TEST(GbnArithmeticTest, SerialComparisonWrapsSafely) {
  using vmmc_core::SeqBefore;
  EXPECT_TRUE(SeqBefore(0, 1));
  EXPECT_FALSE(SeqBefore(1, 0));
  EXPECT_FALSE(SeqBefore(5, 5));
  // Across the 32-bit wrap: 0xFFFFFFFF precedes 0.
  EXPECT_TRUE(SeqBefore(0xFFFFFFFFu, 0));
  EXPECT_FALSE(SeqBefore(0, 0xFFFFFFFFu));
  EXPECT_TRUE(SeqBefore(0xFFFFFFF0u, 0x0000000Fu));
}

TEST(GbnArithmeticTest, StaleAndFutureAcksAreRejected) {
  using vmmc_core::GbnSender;
  GbnSender s(4);
  EXPECT_EQ(s.OnSend(), 0u);
  EXPECT_EQ(s.OnSend(), 1u);
  EXPECT_EQ(s.OnSend(), 2u);
  EXPECT_EQ(s.OnAck(0), 0u);  // stale: acks nothing new
  EXPECT_EQ(s.OnAck(4), 0u);  // beyond next_seq: bogus, ignored
  EXPECT_EQ(s.OnAck(2), 2u);  // cumulative: covers seqs 0 and 1
  EXPECT_EQ(s.base(), 2u);
  EXPECT_EQ(s.OnAck(2), 0u);  // duplicate ACK
  EXPECT_EQ(s.OnAck(3), 1u);
  EXPECT_FALSE(s.has_unacked());
}

class GbnPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GbnPropertyTest, LossyChannelDeliversExactlyOnceInOrder) {
  sim::Rng rng(GetParam());
  using vmmc_core::GbnReceiver;
  using vmmc_core::GbnSender;

  const std::uint32_t window = 1 + static_cast<std::uint32_t>(rng.UniformU64(15));
  const double loss = 0.05 + 0.40 * (static_cast<double>(rng.UniformU64(100)) / 100.0);
  const std::uint32_t kMessages = 400;

  GbnSender sender(window);
  GbnReceiver receiver;
  std::deque<std::uint32_t> unacked;  // the "retransmit buffer": seqs in order
  std::deque<std::uint32_t> data_ch;  // FIFO wire, loss applied at entry
  std::deque<std::uint32_t> ack_ch;
  std::vector<std::uint32_t> delivered;

  int rounds = 0;
  while (delivered.size() < kMessages) {
    ASSERT_LT(++rounds, 100'000) << "no forward progress (deadlock)";
    // Sender fills the window with fresh packets.
    while (sender.can_send() && sender.next_seq() < kMessages) {
      const std::uint32_t seq = sender.OnSend();
      unacked.push_back(seq);
      if (!rng.Bernoulli(loss)) data_ch.push_back(seq);
    }
    ASSERT_EQ(unacked.size(), sender.in_flight());
    ASSERT_LE(sender.in_flight(), window);

    // The wire delivers a random prefix (partial rounds interleave the
    // two directions).
    std::uint64_t n_data = rng.UniformU64(data_ch.size() + 1);
    while (n_data-- > 0 && !data_ch.empty()) {
      const std::uint32_t seq = data_ch.front();
      data_ch.pop_front();
      if (receiver.OnData(seq) == GbnReceiver::Verdict::kAccept) {
        delivered.push_back(seq);
      }
      if (!rng.Bernoulli(loss)) ack_ch.push_back(receiver.CumAck());
    }
    std::uint64_t n_ack = rng.UniformU64(ack_ch.size() + 1);
    while (n_ack-- > 0 && !ack_ch.empty()) {
      const std::uint32_t ack = ack_ch.front();
      ack_ch.pop_front();
      std::uint32_t newly = sender.OnAck(ack);
      ASSERT_LE(newly, unacked.size());
      while (newly-- > 0) unacked.pop_front();
    }

    // Timeout model: if both wires drained and progress stalled, the
    // sender goes back and resends its whole window.
    if (data_ch.empty() && ack_ch.empty() && sender.has_unacked()) {
      for (std::uint32_t seq : unacked) {
        if (!rng.Bernoulli(loss)) data_ch.push_back(seq);
      }
    }
  }

  // Exactly once, in order, nothing missing.
  ASSERT_EQ(delivered.size(), kMessages);
  for (std::uint32_t i = 0; i < kMessages; ++i) {
    ASSERT_EQ(delivered[i], i) << "duplicate or reorder at " << i;
  }
  EXPECT_EQ(receiver.CumAck(), kMessages);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GbnPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace vmmc
