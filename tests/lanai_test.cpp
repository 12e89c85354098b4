// Tests for the LANai NIC: SRAM allocator capacity pressure, DMA engines,
// packet rx path with CRC reporting, and a miniature echo LCP that
// exercises the full NIC-to-NIC path.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "vmmc/host/machine.h"
#include "vmmc/lanai/nic_card.h"
#include "vmmc/lanai/sram.h"
#include "vmmc/myrinet/fabric.h"
#include "vmmc/params.h"
#include "vmmc/sim/simulator.h"

namespace vmmc::lanai {
namespace {

using sim::Tick;

TEST(SramTest, AllocateFreeAccounting) {
  Sram sram(1024);
  auto a = sram.Allocate("queue", 100);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(sram.used_bytes(), 104u);  // 8-byte aligned
  EXPECT_EQ(sram.RegionName(a.value()), "queue");
  auto b = sram.Allocate("tlb", 950);
  EXPECT_FALSE(b.ok()) << "must not overcommit";
  EXPECT_EQ(b.status().code(), ErrorCode::kResourceExhausted);
  ASSERT_TRUE(sram.Free(a.value()).ok());
  EXPECT_EQ(sram.used_bytes(), 0u);
  EXPECT_FALSE(sram.Free(a.value()).ok()) << "double free";
  EXPECT_TRUE(sram.Allocate("tlb", 950).ok());
}

TEST(SramTest, CoalescingAvoidsFragmentation) {
  Sram sram(3000);
  auto a = sram.Allocate("a", 1000);
  auto b = sram.Allocate("b", 1000);
  auto c = sram.Allocate("c", 1000);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_TRUE(sram.Free(a.value()).ok());
  ASSERT_TRUE(sram.Free(b.value()).ok());
  EXPECT_TRUE(sram.Allocate("big", 2000).ok()) << "freed neighbours coalesce";
  (void)c;
}

TEST(SramTest, ZeroAllocationRejected) {
  Sram sram(256);
  EXPECT_FALSE(sram.Allocate("z", 0).ok());
}

// --- NIC fixture: two machines on one switch ---
class NicTest : public ::testing::Test {
 protected:
  NicTest()
      : fabric_(sim_, params_.net),
        plan_(myrinet::BuildSingleSwitch(fabric_)),
        m0_(sim_, params_, 0),
        m1_(sim_, params_, 1),
        nic0_(sim_, params_, m0_, fabric_),
        nic1_(sim_, params_, m1_, fabric_) {
    EXPECT_TRUE(nic0_.AttachToFabric(plan_.nic_slots[0].switch_id,
                                     plan_.nic_slots[0].port).ok());
    EXPECT_TRUE(nic1_.AttachToFabric(plan_.nic_slots[1].switch_id,
                                     plan_.nic_slots[1].port).ok());
  }

  sim::Simulator sim_;
  Params params_;
  myrinet::Fabric fabric_;
  myrinet::TopologyPlan plan_;
  host::Machine m0_, m1_;
  NicCard nic0_, nic1_;
};

sim::Process SendOne(NicCard& nic, myrinet::Route route,
                     std::vector<std::uint8_t> payload) {
  myrinet::Packet p;
  p.route = std::move(route);
  p.payload = std::move(payload);
  co_await nic.NetSend(std::move(p));
}

TEST_F(NicTest, PacketArrivesInRxQueueWithGoodCrc) {
  auto route = fabric_.ComputeRoute(nic0_.nic_id(), nic1_.nic_id()).value();
  std::vector<std::uint8_t> data(512);
  std::iota(data.begin(), data.end(), 0);
  sim_.Spawn(SendOne(nic0_, route, data));
  sim_.Run();
  ASSERT_EQ(nic1_.rx_queue().size(), 1u);
  auto rp = nic1_.rx_queue().TryGet();
  ASSERT_TRUE(rp.has_value());
  EXPECT_TRUE(rp->crc_ok);
  EXPECT_EQ(rp->packet.payload, data);
  EXPECT_EQ(nic1_.packets_received(), 1u);
  EXPECT_EQ(nic0_.packets_sent(), 1u);
  EXPECT_EQ(nic1_.crc_errors(), 0u);
  EXPECT_TRUE(nic1_.work_pending()) << "rx must ring the LCP";
}

TEST_F(NicTest, HostDmaMovesRealBytes) {
  // Allocate a frame on machine 0 and fill it via the address space.
  auto pfn = m0_.memory().AllocFrame();
  ASSERT_TRUE(pfn.ok());
  const mem::PhysAddr pa = mem::PageAddr(pfn.value());
  std::vector<std::uint8_t> src(4096);
  std::iota(src.begin(), src.end(), 1);
  ASSERT_TRUE(m0_.memory().Write(pa, src).ok());

  std::vector<std::uint8_t> staged(4096);
  Tick read_done = -1, write_done = -1;
  auto driver = [&]() -> sim::Process {
    co_await nic0_.HostDmaRead(pa, staged);
    read_done = sim_.now();
    // Mutate and write back to a different offset.
    for (auto& b : staged) b ^= 0xFF;
    co_await nic0_.HostDmaWrite(pa, staged);
    write_done = sim_.now();
  };
  sim_.Spawn(driver());
  sim_.Run();

  EXPECT_EQ(staged.size(), 4096u);
  EXPECT_EQ(read_done, m0_.pci().DmaCost(4096));
  EXPECT_EQ(write_done, 2 * m0_.pci().DmaCost(4096));
  std::vector<std::uint8_t> back(4096);
  ASSERT_TRUE(m0_.memory().Read(pa, back).ok());
  for (size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i], static_cast<std::uint8_t>((i + 1) ^ 0xFF));
  }
}

TEST_F(NicTest, InterruptLineReachesKernel) {
  int fired = 0;
  m0_.kernel().RegisterIrqHandler(NicCard::kIrq, [&]() -> sim::Process {
    ++fired;
    co_return;
  });
  nic0_.RaiseHostInterrupt();
  sim_.Run();
  EXPECT_EQ(fired, 1);
}

// A trivial LCP that echoes every received packet back to its source,
// exercising Run()/rx_queue/NetSend end to end.
class EchoLcp : public Lcp {
 public:
  explicit EchoLcp(int peer_nic) : peer_(peer_nic) {}
  sim::Process Run(NicCard& nic) override {
    for (;;) {
      co_await nic.AwaitWork();
      while (auto rp = nic.rx_queue().TryGet()) {
        if (!rp->crc_ok) continue;
        ++echoed_;
        myrinet::Packet reply;
        reply.route = nic.fabric().ComputeRoute(nic.nic_id(), peer_).value();
        reply.payload = rp->packet.payload;
        co_await nic.NetSend(std::move(reply));
      }
    }
  }
  int echoed() const { return echoed_; }

 private:
  int peer_;
  int echoed_ = 0;
};

TEST_F(NicTest, EchoLcpRoundTrip) {
  auto* echo = new EchoLcp(nic0_.nic_id());
  nic1_.LoadLcp(std::unique_ptr<Lcp>(echo));

  auto route = fabric_.ComputeRoute(nic0_.nic_id(), nic1_.nic_id()).value();
  std::vector<std::uint8_t> data = {9, 8, 7, 6, 5};
  sim_.Spawn(SendOne(nic0_, route, data));
  // The LCP loops forever; run until the echo lands back at nic0.
  ASSERT_TRUE(sim_.RunUntil([&] { return nic0_.rx_queue().size() == 1; },
                            1'000'000));
  auto rp = nic0_.rx_queue().TryGet();
  ASSERT_TRUE(rp.has_value());
  EXPECT_EQ(rp->packet.payload, data);
  EXPECT_EQ(echo->echoed(), 1);
  EXPECT_GT(sim_.now(), 0);
}

}  // namespace
}  // namespace vmmc::lanai
