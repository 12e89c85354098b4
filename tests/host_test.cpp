// Tests for the host machine model: CPU cost accounting, PCI timing and
// contention, kernel interrupts / signals / pinning services.
#include <gtest/gtest.h>

#include "vmmc/host/machine.h"
#include "vmmc/params.h"
#include "vmmc/sim/simulator.h"

namespace vmmc::host {
namespace {

using sim::Tick;

class HostTest : public ::testing::Test {
 protected:
  sim::Simulator sim_;
  Params params_;
  Machine machine_{sim_, params_, /*node_id=*/0};
};

// `inner` is a sim::Process or a leaf cost awaiter (HostCpu::Charge).
template <typename Awaitable>
sim::Process RunAndStamp(sim::Simulator& sim, Awaitable inner, Tick& done) {
  co_await inner;
  done = sim.now();
}

TEST_F(HostTest, CpuChargeAdvancesTime) {
  Tick done = -1;
  sim_.Spawn(RunAndStamp(sim_, machine_.cpu().Charge(1234), done));
  sim_.Run();
  EXPECT_EQ(done, 1234);
}

TEST_F(HostTest, BcopyCostMatches50MBs) {
  // 1 MB at 50 MB/s = 20 ms (plus the small per-call cost).
  const Tick cost = machine_.cpu().BcopyCost(1 << 20);
  EXPECT_NEAR(static_cast<double>(cost), 20.97e6,
              0.03e6 + params_.host.bcopy_call);
  Tick done = -1;
  sim_.Spawn(RunAndStamp(sim_, machine_.cpu().Bcopy(4096), done));
  sim_.Run();
  EXPECT_EQ(done, machine_.cpu().BcopyCost(4096));
  EXPECT_EQ(machine_.cpu().bcopy_bytes(), 4096u);
  EXPECT_EQ(machine_.cpu().bcopy_calls(), 1u);
}

TEST_F(HostTest, PioCostsMatchPaperMeasurements) {
  // §5.2: PIO read 0.422 us, write 0.121 us.
  EXPECT_EQ(machine_.pci().PioReadCost(1), 422);
  EXPECT_EQ(machine_.pci().PioWriteCost(1), 121);
  EXPECT_EQ(machine_.pci().PioWriteCost(4), 484);
}

TEST_F(HostTest, DmaCostModelReproducesFigure1Anchors) {
  // With the fitted constants, streaming blocks (init + loop software +
  // serialization) must give ~110 MB/s at 4 KB and ~128 MB/s at 64 KB.
  const auto& p = params_.pci;
  auto block_bw = [&](std::uint64_t n) {
    const Tick t = p.dma_init + p.dma_loop_sw + sim::NsForBytes(n, p.dma_peak_mb_s);
    return sim::MBPerSec(n, t);
  };
  EXPECT_NEAR(block_bw(4096), 110.0, 2.0);
  EXPECT_NEAR(block_bw(65536), 128.0, 2.0);
  EXPECT_LT(block_bw(1024), 80.0);
}

TEST_F(HostTest, DmaSerializesOnTheBus) {
  // Two DMA bursts issued together must not overlap.
  Tick d1 = -1, d2 = -1;
  sim_.Spawn(RunAndStamp(sim_, machine_.pci().Dma(4096), d1));
  sim_.Spawn(RunAndStamp(sim_, machine_.pci().Dma(4096), d2));
  sim_.Run();
  const Tick one = machine_.pci().DmaCost(4096);
  EXPECT_EQ(d1, one);
  EXPECT_EQ(d2, 2 * one);
  EXPECT_EQ(machine_.pci().dma_count(), 2u);
  EXPECT_EQ(machine_.pci().dma_bytes(), 8192u);
}

TEST_F(HostTest, ProcessesGetDistinctPidsAndSpaces) {
  Kernel& k = machine_.kernel();
  UserProcess& a = k.CreateProcess("a");
  UserProcess& b = k.CreateProcess("b");
  EXPECT_NE(a.pid(), b.pid());
  EXPECT_EQ(k.FindProcess(a.pid()), &a);
  EXPECT_EQ(k.FindProcess(99999), nullptr);
  EXPECT_EQ(k.process_count(), 2u);

  auto va = a.address_space().MapAnonymous(mem::kPageSize);
  auto vb = b.address_space().MapAnonymous(mem::kPageSize);
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(vb.ok());
  // Same virtual address in two processes maps to different frames.
  EXPECT_EQ(va.value(), vb.value());
  EXPECT_NE(a.address_space().Translate(va.value()).value(),
            b.address_space().Translate(vb.value()).value());
}

TEST_F(HostTest, InterruptRunsHandlerAfterEntryCost) {
  Tick handler_time = -1;
  int runs = 0;
  machine_.kernel().RegisterIrqHandler(
      5, [&]() -> sim::Process {
        handler_time = sim_.now();
        ++runs;
        co_return;
      });
  sim_.At(1000, [&] { machine_.kernel().RaiseIrq(5); });
  sim_.Run();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(handler_time, 1000 + params_.host.interrupt_entry);
  EXPECT_EQ(machine_.kernel().interrupts_taken(), 1u);
}

TEST_F(HostTest, UnhandledIrqIsCountedButHarmless) {
  machine_.kernel().RaiseIrq(9);
  sim_.Run();
  EXPECT_EQ(machine_.kernel().interrupts_taken(), 1u);
}

TEST_F(HostTest, SignalDeliveryInvokesUserHandler) {
  UserProcess& p = machine_.kernel().CreateProcess("sigtest");
  Tick when = -1;
  int got_sig = 0;
  p.SetSignalHandler(kSigVmmcNotify, [&](int sig) -> sim::Process {
    when = sim_.now();
    got_sig = sig;
    co_return;
  });
  EXPECT_TRUE(machine_.kernel().PostSignal(p.pid(), kSigVmmcNotify).ok());
  EXPECT_FALSE(machine_.kernel().PostSignal(31337, kSigVmmcNotify).ok());
  sim_.Run();
  EXPECT_EQ(got_sig, kSigVmmcNotify);
  EXPECT_EQ(when, params_.host.signal_delivery);
  EXPECT_EQ(machine_.kernel().signals_posted(), 1u);
}

TEST_F(HostTest, SignalWithoutHandlerIsIgnored) {
  UserProcess& p = machine_.kernel().CreateProcess("nohandler");
  EXPECT_TRUE(machine_.kernel().PostSignal(p.pid(), 7).ok());
  sim_.Run();  // must not crash
}

TEST_F(HostTest, KernelPinServicesEnforcePageTableState) {
  UserProcess& p = machine_.kernel().CreateProcess("pin");
  auto va = p.address_space().MapAnonymous(2 * mem::kPageSize);
  ASSERT_TRUE(va.ok());
  Kernel& k = machine_.kernel();
  EXPECT_FALSE(k.TranslatePinned(p, va.value()).ok());
  ASSERT_TRUE(k.PinUserPages(p, va.value(), 2 * mem::kPageSize).ok());
  EXPECT_TRUE(k.TranslatePinned(p, va.value()).ok());
  EXPECT_TRUE(k.TranslatePinned(p, va.value() + mem::kPageSize + 17).ok());
  ASSERT_TRUE(k.UnpinUserPages(p, va.value(), 2 * mem::kPageSize).ok());
  EXPECT_FALSE(k.TranslatePinned(p, va.value()).ok());
  EXPECT_FALSE(k.PinUserPages(p, 0xBAD000, 8).ok());
}

}  // namespace
}  // namespace vmmc::host
