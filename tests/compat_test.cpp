// Tests for the comparison systems: the SHRIMP platform (§6) and the
// Fast Messages / PM / Myrinet API layers (§7).
#include <gtest/gtest.h>

#include <numeric>

#include "co_test_util.h"
#include "vmmc/compat/fm.h"
#include "vmmc/compat/mapi.h"
#include "vmmc/compat/pm.h"
#include "vmmc/compat/shrimp.h"
#include "vmmc/compat/testbed.h"
#include "vmmc/vmmc/cluster.h"

namespace vmmc::compat {
namespace {

using sim::Tick;

std::vector<std::uint8_t> Pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(seed + i * 3);
  return v;
}

// ---------------- SHRIMP ----------------

class ShrimpTest : public ::testing::Test {
 protected:
  sim::Simulator sim_;
  Params params_;
  ShrimpSystem system_{sim_, params_, 2};
};

TEST_F(ShrimpTest, DeliberateUpdateDeliversData) {
  ShrimpEndpoint recv(system_, 1, "recv");
  ShrimpEndpoint send(system_, 0, "send");
  auto rbuf = recv.AllocBuffer(64 * 1024);
  ASSERT_TRUE(rbuf.ok());
  ASSERT_TRUE(recv.ExportBuffer(rbuf.value(), 64 * 1024, "ring").ok());
  auto proxy = send.ImportBuffer(1, "ring");
  ASSERT_TRUE(proxy.ok());

  auto src = send.AllocBuffer(64 * 1024);
  ASSERT_TRUE(src.ok());
  auto data = Pattern(50000, 9);
  ASSERT_TRUE(send.memory().Write(src.value(), data).ok());

  Status status = InternalError("unset");
  auto prog = [&]() -> sim::Process {
    status = co_await send.SendMsg(src.value(), proxy.value(), 50000);
  };
  sim_.Spawn(prog());
  sim_.Run();
  ASSERT_TRUE(status.ok());

  std::vector<std::uint8_t> got(50000);
  ASSERT_TRUE(recv.memory().Read(rbuf.value(), got).ok());
  EXPECT_EQ(got, data);
  EXPECT_EQ(system_.nic(1).stats().bytes_received, 50000u);
}

TEST_F(ShrimpTest, BandwidthIsEisaLimited) {
  ShrimpEndpoint recv(system_, 1, "recv");
  ShrimpEndpoint send(system_, 0, "send");
  const std::uint32_t kLen = 1 << 20;
  auto rbuf = recv.AllocBuffer(kLen);
  ASSERT_TRUE(recv.ExportBuffer(rbuf.value(), kLen, "big").ok());
  auto proxy = send.ImportBuffer(1, "big");
  ASSERT_TRUE(proxy.ok());
  auto src = send.AllocBuffer(kLen);

  Tick elapsed = 0;
  auto prog = [&]() -> sim::Process {
    const Tick t0 = sim_.now();
    Status s = co_await send.SendMsg(src.value(), proxy.value(), kLen);
    CO_ASSERT_TRUE(s.ok());
    elapsed = sim_.now() - t0;
  };
  sim_.Spawn(prog());
  sim_.Run();
  const double bw = sim::MBPerSec(kLen, elapsed);
  // "user-to-user bandwidth equal to achievable hardware limit (23 MB/s)".
  EXPECT_GT(bw, 20.0);
  EXPECT_LE(bw, 23.5);
}

TEST_F(ShrimpTest, SendToUnimportedProxyRejectedByEngine) {
  ShrimpEndpoint send(system_, 0, "send");
  auto src = send.AllocBuffer(4096);
  Status status = InternalError("unset");
  auto prog = [&]() -> sim::Process {
    status = co_await send.SendMsg(src.value(), vmmc_core::MakeProxyAddr(7, 0), 512);
  };
  sim_.Spawn(prog());
  sim_.Run();
  // The engine drops the transfer; the violation is counted.
  EXPECT_EQ(system_.nic(0).stats().protection_violations, 1u);
  EXPECT_EQ(system_.nic(1).stats().bytes_received, 0u);
}

TEST_F(ShrimpTest, ImportRequiresExport) {
  ShrimpEndpoint send(system_, 0, "send");
  EXPECT_FALSE(send.ImportBuffer(1, "ghost").ok());
}

TEST_F(ShrimpTest, AutomaticUpdatePropagatesStores) {
  // §6 footnote: automatic update snoops writes directly from the memory
  // bus — stores to a mapped region appear in the remote buffer without
  // any send operation.
  ShrimpEndpoint recv(system_, 1, "recv");
  ShrimpEndpoint send(system_, 0, "send");
  auto rbuf = recv.AllocBuffer(8192);
  ASSERT_TRUE(recv.ExportBuffer(rbuf.value(), 8192, "au").ok());
  auto proxy = send.ImportBuffer(1, "au");
  ASSERT_TRUE(proxy.ok());
  auto local = send.AllocBuffer(8192);

  ASSERT_TRUE(send.MapAutomaticUpdate(local.value(), 8192, proxy.value()).ok());
  EXPECT_FALSE(send.MapAutomaticUpdate(local.value(), 8192,
                                       vmmc_core::MakeProxyAddr(500, 0)).ok())
      << "mapping to a non-imported proxy must fail";

  bool done = false;
  auto prog = [&]() -> sim::Process {
    auto data = Pattern(3000, 0x21);
    Status s = co_await send.AutoWrite(local.value() + 100, data);
    CO_ASSERT_TRUE(s.ok());
    done = true;
  };
  sim_.Spawn(prog());
  sim_.Run();
  ASSERT_TRUE(done);

  // Local memory updated...
  std::vector<std::uint8_t> local_back(3000);
  ASSERT_TRUE(send.memory().Read(local.value() + 100, local_back).ok());
  EXPECT_EQ(local_back, Pattern(3000, 0x21));
  // ...and the remote buffer mirrors it at the same offset.
  std::vector<std::uint8_t> remote_back(3000);
  ASSERT_TRUE(recv.memory().Read(rbuf.value() + 100, remote_back).ok());
  EXPECT_EQ(remote_back, Pattern(3000, 0x21));
}

TEST_F(ShrimpTest, AutoWriteOutsideMappingStaysLocal) {
  ShrimpEndpoint recv(system_, 1, "recv");
  ShrimpEndpoint send(system_, 0, "send");
  auto rbuf = recv.AllocBuffer(4096);
  ASSERT_TRUE(recv.ExportBuffer(rbuf.value(), 4096, "au2").ok());
  auto proxy = send.ImportBuffer(1, "au2");
  auto local = send.AllocBuffer(8192);
  ASSERT_TRUE(send.MapAutomaticUpdate(local.value(), 4096, proxy.value()).ok());

  bool done = false;
  auto prog = [&]() -> sim::Process {
    // A write past the mapped range is an ordinary local store.
    auto data = Pattern(100, 0x9);
    Status s = co_await send.AutoWrite(local.value() + 5000, data);
    CO_ASSERT_TRUE(s.ok());
    done = true;
  };
  sim_.Spawn(prog());
  sim_.Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(system_.nic(1).stats().bytes_received, 0u);
}

// ---------------- Fast Messages ----------------

class FmTest : public ::testing::Test {
 protected:
  sim::Simulator sim_;
  Params params_;
  Testbed testbed_{sim_, params_, 2};
};

TEST_F(FmTest, HandlerReceivesMessage) {
  FmEndpoint a(testbed_, 0), b(testbed_, 1);
  std::vector<std::uint8_t> got;
  b.RegisterHandler(7, [&](std::span<const std::uint8_t> msg) {
    got.assign(msg.begin(), msg.end());
  });
  auto data = Pattern(1000, 3);
  bool done = false;
  auto prog = [&]() -> sim::Process {
    Status s = co_await a.Send(1, 7, data);
    CO_ASSERT_TRUE(s.ok());
    // Poll until the message is extracted.
    while ((co_await b.Extract()) == 0) co_await sim_.Delay(1000);
    done = true;
  };
  sim_.Spawn(prog());
  sim_.RunUntil([&] { return done; });
  EXPECT_EQ(got, data);
  EXPECT_EQ(b.messages_received(), 1u);
  // The FM receive path COPIES into user structures (§7) — unlike VMMC.
  EXPECT_GT(testbed_.machine(1).cpu().bcopy_calls(), 0u);
}

TEST_F(FmTest, MultiFrameMessagesReassembleInOrder) {
  FmEndpoint a(testbed_, 0), b(testbed_, 1);
  std::vector<std::vector<std::uint8_t>> got;
  b.RegisterHandler(1, [&](std::span<const std::uint8_t> msg) {
    got.emplace_back(msg.begin(), msg.end());
  });
  bool done = false;
  auto prog = [&]() -> sim::Process {
    for (int i = 0; i < 5; ++i) {
      Status s = co_await a.Send(1, 1, Pattern(300 + 100 * static_cast<std::size_t>(i),
                                               static_cast<std::uint8_t>(i)));
      CO_ASSERT_TRUE(s.ok());
    }
    while (b.messages_received() < 5) {
      (void)co_await b.Extract();
      co_await sim_.Delay(1000);
    }
    done = true;
  };
  sim_.Spawn(prog());
  sim_.RunUntil([&] { return done; });
  ASSERT_EQ(got.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)],
              Pattern(300 + 100 * static_cast<std::size_t>(i),
                      static_cast<std::uint8_t>(i)));
  }
}

// ---------------- PM ----------------

class PmTest : public ::testing::Test {
 protected:
  sim::Simulator sim_;
  Params params_;
};

TEST_F(PmTest, MessageDeliveredThroughWindow) {
  Testbed testbed(sim_, params_, 2);
  PmEndpoint a(testbed, 0), b(testbed, 1);
  auto data = Pattern(100000, 5);  // 13 units: exceeds the window of 8
  std::vector<std::uint8_t> got;
  bool done = false;
  auto prog = [&]() -> sim::Process {
    Status s = co_await a.Send(1, data);
    CO_ASSERT_TRUE(s.ok());
    for (;;) {
      got = co_await b.Poll();
      if (!got.empty()) break;
      co_await sim_.Delay(5000);
    }
    done = true;
  };
  sim_.Spawn(prog());
  sim_.RunUntil([&] { return done; });
  EXPECT_EQ(got, data);
  EXPECT_EQ(a.retransmits(), 0u);
}

TEST_F(PmTest, AckNackRecoversFromCorruptedUnits) {
  sim::LinkFaultRule rule;
  rule.bitflip_rate = 0.05;  // both data and control packets
  sim_.faults().Configure(sim::FaultPlan::AllLinks(rule, /*seed=*/5));
  Testbed testbed(sim_, params_, 2);
  PmEndpoint a(testbed, 0), b(testbed, 1);
  auto data = Pattern(200000, 11);
  std::vector<std::uint8_t> got;
  bool done = false;
  auto prog = [&]() -> sim::Process {
    Status s = co_await a.Send(1, data);
    CO_ASSERT_TRUE(s.ok());
    for (;;) {
      got = co_await b.Poll();
      if (!got.empty()) break;
      co_await sim_.Delay(10'000);
    }
    done = true;
  };
  sim_.Spawn(prog());
  ASSERT_TRUE(sim_.RunUntil([&] { return done; }, 50'000'000));
  EXPECT_EQ(got, data) << "flow control must mask the lossy link";
  EXPECT_GT(a.retransmits(), 0u);
}

// ---------------- Myrinet API ----------------

class MapiTest : public ::testing::Test {
 protected:
  sim::Simulator sim_;
  Params params_;
};

TEST_F(MapiTest, ChannelsDemultiplexAndChecksum) {
  Testbed testbed(sim_, params_, 2);
  MapiEndpoint a(testbed, 0), b(testbed, 1);
  bool done = false;
  std::vector<std::uint8_t> got3, got9;
  auto prog = [&]() -> sim::Process {
    Status s = co_await a.Send(1, 3, Pattern(500, 1));
    CO_ASSERT_TRUE(s.ok());
    s = co_await a.Send(1, 9, Pattern(700, 2));
    CO_ASSERT_TRUE(s.ok());
    while (got3.empty() || got9.empty()) {
      if (got3.empty()) got3 = co_await b.Recv(3);
      if (got9.empty()) got9 = co_await b.Recv(9);
      co_await sim_.Delay(5000);
    }
    done = true;
  };
  sim_.Spawn(prog());
  sim_.RunUntil([&] { return done; });
  EXPECT_EQ(got3, Pattern(500, 1));
  EXPECT_EQ(got9, Pattern(700, 2));
  EXPECT_EQ(b.checksum_failures(), 0u);
}

TEST_F(MapiTest, NoReliability_CorruptedMessagesSilentlyLost) {
  sim::LinkFaultRule rule;
  rule.bitflip_rate = 1.0;
  sim_.faults().Configure(sim::FaultPlan::AllLinks(rule, /*seed=*/5));
  Testbed testbed(sim_, params_, 2);
  MapiEndpoint a(testbed, 0), b(testbed, 1);
  bool done = false;
  std::vector<std::uint8_t> got;
  auto prog = [&]() -> sim::Process {
    Status s = co_await a.Send(1, 1, Pattern(100, 1));
    CO_ASSERT_TRUE(s.ok());
    co_await sim_.Delay(sim::Milliseconds(5));
    got = co_await b.Recv(1);
    done = true;
  };
  sim_.Spawn(prog());
  sim_.RunUntil([&] { return done; });
  EXPECT_TRUE(got.empty()) << "the Myrinet API has no reliable delivery (§7)";
}

}  // namespace
}  // namespace vmmc::compat
