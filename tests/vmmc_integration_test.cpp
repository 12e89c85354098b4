// End-to-end tests of the VMMC system: cluster boot and network mapping,
// export/import matching through the daemons, short and long sends with
// data integrity, protection enforcement, zero-copy receive, software-TLB
// miss service, notifications, and multi-process isolation.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "vmmc/vmmc/cluster.h"

#include "co_test_util.h"

namespace vmmc::vmmc_core {
namespace {

using sim::Tick;

std::vector<std::uint8_t> PatternBytes(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(seed + i * 13 + (i >> 8));
  }
  return v;
}

class VmmcTest : public ::testing::Test {
 protected:
  void Boot(int nodes = 2) {
    ClusterOptions options;
    options.num_nodes = nodes;
    cluster_ = std::make_unique<Cluster>(sim_, params_, options);
    ASSERT_TRUE(cluster_->Boot().ok());
  }

  // Runs spawned user programs until quiescence and asserts `done`.
  void RunAll() { sim_.Run(20'000'000); }

  sim::Simulator sim_;
  Params params_;
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(VmmcTest, BootMapsAndVerifiesRoutes) {
  Boot(4);
  EXPECT_TRUE(cluster_->booted());
  EXPECT_GT(cluster_->boot_time(), 0);
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(cluster_->node(i).routes.size(), 4u);
    EXPECT_TRUE(cluster_->node(i).lcp->running());
  }
  // Mapping probes really crossed the wire.
  EXPECT_GT(cluster_->fabric().total_link_packets(), 0u);
}

TEST_F(VmmcTest, BootOnMultiSwitchTopology) {
  ClusterOptions options;
  options.num_nodes = 6;
  options.topology = Topology::kSwitchChain;
  options.chain_switches = 3;
  cluster_ = std::make_unique<Cluster>(sim_, params_, options);
  ASSERT_TRUE(cluster_->Boot().ok());
  // Nodes on different switches have multi-hop routes.
  EXPECT_GE(cluster_->node(0).routes[5].size(), 2u);
}

TEST_F(VmmcTest, BootReportsARouteLongerThanTheRouteBound) {
  // One node per switch on a chain one switch longer than a Route holds:
  // the mapping phase cannot route node 0 <-> the last node, and Boot
  // says so with a typed error instead of aborting.
  ClusterOptions options;
  options.num_nodes = static_cast<int>(myrinet::Route::kCapacity) + 1;
  options.topology = Topology::kSwitchChain;
  options.chain_switches = options.num_nodes;
  cluster_ = std::make_unique<Cluster>(sim_, params_, options);
  const Status booted = cluster_->Boot();
  EXPECT_EQ(booted.code(), ErrorCode::kOutOfRange) << booted.ToString();
  EXPECT_FALSE(cluster_->booted());
}

// --- export / import ---

sim::Process ExportProgram(Endpoint& ep, std::uint32_t len, std::string name,
                           bool notify, Result<ExportId>& out,
                           mem::VirtAddr& buf_out) {
  auto buf = ep.AllocBuffer(len);
  CO_ASSERT_TRUE(buf.ok());
  buf_out = buf.value();
  ExportOptions opts;
  opts.name = std::move(name);
  opts.notify = notify;
  auto result = co_await ep.ExportBuffer(buf.value(), len, std::move(opts));
  out = std::move(result);
}

TEST_F(VmmcTest, ExportThenImportSucceeds) {
  Boot();
  auto recv = cluster_->OpenEndpoint(1, "receiver");
  auto send = cluster_->OpenEndpoint(0, "sender");
  ASSERT_TRUE(recv.ok());
  ASSERT_TRUE(send.ok());

  Result<ExportId> exported(InternalError("unset"));
  mem::VirtAddr rbuf = 0;
  sim_.Spawn(ExportProgram(*recv.value(), 8192, "ring", false, exported, rbuf));
  RunAll();
  ASSERT_TRUE(exported.ok());

  Result<ImportedBuffer> imported(InternalError("unset"));
  auto importer = [&](Endpoint& ep) -> sim::Process {
    imported = co_await ep.ImportBuffer(1, "ring");
  };
  sim_.Spawn(importer(*send.value()));
  RunAll();
  ASSERT_TRUE(imported.ok());
  EXPECT_EQ(imported.value().len, 8192u);
  EXPECT_EQ(imported.value().remote_node, 1);
}

TEST_F(VmmcTest, ImportOfMissingExportFails) {
  Boot();
  auto send = cluster_->OpenEndpoint(0, "sender");
  ASSERT_TRUE(send.ok());
  Result<ImportedBuffer> imported(InternalError("unset"));
  auto importer = [&](Endpoint& ep) -> sim::Process {
    imported = co_await ep.ImportBuffer(1, "nothing");
  };
  sim_.Spawn(importer(*send.value()));
  RunAll();
  EXPECT_FALSE(imported.ok());
  EXPECT_EQ(imported.status().code(), ErrorCode::kNotFound);
}

TEST_F(VmmcTest, AclRestrictsImporters) {
  Boot(3);
  auto recv = cluster_->OpenEndpoint(2, "receiver");
  auto ok_node = cluster_->OpenEndpoint(0, "friend");
  auto bad_node = cluster_->OpenEndpoint(1, "stranger");
  ASSERT_TRUE(recv.ok() && ok_node.ok() && bad_node.ok());

  auto exporter = [&](Endpoint& ep) -> sim::Process {
    auto buf = ep.AllocBuffer(4096);
    ExportOptions opts;
    opts.name = "private";
    opts.acl.allow_all = false;
    opts.acl.allowed = {{0, -1}};  // only node 0 may import
    auto r = co_await ep.ExportBuffer(buf.value(), 4096, std::move(opts));
    CO_ASSERT_TRUE(r.ok());
  };
  sim_.Spawn(exporter(*recv.value()));
  RunAll();

  Result<ImportedBuffer> from0(InternalError("unset")), from1(InternalError("unset"));
  auto imp = [&](Endpoint& ep, Result<ImportedBuffer>& out) -> sim::Process {
    out = co_await ep.ImportBuffer(2, "private");
  };
  sim_.Spawn(imp(*ok_node.value(), from0));
  sim_.Spawn(imp(*bad_node.value(), from1));
  RunAll();
  EXPECT_TRUE(from0.ok());
  ASSERT_FALSE(from1.ok());
  EXPECT_EQ(from1.status().code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(cluster_->node(2).daemon->imports_rejected(), 1u);
}

TEST_F(VmmcTest, ImportWithWaitRetriesUntilExportAppears) {
  Boot();
  auto recv = cluster_->OpenEndpoint(1, "receiver");
  auto send = cluster_->OpenEndpoint(0, "sender");
  ASSERT_TRUE(recv.ok() && send.ok());

  Result<ImportedBuffer> imported(InternalError("unset"));
  auto importer = [&](Endpoint& ep) -> sim::Process {
    ImportOptions opts;
    opts.wait = true;
    imported = co_await ep.ImportBuffer(1, "late", opts);
  };
  sim_.Spawn(importer(*send.value()));

  // Export only 5 ms later.
  auto late_exporter = [&](Endpoint& ep) -> sim::Process {
    co_await sim_.Delay(5 * sim::kMillisecond);
    auto buf = ep.AllocBuffer(4096);
    ExportOptions opts;
    opts.name = "late";
    auto r = co_await ep.ExportBuffer(buf.value(), 4096, std::move(opts));
    CO_ASSERT_TRUE(r.ok());
  };
  sim_.Spawn(late_exporter(*recv.value()));
  RunAll();
  EXPECT_TRUE(imported.ok());
}

// --- data transfer: the heart of the system ---

struct TransferResult {
  Status status = InternalError("unset");
  Tick elapsed = 0;
};

// One complete transfer: receiver exports, sender imports and sends, data
// lands in the receiver's memory with no receive operation.
void RunTransfer(sim::Simulator& sim, Cluster& cluster, Endpoint& recv_ep,
                 Endpoint& send_ep, std::uint32_t len, std::uint32_t offset,
                 TransferResult& out, const std::string& name) {
  struct Driver {
    static sim::Process Recv(Endpoint& ep, std::uint32_t len, std::string name,
                             mem::VirtAddr& buf) {
      auto b = ep.AllocBuffer(len + 8192);
      CO_ASSERT_TRUE(b.ok());
      buf = b.value();
      ExportOptions opts;
      opts.name = std::move(name);
      auto r = co_await ep.ExportBuffer(buf, len + 8192, std::move(opts));
      CO_ASSERT_TRUE(r.ok());
    }
    static sim::Process Send(sim::Simulator& sim, Endpoint& ep, int dst_node,
                             std::uint32_t len, std::uint32_t offset,
                             TransferResult& out, std::string name) {
      ImportOptions iopts;
      iopts.wait = true;
      auto imp = co_await ep.ImportBuffer(dst_node, name, iopts);
      CO_ASSERT_TRUE(imp.ok());
      auto src = ep.AllocBuffer(len + 4096);
      CO_ASSERT_TRUE(src.ok());
      // Unaligned source start exercises the first-chunk page-boundary
      // logic.
      const mem::VirtAddr src_va = src.value() + 100;
      CO_ASSERT_TRUE(ep.WriteBuffer(src_va, PatternBytes(len, 7)).ok());
      const Tick t0 = sim.now();
      Status s = co_await ep.SendMsg(src_va, imp.value().proxy_base + offset, len);
      out.elapsed = sim.now() - t0;
      out.status = s;
    }
  };
  mem::VirtAddr rbuf = 0;
  sim.Spawn(Driver::Recv(recv_ep, len, name, rbuf));
  sim.Spawn(Driver::Send(sim, send_ep, recv_ep.node_id(), len, offset, out, name));
  sim.Run(50'000'000);
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();

  // Verify delivery: read the receiver's exported memory directly.
  std::vector<std::uint8_t> got(len);
  ASSERT_TRUE(recv_ep.ReadBuffer(rbuf + offset, got).ok());
  EXPECT_EQ(got, PatternBytes(len, 7)) << "payload corrupted (len=" << len << ")";
  (void)cluster;
}

class VmmcTransferTest : public VmmcTest,
                         public ::testing::WithParamInterface<std::uint32_t> {};

TEST_P(VmmcTransferTest, DataArrivesIntact) {
  Boot();
  auto recv = cluster_->OpenEndpoint(1, "receiver");
  auto send = cluster_->OpenEndpoint(0, "sender");
  ASSERT_TRUE(recv.ok() && send.ok());
  TransferResult result;
  RunTransfer(sim_, *cluster_, *recv.value(), *send.value(), GetParam(),
              /*offset=*/0, result, "xfer");
}

INSTANTIATE_TEST_SUITE_P(Sizes, VmmcTransferTest,
                         ::testing::Values(1u, 4u, 32u, 128u,    // short path
                                           129u, 512u, 4096u,    // long path
                                           5000u, 65536u, 300000u));

TEST_F(VmmcTest, TransferToUnalignedDestinationOffset) {
  // Destination offset that makes every chunk span a page boundary at the
  // receiver — the two-address scatter path.
  Boot();
  auto recv = cluster_->OpenEndpoint(1, "receiver");
  auto send = cluster_->OpenEndpoint(0, "sender");
  ASSERT_TRUE(recv.ok() && send.ok());
  TransferResult result;
  RunTransfer(sim_, *cluster_, *recv.value(), *send.value(), 20000,
              /*offset=*/1234, result, "scatter");
}

TEST_F(VmmcTest, ReceiveIsZeroCopyAndDoesNotInvolveReceiverCpu) {
  Boot();
  auto recv = cluster_->OpenEndpoint(1, "receiver");
  auto send = cluster_->OpenEndpoint(0, "sender");
  ASSERT_TRUE(recv.ok() && send.ok());
  TransferResult result;
  RunTransfer(sim_, *cluster_, *recv.value(), *send.value(), 100000, 0, result,
              "zc");
  // No host-CPU copy happened anywhere on the receive node (§2: data goes
  // directly into the memory of the receiving process).
  EXPECT_EQ(cluster_->node(1).machine->cpu().bcopy_calls(), 0u);
  // And the receiver took no interrupts for data delivery (no notification
  // was requested).
  EXPECT_EQ(cluster_->node(1).machine->kernel().interrupts_taken(), 0u);
}

TEST_F(VmmcTest, LongSendUsesTlbMissServiceOnce) {
  Boot();
  auto recv = cluster_->OpenEndpoint(1, "receiver");
  auto send = cluster_->OpenEndpoint(0, "sender");
  ASSERT_TRUE(recv.ok() && send.ok());
  TransferResult result;
  // 40 pages; the driver fills 32 translations per interrupt (§4.5), so
  // 160 KB + change needs exactly 2 miss interrupts.
  RunTransfer(sim_, *cluster_, *recv.value(), *send.value(), 40 * 4096, 0,
              result, "tlb");
  const auto& stats = cluster_->node(0).lcp->metrics();
  EXPECT_EQ(stats.tlb_miss_interrupts.value(), 2u);
  EXPECT_GE(cluster_->node(0).driver->pages_pinned(), 40u);
}

TEST_F(VmmcTest, WarmTlbAvoidsFurtherInterrupts) {
  Boot();
  auto recv = cluster_->OpenEndpoint(1, "receiver");
  auto send = cluster_->OpenEndpoint(0, "sender");
  ASSERT_TRUE(recv.ok() && send.ok());

  mem::VirtAddr rbuf = 0;
  Result<ExportId> exported(InternalError("unset"));
  sim_.Spawn(ExportProgram(*recv.value(), 64 * 4096, "warm", false, exported, rbuf));
  RunAll();
  ASSERT_TRUE(exported.ok());

  std::uint64_t misses_after_first = 0, misses_after_second = 0;
  auto prog = [&](Endpoint& ep) -> sim::Process {
    auto imp = co_await ep.ImportBuffer(1, "warm");
    CO_ASSERT_TRUE(imp.ok());
    auto src = ep.AllocBuffer(40 * 4096);
    CO_ASSERT_TRUE(src.ok());
    Status s1 = co_await ep.SendMsg(src.value(), imp.value().proxy_base, 40 * 4096);
    CO_ASSERT_TRUE(s1.ok());
    misses_after_first = cluster_->node(0).lcp->metrics().tlb_miss_interrupts.value();
    // Same buffer again: translations are warm in the SRAM TLB.
    Status s2 = co_await ep.SendMsg(src.value(), imp.value().proxy_base, 40 * 4096);
    CO_ASSERT_TRUE(s2.ok());
    misses_after_second = cluster_->node(0).lcp->metrics().tlb_miss_interrupts.value();
  };
  sim_.Spawn(prog(*send.value()));
  RunAll();
  EXPECT_EQ(misses_after_first, 2u);
  EXPECT_EQ(misses_after_second, misses_after_first)
      << "warm TLB must not interrupt the host again";
}

TEST_F(VmmcTest, SendToNonImportedProxyFails) {
  Boot();
  auto send = cluster_->OpenEndpoint(0, "sender");
  ASSERT_TRUE(send.ok());
  Status status = InternalError("unset");
  auto prog = [&](Endpoint& ep) -> sim::Process {
    auto src = ep.AllocBuffer(4096);
    // Proxy page 5 was never set up by an import.
    status = co_await ep.SendMsg(src.value(), MakeProxyAddr(5, 0), 4096);
  };
  sim_.Spawn(prog(*send.value()));
  RunAll();
  EXPECT_EQ(status.code(), ErrorCode::kPermissionDenied);
  EXPECT_GE(cluster_->node(0).lcp->metrics().protection_violations.value(), 1u);
  EXPECT_EQ(cluster_->node(0).lcp->metrics().bytes_sent.value(), 0u);
}

TEST_F(VmmcTest, SendBeyondImportedBufferFails) {
  Boot();
  auto recv = cluster_->OpenEndpoint(1, "receiver");
  auto send = cluster_->OpenEndpoint(0, "sender");
  ASSERT_TRUE(recv.ok() && send.ok());

  mem::VirtAddr rbuf = 0;
  Result<ExportId> exported(InternalError("unset"));
  sim_.Spawn(ExportProgram(*recv.value(), 8192, "small", false, exported, rbuf));
  RunAll();
  ASSERT_TRUE(exported.ok());

  Status overflow = InternalError("unset");
  std::uint64_t receiver_dma_before = 0;
  auto prog = [&](Endpoint& ep) -> sim::Process {
    auto imp = co_await ep.ImportBuffer(1, "small");
    CO_ASSERT_TRUE(imp.ok());
    auto src = ep.AllocBuffer(16384);
    receiver_dma_before = cluster_->node(1).machine->pci().dma_bytes();
    // 12 KB into an 8 KB buffer: the third chunk's proxy page is invalid.
    overflow = co_await ep.SendMsg(src.value(), imp.value().proxy_base, 12288);
  };
  sim_.Spawn(prog(*send.value()));
  RunAll();
  EXPECT_EQ(overflow.code(), ErrorCode::kPermissionDenied);
  // VMMC guarantees no memory outside the receive buffer is overwritten
  // (§2); at most the two valid pages were written.
  EXPECT_LE(cluster_->node(1).machine->pci().dma_bytes() - receiver_dma_before,
            8192u + 1024u);
}

TEST_F(VmmcTest, ReceiverChecksIncomingTableEvenForForgedPackets) {
  Boot();
  // Inject a forged VMMC data packet aimed at an arbitrary frame that was
  // never exported. It carries the destination and the sequence number
  // node 1 expects next, so only the incoming page table stands in its
  // way. The receive path must refuse to DMA.
  ChunkHeader h;
  h.type = PacketType::kData;
  h.flags = ChunkHeader::kFlagLastChunk;
  h.src_node = 0;
  h.dst_node = 1;
  h.seq = 0;
  h.msg_len = 64;
  h.chunk_len = 64;
  h.dst_pa0 = 5 * mem::kPageSize;
  std::vector<std::uint8_t> evil(64, 0x66);
  myrinet::Packet pkt;
  pkt.route = cluster_->node(0).routes[1];
  pkt.payload = EncodeChunk(h, evil);

  auto inject = [&]() -> sim::Process {
    co_await cluster_->node(0).nic->NetSend(std::move(pkt));
  };
  sim_.Spawn(inject());
  RunAll();
  EXPECT_EQ(cluster_->node(1).lcp->metrics().protection_violations.value(), 1u);
  EXPECT_EQ(cluster_->node(1).lcp->metrics().bytes_received.value(), 0u);
}

TEST_F(VmmcTest, AsyncSendOverlapsAndCompletes) {
  Boot();
  auto recv = cluster_->OpenEndpoint(1, "receiver");
  auto send = cluster_->OpenEndpoint(0, "sender");
  ASSERT_TRUE(recv.ok() && send.ok());

  mem::VirtAddr rbuf = 0;
  Result<ExportId> exported(InternalError("unset"));
  sim_.Spawn(ExportProgram(*recv.value(), 1 << 20, "async", false, exported, rbuf));
  RunAll();
  ASSERT_TRUE(exported.ok());

  Tick post_time = 0, done_time = 0;
  Status final_status = InternalError("unset");
  bool was_incomplete = false;
  auto prog = [&](Endpoint& ep) -> sim::Process {
    auto imp = co_await ep.ImportBuffer(1, "async");
    CO_ASSERT_TRUE(imp.ok());
    auto src = ep.AllocBuffer(256 * 1024);
    CO_ASSERT_TRUE(ep.WriteBuffer(src.value(), PatternBytes(256 * 1024, 3)).ok());
    const Tick t0 = sim_.now();
    auto handle = co_await ep.SendMsgAsync(src.value(), imp.value().proxy_base,
                                           256 * 1024);
    CO_ASSERT_TRUE(handle.ok());
    post_time = sim_.now() - t0;
    was_incomplete = !ep.CheckSend(handle.value());
    final_status = co_await ep.WaitSend(handle.value());
    done_time = sim_.now() - t0;
  };
  sim_.Spawn(prog(*send.value()));
  RunAll();
  ASSERT_TRUE(final_status.ok());
  EXPECT_TRUE(was_incomplete) << "a 256 KB send cannot finish at post time";
  EXPECT_LT(post_time, 10 * sim::kMicrosecond) << "async post must be cheap";
  EXPECT_GT(done_time, 100 * post_time);
  std::vector<std::uint8_t> got(256 * 1024);
  ASSERT_TRUE(recv.value()->ReadBuffer(rbuf, got).ok());
  EXPECT_EQ(got, PatternBytes(256 * 1024, 3));
}

TEST_F(VmmcTest, StaleSendHandleRejected) {
  Boot();
  auto send = cluster_->OpenEndpoint(0, "sender");
  ASSERT_TRUE(send.ok());
  Status s1 = OkStatus(), s2 = OkStatus();
  auto prog = [&](Endpoint& ep) -> sim::Process {
    SendHandle bogus{0, 999};
    s1 = co_await ep.WaitSend(bogus);
    SendHandle oob{99, 1};
    s2 = co_await ep.WaitSend(oob);
  };
  sim_.Spawn(prog(*send.value()));
  RunAll();
  EXPECT_EQ(s1.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(s2.code(), ErrorCode::kInvalidArgument);
}

TEST_F(VmmcTest, NotificationInvokesUserHandler) {
  Boot();
  auto recv = cluster_->OpenEndpoint(1, "receiver");
  auto send = cluster_->OpenEndpoint(0, "sender");
  ASSERT_TRUE(recv.ok() && send.ok());

  int handler_runs = 0;
  std::uint32_t handler_len = 0;
  Tick handler_time = 0;

  auto receiver = [&](Endpoint& ep) -> sim::Process {
    auto buf = ep.AllocBuffer(65536);
    ExportOptions opts;
    opts.name = "notified";
    opts.notify = true;
    auto id = co_await ep.ExportBuffer(buf.value(), 65536, std::move(opts));
    CO_ASSERT_TRUE(id.ok());
    ep.SetNotificationHandler(
        id.value(), [&](const UserNotification& n) -> sim::Process {
          ++handler_runs;
          handler_len = n.msg_len;
          handler_time = sim_.now();
          co_return;
        });
  };
  sim_.Spawn(receiver(*recv.value()));
  RunAll();

  auto sender = [&](Endpoint& ep) -> sim::Process {
    auto imp = co_await ep.ImportBuffer(1, "notified");
    CO_ASSERT_TRUE(imp.ok());
    auto src = ep.AllocBuffer(40000);
    SendOptions opts;
    opts.notify = true;
    Status s = co_await ep.SendMsg(src.value(), imp.value().proxy_base, 40000, opts);
    CO_ASSERT_TRUE(s.ok());
  };
  sim_.Spawn(sender(*send.value()));
  RunAll();

  EXPECT_EQ(handler_runs, 1);
  EXPECT_EQ(handler_len, 40000u);
  EXPECT_GT(handler_time, 0);
  EXPECT_EQ(cluster_->node(1).lcp->metrics().notifications.value(), 1u);
  EXPECT_EQ(recv.value()->notifications_received(), 1u);
  EXPECT_GE(cluster_->node(1).machine->kernel().signals_posted(), 1u);
}

TEST_F(VmmcTest, NoNotificationWithoutSenderFlag) {
  Boot();
  auto recv = cluster_->OpenEndpoint(1, "receiver");
  auto send = cluster_->OpenEndpoint(0, "sender");
  ASSERT_TRUE(recv.ok() && send.ok());
  int handler_runs = 0;

  auto receiver = [&](Endpoint& ep) -> sim::Process {
    auto buf = ep.AllocBuffer(4096);
    ExportOptions opts;
    opts.name = "quiet";
    opts.notify = true;
    auto id = co_await ep.ExportBuffer(buf.value(), 4096, std::move(opts));
    CO_ASSERT_TRUE(id.ok());
    ep.SetNotificationHandler(id.value(),
                              [&](const UserNotification&) -> sim::Process {
                                ++handler_runs;
                                co_return;
                              });
  };
  sim_.Spawn(receiver(*recv.value()));
  RunAll();

  auto sender = [&](Endpoint& ep) -> sim::Process {
    auto imp = co_await ep.ImportBuffer(1, "quiet");
    auto src = ep.AllocBuffer(4096);
    // No notify flag on the send.
    Status s = co_await ep.SendMsg(src.value(), imp.value().proxy_base, 2048);
    CO_ASSERT_TRUE(s.ok());
  };
  sim_.Spawn(sender(*send.value()));
  RunAll();
  EXPECT_EQ(handler_runs, 0);
}

TEST_F(VmmcTest, BurstOfNotificationsAllDelivered) {
  Boot();
  auto recv = cluster_->OpenEndpoint(1, "receiver");
  auto send = cluster_->OpenEndpoint(0, "sender");
  ASSERT_TRUE(recv.ok() && send.ok());

  int handler_runs = 0;
  auto receiver = [&](Endpoint& ep) -> sim::Process {
    auto buf = ep.AllocBuffer(65536);
    ExportOptions opts;
    opts.name = "burst";
    opts.notify = true;
    auto id = co_await ep.ExportBuffer(buf.value(), 65536, std::move(opts));
    CO_ASSERT_TRUE(id.ok());
    ep.SetNotificationHandler(id.value(),
                              [&](const UserNotification&) -> sim::Process {
                                ++handler_runs;
                                co_return;
                              });
  };
  sim_.Spawn(receiver(*recv.value()));
  RunAll();

  const int kMessages = 12;
  auto sender = [&](Endpoint& ep) -> sim::Process {
    auto imp = co_await ep.ImportBuffer(1, "burst");
    CO_ASSERT_TRUE(imp.ok());
    auto src = ep.AllocBuffer(4096);
    for (int i = 0; i < kMessages; ++i) {
      SendOptions opts;
      opts.notify = true;
      Status s = co_await ep.SendMsg(
          src.value(),
          imp.value().proxy_base + static_cast<std::uint32_t>(i) * 4096, 4096,
          opts);
      CO_ASSERT_TRUE(s.ok());
    }
  };
  sim_.Spawn(sender(*send.value()));
  RunAll();
  // Every message raised a notification; the signal handler may batch
  // several per signal, but no notification may be lost.
  EXPECT_EQ(recv.value()->notifications_received(),
            static_cast<std::uint64_t>(kMessages));
  EXPECT_EQ(handler_runs, kMessages);
  EXPECT_EQ(cluster_->node(1).lcp->metrics().notifications.value(),
            static_cast<std::uint64_t>(kMessages));
}

TEST_F(VmmcTest, TwoImportersShareOneExport) {
  // Two senders on different nodes import the same buffer and write to
  // disjoint halves — exports are multi-importer by design.
  Boot(3);
  auto recv = cluster_->OpenEndpoint(2, "receiver");
  auto s0 = cluster_->OpenEndpoint(0, "s0");
  auto s1 = cluster_->OpenEndpoint(1, "s1");
  ASSERT_TRUE(recv.ok() && s0.ok() && s1.ok());

  mem::VirtAddr rbuf = 0;
  Result<ExportId> exported(InternalError("unset"));
  sim_.Spawn(ExportProgram(*recv.value(), 16384, "shared", false, exported, rbuf));
  RunAll();
  ASSERT_TRUE(exported.ok());

  int done = 0;
  auto writer = [&](Endpoint& ep, std::uint32_t offset, std::uint8_t seed)
      -> sim::Process {
    ImportOptions wait;
    wait.wait = true;
    auto imp = co_await ep.ImportBuffer(2, "shared", wait);
    CO_ASSERT_TRUE(imp.ok());
    auto src = ep.AllocBuffer(8192);
    CO_ASSERT_TRUE(ep.WriteBuffer(src.value(), PatternBytes(8192, seed)).ok());
    Status s = co_await ep.SendMsg(src.value(), imp.value().proxy_base + offset,
                                   8192);
    CO_ASSERT_TRUE(s.ok());
    ++done;
  };
  sim_.Spawn(writer(*s0.value(), 0, 0x10));
  sim_.Spawn(writer(*s1.value(), 8192, 0x20));
  RunAll();
  ASSERT_EQ(done, 2);
  std::vector<std::uint8_t> lo(8192), hi(8192);
  ASSERT_TRUE(recv.value()->ReadBuffer(rbuf, lo).ok());
  ASSERT_TRUE(recv.value()->ReadBuffer(rbuf + 8192, hi).ok());
  EXPECT_EQ(lo, PatternBytes(8192, 0x10));
  EXPECT_EQ(hi, PatternBytes(8192, 0x20));
}

TEST_F(VmmcTest, MultipleProcessesPerNodeAreIsolated) {
  Boot();
  // Two sender processes on node 0 import different buffers; each can send
  // only through its own outgoing page table (§4.4: "there is no way a
  // process can use outgoing page table entries set up for others").
  auto recv = cluster_->OpenEndpoint(1, "receiver");
  auto p1 = cluster_->OpenEndpoint(0, "proc1");
  auto p2 = cluster_->OpenEndpoint(0, "proc2");
  ASSERT_TRUE(recv.ok() && p1.ok() && p2.ok());

  mem::VirtAddr rbuf = 0;
  Result<ExportId> exported(InternalError("unset"));
  sim_.Spawn(ExportProgram(*recv.value(), 8192, "only-p1", false, exported, rbuf));
  RunAll();
  ASSERT_TRUE(exported.ok());

  Status s1 = InternalError("unset"), s2 = InternalError("unset");
  auto prog1 = [&](Endpoint& ep) -> sim::Process {
    auto imp = co_await ep.ImportBuffer(1, "only-p1");
    CO_ASSERT_TRUE(imp.ok());
    auto src = ep.AllocBuffer(4096);
    CO_ASSERT_TRUE(ep.WriteBuffer(src.value(), PatternBytes(4096, 1)).ok());
    s1 = co_await ep.SendMsg(src.value(), imp.value().proxy_base, 4096);
  };
  auto prog2 = [&](Endpoint& ep) -> sim::Process {
    // proc2 never imported: the same proxy address is invalid for it.
    auto src = ep.AllocBuffer(4096);
    s2 = co_await ep.SendMsg(src.value(), MakeProxyAddr(0, 0), 4096);
  };
  sim_.Spawn(prog1(*p1.value()));
  sim_.Spawn(prog2(*p2.value()));
  RunAll();
  EXPECT_TRUE(s1.ok()) << s1.ToString();
  EXPECT_EQ(s2.code(), ErrorCode::kPermissionDenied);
  std::vector<std::uint8_t> got(4096);
  ASSERT_TRUE(recv.value()->ReadBuffer(rbuf, got).ok());
  EXPECT_EQ(got, PatternBytes(4096, 1));
}

TEST_F(VmmcTest, SramLimitsProcessCount) {
  Boot();
  // Each VMMC process consumes SRAM for its send queue, outgoing page
  // table and TLB; 256 KB minus the LCP reservation supports only a
  // handful (§6: "The Myrinet approach requires many more resources on
  // the network interface").
  std::vector<std::unique_ptr<Endpoint>> endpoints;
  int opened = 0;
  for (int i = 0; i < 32; ++i) {
    auto ep = cluster_->OpenEndpoint(0, "proc" + std::to_string(i));
    if (!ep.ok()) {
      EXPECT_EQ(ep.status().code(), ErrorCode::kResourceExhausted);
      break;
    }
    endpoints.push_back(std::move(ep).value());
    ++opened;
  }
  EXPECT_GE(opened, 4);
  EXPECT_LT(opened, 32) << "SRAM must eventually run out";
  // Closing one endpoint frees its SRAM; a new process fits again.
  endpoints.pop_back();
  EXPECT_TRUE(cluster_->OpenEndpoint(0, "late").ok());
}

TEST_F(VmmcTest, OutgoingTableLimitsImportVolume) {
  Boot();
  auto recv = cluster_->OpenEndpoint(1, "receiver");
  auto send = cluster_->OpenEndpoint(0, "sender");
  ASSERT_TRUE(recv.ok() && send.ok());

  // The outgoing page table caps total imports at 8 MB (§4.4); with
  // 16 MB nodes we export two 3 MB buffers and fail on the third import.
  Status third = OkStatus();
  auto prog = [&](Endpoint& recv_ep, Endpoint& send_ep) -> sim::Process {
    for (int i = 0; i < 3; ++i) {
      const std::uint32_t len = 3 * 1024 * 1024;
      auto buf = recv_ep.AllocBuffer(len);
      CO_ASSERT_TRUE(buf.ok());
      ExportOptions opts;
      opts.name = "big" + std::to_string(i);
      auto id = co_await recv_ep.ExportBuffer(buf.value(), len, std::move(opts));
      CO_ASSERT_TRUE(id.ok());
      auto imp = co_await send_ep.ImportBuffer(1, "big" + std::to_string(i));
      if (!imp.ok()) {
        third = imp.status();
        co_return;
      }
    }
  };
  sim_.Spawn(prog(*recv.value(), *send.value()));
  RunAll();
  EXPECT_EQ(third.code(), ErrorCode::kResourceExhausted);
}

TEST_F(VmmcTest, CrcErrorsAreCountedAndDropped) {
  Boot();
  // Corrupt the network only after boot (the mapping phase needs working
  // probes; in the paper's deployment link errors during mapping would
  // equally abort the boot). Every packet is corrupted, so the sender's
  // go-back-N retries never get through; fault_test.cpp covers recovery.
  sim::LinkFaultRule rule;
  rule.bitflip_rate = 1.0;
  sim_.faults().Configure(sim::FaultPlan::AllLinks(rule, /*seed=*/5));
  auto recv = cluster_->OpenEndpoint(1, "receiver");
  auto send = cluster_->OpenEndpoint(0, "sender");
  ASSERT_TRUE(recv.ok() && send.ok());

  mem::VirtAddr rbuf = 0;
  Result<ExportId> exported(InternalError("unset"));
  sim_.Spawn(ExportProgram(*recv.value(), 4096, "noisy", false, exported, rbuf));
  RunAll();
  ASSERT_TRUE(exported.ok());

  auto sender = [&](Endpoint& ep) -> sim::Process {
    auto imp = co_await ep.ImportBuffer(1, "noisy");
    CO_ASSERT_TRUE(imp.ok());
    auto src = ep.AllocBuffer(4096);
    // Sender-side completion does not depend on delivery.
    Status s = co_await ep.SendMsg(src.value(), imp.value().proxy_base, 4096);
    CO_ASSERT_TRUE(s.ok());
  };
  sim_.Spawn(sender(*send.value()));
  // Bounded: the RTO retries a chunk that never arrives intact forever.
  sim_.RunUntilTime(sim_.now() + sim::Milliseconds(10));
  // Every data packet was corrupted: dropped at the receiver and counted
  // (§4.2), then resent after a retransmit timeout.
  EXPECT_GE(cluster_->node(1).nic->crc_errors(), 1u);
  EXPECT_GE(cluster_->node(1).lcp->metrics().crc_drops.value(), 1u);
  EXPECT_EQ(cluster_->node(1).lcp->metrics().bytes_received.value(), 0u);
  EXPECT_GE(cluster_->node(0).lcp->metrics().retransmit_timeouts.value(), 1u);
}

TEST_F(VmmcTest, UnexportDisablesFutureDelivery) {
  Boot();
  auto recv = cluster_->OpenEndpoint(1, "receiver");
  auto send = cluster_->OpenEndpoint(0, "sender");
  ASSERT_TRUE(recv.ok() && send.ok());

  mem::VirtAddr rbuf = 0;
  Result<ExportId> exported(InternalError("unset"));
  sim_.Spawn(ExportProgram(*recv.value(), 4096, "gone", false, exported, rbuf));
  RunAll();
  ASSERT_TRUE(exported.ok());

  Status send_status = InternalError("unset");
  auto prog = [&](Endpoint& send_ep, Endpoint& recv_ep) -> sim::Process {
    auto imp = co_await send_ep.ImportBuffer(1, "gone");
    CO_ASSERT_TRUE(imp.ok());
    // Receiver withdraws the export; the sender's stale import must not be
    // able to write memory any more (incoming table disabled).
    Status un = co_await recv_ep.UnexportBuffer(exported.value());
    CO_ASSERT_TRUE(un.ok());
    auto src = send_ep.AllocBuffer(4096);
    send_status = co_await send_ep.SendMsg(src.value(), imp.value().proxy_base, 2048);
  };
  sim_.Spawn(prog(*send.value(), *recv.value()));
  RunAll();
  // Sender-side completion may succeed (short send, fire and forget at the
  // receiver), but the receiver must have rejected the write.
  EXPECT_GE(cluster_->node(1).lcp->metrics().protection_violations.value(), 1u);
  EXPECT_EQ(cluster_->node(1).lcp->metrics().bytes_received.value(), 0u);
  (void)send_status;
}

TEST_F(VmmcTest, BidirectionalTransfersBothComplete) {
  Boot();
  auto a = cluster_->OpenEndpoint(0, "a");
  auto b = cluster_->OpenEndpoint(1, "b");
  ASSERT_TRUE(a.ok() && b.ok());

  const std::uint32_t kLen = 128 * 1024;
  mem::VirtAddr abuf = 0, bbuf = 0;
  Result<ExportId> ea(InternalError("unset")), eb(InternalError("unset"));
  sim_.Spawn(ExportProgram(*a.value(), kLen, "a-ring", false, ea, abuf));
  sim_.Spawn(ExportProgram(*b.value(), kLen, "b-ring", false, eb, bbuf));
  RunAll();
  ASSERT_TRUE(ea.ok() && eb.ok());

  Status sa = InternalError("unset"), sb = InternalError("unset");
  auto prog = [&](Endpoint& ep, int peer, const char* ring, std::uint8_t seed,
                  Status& out) -> sim::Process {
    auto imp = co_await ep.ImportBuffer(peer, ring);
    CO_ASSERT_TRUE(imp.ok());
    auto src = ep.AllocBuffer(kLen);
    CO_ASSERT_TRUE(ep.WriteBuffer(src.value(), PatternBytes(kLen, seed)).ok());
    out = co_await ep.SendMsg(src.value(), imp.value().proxy_base, kLen);
  };
  sim_.Spawn(prog(*a.value(), 1, "b-ring", 0xA0, sa));
  sim_.Spawn(prog(*b.value(), 0, "a-ring", 0xB0, sb));
  RunAll();
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());

  std::vector<std::uint8_t> got(kLen);
  ASSERT_TRUE(b.value()->ReadBuffer(bbuf, got).ok());
  EXPECT_EQ(got, PatternBytes(kLen, 0xA0));
  ASSERT_TRUE(a.value()->ReadBuffer(abuf, got).ok());
  EXPECT_EQ(got, PatternBytes(kLen, 0xB0));
  // Cross traffic forced the LCP out of the tight sending loop for at
  // least part of the transfer (§5.3).
  EXPECT_GT(cluster_->node(0).lcp->metrics().main_loop_chunks.value() +
                cluster_->node(1).lcp->metrics().main_loop_chunks.value(),
            0u);
}

}  // namespace
}  // namespace vmmc::vmmc_core
