// Edge cases of the VMMC public API surface and the daemon setup paths:
// argument validation, resource lifecycle, double operations, unaligned
// inputs, teardown.
#include <gtest/gtest.h>

#include "co_test_util.h"
#include "vmmc/vmmc/cluster.h"

namespace vmmc::vmmc_core {
namespace {

class ApiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterOptions options;
    options.num_nodes = 2;
    cluster_ = std::make_unique<Cluster>(sim_, params_, options);
    ASSERT_TRUE(cluster_->Boot().ok());
    auto a = cluster_->OpenEndpoint(0, "a");
    auto b = cluster_->OpenEndpoint(1, "b");
    ASSERT_TRUE(a.ok() && b.ok());
    a_ = std::move(a).value();
    b_ = std::move(b).value();
  }

  void RunAll() { sim_.Run(50'000'000); }

  sim::Simulator sim_;
  Params params_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Endpoint> a_, b_;
};

TEST_F(ApiTest, SendLengthValidation) {
  Status zero = OkStatus(), huge = OkStatus();
  auto prog = [&]() -> sim::Process {
    auto src = a_->AllocBuffer(4096);
    CO_ASSERT_TRUE(src.ok());
    zero = co_await a_->SendMsg(src.value(), MakeProxyAddr(0, 0), 0);
    huge = co_await a_->SendMsg(src.value(), MakeProxyAddr(0, 0),
                                static_cast<std::uint32_t>(
                                    params_.vmmc.max_send_bytes + 1));
    // Exactly at the limit is a *local* success check only if the proxy is
    // valid, which it is not here — but the length itself must pass the
    // library's validation and fail later with a proxy error instead.
  };
  sim_.Spawn(prog());
  RunAll();
  EXPECT_EQ(zero.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(huge.code(), ErrorCode::kInvalidArgument);
}

TEST_F(ApiTest, ShortSendFromUnmappedSourceFailsLocally) {
  Status status = OkStatus();
  auto prog = [&]() -> sim::Process {
    // The library PIO-copies short payloads at post time: an unmapped
    // source is the user's fault and fails immediately.
    status = co_await a_->SendMsg(0xDEAD0000, MakeProxyAddr(0, 0), 64);
  };
  sim_.Spawn(prog());
  RunAll();
  EXPECT_FALSE(status.ok());
}

TEST_F(ApiTest, LongSendFromUnmappedSourceFailsViaDriver) {
  // A long send posts only the VA; the failure surfaces when the driver
  // cannot translate it (kBadAddress completion).
  mem::VirtAddr rbuf = 0;
  Status status = OkStatus();
  auto prog = [&]() -> sim::Process {
    auto buf = b_->AllocBuffer(8192);
    CO_ASSERT_TRUE(buf.ok());
    rbuf = buf.value();
    ExportOptions opts;
    opts.name = "sink";
    auto id = co_await b_->ExportBuffer(rbuf, 8192, std::move(opts));
    CO_ASSERT_TRUE(id.ok());
    ImportOptions wait;
    wait.wait = true;
    auto imp = co_await a_->ImportBuffer(1, "sink", wait);
    CO_ASSERT_TRUE(imp.ok());
    status = co_await a_->SendMsg(0xDEAD0000, imp.value().proxy_base, 8192);
  };
  sim_.Spawn(prog());
  RunAll();
  EXPECT_EQ(status.code(), ErrorCode::kNotFound);
  EXPECT_GE(cluster_->node(0).lcp->metrics().tlb_miss_interrupts.value(), 1u);
}

TEST_F(ApiTest, ExportValidation) {
  Result<ExportId> unaligned(InternalError("unset")), empty(InternalError("unset")),
      unnamed(InternalError("unset")), dup(InternalError("unset"));
  auto prog = [&]() -> sim::Process {
    auto buf = a_->AllocBuffer(8192);
    CO_ASSERT_TRUE(buf.ok());
    ExportOptions o1;
    o1.name = "x";
    unaligned = co_await a_->ExportBuffer(buf.value() + 100, 4096, std::move(o1));
    ExportOptions o2;
    o2.name = "y";
    empty = co_await a_->ExportBuffer(buf.value(), 0, std::move(o2));
    ExportOptions o3;  // no name
    unnamed = co_await a_->ExportBuffer(buf.value(), 4096, std::move(o3));
    ExportOptions o4;
    o4.name = "z";
    auto first = co_await a_->ExportBuffer(buf.value(), 4096, std::move(o4));
    CO_ASSERT_TRUE(first.ok());
    auto buf2 = a_->AllocBuffer(4096);
    ExportOptions o5;
    o5.name = "z";  // same name on the same node
    dup = co_await a_->ExportBuffer(buf2.value(), 4096, std::move(o5));
  };
  sim_.Spawn(prog());
  RunAll();
  EXPECT_EQ(unaligned.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(empty.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(unnamed.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(dup.status().code(), ErrorCode::kAlreadyExists);
}

TEST_F(ApiTest, ExportingOverlappingBuffersFails) {
  // The incoming page table has one entry per frame: a frame cannot back
  // two exports.
  Result<ExportId> second(InternalError("unset"));
  auto prog = [&]() -> sim::Process {
    auto buf = a_->AllocBuffer(8192);
    CO_ASSERT_TRUE(buf.ok());
    ExportOptions o1;
    o1.name = "one";
    auto first = co_await a_->ExportBuffer(buf.value(), 8192, std::move(o1));
    CO_ASSERT_TRUE(first.ok());
    ExportOptions o2;
    o2.name = "two";
    second = co_await a_->ExportBuffer(buf.value() + 4096, 4096, std::move(o2));
  };
  sim_.Spawn(prog());
  RunAll();
  EXPECT_EQ(second.status().code(), ErrorCode::kAlreadyExists);
}

TEST_F(ApiTest, UnexportRequiresOwnership) {
  Status wrong_owner = OkStatus(), bogus = OkStatus();
  auto prog = [&]() -> sim::Process {
    auto buf = b_->AllocBuffer(4096);
    ExportOptions opts;
    opts.name = "owned";
    auto id = co_await b_->ExportBuffer(buf.value(), 4096, std::move(opts));
    CO_ASSERT_TRUE(id.ok());
    // Another process on the same node tries to unexport it.
    auto intruder = cluster_->OpenEndpoint(1, "intruder");
    CO_ASSERT_TRUE(intruder.ok());
    wrong_owner = co_await intruder.value()->UnexportBuffer(id.value());
    bogus = co_await b_->UnexportBuffer(9999);
  };
  sim_.Spawn(prog());
  RunAll();
  EXPECT_EQ(wrong_owner.code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(bogus.code(), ErrorCode::kNotFound);
}

TEST_F(ApiTest, UnexportUnpinsAndAllowsReexport) {
  bool done = false;
  auto prog = [&]() -> sim::Process {
    auto buf = b_->AllocBuffer(8192);
    ExportOptions o1;
    o1.name = "cycle";
    auto id = co_await b_->ExportBuffer(buf.value(), 8192, std::move(o1));
    CO_ASSERT_TRUE(id.ok());
    Status un = co_await b_->UnexportBuffer(id.value());
    CO_ASSERT_TRUE(un.ok());
    // Pages are unpinned again: the buffer can be freed and re-exported.
    ExportOptions o2;
    o2.name = "cycle";  // name free again
    auto id2 = co_await b_->ExportBuffer(buf.value(), 8192, std::move(o2));
    CO_ASSERT_TRUE(id2.ok());
    Status un2 = co_await b_->UnexportBuffer(id2.value());
    CO_ASSERT_TRUE(un2.ok());
    CO_ASSERT_TRUE(b_->FreeBuffer(buf.value()).ok());
    done = true;
  };
  sim_.Spawn(prog());
  RunAll();
  EXPECT_TRUE(done);
}

TEST_F(ApiTest, UnimportFreesProxyPagesForReuse) {
  bool done = false;
  auto prog = [&]() -> sim::Process {
    auto buf = b_->AllocBuffer(4 * 1024 * 1024);
    CO_ASSERT_TRUE(buf.ok());
    ExportOptions opts;
    opts.name = "big";
    auto id = co_await b_->ExportBuffer(buf.value(), 4 * 1024 * 1024, std::move(opts));
    CO_ASSERT_TRUE(id.ok());
    // 4 MB import twice exceeds the 8 MB outgoing table unless the first
    // import is released.
    ImportOptions wait;
    wait.wait = true;
    auto imp1 = co_await a_->ImportBuffer(1, "big", wait);
    CO_ASSERT_TRUE(imp1.ok());
    auto imp2 = co_await a_->ImportBuffer(1, "big", wait);
    CO_ASSERT_TRUE(imp2.ok());
    auto imp3 = co_await a_->ImportBuffer(1, "big");
    CO_ASSERT_TRUE(!imp3.ok());  // table full
    Status un = co_await a_->UnimportBuffer(imp1.value());
    CO_ASSERT_TRUE(un.ok());
    auto imp4 = co_await a_->ImportBuffer(1, "big");
    CO_ASSERT_TRUE(imp4.ok());  // space again
    done = true;
  };
  sim_.Spawn(prog());
  RunAll();
  EXPECT_TRUE(done);
}

TEST_F(ApiTest, BufferHelpers) {
  EXPECT_FALSE(a_->AllocBuffer(0).ok());
  auto buf = a_->AllocBuffer(100);
  ASSERT_TRUE(buf.ok());
  EXPECT_EQ(mem::PageOffset(buf.value()), 0u) << "buffers are page aligned";
  std::uint8_t data[4] = {1, 2, 3, 4};
  EXPECT_TRUE(a_->WriteBuffer(buf.value(), data).ok());
  std::uint8_t back[4];
  EXPECT_TRUE(a_->ReadBuffer(buf.value(), back).ok());
  EXPECT_EQ(back[2], 3);
  EXPECT_TRUE(a_->FreeBuffer(buf.value()).ok());
  EXPECT_FALSE(a_->FreeBuffer(buf.value()).ok());
  EXPECT_FALSE(a_->WriteBuffer(0xBAD000, data).ok());
}

TEST_F(ApiTest, EndpointTeardownReleasesSramForNewProcesses) {
  // Fill the NIC with processes, destroy them all, then verify the same
  // count fits again (no SRAM leak across the endpoint lifecycle).
  std::vector<std::unique_ptr<Endpoint>> batch;
  int first_count = 0;
  for (;;) {
    auto ep = cluster_->OpenEndpoint(0, "p" + std::to_string(first_count));
    if (!ep.ok()) break;
    batch.push_back(std::move(ep).value());
    ++first_count;
  }
  EXPECT_GE(first_count, 3);
  batch.clear();  // destroys endpoints, unregisters processes
  int second_count = 0;
  std::vector<std::unique_ptr<Endpoint>> batch2;
  for (;;) {
    auto ep = cluster_->OpenEndpoint(0, "q" + std::to_string(second_count));
    if (!ep.ok()) break;
    batch2.push_back(std::move(ep).value());
    ++second_count;
  }
  EXPECT_EQ(second_count, first_count);
}

TEST_F(ApiTest, SelfNodeImportAndSendWork) {
  // Importing a buffer exported on one's own node routes through the
  // switch and back (the self route) — legal in VMMC.
  bool done = false;
  std::vector<std::uint8_t> got(256);
  auto prog = [&]() -> sim::Process {
    auto other = cluster_->OpenEndpoint(0, "local-peer");
    CO_ASSERT_TRUE(other.ok());
    auto buf = other.value()->AllocBuffer(4096);
    ExportOptions opts;
    opts.name = "local";
    auto id = co_await other.value()->ExportBuffer(buf.value(), 4096,
                                                   std::move(opts));
    CO_ASSERT_TRUE(id.ok());
    auto imp = co_await a_->ImportBuffer(0, "local");
    CO_ASSERT_TRUE(imp.ok());
    auto src = a_->AllocBuffer(4096);
    std::vector<std::uint8_t> data(256, 0x3C);
    CO_ASSERT_TRUE(a_->WriteBuffer(src.value(), data).ok());
    Status s = co_await a_->SendMsg(src.value(), imp.value().proxy_base, 256);
    CO_ASSERT_TRUE(s.ok());
    co_await sim_.Delay(sim::Milliseconds(1));
    CO_ASSERT_TRUE(other.value()->ReadBuffer(buf.value(), got).ok());
    done = true;
  };
  sim_.Spawn(prog());
  RunAll();
  ASSERT_TRUE(done);
  EXPECT_EQ(got, std::vector<std::uint8_t>(256, 0x3C));
}

TEST_F(ApiTest, LcpInterfaceRejectsBadSlots) {
  VmmcLcp* lcp = cluster_->node(0).lcp;
  ProcState* state = lcp->FindProc(a_->process().pid());
  ASSERT_NE(state, nullptr);
  SendRequest req;
  req.len = 64;
  req.slot = 9999;  // out of range
  EXPECT_FALSE(lcp->PostSend(*state, std::move(req)).ok());
  EXPECT_EQ(lcp->FindProc(31337), nullptr);
  EXPECT_FALSE(lcp->UnregisterProcess(31337).ok());
  EXPECT_FALSE(lcp->TakePendingTlbMiss().has_value());
  EXPECT_FALSE(lcp->PopNotification().has_value());
}

}  // namespace
}  // namespace vmmc::vmmc_core
