// Registration (pin-down) cache: nested acquires, LRU eviction under a
// pinned-bytes budget, invalidation from the address-space release hook,
// interaction with Unmap's pinned-page contract, and the one-sided RDMA
// paths built on top (write with completion fin, reader-pull read,
// protection rejection).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "co_test_util.h"
#include "vmmc/mem/address_space.h"
#include "vmmc/vmmc/cluster.h"
#include "vmmc/vmmc/p2p.h"

namespace vmmc::vmmc_core {
namespace {

class RegCacheTest : public ::testing::Test {
 protected:
  // Budget fits exactly four pages so eviction is easy to provoke.
  static constexpr std::uint64_t kBudget = 4 * mem::kPageSize;

  void SetUp() override {
    params_.vmmc.regcache.budget_bytes = kBudget;
    ClusterOptions options;
    options.num_nodes = 2;
    cluster_ = std::make_unique<Cluster>(sim_, params_, options);
    ASSERT_TRUE(cluster_->Boot().ok());
    auto a = cluster_->OpenEndpoint(0, "a");
    ASSERT_TRUE(a.ok());
    a_ = std::move(a).value();
  }

  mem::VirtAddr Alloc(std::uint32_t len) {
    auto va = a_->AllocBuffer(len);
    EXPECT_TRUE(va.ok());
    return va.value();
  }

  sim::Simulator sim_;
  Params params_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Endpoint> a_;
};

TEST_F(RegCacheTest, NestedAcquiresShareOnePin) {
  RegCache& rc = a_->reg_cache();
  const mem::VirtAddr va = Alloc(2 * mem::kPageSize);

  auto first = rc.Acquire(va, 2 * mem::kPageSize, RegIntent::kRecv);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().hit);
  EXPECT_GT(first.value().cost, 0);
  EXPECT_NE(first.value().region.rtag, 0u);

  auto second = rc.Acquire(va, 2 * mem::kPageSize, RegIntent::kRecv);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().hit);
  // One pin-down shared by both references: same rtag, one entry, the
  // footprint counted once.
  EXPECT_EQ(second.value().region.rtag, first.value().region.rtag);
  EXPECT_EQ(rc.entry_count(), 1u);
  EXPECT_EQ(rc.pinned_bytes(), 2 * mem::kPageSize);
  EXPECT_EQ(rc.hits(), 1u);
  EXPECT_EQ(rc.misses(), 1u);

  // Both releases: the entry stays warm (idle), still pinned.
  EXPECT_TRUE(rc.Release(first.value().region.cache_id).ok());
  EXPECT_TRUE(rc.Release(second.value().region.cache_id).ok());
  EXPECT_EQ(rc.entry_count(), 1u);
  EXPECT_EQ(rc.pinned_bytes(), 2 * mem::kPageSize);

  // Releasing again is a caller bug and is reported.
  EXPECT_EQ(rc.Release(first.value().region.cache_id).status().code(),
            ErrorCode::kFailedPrecondition);
}

TEST_F(RegCacheTest, WarmReacquireIsAHitWithSmallCost) {
  RegCache& rc = a_->reg_cache();
  const mem::VirtAddr va = Alloc(mem::kPageSize);
  auto cold = rc.Acquire(va, mem::kPageSize, RegIntent::kSend);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(rc.Release(cold.value().region.cache_id).ok());

  auto warm = rc.Acquire(va, mem::kPageSize, RegIntent::kSend);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.value().hit);
  EXPECT_EQ(warm.value().cost, params_.vmmc.regcache.hit_lookup);
  EXPECT_LT(warm.value().cost, cold.value().cost);
  ASSERT_TRUE(rc.Release(warm.value().region.cache_id).ok());
}

TEST_F(RegCacheTest, HitCoversExactlyTheRequest) {
  RegCache& rc = a_->reg_cache();
  const mem::VirtAddr va = Alloc(2 * mem::kPageSize);
  auto big = rc.Acquire(va, 8000, RegIntent::kRecv);
  ASSERT_TRUE(big.ok());
  ASSERT_TRUE(rc.Release(big.value().region.cache_id).ok());
  // A shorter request over the same pages hits and gets its own length.
  auto small = rc.Acquire(va, 5000, RegIntent::kRecv);
  ASSERT_TRUE(small.ok());
  EXPECT_TRUE(small.value().hit);
  EXPECT_EQ(small.value().cost, params_.vmmc.regcache.hit_lookup);
  EXPECT_EQ(small.value().region.va, va);
  EXPECT_EQ(small.value().region.len, 5000u);
  EXPECT_EQ(small.value().region.rtag, big.value().region.rtag);
  ASSERT_TRUE(rc.Release(small.value().region.cache_id).ok());
}

TEST_F(RegCacheTest, DifferentIntentIsADifferentEntry) {
  RegCache& rc = a_->reg_cache();
  const mem::VirtAddr va = Alloc(mem::kPageSize);
  auto send = rc.Acquire(va, mem::kPageSize, RegIntent::kSend);
  auto recv = rc.Acquire(va, mem::kPageSize, RegIntent::kRecv);
  ASSERT_TRUE(send.ok() && recv.ok());
  EXPECT_FALSE(recv.value().hit);
  EXPECT_EQ(rc.entry_count(), 2u);
  EXPECT_EQ(send.value().region.rtag, 0u);  // send-only: no recv region
  EXPECT_NE(recv.value().region.rtag, 0u);
  EXPECT_TRUE(rc.Release(send.value().region.cache_id).ok());
  EXPECT_TRUE(rc.Release(recv.value().region.cache_id).ok());
}

TEST_F(RegCacheTest, LruEvictionUnderTightBudget) {
  RegCache& rc = a_->reg_cache();
  const mem::VirtAddr a = Alloc(2 * mem::kPageSize);
  const mem::VirtAddr b = Alloc(2 * mem::kPageSize);
  const mem::VirtAddr c = Alloc(2 * mem::kPageSize);

  auto ra = rc.Acquire(a, 2 * mem::kPageSize, RegIntent::kRecv);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rc.Release(ra.value().region.cache_id).ok());
  auto rb = rc.Acquire(b, 2 * mem::kPageSize, RegIntent::kRecv);
  ASSERT_TRUE(rb.ok());
  ASSERT_TRUE(rc.Release(rb.value().region.cache_id).ok());
  EXPECT_EQ(rc.pinned_bytes(), kBudget);  // full, nothing evicted yet
  EXPECT_EQ(rc.evictions(), 0u);

  // Third registration: the budget forces out the least recently idle
  // entry (a), not b.
  auto rok = rc.Acquire(c, 2 * mem::kPageSize, RegIntent::kRecv);
  ASSERT_TRUE(rok.ok());
  EXPECT_EQ(rc.evictions(), 1u);
  EXPECT_EQ(rc.pinned_bytes(), kBudget);
  auto rb2 = rc.Acquire(b, 2 * mem::kPageSize, RegIntent::kRecv);
  ASSERT_TRUE(rb2.ok());
  EXPECT_TRUE(rb2.value().hit);  // b survived
  auto ra2 = rc.Acquire(a, 2 * mem::kPageSize, RegIntent::kRecv);
  ASSERT_TRUE(ra2.ok());
  EXPECT_FALSE(ra2.value().hit);  // a was the eviction victim
  EXPECT_TRUE(rc.Release(rok.value().region.cache_id).ok());
  EXPECT_TRUE(rc.Release(rb2.value().region.cache_id).ok());
  EXPECT_TRUE(rc.Release(ra2.value().region.cache_id).ok());
}

TEST_F(RegCacheTest, EvictingOneOfTwoOverlappingEntriesKeepsFrameEnabled) {
  // Two receive registrations starting at different offsets of one page
  // are two entries over the same frame; the first one enabled it in the
  // NIC's incoming page table. Evicting that one while the other is
  // active must leave the frame writable for the survivor.
  RegCache& rc = a_->reg_cache();
  const mem::VirtAddr va = Alloc(mem::kPageSize);
  auto first = rc.Acquire(va, 100, RegIntent::kRecv);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(rc.Release(first.value().region.cache_id).ok());
  auto second = rc.Acquire(va + 64, 100, RegIntent::kRecv);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.value().hit);

  // Budget pressure evicts the idle first entry.
  const mem::VirtAddr other = Alloc(3 * mem::kPageSize);
  auto big = rc.Acquire(other, 3 * mem::kPageSize, RegIntent::kRecv);
  ASSERT_TRUE(big.ok());
  ASSERT_EQ(rc.evictions(), 1u);

  auto pa = a_->memory().Translate(va);
  ASSERT_TRUE(pa.ok());
  const IncomingEntry* in =
      cluster_->node(0).lcp->incoming().Find(mem::PageNumber(pa.value()));
  ASSERT_NE(in, nullptr);
  EXPECT_TRUE(in->recv_enabled);

  // Once the survivor goes too, the frame is disabled again.
  ASSERT_TRUE(rc.Release(second.value().region.cache_id).ok());
  ASSERT_TRUE(rc.Release(big.value().region.cache_id).ok());
  rc.InvalidateRange(va, mem::kPageSize);
  in = cluster_->node(0).lcp->incoming().Find(mem::PageNumber(pa.value()));
  EXPECT_TRUE(in == nullptr || !in->recv_enabled);
}

TEST_F(RegCacheTest, ActiveEntriesAreNeverEvicted) {
  RegCache& rc = a_->reg_cache();
  const mem::VirtAddr a = Alloc(2 * mem::kPageSize);
  const mem::VirtAddr b = Alloc(2 * mem::kPageSize);
  const mem::VirtAddr c = Alloc(2 * mem::kPageSize);

  auto ra = rc.Acquire(a, 2 * mem::kPageSize, RegIntent::kRecv);
  auto rb = rc.Acquire(b, 2 * mem::kPageSize, RegIntent::kRecv);
  ASSERT_TRUE(ra.ok() && rb.ok());
  // Budget is full of *active* registrations; a third acquire must not
  // tear either down — the cache goes over budget instead (the kernel
  // would, too: the pages are wired).
  auto rok = rc.Acquire(c, 2 * mem::kPageSize, RegIntent::kRecv);
  ASSERT_TRUE(rok.ok());
  EXPECT_EQ(rc.evictions(), 0u);
  EXPECT_EQ(rc.pinned_bytes(), 6 * mem::kPageSize);
  // Releases bring it back under budget: the over-budget idle entries are
  // reclaimed in LRU order.
  EXPECT_TRUE(rc.Release(ra.value().region.cache_id).ok());
  EXPECT_EQ(rc.evictions(), 1u);
  EXPECT_EQ(rc.pinned_bytes(), kBudget);
  EXPECT_TRUE(rc.Release(rb.value().region.cache_id).ok());
  EXPECT_TRUE(rc.Release(rok.value().region.cache_id).ok());
}

TEST_F(RegCacheTest, HeapFreeInvalidatesIdleEntries) {
  RegCache& rc = a_->reg_cache();
  const mem::VirtAddr va = Alloc(mem::kPageSize);
  auto r = rc.Acquire(va, mem::kPageSize, RegIntent::kRecv);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(rc.Release(r.value().region.cache_id).ok());
  EXPECT_EQ(rc.entry_count(), 1u);

  // FreeBuffer -> HeapFree fires the release listener: the idle pin is
  // dropped so the heap block can be recycled safely.
  ASSERT_TRUE(a_->FreeBuffer(va).ok());
  EXPECT_EQ(rc.entry_count(), 0u);
  EXPECT_EQ(rc.pinned_bytes(), 0u);
  EXPECT_EQ(rc.evictions(), 1u);
}

TEST_F(RegCacheTest, UnmapFailsOverActiveRegistrationThenSucceeds) {
  RegCache& rc = a_->reg_cache();
  mem::AddressSpace& as = a_->memory();
  auto va = as.MapAnonymous(2 * mem::kPageSize);
  ASSERT_TRUE(va.ok());

  auto r = rc.Acquire(va.value(), 2 * mem::kPageSize, RegIntent::kRecv);
  ASSERT_TRUE(r.ok());
  // The release listener may only drop idle pins; the active registration
  // keeps its pages pinned, so the unmap must refuse (atomically).
  Status blocked = as.Unmap(va.value(), 2 * mem::kPageSize);
  EXPECT_EQ(blocked.code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(rc.entry_count(), 1u);

  ASSERT_TRUE(rc.Release(r.value().region.cache_id).ok());
  // Now the entry is idle: the listener unpins it and the unmap goes
  // through.
  EXPECT_TRUE(as.Unmap(va.value(), 2 * mem::kPageSize).ok());
  EXPECT_EQ(rc.entry_count(), 0u);
}

TEST_F(RegCacheTest, MetricsAreRegistered) {
  RegCache& rc = a_->reg_cache();
  const mem::VirtAddr va = Alloc(mem::kPageSize);
  auto r = rc.Acquire(va, mem::kPageSize, RegIntent::kRecv);
  ASSERT_TRUE(r.ok());
  auto again = rc.Acquire(va, mem::kPageSize, RegIntent::kRecv);
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE(rc.Release(r.value().region.cache_id).ok());
  ASSERT_TRUE(rc.Release(again.value().region.cache_id).ok());
  ASSERT_TRUE(a_->FreeBuffer(va).ok());

  const obs::Registry& m = sim_.metrics();
  EXPECT_EQ(m.CounterValue("node0.regcache.miss"), 1u);
  EXPECT_EQ(m.CounterValue("node0.regcache.hit"), 1u);
  EXPECT_EQ(m.CounterValue("node0.regcache.evict"), 1u);
  const obs::Gauge* pinned = m.FindGauge("node0.regcache.pinned_bytes");
  ASSERT_NE(pinned, nullptr);
  EXPECT_EQ(pinned->value(), 0.0);
}

TEST_F(RegCacheTest, DisabledCacheTearsDownOnRelease) {
  Params params;
  params.vmmc.regcache.enabled = false;
  sim::Simulator sim;
  ClusterOptions options;
  options.num_nodes = 2;
  Cluster cluster(sim, params, options);
  ASSERT_TRUE(cluster.Boot().ok());
  auto ep = cluster.OpenEndpoint(0, "cold");
  ASSERT_TRUE(ep.ok());
  RegCache& rc = ep.value()->reg_cache();
  auto va = ep.value()->AllocBuffer(mem::kPageSize);
  ASSERT_TRUE(va.ok());

  auto r1 = rc.Acquire(va.value(), mem::kPageSize, RegIntent::kRecv);
  ASSERT_TRUE(r1.ok());
  auto unpin = rc.Release(r1.value().region.cache_id);
  ASSERT_TRUE(unpin.ok());
  EXPECT_GT(unpin.value(), 0);  // the unpin syscall is charged
  EXPECT_EQ(rc.entry_count(), 0u);
  // No reuse: the next acquire pays the pin again.
  auto r2 = rc.Acquire(va.value(), mem::kPageSize, RegIntent::kRecv);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2.value().hit);
  EXPECT_EQ(rc.hits(), 0u);
  ASSERT_TRUE(rc.Release(r2.value().region.cache_id).ok());
}

// --- one-sided RDMA over the wire ----------------------------------------

class RdmaTest : public ::testing::Test {
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

  void RunAll() { sim_.Run(100'000'000); }

  sim::Simulator sim_;
  Params params_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Endpoint> a_, b_;
};

TEST_F(RdmaTest, WriteDeliversDataAndFin) {
  constexpr std::uint32_t kLen = 10'000;  // chunked, not page-aligned
  bool done = false;
  std::vector<std::uint8_t> got(kLen);
  std::uint32_t fin_word = 0;
  auto prog = [&]() -> sim::Process {
    // b: a data region and a 1-page fin region, both receive-registered.
    auto dst = b_->AllocBuffer(kLen);
    auto fin = b_->AllocBuffer(mem::kPageSize);
    CO_ASSERT_TRUE(dst.ok() && fin.ok());
    auto dreg = co_await b_->RegisterMemory(dst.value(), kLen,
                                            RegIntent::kRecv);
    auto freg = co_await b_->RegisterMemory(fin.value(), mem::kPageSize,
                                            RegIntent::kRecv);
    CO_ASSERT_TRUE(dreg.ok() && freg.ok());

    auto src = a_->AllocBuffer(kLen);
    CO_ASSERT_TRUE(src.ok());
    std::vector<std::uint8_t> payload(kLen);
    for (std::uint32_t i = 0; i < kLen; ++i) {
      payload[i] = static_cast<std::uint8_t>(i * 7);
    }
    CO_ASSERT_TRUE(a_->WriteBuffer(src.value(), payload).ok());

    RdmaOptions opts;
    opts.fin_rtag = freg.value().rtag;
    opts.fin_offset = 8;
    opts.fin_value = 0xC0FFEE;
    Status w = co_await a_->RdmaWrite(
        src.value(), RemoteTarget{1, dreg.value().rtag, 0}, kLen, opts);
    CO_ASSERT_TRUE(w.ok());

    // The fin chunk is ordered after the data chunks on the same wire:
    // once it lands, the payload is complete.
    for (;;) {
      auto word = b_->memory().ReadU32(fin.value() + 8);
      CO_ASSERT_TRUE(word.ok());
      if (word.value() != 0) {
        fin_word = word.value();
        break;
      }
      co_await sim_.Delay(1'000);
    }
    CO_ASSERT_TRUE(b_->ReadBuffer(dst.value(), got).ok());
    done = true;
  };
  sim_.Spawn(prog());
  RunAll();
  ASSERT_TRUE(done);
  EXPECT_EQ(fin_word, 0xC0FFEEu);
  for (std::uint32_t i = 0; i < kLen; ++i) {
    ASSERT_EQ(got[i], static_cast<std::uint8_t>(i * 7)) << "at byte " << i;
  }
  EXPECT_GE(cluster_->node(0).lcp->metrics().rdma_writes.value(), 1u);
}

TEST_F(RdmaTest, ReadPullsRemoteData) {
  constexpr std::uint32_t kLen = 20'000;
  bool done = false;
  std::vector<std::uint8_t> got(kLen);
  auto prog = [&]() -> sim::Process {
    // b exposes a source region; a pulls it with a one-sided read.
    auto src = b_->AllocBuffer(kLen);
    CO_ASSERT_TRUE(src.ok());
    std::vector<std::uint8_t> payload(kLen);
    for (std::uint32_t i = 0; i < kLen; ++i) {
      payload[i] = static_cast<std::uint8_t>(255 - (i % 251));
    }
    CO_ASSERT_TRUE(b_->WriteBuffer(src.value(), payload).ok());
    auto sreg = co_await b_->RegisterMemory(src.value(), kLen,
                                            RegIntent::kRecv);
    CO_ASSERT_TRUE(sreg.ok());

    auto dst = a_->AllocBuffer(kLen);
    CO_ASSERT_TRUE(dst.ok());
    auto dreg = co_await a_->RegisterMemory(dst.value(), kLen,
                                            RegIntent::kRecv);
    CO_ASSERT_TRUE(dreg.ok());
    Status r = co_await a_->RdmaRead(RemoteTarget{1, sreg.value().rtag, 0},
                                     kLen, dreg.value(), 0);
    CO_ASSERT_TRUE(r.ok());
    CO_ASSERT_TRUE(a_->ReadBuffer(dst.value(), got).ok());
    done = true;
  };
  sim_.Spawn(prog());
  RunAll();
  ASSERT_TRUE(done);
  for (std::uint32_t i = 0; i < kLen; ++i) {
    ASSERT_EQ(got[i], static_cast<std::uint8_t>(255 - (i % 251)))
        << "at byte " << i;
  }
  EXPECT_GE(cluster_->node(1).lcp->metrics().rdma_reads_served.value(), 1u);
}

TEST_F(RdmaTest, ReadIntoLongerReRegistrationOfSamePages) {
  // 5000 and 8000 bytes both span two pages: the second registration is
  // a cache hit on the first's entry, and its region must still cover
  // all 8000 bytes.
  constexpr std::uint32_t kShort = 5000;
  constexpr std::uint32_t kLong = 8000;
  bool done = false;
  Status r = InternalError("not run");
  MemRegion region;
  std::vector<std::uint8_t> got(kLong);
  auto prog = [&]() -> sim::Process {
    auto src = b_->AllocBuffer(kLong);
    CO_ASSERT_TRUE(src.ok());
    std::vector<std::uint8_t> payload(kLong);
    for (std::uint32_t i = 0; i < kLong; ++i) {
      payload[i] = static_cast<std::uint8_t>(i * 13 + 1);
    }
    CO_ASSERT_TRUE(b_->WriteBuffer(src.value(), payload).ok());
    auto sreg = co_await b_->RegisterMemory(src.value(), kLong,
                                            RegIntent::kRecv);
    CO_ASSERT_TRUE(sreg.ok());

    auto dst = a_->AllocBuffer(kLong);
    CO_ASSERT_TRUE(dst.ok());
    auto first = co_await a_->RegisterMemory(dst.value(), kShort,
                                             RegIntent::kRecv);
    CO_ASSERT_TRUE(first.ok());
    CO_ASSERT_TRUE((co_await a_->UnregisterMemory(first.value())).ok());
    auto longer = co_await a_->RegisterMemory(dst.value(), kLong,
                                              RegIntent::kRecv);
    CO_ASSERT_TRUE(longer.ok());
    region = longer.value();
    r = co_await a_->RdmaRead(RemoteTarget{1, sreg.value().rtag, 0}, kLong,
                              region, 0);
    CO_ASSERT_TRUE(a_->ReadBuffer(dst.value(), got).ok());
    done = true;
  };
  sim_.Spawn(prog());
  RunAll();
  ASSERT_TRUE(done);
  EXPECT_EQ(a_->reg_cache().hits(), 1u);
  EXPECT_EQ(region.len, kLong);
  ASSERT_TRUE(r.ok()) << r.ToString();
  for (std::uint32_t i = 0; i < kLong; ++i) {
    ASSERT_EQ(got[i], static_cast<std::uint8_t>(i * 13 + 1)) << "at byte " << i;
  }
}

TEST_F(RdmaTest, SecondStartAddressInSamePageGetsItsOwnRegion) {
  // Two registrations starting at different offsets of the same first
  // page (same page count): the second region must start where it was
  // asked to, and a read into it must land there.
  constexpr std::uint32_t kLen = 256;
  constexpr std::uint32_t kShift = 64;
  bool done = false;
  MemRegion first_region, second_region;
  std::vector<std::uint8_t> got(kShift + kLen);
  auto prog = [&]() -> sim::Process {
    auto src = b_->AllocBuffer(kLen);
    CO_ASSERT_TRUE(src.ok());
    std::vector<std::uint8_t> payload(kLen, 0xA5);
    CO_ASSERT_TRUE(b_->WriteBuffer(src.value(), payload).ok());
    auto sreg = co_await b_->RegisterMemory(src.value(), kLen,
                                            RegIntent::kRecv);
    CO_ASSERT_TRUE(sreg.ok());

    auto dst = a_->AllocBuffer(mem::kPageSize);
    CO_ASSERT_TRUE(dst.ok());
    auto first = co_await a_->RegisterMemory(dst.value(), kLen,
                                             RegIntent::kRecv);
    CO_ASSERT_TRUE(first.ok());
    first_region = first.value();
    CO_ASSERT_TRUE((co_await a_->UnregisterMemory(first.value())).ok());
    auto second = co_await a_->RegisterMemory(dst.value() + kShift, kLen,
                                              RegIntent::kRecv);
    CO_ASSERT_TRUE(second.ok());
    second_region = second.value();
    Status r = co_await a_->RdmaRead(RemoteTarget{1, sreg.value().rtag, 0},
                                     kLen, second_region, 0);
    CO_ASSERT_TRUE(r.ok());
    CO_ASSERT_TRUE(a_->ReadBuffer(dst.value(), got).ok());
    done = true;
  };
  sim_.Spawn(prog());
  RunAll();
  ASSERT_TRUE(done);
  EXPECT_EQ(second_region.va, first_region.va + kShift);
  EXPECT_EQ(second_region.len, kLen);
  for (std::uint32_t i = 0; i < kShift; ++i) {
    ASSERT_EQ(got[i], 0) << "read landed before the region, at byte " << i;
  }
  for (std::uint32_t i = kShift; i < kShift + kLen; ++i) {
    ASSERT_EQ(got[i], 0xA5) << "at byte " << i;
  }
}

TEST_F(RdmaTest, ReadFromBogusRtagIsRejectedRemotely) {
  bool done = false;
  Status r = OkStatus();
  auto prog = [&]() -> sim::Process {
    auto dst = a_->AllocBuffer(4096);
    CO_ASSERT_TRUE(dst.ok());
    auto dreg = co_await a_->RegisterMemory(dst.value(), 4096,
                                            RegIntent::kRecv);
    CO_ASSERT_TRUE(dreg.ok());
    // rtag 0x7777 was never created on node 1: the serving LCP counts a
    // protection violation and flips the error bit in the fin word
    // instead of leaving the reader spinning.
    r = co_await a_->RdmaRead(RemoteTarget{1, 0x7777, 0}, 4096,
                              dreg.value(), 0);
    done = true;
  };
  sim_.Spawn(prog());
  RunAll();
  ASSERT_TRUE(done);
  EXPECT_EQ(r.code(), ErrorCode::kPermissionDenied);
  EXPECT_GE(cluster_->node(1).lcp->metrics().protection_violations.value(), 1u);
}

TEST_F(RdmaTest, WriteValidatesArguments) {
  Status bad_len = OkStatus(), bad_target = OkStatus();
  auto prog = [&]() -> sim::Process {
    auto src = a_->AllocBuffer(4096);
    CO_ASSERT_TRUE(src.ok());
    bad_len = co_await a_->RdmaWrite(src.value(), RemoteTarget{1, 5, 0}, 0);
    bad_target = co_await a_->RdmaWrite(src.value(), RemoteTarget{1, 0, 0},
                                        128);
  };
  sim_.Spawn(prog());
  RunAll();
  EXPECT_EQ(bad_len.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(bad_target.code(), ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace vmmc::vmmc_core
