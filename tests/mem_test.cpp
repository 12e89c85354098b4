// Tests for the simulated memory subsystem: frame allocator, physical byte
// access, page tables, address spaces, pinning and the user heap.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <numeric>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "vmmc/mem/address_space.h"
#include "vmmc/mem/physical_memory.h"
#include "vmmc/mem/types.h"
#include "vmmc/sim/rng.h"

namespace vmmc::mem {
namespace {

TEST(TypesTest, PageArithmetic) {
  EXPECT_EQ(kPageSize, 4096u);
  EXPECT_EQ(PageNumber(0x2345), 0x2u);
  EXPECT_EQ(PageOffset(0x2345), 0x345u);
  EXPECT_EQ(PageBase(0x2345), 0x2000u);
  EXPECT_EQ(PageAddr(3), 0x3000u);
  EXPECT_EQ(PagesSpanned(0, 0), 0u);
  EXPECT_EQ(PagesSpanned(0, 1), 1u);
  EXPECT_EQ(PagesSpanned(0, 4096), 1u);
  EXPECT_EQ(PagesSpanned(4095, 2), 2u);
  EXPECT_EQ(PagesSpanned(100, 8192), 3u);
  EXPECT_EQ(RoundUpToPage(1), 4096u);
  EXPECT_EQ(RoundUpToPage(4096), 4096u);
  EXPECT_EQ(RoundUpToPage(4097), 8192u);
}

TEST(PhysicalMemoryTest, AllocatesAllFramesThenExhausts) {
  PhysicalMemory pm(16 * kPageSize);
  std::set<Pfn> seen;
  for (int i = 0; i < 16; ++i) {
    auto pfn = pm.AllocFrame();
    ASSERT_TRUE(pfn.ok());
    EXPECT_LT(pfn.value(), 16u);
    EXPECT_TRUE(seen.insert(pfn.value()).second) << "duplicate frame";
  }
  EXPECT_EQ(pm.free_frames(), 0u);
  EXPECT_FALSE(pm.AllocFrame().ok());
}

TEST(PhysicalMemoryTest, ScatterSeedShufflesOrder) {
  PhysicalMemory seq(64 * kPageSize, /*scatter_seed=*/0);
  PhysicalMemory shuf(64 * kPageSize, /*scatter_seed=*/7);
  std::vector<Pfn> a, b;
  for (int i = 0; i < 64; ++i) {
    a.push_back(seq.AllocFrame().value());
    b.push_back(shuf.AllocFrame().value());
  }
  // Sequential allocator yields ascending PFNs.
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_NE(a, b);
  // Scattered allocation rarely yields physically adjacent consecutive
  // frames — the property that caps DMA transfers at one page.
  int adjacent = 0;
  for (size_t i = 1; i < b.size(); ++i) adjacent += (b[i] == b[i - 1] + 1);
  EXPECT_LT(adjacent, 8);
}

TEST(PhysicalMemoryTest, FreeAndReuse) {
  PhysicalMemory pm(2 * kPageSize);
  Pfn a = pm.AllocFrame().value();
  Pfn b = pm.AllocFrame().value();
  EXPECT_FALSE(pm.AllocFrame().ok());
  EXPECT_TRUE(pm.FreeFrame(a).ok());
  EXPECT_FALSE(pm.FreeFrame(a).ok()) << "double free must fail";
  Pfn c = pm.AllocFrame().value();
  EXPECT_EQ(c, a);
  (void)b;
}

TEST(PhysicalMemoryTest, ReadWriteRoundTrip) {
  PhysicalMemory pm(8 * kPageSize);
  std::vector<std::uint8_t> data(10000);
  std::iota(data.begin(), data.end(), 0);
  ASSERT_TRUE(pm.Write(123, data).ok());  // crosses three frames
  std::vector<std::uint8_t> back(10000);
  ASSERT_TRUE(pm.Read(123, back).ok());
  EXPECT_EQ(data, back);
}

TEST(PhysicalMemoryTest, UntouchedMemoryReadsZero) {
  PhysicalMemory pm(4 * kPageSize);
  std::vector<std::uint8_t> buf(64, 0xFF);
  ASSERT_TRUE(pm.Read(kPageSize + 5, buf).ok());
  for (auto b : buf) EXPECT_EQ(b, 0);
}

TEST(PhysicalMemoryTest, FreedFrameReadsZeroWhenReused) {
  PhysicalMemory pm(4 * kPageSize, /*scatter_seed=*/0);
  const Pfn a = pm.AllocFrame().value();
  const Pfn b = pm.AllocFrame().value();
  ASSERT_EQ(b, a + 1);
  // One write filling both frames, ending 100 bytes short of b's end.
  std::vector<std::uint8_t> pattern(2 * kPageSize - 100);
  std::iota(pattern.begin(), pattern.end(), 1);
  ASSERT_TRUE(pm.Write(PageAddr(a), pattern).ok());
  ASSERT_TRUE(pm.FreeFrame(a).ok());
  // The free list is LIFO: the next allocation hands the same frame back.
  ASSERT_EQ(pm.AllocFrame().value(), a);
  std::vector<std::uint8_t> back(kPageSize, 0xFF);
  ASSERT_TRUE(pm.Read(PageAddr(a), back).ok());
  EXPECT_EQ(back, std::vector<std::uint8_t>(kPageSize, 0));
  // Zeroing stopped at the frame boundary: b keeps its bytes.
  ASSERT_TRUE(pm.Read(PageAddr(b), back).ok());
  EXPECT_TRUE(std::equal(back.begin(), back.end() - 100,
                         pattern.begin() + kPageSize));
  EXPECT_EQ(std::vector<std::uint8_t>(back.end() - 100, back.end()),
            std::vector<std::uint8_t>(100, 0));
}

TEST(PhysicalMemoryTest, OutOfRangeRejected) {
  PhysicalMemory pm(2 * kPageSize);
  std::vector<std::uint8_t> buf(16);
  EXPECT_FALSE(pm.Read(2 * kPageSize - 8, buf).ok());
  EXPECT_FALSE(pm.Write(2 * kPageSize - 8, buf).ok());
  EXPECT_TRUE(pm.Read(2 * kPageSize - 16, buf).ok());
}

// Random Insert/Erase/Find/pin/unpin over VPNs in the heap and the mmap
// regions, against an ordered map. ForEach order matters: the address
// space frees frames through it, and that order decides frame reuse.
void CheckPageTableAgainstMap(std::uint64_t seed) {
  constexpr Vpn kHeapVpn = 0x0800'0000 >> kPageShift;
  constexpr Vpn kMmapVpn = 0x1000'0000 >> kPageShift;
  PageTable pt;
  std::map<Vpn, PageTableEntry> ref;
  sim::Rng rng(seed);
  for (int step = 0; step < 3000; ++step) {
    const Vpn vpn = (rng.Bernoulli(0.5) ? kHeapVpn : kMmapVpn) + rng.UniformU64(96);
    const auto it = ref.find(vpn);
    const bool mapped = it != ref.end();
    switch (rng.UniformU64(5)) {
      case 0: {  // insert
        PageTableEntry e;
        e.pfn = rng.UniformU64(1 << 20);
        e.writable = rng.Bernoulli(0.5);
        const Status s = pt.Insert(vpn, e);
        if (mapped) {
          EXPECT_EQ(s.code(), ErrorCode::kAlreadyExists) << "vpn " << vpn;
        } else {
          ASSERT_TRUE(s.ok()) << s.ToString();
          ref.emplace(vpn, e);
        }
        break;
      }
      case 1: {  // erase
        const Status s = pt.Erase(vpn);
        if (!mapped) {
          EXPECT_EQ(s.code(), ErrorCode::kNotFound) << "vpn " << vpn;
        } else if (it->second.pin_count > 0) {
          EXPECT_EQ(s.code(), ErrorCode::kFailedPrecondition) << "vpn " << vpn;
        } else {
          ASSERT_TRUE(s.ok()) << s.ToString();
          ref.erase(it);
        }
        break;
      }
      case 2:  // pin
        if (mapped) {
          ++pt.Find(vpn)->pin_count;
          ++it->second.pin_count;
        }
        break;
      case 3:  // unpin
        if (mapped && it->second.pin_count > 0) {
          --pt.Find(vpn)->pin_count;
          --it->second.pin_count;
        }
        break;
      default:
        break;
    }
    // Find agrees for this VPN, whatever the operation was.
    const PageTableEntry* found = std::as_const(pt).Find(vpn);
    const auto now = ref.find(vpn);
    ASSERT_EQ(found != nullptr, now != ref.end()) << "vpn " << vpn;
    ASSERT_EQ(pt.Contains(vpn), now != ref.end());
    if (found != nullptr) {
      EXPECT_EQ(found->pfn, now->second.pfn);
      EXPECT_EQ(found->writable, now->second.writable);
      EXPECT_EQ(found->pin_count, now->second.pin_count);
    }
    ASSERT_EQ(pt.size(), ref.size());
    // ForEach visits exactly the mapped VPNs, in VPN order.
    std::vector<std::tuple<Vpn, Pfn, std::uint32_t>> seen, want;
    pt.ForEach([&](Vpn v, const PageTableEntry& e) {
      seen.emplace_back(v, e.pfn, e.pin_count);
    });
    for (const auto& [v, e] : ref) want.emplace_back(v, e.pfn, e.pin_count);
    ASSERT_EQ(seen, want) << "step " << step;
  }
}

TEST(PageTableTest, MatchesOrderedMapReference) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE(seed);
    CheckPageTableAgainstMap(seed);
    if (HasFatalFailure()) return;
  }
}

class AddressSpaceTest : public ::testing::Test {
 protected:
  PhysicalMemory pm_{256 * kPageSize, /*scatter_seed=*/42};
  AddressSpace as_{pm_};
};

TEST_F(AddressSpaceTest, MapTranslateUnmap) {
  auto va = as_.MapAnonymous(3 * kPageSize);
  ASSERT_TRUE(va.ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(as_.Translate(va.value() + i * kPageSize).ok());
  }
  EXPECT_FALSE(as_.Translate(va.value() + 3 * kPageSize).ok());
  ASSERT_TRUE(as_.Unmap(va.value(), 3 * kPageSize).ok());
  EXPECT_FALSE(as_.Translate(va.value()).ok());
}

TEST_F(AddressSpaceTest, ConsecutiveVirtualPagesArePhysicallyScattered) {
  auto va = as_.MapAnonymous(16 * kPageSize);
  ASSERT_TRUE(va.ok());
  int adjacent = 0;
  for (int i = 1; i < 16; ++i) {
    PhysAddr prev = as_.Translate(va.value() + (i - 1) * kPageSize).value();
    PhysAddr cur = as_.Translate(va.value() + i * kPageSize).value();
    adjacent += (cur == prev + kPageSize);
  }
  EXPECT_LT(adjacent, 4);
}

TEST_F(AddressSpaceTest, ReadWriteAcrossPages) {
  auto va = as_.MapAnonymous(4 * kPageSize);
  ASSERT_TRUE(va.ok());
  std::vector<std::uint8_t> data(3 * kPageSize + 100);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i * 7);
  ASSERT_TRUE(as_.Write(va.value() + 50, data).ok());
  std::vector<std::uint8_t> back(data.size());
  ASSERT_TRUE(as_.Read(va.value() + 50, back).ok());
  EXPECT_EQ(data, back);
}

TEST_F(AddressSpaceTest, WriteToUnmappedFails) {
  std::uint8_t b[4] = {1, 2, 3, 4};
  EXPECT_FALSE(as_.Write(0xDEAD0000, b).ok());
  EXPECT_FALSE(as_.Read(0xDEAD0000, b).ok());
}

TEST_F(AddressSpaceTest, ReadOnlyMappingRejectsWrites) {
  auto va = as_.MapAnonymous(kPageSize, /*writable=*/false);
  ASSERT_TRUE(va.ok());
  std::uint8_t b[4] = {1, 2, 3, 4};
  EXPECT_FALSE(as_.Write(va.value(), b).ok());
  EXPECT_TRUE(as_.Read(va.value(), b).ok());
}

TEST_F(AddressSpaceTest, U32Helpers) {
  auto va = as_.MapAnonymous(kPageSize);
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(as_.WriteU32(va.value() + 8, 0xCAFEBABE).ok());
  auto v = as_.ReadU32(va.value() + 8);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 0xCAFEBABE);
}

TEST_F(AddressSpaceTest, PinningBlocksUnmapAndNests) {
  auto va = as_.MapAnonymous(2 * kPageSize);
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(as_.Pin(va.value(), 2 * kPageSize).ok());
  ASSERT_TRUE(as_.Pin(va.value(), kPageSize).ok());  // nested pin on page 0
  EXPECT_FALSE(as_.Unmap(va.value(), 2 * kPageSize).ok());
  ASSERT_TRUE(as_.Unpin(va.value(), 2 * kPageSize).ok());
  EXPECT_FALSE(as_.Unmap(va.value(), 2 * kPageSize).ok()) << "page 0 still pinned";
  ASSERT_TRUE(as_.Unpin(va.value(), kPageSize).ok());
  EXPECT_TRUE(as_.Unmap(va.value(), 2 * kPageSize).ok());
}

TEST_F(AddressSpaceTest, TranslatePinnedRequiresPin) {
  auto va = as_.MapAnonymous(kPageSize);
  ASSERT_TRUE(va.ok());
  EXPECT_FALSE(as_.TranslatePinned(va.value()).ok());
  ASSERT_TRUE(as_.Pin(va.value(), kPageSize).ok());
  EXPECT_TRUE(as_.TranslatePinned(va.value()).ok());
}

TEST_F(AddressSpaceTest, PinUnmappedFails) {
  EXPECT_FALSE(as_.Pin(0xDEAD0000, 8).ok());
  EXPECT_FALSE(as_.Unpin(0xDEAD0000, 8).ok());
}

TEST_F(AddressSpaceTest, HeapAllocFreeReuse) {
  auto a = as_.HeapAlloc(100);
  auto b = as_.HeapAlloc(200);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value(), b.value());
  // Write to both; no overlap.
  std::vector<std::uint8_t> da(100, 0xAA), db(200, 0xBB);
  ASSERT_TRUE(as_.Write(a.value(), da).ok());
  ASSERT_TRUE(as_.Write(b.value(), db).ok());
  std::vector<std::uint8_t> ra(100);
  ASSERT_TRUE(as_.Read(a.value(), ra).ok());
  EXPECT_EQ(ra, da);

  ASSERT_TRUE(as_.HeapFree(a.value()).ok());
  EXPECT_FALSE(as_.HeapFree(a.value()).ok()) << "double free";
  auto c = as_.HeapAlloc(50);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.value(), a.value()) << "first fit reuses the freed block";
}

TEST_F(AddressSpaceTest, HeapAlignment) {
  for (std::uint64_t align : {16ull, 64ull, 256ull, 4096ull}) {
    auto p = as_.HeapAlloc(24, align);
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p.value() % align, 0u) << "align " << align;
  }
}

TEST_F(AddressSpaceTest, HeapCoalescing) {
  auto a = as_.HeapAlloc(1000);
  auto b = as_.HeapAlloc(1000);
  auto c = as_.HeapAlloc(1000);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_TRUE(as_.HeapFree(a.value()).ok());
  ASSERT_TRUE(as_.HeapFree(b.value()).ok());
  // a+b coalesced: a 2000-byte allocation fits where two 1000s were.
  auto d = as_.HeapAlloc(2000);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value(), a.value());
  (void)c;
}

TEST_F(AddressSpaceTest, DestructorReleasesFrames) {
  const std::uint64_t before = pm_.free_frames();
  {
    AddressSpace tmp(pm_);
    ASSERT_TRUE(tmp.MapAnonymous(8 * kPageSize).ok());
    ASSERT_TRUE(tmp.HeapAlloc(3 * kPageSize).ok());
    EXPECT_LT(pm_.free_frames(), before);
  }
  EXPECT_EQ(pm_.free_frames(), before);
}

TEST_F(AddressSpaceTest, MapFailsWhenMemoryExhausted) {
  auto big = as_.MapAnonymous(1024 * kPageSize);  // more than the 256 frames
  EXPECT_FALSE(big.ok());
  // Failed map must roll back: everything it grabbed is free again.
  auto ok = as_.MapAnonymous(200 * kPageSize);
  EXPECT_TRUE(ok.ok());
}

// Property sweep: random alloc/free sequences keep the heap consistent.
class HeapPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HeapPropertyTest, RandomAllocFreeNoOverlap) {
  PhysicalMemory pm(2048 * kPageSize, GetParam());
  AddressSpace as(pm);
  sim::Rng rng(GetParam());
  struct Block {
    VirtAddr va;
    std::uint64_t len;
    std::uint8_t tag;
  };
  std::vector<Block> live;
  std::uint8_t next_tag = 1;
  for (int step = 0; step < 400; ++step) {
    if (live.empty() || rng.Bernoulli(0.6)) {
      const std::uint64_t len = 1 + rng.UniformU64(3000);
      auto va = as.HeapAlloc(len);
      ASSERT_TRUE(va.ok());
      std::vector<std::uint8_t> fill(len, next_tag);
      ASSERT_TRUE(as.Write(va.value(), fill).ok());
      live.push_back({va.value(), len, next_tag});
      next_tag = static_cast<std::uint8_t>(next_tag % 250 + 1);
    } else {
      const size_t idx = static_cast<size_t>(rng.UniformU64(live.size()));
      ASSERT_TRUE(as.HeapFree(live[idx].va).ok());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    // Every live block still holds its own tag (no overlap corruption).
    for (const auto& blk : live) {
      std::vector<std::uint8_t> back(blk.len);
      ASSERT_TRUE(as.Read(blk.va, back).ok());
      for (auto byte : back) ASSERT_EQ(byte, blk.tag);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeapPropertyTest, ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace vmmc::mem
