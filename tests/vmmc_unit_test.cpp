// Unit tests for VMMC building blocks: outgoing/incoming page tables,
// software TLB, wire format.
#include <gtest/gtest.h>

#include <numeric>

#include "vmmc/vmmc/page_tables.h"
#include "vmmc/vmmc/sw_tlb.h"
#include "vmmc/vmmc/wire.h"

namespace vmmc::vmmc_core {
namespace {

// A standalone TLB counts into counters handed to it; a cluster hands it
// its node's node<N>.tlb.*.
SwTlb::Counters LocalCounters(obs::Registry& r) {
  return {r.GetCounter("tlb.hit"), r.GetCounter("tlb.miss"),
          r.GetCounter("tlb.eviction")};
}

TEST(ProxyAddrTest, Decomposition) {
  ProxyAddr a = MakeProxyAddr(5, 123);
  EXPECT_EQ(ProxyPage(a), 5u);
  EXPECT_EQ(ProxyOffset(a), 123u);
}

TEST(OutgoingPageTableTest, SetLookupClear) {
  OutgoingPageTable opt(16);
  EXPECT_TRUE(opt.Set(3, 2, 77).ok());
  auto t = opt.Lookup(3);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.value().node, 2u);
  EXPECT_EQ(t.value().pfn, 77u);
  EXPECT_EQ(opt.valid_entries(), 1u);

  EXPECT_FALSE(opt.Lookup(4).ok()) << "unmapped proxy page";
  EXPECT_EQ(opt.Lookup(4).status().code(), ErrorCode::kPermissionDenied);
  EXPECT_FALSE(opt.Lookup(99).ok()) << "out of table";
  EXPECT_FALSE(opt.Set(3, 1, 1).ok()) << "double map";
  EXPECT_TRUE(opt.Clear(3).ok());
  EXPECT_FALSE(opt.Lookup(3).ok());
  EXPECT_FALSE(opt.Clear(3).ok());
}

TEST(OutgoingPageTableTest, EncodingBounds) {
  OutgoingPageTable opt(4);
  EXPECT_FALSE(opt.Set(0, 128, 1).ok()) << "node index must fit 7 bits";
  EXPECT_FALSE(opt.Set(0, 0, 1ull << 24).ok()) << "pfn must fit 24 bits";
  EXPECT_TRUE(opt.Set(0, 127, (1u << 24) - 1).ok());
  auto t = opt.Lookup(0);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.value().node, 127u);
  EXPECT_EQ(t.value().pfn, (1u << 24) - 1);
  // The raw entry is a single valid-tagged 32-bit word, as in the paper.
  EXPECT_EQ(opt.raw(0), 0x8000'0000u | (127u << 24) | ((1u << 24) - 1));
}

TEST(OutgoingPageTableTest, AllocateRunFindsGaps) {
  OutgoingPageTable opt(8);
  ASSERT_TRUE(opt.Set(0, 1, 10).ok());
  ASSERT_TRUE(opt.Set(3, 1, 11).ok());
  auto run2 = opt.AllocateRun(2);
  ASSERT_TRUE(run2.ok());
  EXPECT_EQ(run2.value(), 1u);
  auto run4 = opt.AllocateRun(4);
  ASSERT_TRUE(run4.ok());
  EXPECT_EQ(run4.value(), 4u);
  EXPECT_FALSE(opt.AllocateRun(7).ok()) << "no run of 7 exists";
  EXPECT_FALSE(opt.AllocateRun(0).ok());
}

TEST(OutgoingPageTableTest, FullTableIsTheImportLimit) {
  OutgoingPageTable opt(4);
  for (std::uint32_t i = 0; i < 4; ++i) ASSERT_TRUE(opt.Set(i, 0, i).ok());
  auto r = opt.AllocateRun(1);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kResourceExhausted);
}

TEST(IncomingPageTableTest, EnableDisableFind) {
  IncomingPageTable ipt(32);
  EXPECT_TRUE(ipt.Enable(7, true, 42, 1).ok());
  const IncomingEntry* e = ipt.Find(7);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->recv_enabled);
  EXPECT_TRUE(e->notify);
  EXPECT_EQ(e->owner_pid, 42);
  EXPECT_EQ(e->export_id, 1u);
  EXPECT_FALSE(ipt.Enable(7, false, 1, 2).ok()) << "frame already exported";
  EXPECT_EQ(ipt.enabled_count(), 1u);
  EXPECT_TRUE(ipt.Disable(7).ok());
  EXPECT_FALSE(ipt.Find(7)->recv_enabled);
  EXPECT_FALSE(ipt.Disable(7).ok());
  EXPECT_EQ(ipt.Find(100), nullptr);
  EXPECT_FALSE(ipt.Enable(100, false, 1, 1).ok());
}

TEST(SwTlbTest, HitMissInsert) {
  obs::Registry reg;
  SwTlb tlb(8, 2, LocalCounters(reg));
  mem::Pfn pfn = 0;
  EXPECT_FALSE(tlb.Lookup(5, &pfn));
  tlb.Insert(5, 500);
  EXPECT_TRUE(tlb.Lookup(5, &pfn));
  EXPECT_EQ(pfn, 500u);
  EXPECT_EQ(tlb.hits(), 1u);
  EXPECT_EQ(tlb.misses(), 1u);
  EXPECT_EQ(reg.CounterValue("tlb.hit"), 1u);
  EXPECT_EQ(reg.CounterValue("tlb.miss"), 1u);
  tlb.Insert(5, 501);  // refresh
  EXPECT_TRUE(tlb.Lookup(5, &pfn));
  EXPECT_EQ(pfn, 501u);
  EXPECT_EQ(tlb.valid_entries(), 1u);
}

TEST(SwTlbTest, TwoWayConflictEvictsLru) {
  obs::Registry reg;
  SwTlb tlb(8, 2, LocalCounters(reg));  // 4 sets, 2 ways
  // VPNs 0, 4, 8 all map to set 0.
  tlb.Insert(0, 100);
  tlb.Insert(4, 104);
  mem::Pfn pfn;
  EXPECT_TRUE(tlb.Lookup(0, &pfn));  // 0 is now MRU
  tlb.Insert(8, 108);                // evicts 4 (LRU)
  EXPECT_TRUE(tlb.Lookup(0, &pfn));
  EXPECT_TRUE(tlb.Lookup(8, &pfn));
  EXPECT_FALSE(tlb.Lookup(4, &pfn));
}

TEST(SwTlbTest, InvalidateOneAndAll) {
  obs::Registry reg;
  SwTlb tlb(16, 2, LocalCounters(reg));
  for (mem::Vpn v = 0; v < 8; ++v) tlb.Insert(v, v + 100);
  tlb.Invalidate(3);
  mem::Pfn pfn;
  EXPECT_FALSE(tlb.Lookup(3, &pfn));
  EXPECT_TRUE(tlb.Lookup(2, &pfn));
  tlb.InvalidateAll();
  EXPECT_EQ(tlb.valid_entries(), 0u);
  EXPECT_FALSE(tlb.Lookup(2, &pfn));
}

TEST(SwTlbTest, PaperCapacityEightMegabytes) {
  // §4.5: translations for up to 8 MB at 4 KB pages, two-way associative.
  obs::Registry reg;
  SwTlb tlb(2048, 2, LocalCounters(reg));
  EXPECT_EQ(tlb.capacity() * mem::kPageSize, 8u * 1024 * 1024);
  for (mem::Vpn v = 0; v < 2048; ++v) tlb.Insert(v, v);
  EXPECT_EQ(tlb.valid_entries(), 2048u);
  mem::Pfn pfn;
  for (mem::Vpn v = 0; v < 2048; ++v) {
    ASSERT_TRUE(tlb.Lookup(v, &pfn)) << v;
    ASSERT_EQ(pfn, v);
  }
}

TEST(WireTest, EncodeDecodeRoundTrip) {
  ChunkHeader h;
  h.type = PacketType::kData;
  h.flags = ChunkHeader::kFlagLastChunk | ChunkHeader::kFlagNotify;
  h.src_node = 3;
  h.msg_len = 100000;
  h.chunk_len = 4096;
  h.dst_pa0 = 0x12345678;
  h.dst_pa1 = 0xABCDEF000;
  h.tag = 99;
  h.seq = 0xDEADBEEF;
  h.dst_node = 7;
  std::vector<std::uint8_t> data(4096);
  std::iota(data.begin(), data.end(), 0);

  auto payload = EncodeChunk(h, data);
  EXPECT_EQ(payload.size(), ChunkHeader::kWireSize + 4096);
  auto decoded = DecodeChunk(payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->header.type, PacketType::kData);
  EXPECT_TRUE(decoded->header.last_chunk());
  EXPECT_TRUE(decoded->header.notify());
  EXPECT_EQ(decoded->header.src_node, 3);
  EXPECT_EQ(decoded->header.msg_len, 100000u);
  EXPECT_EQ(decoded->header.chunk_len, 4096u);
  EXPECT_EQ(decoded->header.dst_pa0, 0x12345678u);
  EXPECT_EQ(decoded->header.dst_pa1, 0xABCDEF000u);
  EXPECT_EQ(decoded->header.tag, 99u);
  EXPECT_EQ(decoded->header.seq, 0xDEADBEEFu);
  EXPECT_EQ(decoded->header.dst_node, 7);
  EXPECT_TRUE(std::equal(data.begin(), data.end(), decoded->data.begin()));
}

TEST(WireTest, AckPacketsRoundTrip) {
  ChunkHeader h;
  h.type = PacketType::kAck;
  h.src_node = 1;   // the acking receiver
  h.dst_node = 0;   // the sender being acked
  h.seq = 4242;     // cumulative: next expected
  auto payload = EncodeChunk(h, {});
  EXPECT_EQ(payload.size(), ChunkHeader::kWireSize);
  auto decoded = DecodeChunk(payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->header.type, PacketType::kAck);
  EXPECT_EQ(decoded->header.seq, 4242u);
  EXPECT_EQ(decoded->header.src_node, 1);
  EXPECT_EQ(decoded->header.dst_node, 0);
  EXPECT_TRUE(decoded->data.empty());
}

TEST(WireTest, MalformedPayloadsRejected) {
  EXPECT_FALSE(DecodeChunk({}).has_value());
  std::vector<std::uint8_t> tiny(10, 0);
  EXPECT_FALSE(DecodeChunk(tiny).has_value());

  ChunkHeader h;
  h.chunk_len = 100;
  std::vector<std::uint8_t> data(100);
  auto payload = EncodeChunk(h, data);
  ASSERT_FALSE(payload.empty());
  payload.resize(payload.size() - 1);  // truncated
  EXPECT_FALSE(DecodeChunk(payload).has_value());

  auto good = EncodeChunk(h, data);
  good.MutableData()[0] = 0xEE;  // bogus type
  EXPECT_FALSE(DecodeChunk(good).has_value());
}

TEST(WireTest, ScatterSplitAtPageBoundary) {
  ChunkHeader h;
  h.chunk_len = 4096;
  h.dst_pa0 = 3 * mem::kPageSize + 4000;  // 96 bytes left on the page
  h.dst_pa1 = 7 * mem::kPageSize;
  EXPECT_EQ(h.ScatterLen0(), 96u);
  h.dst_pa1 = 0;  // no boundary crossing: everything in one piece
  EXPECT_EQ(h.ScatterLen0(), 4096u);
  // Aligned destination with a second address set: full page still fits
  // the first page.
  h.dst_pa0 = 2 * mem::kPageSize;
  h.dst_pa1 = 9 * mem::kPageSize;
  EXPECT_EQ(h.ScatterLen0(), 4096u);
}

}  // namespace
}  // namespace vmmc::vmmc_core
