// Tests for vmmc::util::Buffer: copy-on-write sharing, mutation paths,
// size-class pooling and the pool statistics the perf-guard tests rely on;
// plus the util::Pool size classes and the util::Ring FIFO under it all.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "vmmc/util/buffer.h"
#include "vmmc/util/pool.h"
#include "vmmc/util/ring.h"

namespace vmmc::util {
namespace {

using Stats = Buffer::PoolStats;

// Pool stats are cumulative since process start; tests assert on deltas.
Stats Delta(const Stats& before) {
  const Stats& now = Buffer::pool_stats();
  Stats d;
  d.allocs = now.allocs - before.allocs;
  d.pool_hits = now.pool_hits - before.pool_hits;
  d.heap_allocs = now.heap_allocs - before.heap_allocs;
  d.unshares = now.unshares - before.unshares;
  d.live_blocks = now.live_blocks - before.live_blocks;
  return d;
}

TEST(BufferTest, DefaultIsEmpty) {
  Buffer b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.data(), nullptr);
  EXPECT_TRUE(b.unique());
  EXPECT_EQ(b.MutableData(), nullptr);
}

TEST(BufferTest, ConstructFromVectorAndInitializerList) {
  std::vector<std::uint8_t> v = {1, 2, 3, 4, 5};
  Buffer from_vec = v;  // implicit, mirrors pre-Buffer call sites
  Buffer from_il = {1, 2, 3, 4, 5};
  EXPECT_EQ(from_vec.size(), 5u);
  EXPECT_EQ(from_vec, v);
  EXPECT_EQ(from_il, from_vec);
  EXPECT_EQ(from_vec[0], 1);
  EXPECT_EQ(from_vec[4], 5);
}

TEST(BufferTest, SizedConstructorZeroFills) {
  Buffer b(std::size_t{257});
  ASSERT_EQ(b.size(), 257u);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_EQ(b[i], 0) << i;
}

TEST(BufferTest, CopySharesBytesMoveTransfers) {
  Buffer a = {10, 20, 30};
  Buffer b = a;
  EXPECT_EQ(a.data(), b.data());  // same block: copy is a ref bump
  EXPECT_FALSE(a.unique());
  EXPECT_FALSE(b.unique());

  Buffer c = std::move(b);
  EXPECT_EQ(c.data(), a.data());
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move): moved-from is empty
  EXPECT_FALSE(c.unique());

  b = a;  // copy-assign re-shares
  EXPECT_EQ(b.data(), a.data());
}

TEST(BufferTest, MutableDataUnsharesExactlyOnce) {
  const Stats before = Buffer::pool_stats();
  Buffer a = {1, 2, 3};
  Buffer b = a;
  std::uint8_t* p = b.MutableData();
  ASSERT_NE(p, nullptr);
  EXPECT_NE(p, a.data());  // b got its own block
  EXPECT_TRUE(a.unique());
  EXPECT_TRUE(b.unique());
  EXPECT_EQ(Delta(before).unshares, 1u);

  p[1] = 99;
  EXPECT_EQ(b[1], 99);
  EXPECT_EQ(a[1], 2);  // the original is untouched

  // Already unique: further mutation is in place, no more unshares.
  b.MutableData()[0] = 7;
  EXPECT_EQ(Delta(before).unshares, 1u);
}

TEST(BufferTest, ConstReadsNeverUnshare) {
  const Stats before = Buffer::pool_stats();
  Buffer a = {5, 6, 7};
  const Buffer b = a;
  EXPECT_EQ(b[0], 5);
  EXPECT_EQ(*b.begin(), 5);
  std::span<const std::uint8_t> view = b;
  EXPECT_EQ(view.size(), 3u);
  EXPECT_EQ(b.data(), a.data());  // still shared after all reads
  EXPECT_EQ(Delta(before).unshares, 0u);
}

TEST(BufferTest, ShrinkIsO1AndGrowZeroFills) {
  Buffer b = {1, 2, 3, 4};
  const std::uint8_t* p = b.data();
  b.resize(2);  // shrink: no realloc, no copy
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(b.data(), p);
  b.resize(4);  // grow within capacity: new bytes are zero
  EXPECT_EQ(b.size(), 4u);
  EXPECT_EQ(b[0], 1);
  EXPECT_EQ(b[1], 2);
  EXPECT_EQ(b[2], 0);
  EXPECT_EQ(b[3], 0);
  b.resize(0);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.data(), nullptr);
}

TEST(BufferTest, ResizeOnSharedBufferCopiesOnWrite) {
  Buffer a = {1, 2, 3};
  Buffer b = a;
  b.resize(5);
  EXPECT_NE(b.data(), a.data());
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(b[2], 3);
  EXPECT_EQ(b[4], 0);
}

TEST(BufferTest, AssignDropsSharedBlockInsteadOfCopying) {
  const Stats before = Buffer::pool_stats();
  Buffer a = {1, 2, 3};
  Buffer b = a;
  std::vector<std::uint8_t> fresh = {9, 8};
  b.assign(fresh);
  EXPECT_EQ(b, fresh);
  EXPECT_EQ(a[0], 1);
  // assign never needs the old bytes, so it is not an unshare.
  EXPECT_EQ(Delta(before).unshares, 0u);

  b.assign(10, 0xAA);
  EXPECT_EQ(b.size(), 10u);
  EXPECT_EQ(b[9], 0xAA);
}

TEST(BufferTest, UninitializedHasSizeButUnspecifiedBytes) {
  Buffer b = Buffer::Uninitialized(128);
  ASSERT_EQ(b.size(), 128u);
  ASSERT_NE(b.MutableData(), nullptr);
  std::iota(b.MutableData(), b.MutableData() + 128, std::uint8_t{0});
  EXPECT_EQ(b[127], 127);
}

TEST(BufferTest, EqualityComparesBytes) {
  Buffer a = {1, 2, 3};
  Buffer b = {1, 2, 3};
  Buffer c = {1, 2, 4};
  EXPECT_EQ(a, b);  // different blocks, same bytes
  EXPECT_FALSE(a == c);
  EXPECT_EQ(Buffer(), Buffer());
  std::vector<std::uint8_t> v = {1, 2, 3};
  EXPECT_EQ(a, v);
  EXPECT_EQ(v, a);
  EXPECT_FALSE(c == v);
}

TEST(BufferTest, PoolRecyclesBlocksBySizeClass) {
  // Warm the 64-byte class, free it, then re-allocate: the second
  // allocation must be a pool hit, not a heap allocation.
  { Buffer warm(std::size_t{48}); }
  const Stats before = Buffer::pool_stats();
  { Buffer again(std::size_t{64}); }  // same class (capacity 64)
  const Stats d = Delta(before);
  EXPECT_EQ(d.allocs, 1u);
  EXPECT_EQ(d.pool_hits, 1u);
  EXPECT_EQ(d.heap_allocs, 0u);
  EXPECT_EQ(d.live_blocks, 0u);  // released back on destruction
}

TEST(BufferTest, OversizedBlocksBypassThePool) {
  // Above the largest size class the block is exact-size and heap-backed.
  const Stats before = Buffer::pool_stats();
  {
    Buffer big(std::size_t{100000});
    EXPECT_EQ(big.size(), 100000u);
  }
  const Stats d = Delta(before);
  EXPECT_EQ(d.heap_allocs, 1u);
  EXPECT_EQ(d.pool_hits, 0u);
  EXPECT_EQ(d.live_blocks, 0u);
}

TEST(BufferTest, LiveBlocksTracksSharedOwnership) {
  const Stats before = Buffer::pool_stats();
  {
    Buffer a = {1, 2, 3};
    Buffer b = a;  // shared: still one block
    EXPECT_EQ(Delta(before).live_blocks, 1u);
    b.MutableData()[0] = 9;  // COW: now two blocks
    EXPECT_EQ(Delta(before).live_blocks, 2u);
  }
  EXPECT_EQ(Delta(before).live_blocks, 0u);
}

// --- util::Pool: the size classes frames and Buffer blocks share ----------

TEST(PoolTest, ClassesStepByHalfOctaves) {
  EXPECT_EQ(Pool::ClassSize(1), 64u);
  EXPECT_EQ(Pool::ClassSize(64), 64u);
  EXPECT_EQ(Pool::ClassSize(65), 96u);
  EXPECT_EQ(Pool::ClassSize(96), 96u);
  EXPECT_EQ(Pool::ClassSize(97), 128u);
  EXPECT_EQ(Pool::ClassSize(129), 192u);
  EXPECT_EQ(Pool::ClassSize(4136), 6144u);
  EXPECT_EQ(Pool::ClassSize(Pool::kMaxPooled), Pool::kMaxPooled);
  EXPECT_EQ(Pool::ClassSize(Pool::kMaxPooled + 1), Pool::kMaxPooled + 1);
  // No class wastes more than a third of its block.
  for (std::size_t n = 65; n <= Pool::kMaxPooled; n += 37) {
    EXPECT_GE(Pool::ClassSize(n), n);
    EXPECT_LT(Pool::ClassSize(n), n + n / 2 + 1) << n;
  }
}

TEST(PoolTest, FreedBlocksAreReusedLastInFirstOutPerClass) {
  void* a = Pool::Allocate(100);
  void* b = Pool::Allocate(120);  // same class (128)
  EXPECT_NE(a, b);
  Pool::Free(a, 100);
  Pool::Free(b, 120);
  const Pool::Stats before = Pool::stats();
  bool recycled = false;
  void* c = Pool::Allocate(128, &recycled);
  EXPECT_TRUE(recycled);
  EXPECT_EQ(c, b);
  void* d = Pool::Allocate(97);
  EXPECT_EQ(d, a);
  EXPECT_EQ(Pool::stats().pool_hits - before.pool_hits, 2u);
  EXPECT_EQ(Pool::stats().heap_allocs - before.heap_allocs, 0u);
  // Oversized blocks bypass the free lists both ways.
  void* big = Pool::Allocate(Pool::kMaxPooled + 8, &recycled);
  EXPECT_FALSE(recycled);
  Pool::Free(big, Pool::kMaxPooled + 8);
  Pool::Free(c, 128);
  Pool::Free(d, 97);
}

// --- util::Ring: FIFO order, wrap-around, growth, kept capacity ------------

TEST(RingTest, KeepsFifoOrderAcrossWrapAndGrowth) {
  Ring<Buffer> ring;  // a non-trivial element type: refcounted blocks
  std::uint8_t next_in = 0;
  std::uint8_t next_out = 0;
  // Push 5, pop 3, repeatedly: the head wraps many times, and the ring
  // grows while wrapped.
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 5; ++i) ring.push_back(Buffer{next_in++});
    for (int i = 0; i < 3; ++i) {
      ASSERT_EQ(ring.front()[0], next_out++);
      ring.pop_front();
    }
  }
  EXPECT_EQ(ring.size(), 80u);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i][0], static_cast<std::uint8_t>(next_out + i));
  }
  EXPECT_EQ(ring[ring.size() - 1][0], static_cast<std::uint8_t>(next_in - 1));
  const std::size_t cap = ring.capacity();
  EXPECT_GE(cap, 80u);
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), cap) << "clear keeps the storage";
}

TEST(RingTest, WarmRingReleasesElementsAndNeverRegrows) {
  const std::int64_t live = Buffer::pool_stats().live_blocks;
  Ring<Buffer> ring;
  for (int i = 0; i < 16; ++i) ring.push_back(Buffer(std::size_t{32}));
  while (!ring.empty()) ring.pop_front();
  EXPECT_EQ(Buffer::pool_stats().live_blocks, live) << "pop destroys";
  const std::size_t cap = ring.capacity();
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 16; ++i) ring.emplace_back(std::size_t{32});
    for (int i = 0; i < 16; ++i) ring.pop_front();
  }
  EXPECT_EQ(ring.capacity(), cap);
  Ring<Buffer> moved = std::move(ring);
  EXPECT_EQ(moved.capacity(), cap);
  EXPECT_EQ(ring.capacity(), 0u);  // NOLINT(bugprone-use-after-move)
}

}  // namespace
}  // namespace vmmc::util
