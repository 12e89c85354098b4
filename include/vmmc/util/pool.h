// The simulator's one size-class allocator: coroutine frames (the
// sim::Process and sim::Task promises) and util::Buffer payload blocks
// both come from here, so a warmed simulation recycles its memory and
// calls operator new only when it reaches a new peak of live blocks.
//
// Classes step by half an octave — 64, 96, 128, 192, 256, ... — up to
// kMaxPooled bytes, so a block wastes at most a third of itself. Larger
// requests go straight to operator new/delete at their exact size.
// Freed blocks wait on one intrusive free list per class.
//
// Sanitizers: every block is a separate operator new allocation (no
// slabs), so a block that is neither live nor on a free list, such as a
// frame of a coroutine still suspended when the simulator dies, shows up
// as a leak under LeakSanitizer (whose allocation stack is that of the
// block's first owner: recycling does not call operator new again). Under AddressSanitizer a free-listed
// block is poisoned past its free-list link, so a use after free trips it
// as usual.
//
// Single-threaded, like the simulator: the free lists are one
// process-wide, constant-initialized set with no locking.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

// Marks memory the program must not touch (free-listed blocks, vacated
// util::Ring slots) for AddressSanitizer; no-ops in other builds.
#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define VMMC_ASAN_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define VMMC_ASAN_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define VMMC_ASAN_POISON(p, n) ((void)(p), (void)(n))
#define VMMC_ASAN_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace vmmc::util {

namespace pool_detail {

inline constexpr std::size_t kMinClass = 64;

// Class index of an n-byte request: 0 for up to 64 bytes, then two
// classes per octave, 1.5 * 2^e and 2^(e+1), for 2^e < n <= 2^(e+1).
constexpr std::size_t ClassOf(std::size_t n) {
  if (n <= kMinClass) return 0;
  const int e = std::bit_width(n - 1) - 1;  // 2^e <= n-1 < 2^(e+1)
  const std::size_t upper_half = ((n - 1) >> (e - 1)) & 1u;
  return 2 * static_cast<std::size_t>(e - 6) + 1 + upper_half;
}

constexpr std::size_t SizeOf(std::size_t c) {
  if (c == 0) return kMinClass;
  const std::size_t j = (c - 1) / 2;
  return c % 2 == 1 ? std::size_t{3} << (j + 5) : std::size_t{1} << (j + 7);
}

}  // namespace pool_detail

class Pool {
 public:
  // Cumulative since process start.
  struct Stats {
    std::uint64_t allocs = 0;       // Allocate calls
    std::uint64_t pool_hits = 0;    // ... served from a free list
    std::uint64_t heap_allocs = 0;  // ... served by operator new
  };

  static constexpr std::size_t kMaxPooled = 96 * 1024;

  // Bytes a block for an `n`-byte request really has: its class size, or
  // `n` itself above kMaxPooled.
  static constexpr std::size_t ClassSize(std::size_t n) {
    return n > kMaxPooled ? n : pool_detail::SizeOf(pool_detail::ClassOf(n));
  }

  // A block of at least `n` bytes, aligned for any fundamental type.
  // `from_free_list`, if given, reports whether it was recycled.
  static void* Allocate(std::size_t n, bool* from_free_list = nullptr) {
    ++state_.stats.allocs;
    if (n <= kMaxPooled) {
      const std::size_t c = pool_detail::ClassOf(n);
      if (FreeBlock* b = state_.free_lists[c]; b != nullptr) {
        VMMC_ASAN_UNPOISON(b, pool_detail::SizeOf(c));
        state_.free_lists[c] = b->next;
        ++state_.stats.pool_hits;
        if (from_free_list != nullptr) *from_free_list = true;
        return b;
      }
      n = pool_detail::SizeOf(c);
    }
    ++state_.stats.heap_allocs;
    if (from_free_list != nullptr) *from_free_list = false;
    return HeapAllocate(n);
  }

  // Returns a block; `n` is the size passed to Allocate (or ClassSize of
  // it: both name the same class).
  static void Free(void* p, std::size_t n) noexcept {
    if (n > kMaxPooled) {
      HeapFree(p);
      return;
    }
    const std::size_t c = pool_detail::ClassOf(n);
    auto* b = static_cast<FreeBlock*>(p);
    b->next = state_.free_lists[c];
    state_.free_lists[c] = b;
    // The link stays readable: LeakSanitizer ignores pointers stored in
    // poisoned memory, and would report every block behind it as leaked.
    VMMC_ASAN_POISON(b + 1, pool_detail::SizeOf(c) - sizeof(FreeBlock));
  }

  static const Stats& stats() { return state_.stats; }

 private:
  struct FreeBlock {
    FreeBlock* next;
  };

  static constexpr std::size_t kNumClasses =
      pool_detail::ClassOf(kMaxPooled) + 1;
  static_assert(pool_detail::SizeOf(kNumClasses - 1) == kMaxPooled);

  // Out of line (pool.cpp): GCC's -Wuse-after-free cannot see that the
  // caller's bookkeeping guarantees a freed block is not touched again.
  static void* HeapAllocate(std::size_t n);
  static void HeapFree(void* p) noexcept;

  struct State {
    FreeBlock* free_lists[kNumClasses] = {};
    Stats stats;
  };
  static State state_;
};

// Constant-initialized and trivially destructible: no guard on access and
// no teardown-order hazard for a block freed after main() returns. Blocks
// still on the free lists at exit stay reachable from here.
inline constinit Pool::State Pool::state_{};

}  // namespace vmmc::util
