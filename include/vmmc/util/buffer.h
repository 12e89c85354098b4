// Ref-counted, pooled byte buffer with copy-on-write semantics.
//
// Payload bytes in the simulator are written once (at the source NIC) and
// then handed from queue to queue: per switch hop, into the go-back-N
// retx-pool, across retransmits. Buffer makes every one of those handoffs
// a reference bump instead of a std::vector deep copy, and recycles the
// underlying storage through a size-class pool so steady-state traffic
// performs no heap allocation at all.
//
// Semantics:
//  - Copying a Buffer shares the bytes (O(1) ref bump).
//  - All mutation goes through MutableData()/resize()/assign(), which
//    un-share first (copy-on-write) — a fault rule flipping a bit in one
//    in-flight copy of a packet never corrupts the retx-pool's copy.
//  - Read access is const-only: there is no mutable operator[]/begin/end,
//    so a read like `payload[0]` can never trigger an accidental unshare.
//  - Invariant: a block shared by two Buffers is never written. So a
//    MutableData() pointer may be written through only until its Buffer
//    is next copied; a later write would reach every copy at once.
//    myrinet::Packet's lazy CRC check relies on this: it trusts a payload
//    still on the block it stamped to hold the stamped bytes.
//  - Single-threaded, like the simulator that moves the bytes: the ref
//    count is a plain integer and blocks recycle through util::Pool, the
//    size-class free lists coroutine frames share.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <new>
#include <span>
#include <vector>

#include "vmmc/util/pool.h"

namespace vmmc::util {

class Buffer {
 public:
  // Pool observability (see buffer_test.cpp and the allocation-count
  // tests): cumulative counters of Buffer blocks since process start.
  struct PoolStats {
    std::uint64_t allocs = 0;       // block requests (any source)
    std::uint64_t pool_hits = 0;    // ... served from a util::Pool free list
    std::uint64_t heap_allocs = 0;  // ... served by operator new
    std::uint64_t unshares = 0;     // copy-on-write deep copies
    std::int64_t live_blocks = 0;   // blocks currently referenced
  };

  Buffer() noexcept = default;

  // Implicit: vectors are how payload bytes are built in tests and
  // call sites predating Buffer; the conversion copies once.
  Buffer(const std::vector<std::uint8_t>& v)
      : Buffer(std::span<const std::uint8_t>(v)) {}
  Buffer(std::initializer_list<std::uint8_t> il)
      : Buffer(std::span<const std::uint8_t>(il.begin(), il.size())) {}
  explicit Buffer(std::span<const std::uint8_t> bytes) {
    if (!bytes.empty()) {
      block_ = Alloc(bytes.size());
      size_ = bytes.size();
      std::memcpy(block_->bytes(), bytes.data(), bytes.size());
    }
  }
  // Zero-filled buffer of `n` bytes.
  explicit Buffer(std::size_t n) {
    if (n != 0) {
      block_ = Alloc(n);
      size_ = n;
      std::memset(block_->bytes(), 0, n);
    }
  }
  // A buffer whose `n` bytes are uninitialized — for callers about to
  // overwrite the whole thing (DMA targets, encoders).
  static Buffer Uninitialized(std::size_t n) {
    Buffer b;
    if (n != 0) {
      b.block_ = Alloc(n);
      b.size_ = n;
    }
    return b;
  }

  Buffer(const Buffer& other) noexcept
      : block_(other.block_), size_(other.size_) {
    if (block_ != nullptr) ++block_->refs;
  }
  Buffer& operator=(const Buffer& other) noexcept {
    if (other.block_ != nullptr) ++other.block_->refs;
    Unref();
    block_ = other.block_;
    size_ = other.size_;
    return *this;
  }
  Buffer(Buffer&& other) noexcept : block_(other.block_), size_(other.size_) {
    other.block_ = nullptr;
    other.size_ = 0;
  }
  Buffer& operator=(Buffer&& other) noexcept {
    if (this != &other) {
      Unref();
      block_ = other.block_;
      size_ = other.size_;
      other.block_ = nullptr;
      other.size_ = 0;
    }
    return *this;
  }
  ~Buffer() { Unref(); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const std::uint8_t* data() const {
    return block_ != nullptr ? block_->bytes() : nullptr;
  }
  const std::uint8_t& operator[](std::size_t i) const {
    assert(i < size_);
    return block_->bytes()[i];
  }
  const std::uint8_t* begin() const { return data(); }
  const std::uint8_t* end() const { return data() + size_; }
  operator std::span<const std::uint8_t>() const { return {data(), size_}; }

  // True if no other Buffer shares the bytes (mutation won't copy).
  bool unique() const { return block_ == nullptr || block_->refs == 1; }

  // Write access to the bytes; un-shares first. nullptr when empty.
  std::uint8_t* MutableData() {
    if (block_ == nullptr) return nullptr;
    Unshare(size_);
    return block_->bytes();
  }

  // Grows zero-filled / shrinks. Shrinking never reallocates or copies.
  void resize(std::size_t n) {
    if (n <= size_) {
      size_ = n;
      if (n == 0) {
        Unref();
        block_ = nullptr;
      }
      return;
    }
    const std::size_t old = size_;
    if (block_ == nullptr) {
      block_ = Alloc(n);
    } else if (!unique() || block_->capacity < n) {
      Unshare(n);
    }
    size_ = n;
    std::memset(block_->bytes() + old, 0, n - old);
  }

  void assign(std::span<const std::uint8_t> bytes) {
    // Fresh content: no need to preserve old bytes, so drop a shared or
    // undersized block instead of copy-on-write.
    Reserve(bytes.size());
    size_ = bytes.size();
    if (!bytes.empty()) {
      std::memcpy(block_->bytes(), bytes.data(), bytes.size());
    }
  }
  void assign(std::size_t n, std::uint8_t value) {
    Reserve(n);
    size_ = n;
    if (n != 0) std::memset(block_->bytes(), value, n);
  }

  void clear() {
    Unref();
    block_ = nullptr;
    size_ = 0;
  }

  friend bool operator==(const Buffer& a, const Buffer& b) {
    return a.size_ == b.size_ &&
           (a.size_ == 0 ||
            std::memcmp(a.data(), b.data(), a.size_) == 0);
  }
  friend bool operator==(const Buffer& a, const std::vector<std::uint8_t>& b) {
    return a.size_ == b.size() &&
           (a.size_ == 0 || std::memcmp(a.data(), b.data(), a.size_) == 0);
  }
  friend bool operator==(const std::vector<std::uint8_t>& a, const Buffer& b) {
    return b == a;
  }

  static const PoolStats& pool_stats() { return stats_; }

 private:
  // Block header; payload bytes follow in the same util::Pool block,
  // whose size is sizeof(Block) + capacity.
  struct Block {
    std::uint32_t refs;
    std::size_t capacity;
    std::uint8_t* bytes() { return reinterpret_cast<std::uint8_t*>(this + 1); }
  };

  static constexpr std::size_t kMinCapacity = 64;

  static PoolStats stats_;  // defined below the class

  // A block holding at least max(n, 64) bytes; the capacity is whatever
  // the pool class leaves after the header.
  static Block* Alloc(std::size_t n) {
    PoolStats& s = stats_;
    ++s.allocs;
    ++s.live_blocks;
    const std::size_t bytes =
        Pool::ClassSize(sizeof(Block) + (n < kMinCapacity ? kMinCapacity : n));
    bool recycled = false;
    auto* b = static_cast<Block*>(Pool::Allocate(bytes, &recycled));
    ++(recycled ? s.pool_hits : s.heap_allocs);
    b->refs = 1;
    b->capacity = bytes - sizeof(Block);
    return b;
  }

  static void Release(Block* b) {
    --stats_.live_blocks;
    Pool::Free(b, sizeof(Block) + b->capacity);
  }

  void Unref() {
    if (block_ != nullptr && --block_->refs == 0) Release(block_);
  }

  // Ensures block_ is an unshared block of capacity >= n holding the
  // first size_ bytes of the current content.
  void Unshare(std::size_t n) {
    if (unique() && block_->capacity >= n) return;
    ++stats_.unshares;
    Block* fresh = Alloc(n);
    std::memcpy(fresh->bytes(), block_->bytes(), size_);
    Unref();
    block_ = fresh;
  }

  // Ensures block_ is an unshared block of capacity >= n; content is
  // NOT preserved (the caller overwrites it).
  void Reserve(std::size_t n) {
    if (block_ != nullptr && unique() && block_->capacity >= n) return;
    Unref();
    block_ = n != 0 ? Alloc(n) : nullptr;
  }

  Block* block_ = nullptr;
  std::size_t size_ = 0;
};

// Constant-initialized and trivially destructible, like util::Pool's
// free lists: no guard on access, no teardown-order hazard.
inline constinit Buffer::PoolStats Buffer::stats_{};

}  // namespace vmmc::util
