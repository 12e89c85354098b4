// Ring<T>: a FIFO over one power-of-two array that keeps its capacity.
//
// The per-packet queues of the simulated stack (Mailbox items and
// waiters, Semaphore waiters, switch output queues, the go-back-N
// retransmit list, the LCP send queue) push at the back and pop at the
// front millions of times per run. std::deque frees and reallocates a
// chunk every few hundred elements as the queue slides along; a Ring
// allocates only when it grows past its largest size so far, so a warm
// queue never touches the heap.
//
// Under AddressSanitizer every slot not holding an element is poisoned,
// so a read through a stale front() reference after a pop trips it like
// a use after free.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <utility>

#include "vmmc/util/pool.h"  // VMMC_ASAN_POISON / VMMC_ASAN_UNPOISON

namespace vmmc::util {

template <typename T>
class Ring {
 public:
  Ring() noexcept = default;
  Ring(Ring&& other) noexcept
      : slots_(std::exchange(other.slots_, nullptr)),
        cap_(std::exchange(other.cap_, 0)),
        head_(std::exchange(other.head_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  Ring& operator=(Ring&& other) noexcept {
    if (this != &other) {
      Destroy();
      slots_ = std::exchange(other.slots_, nullptr);
      cap_ = std::exchange(other.cap_, 0);
      head_ = std::exchange(other.head_, 0);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;
  ~Ring() { Destroy(); }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return cap_; }

  T& operator[](std::size_t i) {
    assert(i < size_);
    return slots_[(head_ + i) & (cap_ - 1)];
  }
  const T& operator[](std::size_t i) const {
    assert(i < size_);
    return slots_[(head_ + i) & (cap_ - 1)];
  }
  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == cap_) Grow();
    T* slot = slots_ + ((head_ + size_) & (cap_ - 1));
    VMMC_ASAN_UNPOISON(slot, sizeof(T));
    ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }
  void push_back(T value) { emplace_back(std::move(value)); }

  void pop_front() {
    assert(size_ > 0);
    T* slot = slots_ + head_;
    slot->~T();
    VMMC_ASAN_POISON(slot, sizeof(T));
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
  }

  // Destroys every element; keeps the storage.
  void clear() {
    while (size_ > 0) pop_front();
    head_ = 0;
  }

 private:
  // Doubles the storage (8 slots at first), moving the elements to its
  // front in FIFO order.
  void Grow() {
    const std::size_t cap = cap_ == 0 ? 8 : 2 * cap_;
    T* fresh = std::allocator<T>().allocate(cap);
    VMMC_ASAN_POISON(fresh, cap * sizeof(T));
    for (std::size_t i = 0; i < size_; ++i) {
      T* from = slots_ + ((head_ + i) & (cap_ - 1));
      VMMC_ASAN_UNPOISON(fresh + i, sizeof(T));
      ::new (static_cast<void*>(fresh + i)) T(std::move(*from));
      from->~T();
    }
    Release();
    slots_ = fresh;
    cap_ = cap;
    head_ = 0;
  }

  void Destroy() {
    clear();
    Release();
  }

  void Release() {
    if (slots_ == nullptr) return;
    VMMC_ASAN_UNPOISON(slots_, cap_ * sizeof(T));
    std::allocator<T>().deallocate(slots_, cap_);
    slots_ = nullptr;
    cap_ = 0;
  }

  T* slots_ = nullptr;
  std::size_t cap_ = 0;  // 0 or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace vmmc::util
