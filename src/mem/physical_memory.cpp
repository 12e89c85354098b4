#include "vmmc/mem/physical_memory.h"

#include <sys/mman.h>

#include <cassert>
#include <cstring>
#include <new>
#include <utility>

#include "vmmc/sim/rng.h"

namespace vmmc::mem {

PhysicalMemory::PhysicalMemory(std::uint64_t bytes, std::uint64_t scatter_seed)
    : num_frames_(bytes / kPageSize),
      allocated_(num_frames_),
      written_(num_frames_) {
  assert(bytes % kPageSize == 0);
  free_list_.reserve(num_frames_);
  // Fill descending so pops from the back yield ascending PFNs by default.
  for (std::uint64_t i = num_frames_; i > 0; --i) free_list_.push_back(i - 1);
  if (scatter_seed != 0) {
    sim::Rng rng(scatter_seed);
    for (std::size_t i = free_list_.size(); i > 1; --i) {
      std::swap(free_list_[i - 1],
                free_list_[static_cast<std::size_t>(rng.UniformU64(i))]);
    }
  }
  if (bytes == 0) return;
  // Private and unreserved: an untouched page costs nothing and reads as
  // the kernel's zero page. No transparent huge pages, or one store could
  // make 2 MB resident.
  void* map = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (map == MAP_FAILED) throw std::bad_alloc();
  (void)madvise(map, bytes, MADV_NOHUGEPAGE);  // fails harmlessly without THP
  bytes_ = static_cast<std::uint8_t*>(map);
}

PhysicalMemory::~PhysicalMemory() {
  while (watch_head_ != nullptr) Disarm(*watch_head_);
  if (bytes_ != nullptr) munmap(bytes_, size_bytes());
}

void PhysicalMemory::Arm(WriteWatch& w) {
  assert(w.armed_on == nullptr && w.begin < w.end && w.on_write != nullptr);
  w.armed_on = this;
  w.prev = watch_tail_;
  w.next = nullptr;
  if (watch_tail_ != nullptr) {
    watch_tail_->next = &w;
  } else {
    watch_head_ = &w;
  }
  watch_tail_ = &w;
}

void PhysicalMemory::Disarm(WriteWatch& w) {
  assert(w.armed_on == this);
  if (w.prev != nullptr) {
    w.prev->next = w.next;
  } else {
    watch_head_ = w.next;
  }
  if (w.next != nullptr) {
    w.next->prev = w.prev;
  } else {
    watch_tail_ = w.prev;
  }
  w.armed_on = nullptr;
  w.prev = nullptr;
  w.next = nullptr;
}

Result<Pfn> PhysicalMemory::AllocFrame() {
  if (free_list_.empty()) return ResourceExhausted("out of physical frames");
  Pfn pfn = free_list_.back();
  free_list_.pop_back();
  allocated_[pfn] = true;
  return pfn;
}

Status PhysicalMemory::FreeFrame(Pfn pfn) {
  if (!IsAllocated(pfn)) return InvalidArgument("frame not allocated");
  allocated_[pfn] = false;
  if (written_[pfn]) {
    std::memset(bytes_ + PageAddr(pfn), 0, kPageSize);
    written_[pfn] = false;
  }
  free_list_.push_back(pfn);
  return OkStatus();
}

Status PhysicalMemory::ReadPastEnd() {
  return OutOfRange("physical read past end of memory");
}

Status PhysicalMemory::Write(PhysAddr addr, std::span<const std::uint8_t> in) {
  if (in.empty()) return OkStatus();
  if (addr + in.size() > size_bytes() || addr + in.size() < addr) {
    return OutOfRange("physical write past end of memory");
  }
  std::memcpy(bytes_ + addr, in.data(), in.size());
  const PhysAddr end = addr + in.size();
  for (Pfn pfn = PageNumber(addr); pfn <= PageNumber(end - 1); ++pfn) {
    written_[pfn] = true;
  }
  for (WriteWatch* w = watch_head_; w != nullptr;) {
    WriteWatch* next = w->next;  // on_write may disarm `w`
    if (w->begin < end && addr < w->end) w->on_write(w->ctx);
    w = next;
  }
  return OkStatus();
}

}  // namespace vmmc::mem
