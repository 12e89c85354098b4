// Simulated physical memory of one node: a frame allocator plus byte
// storage in one anonymous host mapping, so a load, store or DMA is a
// bounds check and a memcpy. The allocator hands frames out in a
// deterministic scattered order, reproducing the fact (central to the
// paper's bandwidth analysis, section 5.2) that consecutive virtual pages
// are usually not physically contiguous, which caps DMA transfer units at
// one page.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "vmmc/mem/types.h"
#include "vmmc/util/status.h"

namespace vmmc::mem {

class PhysicalMemory;

// An observer of writes to [begin, end) of one PhysicalMemory: every Write
// overlapping the range — a host store or a NIC DMA alike — calls
// on_write(ctx) after the bytes land. Intrusive, so arming one allocates
// nothing; the owner keeps it alive while armed.
struct WriteWatch {
  PhysAddr begin = 0;
  PhysAddr end = 0;
  void (*on_write)(void* ctx) = nullptr;
  void* ctx = nullptr;
  // Managed by PhysicalMemory::Arm/Disarm.
  PhysicalMemory* armed_on = nullptr;
  WriteWatch* prev = nullptr;
  WriteWatch* next = nullptr;
};

class PhysicalMemory {
 public:
  // `bytes` must be page aligned. `scatter_seed` != 0 shuffles the frame
  // free list deterministically; 0 keeps it sequential. Reserves `bytes`
  // of host address space (std::bad_alloc if it cannot); a page becomes
  // resident only when first written.
  explicit PhysicalMemory(std::uint64_t bytes, std::uint64_t scatter_seed = 1);
  // Disarms any watch still armed, so its owner may outlive the memory.
  ~PhysicalMemory();
  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;

  std::uint64_t size_bytes() const { return num_frames_ * kPageSize; }
  std::uint64_t num_frames() const { return num_frames_; }
  std::uint64_t free_frames() const { return free_list_.size(); }

  Result<Pfn> AllocFrame();
  // Zeroes the frame if it was written, so it reads zeros when reused.
  Status FreeFrame(Pfn pfn);
  bool IsAllocated(Pfn pfn) const {
    return pfn < num_frames_ && allocated_[pfn];
  }

  // Byte access; may cross frame boundaries. Reads of never-written memory
  // return zeros. Out-of-range access is a checked failure.
  Status Read(PhysAddr addr, std::span<std::uint8_t> out) const {
    if (out.empty()) return OkStatus();
    if (addr + out.size() > size_bytes() || addr + out.size() < addr) {
      return ReadPastEnd();
    }
    std::memcpy(out.data(), bytes_ + addr, out.size());
    return OkStatus();
  }
  Status Write(PhysAddr addr, std::span<const std::uint8_t> in);

  // Watches are notified in arming order.
  void Arm(WriteWatch& w);
  void Disarm(WriteWatch& w);

 private:
  // Out of line, so the error message is not built in every inlined Read.
  static Status ReadPastEnd();

  std::uint64_t num_frames_;
  std::uint8_t* bytes_ = nullptr;  // frame `pfn` is at bytes_ + PageAddr(pfn)
  std::vector<Pfn> free_list_;     // popped from the back
  std::vector<bool> allocated_;
  std::vector<bool> written_;  // stored to since it was last zeroed
  WriteWatch* watch_head_ = nullptr;
  WriteWatch* watch_tail_ = nullptr;
};

}  // namespace vmmc::mem
