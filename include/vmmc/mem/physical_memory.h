// Simulated physical memory of one node: a frame allocator plus lazily
// backed byte storage. The allocator hands frames out in a deterministic
// scattered order, reproducing the fact (central to the paper's bandwidth
// analysis, section 5.2) that consecutive virtual pages are usually not
// physically contiguous, which caps DMA transfer units at one page.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
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
  // free list deterministically; 0 keeps it sequential.
  explicit PhysicalMemory(std::uint64_t bytes, std::uint64_t scatter_seed = 1);
  // Disarms any watch still armed, so its owner may outlive the memory.
  ~PhysicalMemory();
  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;

  std::uint64_t size_bytes() const { return num_frames_ * kPageSize; }
  std::uint64_t num_frames() const { return num_frames_; }
  std::uint64_t free_frames() const { return free_list_.size(); }

  Result<Pfn> AllocFrame();
  Status FreeFrame(Pfn pfn);
  bool IsAllocated(Pfn pfn) const { return allocated_.contains(pfn); }

  // Byte access; may cross frame boundaries. Reads of never-written memory
  // return zeros. Out-of-range access is a checked failure.
  Status Read(PhysAddr addr, std::span<std::uint8_t> out) const;
  Status Write(PhysAddr addr, std::span<const std::uint8_t> in);

  // Watches are notified in arming order.
  void Arm(WriteWatch& w);
  void Disarm(WriteWatch& w);

 private:
  using Frame = std::array<std::uint8_t, kPageSize>;

  Frame* BackingFor(Pfn pfn) const;  // nullptr if untouched
  Frame& EnsureBacking(Pfn pfn);

  std::uint64_t num_frames_;
  std::vector<Pfn> free_list_;  // popped from the back
  std::unordered_set<Pfn> allocated_;
  mutable std::unordered_map<Pfn, std::unique_ptr<Frame>> backing_;
  WriteWatch* watch_head_ = nullptr;
  WriteWatch* watch_tail_ = nullptr;
};

}  // namespace vmmc::mem
