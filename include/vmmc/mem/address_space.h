// Per-process virtual address space: page table, byte access that walks the
// page table, page pinning (for DMA), and a small user heap so examples and
// benchmarks can allocate buffers the way a user program would.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "vmmc/mem/physical_memory.h"
#include "vmmc/mem/types.h"
#include "vmmc/util/status.h"

namespace vmmc::mem {

struct PageTableEntry {
  Pfn pfn = 0;
  bool writable = true;
  std::uint32_t pin_count = 0;  // >0: page may be a DMA source/target
};

// Virtual-to-physical mapping for one process: sorted, disjoint runs of
// consecutive VPNs, each a dense vector of slots. AddressSpace maps pages
// at two growing cursors (the heap's and the mmap region's), so it has at
// most two runs and a lookup is a range check plus an index. An Insert may
// move entries: no pointer from Find outlives the next Insert.
class PageTable {
 public:
  bool Contains(Vpn vpn) const { return Find(vpn) != nullptr; }
  const PageTableEntry* Find(Vpn vpn) const {
    const Slot* slot = SlotFor(vpn);
    return slot != nullptr && slot->present ? &slot->entry : nullptr;
  }
  PageTableEntry* Find(Vpn vpn) {
    return const_cast<PageTableEntry*>(std::as_const(*this).Find(vpn));
  }
  Status Insert(Vpn vpn, PageTableEntry entry);
  Status Erase(Vpn vpn);
  std::size_t size() const { return size_; }

  template <typename Fn>  // Fn(Vpn, const PageTableEntry&)
  void ForEach(Fn&& fn) const {
    // In VPN order: the destructor frees frames through this, and
    // frame-free order feeds the physical allocator's reuse order.
    for (const Run& run : runs_) {
      for (std::size_t i = 0; i < run.slots.size(); ++i) {
        if (run.slots[i].present) fn(run.base + i, run.slots[i].entry);
      }
    }
  }
  void Clear() {
    runs_.clear();
    size_ = 0;
  }

 private:
  struct Slot {
    PageTableEntry entry;
    bool present = false;
  };
  struct Run {  // VPNs [base, base + slots.size())
    Vpn base = 0;
    std::vector<Slot> slots;
  };

  // The slot for `vpn`, present or not; nullptr outside every run.
  const Slot* SlotFor(Vpn vpn) const {
    for (const Run& run : runs_) {
      if (vpn - run.base < run.slots.size()) return &run.slots[vpn - run.base];
    }
    return nullptr;
  }

  std::vector<Run> runs_;  // sorted by base, disjoint
  std::size_t size_ = 0;   // present slots
};

class AddressSpace {
 public:
  explicit AddressSpace(PhysicalMemory& pm);
  ~AddressSpace();
  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  PhysicalMemory& physical_memory() { return pm_; }
  const PageTable& page_table() const { return pt_; }

  // Maps `len` bytes (rounded up to pages) of fresh zeroed memory and
  // returns the base virtual address. Frames come from the scattered
  // allocator, so they are generally not physically contiguous.
  Result<VirtAddr> MapAnonymous(std::uint64_t len, bool writable = true);
  // Unmaps previously mapped pages and frees their frames.
  //
  // Pinned-page semantics, precisely: release listeners (below) fire
  // first, giving caches a chance to drop *idle* pins they hold over the
  // range. After that, if any page in the range is still pinned — an
  // export, an in-flight DMA, or an actively referenced registration —
  // Unmap returns FailedPrecondition and unmaps nothing (the operation
  // is atomic: either every page goes or none does).
  Status Unmap(VirtAddr va, std::uint64_t len);

  // Release listeners: invoked synchronously (no sim-time cost) with the
  // affected [va, va+len) range at the start of Unmap and HeapFree,
  // before any validation. The VMMC registration cache subscribes to
  // invalidate cached pin-downs: entries with no active references are
  // unpinned on the spot so the unmap can proceed; entries still in use
  // keep their pins and Unmap fails as described above. HeapFree never
  // unmaps (heap pages stay resident), but listeners must still treat
  // the range as dead — the block can be handed out again by the next
  // HeapAlloc.
  using ReleaseListener = std::function<void(VirtAddr va, std::uint64_t len)>;
  void AddReleaseListener(ReleaseListener fn);

  // Page-table walk for one address.
  Result<PhysAddr> Translate(VirtAddr va) const;
  // Translation that requires the page to be pinned (used by DMA paths).
  Result<PhysAddr> TranslatePinned(VirtAddr va) const;

  // Byte access through the page table; may cross page boundaries.
  Status Read(VirtAddr va, std::span<std::uint8_t> out) const;
  Status Write(VirtAddr va, std::span<const std::uint8_t> in);

  // Typed helpers for word-sized accesses (completion words, flags).
  Result<std::uint32_t> ReadU32(VirtAddr va) const;
  Status WriteU32(VirtAddr va, std::uint32_t value);

  // Pin/unpin every page overlapping [va, va+len). Pins nest.
  Status Pin(VirtAddr va, std::uint64_t len);
  Status Unpin(VirtAddr va, std::uint64_t len);

  // User heap: first-fit allocator over an arena that grows page-wise.
  Result<VirtAddr> HeapAlloc(std::uint64_t len, std::uint64_t align = 16);
  Status HeapFree(VirtAddr va);

 private:
  void NotifyRelease(VirtAddr va, std::uint64_t len);

  PhysicalMemory& pm_;
  PageTable pt_;
  std::vector<ReleaseListener> release_listeners_;
  VirtAddr next_map_ = 0x1000'0000;  // mmap region cursor

  // Heap bookkeeping: free blocks keyed by address, plus allocation sizes.
  static constexpr VirtAddr kHeapBase = 0x0800'0000;
  VirtAddr heap_end_ = kHeapBase;  // first unmapped heap address
  std::map<VirtAddr, std::uint64_t> heap_free_;
  std::unordered_map<VirtAddr, std::uint64_t> heap_allocs_;
};

}  // namespace vmmc::mem
