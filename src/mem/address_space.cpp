#include "vmmc/mem/address_space.h"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace vmmc::mem {

Status PageTable::Insert(Vpn vpn, PageTableEntry entry) {
  auto next =
      std::upper_bound(runs_.begin(), runs_.end(), vpn,
                       [](Vpn v, const Run& run) { return v < run.base; });
  // Grow the run before if `vpn` is in it or just past its end; otherwise
  // start an empty run at `vpn`.
  if (next == runs_.begin() ||
      vpn - std::prev(next)->base > std::prev(next)->slots.size()) {
    next = std::next(runs_.insert(next, Run{vpn, {}}));
  }
  Run& run = *std::prev(next);
  const std::size_t i = vpn - run.base;
  if (i == run.slots.size()) run.slots.emplace_back();
  Slot& slot = run.slots[i];
  if (slot.present) return AlreadyExists("vpn already mapped");
  slot = Slot{entry, true};
  ++size_;
  return OkStatus();
}

Status PageTable::Erase(Vpn vpn) {
  Slot* slot = const_cast<Slot*>(SlotFor(vpn));
  if (slot == nullptr || !slot->present) return NotFound("vpn not mapped");
  if (slot->entry.pin_count > 0) {
    return FailedPrecondition("cannot unmap pinned page");
  }
  slot->present = false;
  --size_;
  return OkStatus();
}

AddressSpace::AddressSpace(PhysicalMemory& pm) : pm_(pm) {}

AddressSpace::~AddressSpace() {
  // Process teardown releases every frame; pins die with the process.
  pt_.ForEach([this](Vpn, const PageTableEntry& e) { (void)pm_.FreeFrame(e.pfn); });
  pt_.Clear();
}

Result<VirtAddr> AddressSpace::MapAnonymous(std::uint64_t len, bool writable) {
  if (len == 0) return InvalidArgument("cannot map zero bytes");
  const std::uint64_t pages = RoundUpToPage(len) / kPageSize;
  const VirtAddr base = next_map_;
  for (std::uint64_t i = 0; i < pages; ++i) {
    auto pfn = pm_.AllocFrame();
    if (!pfn.ok()) {
      // Roll back what we mapped so far.
      for (std::uint64_t j = 0; j < i; ++j) {
        Vpn vpn = PageNumber(base) + j;
        if (const PageTableEntry* e = pt_.Find(vpn)) {
          (void)pm_.FreeFrame(e->pfn);
          (void)pt_.Erase(vpn);
        }
      }
      return pfn.status();
    }
    PageTableEntry entry;
    entry.pfn = pfn.value();
    entry.writable = writable;
    Status s = pt_.Insert(PageNumber(base) + i, entry);
    assert(s.ok());
    (void)s;
  }
  next_map_ = base + pages * kPageSize;
  return base;
}

void AddressSpace::AddReleaseListener(ReleaseListener fn) {
  release_listeners_.push_back(std::move(fn));
}

void AddressSpace::NotifyRelease(VirtAddr va, std::uint64_t len) {
  for (const auto& fn : release_listeners_) fn(va, len);
}

Status AddressSpace::Unmap(VirtAddr va, std::uint64_t len) {
  if (PageOffset(va) != 0) return InvalidArgument("unmap base not page aligned");
  // Let registration caches drop idle pins over the range before the
  // pinned-page validation below; pins still held after this are live
  // (exports, active registrations) and veto the unmap.
  NotifyRelease(va, len);
  const std::uint64_t pages = RoundUpToPage(len) / kPageSize;
  // Validate first so the operation is atomic.
  for (std::uint64_t i = 0; i < pages; ++i) {
    const PageTableEntry* e = pt_.Find(PageNumber(va) + i);
    if (e == nullptr) return NotFound("unmap of unmapped page");
    if (e->pin_count > 0) return FailedPrecondition("unmap of pinned page");
  }
  for (std::uint64_t i = 0; i < pages; ++i) {
    Vpn vpn = PageNumber(va) + i;
    const PageTableEntry* e = pt_.Find(vpn);
    (void)pm_.FreeFrame(e->pfn);
    (void)pt_.Erase(vpn);
  }
  return OkStatus();
}

Result<PhysAddr> AddressSpace::Translate(VirtAddr va) const {
  const PageTableEntry* e = pt_.Find(PageNumber(va));
  if (e == nullptr) return NotFound("virtual address not mapped");
  return PageAddr(e->pfn) + PageOffset(va);
}

Result<PhysAddr> AddressSpace::TranslatePinned(VirtAddr va) const {
  const PageTableEntry* e = pt_.Find(PageNumber(va));
  if (e == nullptr) return NotFound("virtual address not mapped");
  if (e->pin_count == 0) return FailedPrecondition("page not pinned");
  return PageAddr(e->pfn) + PageOffset(va);
}

Status AddressSpace::Read(VirtAddr va, std::span<std::uint8_t> out) const {
  std::size_t done = 0;
  while (done < out.size()) {
    const PageTableEntry* e = pt_.Find(PageNumber(va + done));
    if (e == nullptr) return NotFound("virtual address not mapped");
    const std::size_t n =
        std::min(out.size() - done, kPageSize - PageOffset(va + done));
    Status s = pm_.Read(PageAddr(e->pfn) + PageOffset(va + done),
                        out.subspan(done, n));
    if (!s.ok()) return s;
    done += n;
  }
  return OkStatus();
}

Status AddressSpace::Write(VirtAddr va, std::span<const std::uint8_t> in) {
  std::size_t done = 0;
  while (done < in.size()) {
    const PageTableEntry* e = pt_.Find(PageNumber(va + done));
    if (e == nullptr) return NotFound("virtual address not mapped");
    if (!e->writable) return PermissionDenied("write to read-only page");
    const std::size_t n =
        std::min(in.size() - done, kPageSize - PageOffset(va + done));
    Status s = pm_.Write(PageAddr(e->pfn) + PageOffset(va + done),
                         in.subspan(done, n));
    if (!s.ok()) return s;
    done += n;
  }
  return OkStatus();
}

Result<std::uint32_t> AddressSpace::ReadU32(VirtAddr va) const {
  std::uint8_t buf[4];
  Status s = Read(va, buf);
  if (!s.ok()) return s;
  return std::uint32_t{buf[0]} | (std::uint32_t{buf[1]} << 8) |
         (std::uint32_t{buf[2]} << 16) | (std::uint32_t{buf[3]} << 24);
}

Status AddressSpace::WriteU32(VirtAddr va, std::uint32_t value) {
  std::uint8_t buf[4] = {
      static_cast<std::uint8_t>(value),
      static_cast<std::uint8_t>(value >> 8),
      static_cast<std::uint8_t>(value >> 16),
      static_cast<std::uint8_t>(value >> 24),
  };
  return Write(va, buf);
}

Status AddressSpace::Pin(VirtAddr va, std::uint64_t len) {
  if (len == 0) return OkStatus();
  const Vpn first = PageNumber(va);
  const Vpn last = PageNumber(va + len - 1);
  for (Vpn vpn = first; vpn <= last; ++vpn) {
    if (!pt_.Contains(vpn)) return NotFound("pin of unmapped page");
  }
  for (Vpn vpn = first; vpn <= last; ++vpn) ++pt_.Find(vpn)->pin_count;
  return OkStatus();
}

Status AddressSpace::Unpin(VirtAddr va, std::uint64_t len) {
  if (len == 0) return OkStatus();
  const Vpn first = PageNumber(va);
  const Vpn last = PageNumber(va + len - 1);
  for (Vpn vpn = first; vpn <= last; ++vpn) {
    PageTableEntry* e = pt_.Find(vpn);
    if (e == nullptr || e->pin_count == 0) {
      return FailedPrecondition("unpin of page that is not pinned");
    }
  }
  for (Vpn vpn = first; vpn <= last; ++vpn) --pt_.Find(vpn)->pin_count;
  return OkStatus();
}

Result<VirtAddr> AddressSpace::HeapAlloc(std::uint64_t len, std::uint64_t align) {
  if (len == 0) return InvalidArgument("zero-size allocation");
  if (align == 0 || (align & (align - 1)) != 0) {
    return InvalidArgument("alignment must be a power of two");
  }
  len = (len + 15) & ~std::uint64_t{15};  // keep blocks 16-byte granular

  // First fit over the free list, accounting for alignment padding.
  for (auto it = heap_free_.begin(); it != heap_free_.end(); ++it) {
    const VirtAddr block = it->first;
    const std::uint64_t size = it->second;
    const VirtAddr aligned = (block + align - 1) & ~(align - 1);
    const std::uint64_t pad = aligned - block;
    if (size < pad + len) continue;
    heap_free_.erase(it);
    if (pad > 0) heap_free_.emplace(block, pad);
    if (size > pad + len) heap_free_.emplace(aligned + len, size - pad - len);
    heap_allocs_.emplace(aligned, len);
    return aligned;
  }

  // Grow the arena. Map enough pages for the worst-case aligned block.
  const std::uint64_t want = RoundUpToPage(len + align);
  const std::uint64_t pages = want / kPageSize;
  for (std::uint64_t i = 0; i < pages; ++i) {
    auto pfn = pm_.AllocFrame();
    if (!pfn.ok()) return pfn.status();
    PageTableEntry entry;
    entry.pfn = pfn.value();
    Status s = pt_.Insert(PageNumber(heap_end_) + i, entry);
    assert(s.ok());
    (void)s;
  }
  const VirtAddr block = heap_end_;
  heap_end_ += want;
  const VirtAddr aligned = (block + align - 1) & ~(align - 1);
  const std::uint64_t pad = aligned - block;
  if (pad > 0) heap_free_.emplace(block, pad);
  if (want > pad + len) heap_free_.emplace(aligned + len, want - pad - len);
  heap_allocs_.emplace(aligned, len);
  return aligned;
}

Status AddressSpace::HeapFree(VirtAddr va) {
  auto it = heap_allocs_.find(va);
  if (it == heap_allocs_.end()) return InvalidArgument("free of unallocated block");
  VirtAddr addr = va;
  std::uint64_t size = it->second;
  // Heap pages stay mapped, but the block may be reallocated immediately:
  // any cached registration over it is stale from here on.
  NotifyRelease(va, size);
  heap_allocs_.erase(it);

  // Coalesce with neighbours.
  auto next = heap_free_.lower_bound(addr);
  if (next != heap_free_.end() && addr + size == next->first) {
    size += next->second;
    next = heap_free_.erase(next);
  }
  if (next != heap_free_.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second == addr) {
      addr = prev->first;
      size += prev->second;
      heap_free_.erase(prev);
    }
  }
  heap_free_.emplace(addr, size);
  return OkStatus();
}

}  // namespace vmmc::mem
