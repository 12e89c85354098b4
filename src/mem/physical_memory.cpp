#include "vmmc/mem/physical_memory.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "vmmc/sim/rng.h"

namespace vmmc::mem {

PhysicalMemory::PhysicalMemory(std::uint64_t bytes, std::uint64_t scatter_seed)
    : num_frames_(bytes / kPageSize) {
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
}

PhysicalMemory::~PhysicalMemory() {
  while (watch_head_ != nullptr) Disarm(*watch_head_);
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
  allocated_.insert(pfn);
  return pfn;
}

Status PhysicalMemory::FreeFrame(Pfn pfn) {
  if (!allocated_.erase(pfn)) return InvalidArgument("frame not allocated");
  backing_.erase(pfn);
  free_list_.push_back(pfn);
  return OkStatus();
}

PhysicalMemory::Frame* PhysicalMemory::BackingFor(Pfn pfn) const {
  auto it = backing_.find(pfn);
  return it == backing_.end() ? nullptr : it->second.get();
}

PhysicalMemory::Frame& PhysicalMemory::EnsureBacking(Pfn pfn) {
  auto& slot = backing_[pfn];
  if (!slot) {
    slot = std::make_unique<Frame>();
    slot->fill(0);
  }
  return *slot;
}

Status PhysicalMemory::Read(PhysAddr addr, std::span<std::uint8_t> out) const {
  if (out.empty()) return OkStatus();
  if (addr + out.size() > size_bytes() || addr + out.size() < addr) {
    return OutOfRange("physical read past end of memory");
  }
  std::size_t done = 0;
  while (done < out.size()) {
    const Pfn pfn = PageNumber(addr + done);
    const std::size_t off = PageOffset(addr + done);
    const std::size_t n = std::min(out.size() - done, kPageSize - off);
    if (const Frame* f = BackingFor(pfn)) {
      std::memcpy(out.data() + done, f->data() + off, n);
    } else {
      std::memset(out.data() + done, 0, n);
    }
    done += n;
  }
  return OkStatus();
}

Status PhysicalMemory::Write(PhysAddr addr, std::span<const std::uint8_t> in) {
  if (in.empty()) return OkStatus();
  if (addr + in.size() > size_bytes() || addr + in.size() < addr) {
    return OutOfRange("physical write past end of memory");
  }
  std::size_t done = 0;
  while (done < in.size()) {
    const Pfn pfn = PageNumber(addr + done);
    const std::size_t off = PageOffset(addr + done);
    const std::size_t n = std::min(in.size() - done, kPageSize - off);
    Frame& f = EnsureBacking(pfn);
    std::memcpy(f.data() + off, in.data() + done, n);
    done += n;
  }
  const PhysAddr end = addr + in.size();
  for (WriteWatch* w = watch_head_; w != nullptr;) {
    WriteWatch* next = w->next;  // on_write may disarm `w`
    if (w->begin < end && addr < w->end) w->on_write(w->ctx);
    w = next;
  }
  return OkStatus();
}

}  // namespace vmmc::mem
