#include "vmmc/vmmc/sw_tlb.h"

#include <cassert>

namespace vmmc::vmmc_core {

SwTlb::SwTlb(std::uint32_t total_entries, std::uint32_t ways,
             Counters counters)
    : ways_(ways), sets_(total_entries), counters_(counters) {
  assert(ways > 0 && total_entries % ways == 0);
}

bool SwTlb::Lookup(mem::Vpn vpn, mem::Pfn* pfn) {
  const std::size_t base = SetBase(vpn);
  for (std::uint32_t w = 0; w < ways_; ++w) {
    Way& way = sets_[base + w];
    if (way.valid && way.vpn == vpn) {
      way.last_used = ++clock_;
      if (pfn != nullptr) *pfn = way.pfn;
      counters_.hits.Inc();
      return true;
    }
  }
  counters_.misses.Inc();
  return false;
}

void SwTlb::Insert(mem::Vpn vpn, mem::Pfn pfn) {
  const std::size_t base = SetBase(vpn);
  Way* victim = &sets_[base];
  for (std::uint32_t w = 0; w < ways_; ++w) {
    Way& way = sets_[base + w];
    if (way.valid && way.vpn == vpn) {  // refresh existing
      way.pfn = pfn;
      way.last_used = ++clock_;
      return;
    }
    if (!way.valid) {
      victim = &way;
    } else if (victim->valid && way.last_used < victim->last_used) {
      victim = &way;
    }
  }
  if (victim->valid) counters_.evictions.Inc();
  *victim = Way{true, vpn, pfn, ++clock_};
}

void SwTlb::Invalidate(mem::Vpn vpn) {
  const std::size_t base = SetBase(vpn);
  for (std::uint32_t w = 0; w < ways_; ++w) {
    Way& way = sets_[base + w];
    if (way.valid && way.vpn == vpn) way.valid = false;
  }
}

void SwTlb::InvalidateAll() {
  for (Way& way : sets_) way.valid = false;
}

std::uint32_t SwTlb::valid_entries() const {
  std::uint32_t n = 0;
  for (const Way& way : sets_) n += way.valid ? 1 : 0;
  return n;
}

}  // namespace vmmc::vmmc_core
