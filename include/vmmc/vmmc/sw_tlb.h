// The software TLB the VMMC LCP keeps in LANai SRAM for each process
// (§4.5): virtual-to-physical, two-way set associative, large enough for
// 8 MB of address space at 4 KB pages (2048 entries). On a miss the LANai
// interrupts the host and the driver inserts up to 32 translations.
#pragma once

#include <cstdint>
#include <vector>

#include "vmmc/mem/types.h"
#include "vmmc/obs/metrics.h"

namespace vmmc::vmmc_core {

class SwTlb {
 public:
  // Where hit/miss/eviction accounting goes: the owner's registry
  // counters (node<N>.tlb.{hit,miss,eviction} in a cluster, shared by
  // every process on the NIC).
  struct Counters {
    obs::Counter& hits;
    obs::Counter& misses;
    obs::Counter& evictions;
  };

  // `total_entries` must be a multiple of `ways`.
  SwTlb(std::uint32_t total_entries, std::uint32_t ways, Counters counters);

  std::uint32_t capacity() const {
    return static_cast<std::uint32_t>(sets_.size());
  }
  std::uint32_t ways() const { return ways_; }
  std::uint32_t num_sets() const { return static_cast<std::uint32_t>(sets_.size() / ways_); }

  // Returns true and fills *pfn on a hit (updates LRU).
  bool Lookup(mem::Vpn vpn, mem::Pfn* pfn);

  // Inserts (replacing the LRU way of the set if full).
  void Insert(mem::Vpn vpn, mem::Pfn pfn);

  // Drops one translation / everything (unpin / process teardown).
  void Invalidate(mem::Vpn vpn);
  void InvalidateAll();

  std::uint64_t hits() const { return counters_.hits.value(); }
  std::uint64_t misses() const { return counters_.misses.value(); }
  std::uint64_t evictions() const { return counters_.evictions.value(); }
  std::uint32_t valid_entries() const;

 private:
  struct Way {
    bool valid = false;
    mem::Vpn vpn = 0;
    mem::Pfn pfn = 0;
    std::uint64_t last_used = 0;
  };

  std::size_t SetBase(mem::Vpn vpn) const {
    return static_cast<std::size_t>(vpn % num_sets()) * ways_;
  }

  std::uint32_t ways_;
  std::vector<Way> sets_;  // num_sets * ways, flattened
  std::uint64_t clock_ = 0;
  Counters counters_;
};

}  // namespace vmmc::vmmc_core
