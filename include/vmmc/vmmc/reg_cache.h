// Registration (pin-down) cache — the core idea of "User Mode Memory
// Page Management" (PAPERS.md), as used by MPICH2-over-InfiniBand: page
// pinning costs a kernel crossing plus a per-page walk, so the library
// keeps registrations alive after their last user and recycles them when
// the same buffer is transferred again. Steady-state transfers then do
// zero pin work.
//
// Entries are keyed by (start address, page count, intent) and
// refcounted: nested Acquires of the same range share one pin-down. A hit
// returns a region covering exactly the request; a longer request over
// the same pages grows the entry's length and its NIC region in place.
// Idle entries (refs == 0) sit on an intrusive LRU list and are evicted
// — unpinned — when the total pinned footprint exceeds the configured
// budget, or when the address space announces the range is going away
// (AddressSpace release listener: Unmap / HeapFree / FreeBuffer).
// Entries with live references are never evicted; an Unmap over them
// fails on the pin count, which is exactly the contract documented in
// address_space.h.
//
// The hit and release paths are allocation-free (the LRU list is
// intrusive); perf_guard_test asserts this.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "vmmc/host/kernel.h"
#include "vmmc/obs/metrics.h"
#include "vmmc/params.h"
#include "vmmc/vmmc/lcp.h"

namespace vmmc::vmmc_core {

// What the registration will be used for; determines the NIC-side setup.
enum class RegIntent : std::uint8_t {
  kSend = 1,  // DMA source: pin + prefill the process's software TLB
  kRecv = 2,  // DMA target: pin + enable incoming PT + rtag recv region
  kBoth = 3,
};

// A live registration handle. `rtag` is nonzero iff receive-capable
// (advertise it to remote writers/readers); `cache_id` retires the
// reference via RegCache::Release.
struct MemRegion {
  mem::VirtAddr va = 0;
  std::uint64_t len = 0;
  std::uint32_t rtag = 0;
  std::uint64_t cache_id = 0;
};

class RegCache {
 public:
  // `state` is the process's NIC-side state (for the TLB prefill);
  // `sim`/`node` bind the node<N>.regcache.* metrics, which every process
  // on the node counts into.
  RegCache(const Params& params, host::UserProcess& process, VmmcLcp& lcp,
           ProcState& state, sim::Simulator& sim, int node);
  ~RegCache();
  RegCache(const RegCache&) = delete;
  RegCache& operator=(const RegCache&) = delete;

  // Registers [va, va+len) for `intent`. The returned `cost` is the host
  // time the caller must charge (the pin-down syscall on a miss, a hash
  // probe on a hit) — RegCache itself never advances simulated time, so
  // it stays directly unit-testable.
  struct Acquisition {
    MemRegion region;
    sim::Tick cost = 0;
    bool hit = false;
  };
  Result<Acquisition> Acquire(mem::VirtAddr va, std::uint64_t len,
                              RegIntent intent);

  // Drops one reference. With the cache enabled the registration goes
  // idle (kept pinned, LRU-evictable); disabled, it is torn down on the
  // spot. Returns the host time to charge (0 on the cached path).
  Result<sim::Tick> Release(std::uint64_t cache_id);

  // Address-space release hook: evicts idle entries overlapping
  // [va, va+len). Entries with live references are left alone — the
  // caller's Unmap then fails on their pin counts.
  void InvalidateRange(mem::VirtAddr va, std::uint64_t len);

  std::uint64_t pinned_bytes() const { return pinned_bytes_; }
  // node<N>.regcache.{hit,miss,evict}: the node's totals.
  std::uint64_t hits() const { return hits_.value(); }
  std::uint64_t misses() const { return misses_.value(); }
  std::uint64_t evictions() const { return evictions_.value(); }
  std::size_t entry_count() const { return by_key_.size(); }

 private:
  struct Key {
    mem::VirtAddr va = 0;
    std::uint64_t pages = 0;
    std::uint8_t intent = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::uint64_t h = k.va * 0x9e3779b97f4a7c15ull;
      h ^= k.pages + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      return static_cast<std::size_t>(h ^ k.intent);
    }
  };
  struct Entry {
    Key key;
    std::uint64_t id = 0;
    std::uint32_t refs = 0;
    mem::VirtAddr va = 0;       // pinned range (pin/unpin args); len is
    std::uint64_t len = 0;      // the longest request seen so far
    std::uint64_t bytes = 0;    // pinned footprint: pages * kPageSize
    std::uint32_t rtag = 0;
    std::vector<mem::Pfn> frames;
    std::vector<bool> we_enabled;  // incoming-PT pages this entry enabled
    // Intrusive idle-LRU links (valid while refs == 0).
    Entry* lru_prev = nullptr;
    Entry* lru_next = nullptr;
  };

  // Cold registration: pin, NIC setup. Returns the charged cost.
  Result<sim::Tick> Register(Entry& e, RegIntent intent);
  // Full teardown of one entry (unpin + NIC teardown + map removal).
  void Destroy(Entry& e);
  // Entries over the same frames (different start addresses or page
  // counts) share the incoming-table enable of whichever enabled it
  // first. On teardown that one passes it to a live receive entry over
  // the frame, if any; returns false if there is none.
  bool HandOverEnabled(const Entry& from, mem::Pfn frame);
  void LruPushBack(Entry& e);
  void LruUnlink(Entry& e);
  // Evicts idle LRU entries until pinned_bytes_ + extra fits the budget
  // (or no idle entry remains).
  void EvictFor(std::uint64_t extra);
  void SetPinnedGauge();

  const Params& params_;
  host::UserProcess& process_;
  VmmcLcp& lcp_;
  ProcState& state_;
  sim::Simulator& sim_;  // for the gauge timestamps

  std::unordered_map<Key, std::unique_ptr<Entry>, KeyHash> by_key_;
  std::unordered_map<std::uint64_t, Entry*> by_id_;
  std::uint64_t next_id_ = 1;
  Entry* lru_head_ = nullptr;  // least recently idle
  Entry* lru_tail_ = nullptr;
  std::uint64_t pinned_bytes_ = 0;

  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& evictions_;
  obs::Gauge& pinned_gauge_;  // node<N>.regcache.pinned_bytes
};

}  // namespace vmmc::vmmc_core
