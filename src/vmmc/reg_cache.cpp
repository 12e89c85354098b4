#include "vmmc/vmmc/reg_cache.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "vmmc/mem/address_space.h"
#include "vmmc/sim/simulator.h"

namespace vmmc::vmmc_core {

namespace {
bool WantsSend(RegIntent i) { return i != RegIntent::kRecv; }
bool WantsRecv(RegIntent i) { return i != RegIntent::kSend; }

std::string RegCacheMetric(int node, const char* leaf) {
  return "node" + std::to_string(node) + ".regcache." + leaf;
}
}  // namespace

RegCache::RegCache(const Params& params, host::UserProcess& process,
                   VmmcLcp& lcp, ProcState& state, sim::Simulator& sim,
                   int node)
    : params_(params),
      process_(process),
      lcp_(lcp),
      state_(state),
      sim_(sim),
      hits_(sim.metrics().GetCounter(RegCacheMetric(node, "hit"))),
      misses_(sim.metrics().GetCounter(RegCacheMetric(node, "miss"))),
      evictions_(sim.metrics().GetCounter(RegCacheMetric(node, "evict"))),
      pinned_gauge_(
          sim.metrics().GetGauge(RegCacheMetric(node, "pinned_bytes"))) {}

RegCache::~RegCache() {
  // Process teardown: drop everything, active registrations included — in
  // id (allocation) order, so unpin accounting never depends on hash order.
  std::vector<std::uint64_t> ids;
  ids.reserve(by_id_.size());
  // vmmc-lint: allow(unordered-iter): ids are sorted below before visiting
  for (const auto& [id, entry] : by_id_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (std::uint64_t id : ids) {
    Entry* e = by_id_.at(id);
    if (e->refs == 0) LruUnlink(*e);
    Destroy(*e);
  }
}

Result<RegCache::Acquisition> RegCache::Acquire(mem::VirtAddr va,
                                                std::uint64_t len,
                                                RegIntent intent) {
  if (len == 0) return InvalidArgument("cannot register an empty range");
  const RegCacheParams& rc = params_.vmmc.regcache;
  const Key key{va, mem::PagesSpanned(va, len),
                static_cast<std::uint8_t>(intent)};

  if (rc.enabled) {
    auto it = by_key_.find(key);
    if (it != by_key_.end()) {
      Entry& e = *it->second;
      if (len > e.len) {
        // Same pages, longer tail: the pins and frames already cover it;
        // only the NIC region's bound moves.
        if (e.rtag != 0) {
          if (Status s = lcp_.GrowRecvRegion(e.rtag, len); !s.ok()) return s;
        }
        e.len = len;
      }
      if (e.refs == 0) LruUnlink(e);
      ++e.refs;
      hits_.Inc();
      return Acquisition{MemRegion{va, len, e.rtag, e.id}, rc.hit_lookup, true};
    }
  }

  // Cold path: make room first, then pin and set up the NIC state.
  const std::uint64_t bytes = key.pages * mem::kPageSize;
  if (rc.enabled) EvictFor(bytes);

  auto e = std::make_unique<Entry>();
  e->key = key;
  e->id = next_id_++;
  e->refs = 1;
  e->va = va;
  e->len = len;
  e->bytes = bytes;
  auto cost = Register(*e, intent);
  if (!cost.ok()) return cost.status();

  misses_.Inc();
  pinned_bytes_ += bytes;
  SetPinnedGauge();
  Entry* raw = e.get();
  by_id_.emplace(raw->id, raw);
  by_key_.emplace(key, std::move(e));
  return Acquisition{MemRegion{raw->va, raw->len, raw->rtag, raw->id},
                     cost.value(), false};
}

Result<sim::Tick> RegCache::Release(std::uint64_t cache_id) {
  auto it = by_id_.find(cache_id);
  if (it == by_id_.end()) return NotFound("unknown registration handle");
  Entry& e = *it->second;
  if (e.refs == 0) return FailedPrecondition("registration already released");
  if (--e.refs > 0) return sim::Tick{0};

  if (!params_.vmmc.regcache.enabled) {
    // Ablation / cold mode: tear down immediately — unpin syscall.
    const sim::Tick cost = params_.host.syscall;
    Destroy(e);
    return cost;
  }
  LruPushBack(e);
  EvictFor(0);  // an earlier over-budget miss may now be reclaimable
  return sim::Tick{0};
}

void RegCache::InvalidateRange(mem::VirtAddr va, std::uint64_t len) {
  if (len == 0) return;
  const mem::Vpn lo = mem::PageNumber(va);
  const mem::Vpn hi = mem::PageNumber(va + len - 1);
  // The map is small (tens of entries); a linear scan keeps the common
  // Unmap path simple. Only idle entries may be dropped here.
  Entry* e = lru_head_;
  while (e != nullptr) {
    Entry* next = e->lru_next;
    const mem::Vpn e_lo = mem::PageNumber(e->va);
    const mem::Vpn e_hi = e_lo + e->key.pages - 1;
    if (e_lo <= hi && lo <= e_hi) {
      LruUnlink(*e);
      evictions_.Inc();
      Destroy(*e);
    }
    e = next;
  }
}

Result<sim::Tick> RegCache::Register(Entry& e, RegIntent intent) {
  mem::AddressSpace& as = process_.address_space();
  if (Status s = as.Pin(e.va, e.len); !s.ok()) return s;

  // Walk the now-pinned pages to collect frames.
  const mem::Vpn first_vpn = mem::PageNumber(e.va);
  e.frames.reserve(e.key.pages);
  for (std::uint64_t p = 0; p < e.key.pages; ++p) {
    auto pa = as.TranslatePinned(mem::PageAddr(first_vpn + p));
    if (!pa.ok()) {
      as.Unpin(e.va, e.len);
      return pa.status();
    }
    e.frames.push_back(mem::PageNumber(pa.value()));
  }

  // Pin-down call: one kernel crossing plus a per-page walk.
  sim::Tick cost = params_.host.syscall +
                   static_cast<sim::Tick>(e.key.pages) *
                       params_.vmmc.regcache.pin_page;

  if (WantsSend(intent)) {
    // Prefill the NIC's software TLB so the first send takes no miss
    // interrupt. The driver writes SRAM over PIO, one word per entry.
    for (std::uint64_t p = 0; p < e.key.pages; ++p) {
      state_.tlb().Insert(first_vpn + p, e.frames[p]);
    }
    cost += static_cast<sim::Tick>(e.key.pages) * params_.pci.pio_write;
  }

  if (WantsRecv(intent)) {
    // Enable delivery into frames an export has not already enabled, and
    // publish the region under an rtag for one-sided peers.
    e.we_enabled.assign(e.frames.size(), false);
    for (std::size_t p = 0; p < e.frames.size(); ++p) {
      const IncomingEntry* in = lcp_.incoming().Find(e.frames[p]);
      if (in != nullptr && in->recv_enabled) continue;
      if (Status s = lcp_.incoming().Enable(e.frames[p], /*notify=*/false,
                                            process_.pid(), /*export_id=*/0);
          !s.ok()) {
        for (std::size_t q = 0; q < p; ++q) {
          if (e.we_enabled[q]) lcp_.incoming().Disable(e.frames[q]);
        }
        as.Unpin(e.va, e.len);
        return s;
      }
      e.we_enabled[p] = true;
    }
    auto rtag = lcp_.CreateRecvRegion(process_.pid(), mem::PageOffset(e.va),
                                      e.len, e.frames);
    if (!rtag.ok()) {
      for (std::size_t p = 0; p < e.frames.size(); ++p) {
        if (e.we_enabled[p]) lcp_.incoming().Disable(e.frames[p]);
      }
      as.Unpin(e.va, e.len);
      return rtag.status();
    }
    e.rtag = rtag.value();
    cost += static_cast<sim::Tick>(2 + e.frames.size()) * params_.pci.pio_write;
  }
  return cost;
}

bool RegCache::HandOverEnabled(const Entry& from, mem::Pfn frame) {
  // Any heir works: the frame stays enabled until the last receive
  // registration over it goes, whichever order they go in.
  // vmmc-lint: allow(unordered-iter): the result does not depend on order
  for (auto& [id, other] : by_id_) {
    if (other == &from || other->we_enabled.empty()) continue;
    for (std::size_t q = 0; q < other->frames.size(); ++q) {
      if (other->frames[q] == frame) {
        other->we_enabled[q] = true;
        return true;
      }
    }
  }
  return false;
}

void RegCache::Destroy(Entry& e) {
  if (e.rtag != 0) lcp_.ReleaseRecvRegion(e.rtag);
  for (std::size_t p = 0; p < e.we_enabled.size(); ++p) {
    if (e.we_enabled[p] && !HandOverEnabled(e, e.frames[p])) {
      lcp_.incoming().Disable(e.frames[p]);
    }
  }
  if (WantsSend(static_cast<RegIntent>(e.key.intent))) {
    const mem::Vpn first_vpn = mem::PageNumber(e.va);
    for (std::uint64_t p = 0; p < e.key.pages; ++p) {
      state_.tlb().Invalidate(first_vpn + p);
    }
  }
  process_.address_space().Unpin(e.va, e.len);
  pinned_bytes_ -= e.bytes;
  SetPinnedGauge();
  by_id_.erase(e.id);
  by_key_.erase(e.key);  // frees the entry; `e` is dead past this line
}

void RegCache::LruPushBack(Entry& e) {
  e.lru_prev = lru_tail_;
  e.lru_next = nullptr;
  if (lru_tail_ != nullptr) {
    lru_tail_->lru_next = &e;
  } else {
    lru_head_ = &e;
  }
  lru_tail_ = &e;
}

void RegCache::LruUnlink(Entry& e) {
  if (e.lru_prev != nullptr) {
    e.lru_prev->lru_next = e.lru_next;
  } else {
    lru_head_ = e.lru_next;
  }
  if (e.lru_next != nullptr) {
    e.lru_next->lru_prev = e.lru_prev;
  } else {
    lru_tail_ = e.lru_prev;
  }
  e.lru_prev = nullptr;
  e.lru_next = nullptr;
}

void RegCache::EvictFor(std::uint64_t extra) {
  const std::uint64_t budget = params_.vmmc.regcache.budget_bytes;
  while (lru_head_ != nullptr && pinned_bytes_ + extra > budget) {
    Entry* victim = lru_head_;
    LruUnlink(*victim);
    evictions_.Inc();
    Destroy(*victim);
  }
}

void RegCache::SetPinnedGauge() {
  pinned_gauge_.Set(sim_.now(), static_cast<double>(pinned_bytes_));
}

}  // namespace vmmc::vmmc_core
