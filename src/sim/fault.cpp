#include "vmmc/sim/fault.h"

#include <algorithm>

namespace vmmc::sim {

FaultInjector::FaultInjector(const Tick* now, obs::Registry& metrics)
    : now_(now),
      bitflips_(metrics.GetCounter("fault.injected.bitflips")),
      drops_(metrics.GetCounter("fault.injected.drops")),
      delays_(metrics.GetCounter("fault.injected.delays")),
      delay_ns_(metrics.GetCounter("fault.injected.delay_ns")),
      dma_stalls_(metrics.GetCounter("fault.injected.dma_stalls")),
      dma_stall_ns_(metrics.GetCounter("fault.injected.dma_stall_ns")) {}

void FaultInjector::Configure(FaultPlan plan) {
  plan_ = std::move(plan);
  rng_.Seed(plan_.seed);
  active_ = !plan_.empty();
}

FaultInjector::LinkVerdict FaultInjector::OnLinkTransmit(
    const LinkSite& site, util::Buffer& payload) {
  LinkVerdict verdict;
  if (!active_) return verdict;
  for (const LinkFaultRule& rule : plan_.links) {
    if (rule.link_id != -1 && rule.link_id != site.link_id) continue;
    if (rule.switch_id != -1 && rule.switch_id != site.switch_id) continue;
    if (rule.port != -1 && rule.port != site.port) continue;
    if (rule.src_nic != -1 && rule.src_nic != site.src_nic) continue;
    // Drop decided first: a lost packet can be neither corrupted nor
    // delayed, and skipping the other draws keeps each rule's consumption
    // of the Rng stream self-describing.
    if (rule.drop_rate > 0.0 && rng_.Bernoulli(rule.drop_rate)) {
      verdict.drop = true;
      drops_.Inc();
      return verdict;
    }
    if (rule.bitflip_rate > 0.0 && !payload.empty() &&
        rng_.Bernoulli(rule.bitflip_rate)) {
      const std::size_t i =
          static_cast<std::size_t>(rng_.UniformU64(payload.size()));
      // MutableData un-shares (copy-on-write): the bit flip lands on this
      // in-flight packet only, never on the sender's retx-pool copy.
      payload.MutableData()[i] ^=
          static_cast<std::uint8_t>(1u << rng_.UniformU64(8));
      verdict.corrupted = true;
      bitflips_.Inc();
    }
    if (rule.delay_rate > 0.0 && rule.max_delay > 0 &&
        rng_.Bernoulli(rule.delay_rate)) {
      const Tick jitter = 1 + static_cast<Tick>(rng_.UniformU64(
                                  static_cast<std::uint64_t>(rule.max_delay)));
      verdict.extra_delay += jitter;
      delays_.Inc();
      delay_ns_.Inc(static_cast<std::uint64_t>(jitter));
    }
  }
  return verdict;
}

Tick FaultInjector::DmaStallDelay(int node_id) {
  if (!active_) return 0;
  const Tick now = *now_;
  Tick until = now;
  for (const DmaStallRule& rule : plan_.dma_stalls) {
    if (rule.node_id != -1 && rule.node_id != node_id) continue;
    if (rule.duration <= 0 || now < rule.start) continue;
    const Tick since = now - rule.start;
    Tick window_start;
    if (rule.period > 0) {
      window_start = rule.start + (since / rule.period) * rule.period;
    } else {
      window_start = rule.start;
    }
    if (now < window_start + rule.duration) {
      until = std::max(until, window_start + rule.duration);
    }
  }
  const Tick wait = until - now;
  if (wait > 0) {
    dma_stalls_.Inc();
    dma_stall_ns_.Inc(static_cast<std::uint64_t>(wait));
  }
  return wait;
}

}  // namespace vmmc::sim
