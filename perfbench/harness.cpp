#include "harness.h"

#include <algorithm>
#include <cmath>

#include "vmmc/lanai/nic_card.h"
#include "vmmc/myrinet/fabric.h"

namespace perfbench {

std::vector<std::uint32_t> StratifiedLogSizes(Rng& rng, int count,
                                              std::uint32_t lo,
                                              std::uint32_t hi) {
  std::vector<std::uint32_t> out;
  out.reserve(static_cast<std::size_t>(count));
  const double llo = std::log(static_cast<double>(lo));
  const double lhi = std::log(static_cast<double>(hi));
  for (int k = 0; k < count; ++k) {
    const double u = (k + rng.Uniform()) / count;
    const double v = std::exp(llo + u * (lhi - llo));
    out.push_back(std::clamp(static_cast<std::uint32_t>(std::lround(v)), lo, hi));
  }
  return out;
}

void FillPayload(std::vector<std::uint8_t>& out, std::uint32_t len,
                 std::uint64_t key, std::uint32_t tag) {
  out.resize(len);
  Rng rng(key);
  std::uint32_t i = 0;
  for (; i + 8 <= len - 4; i += 8) {
    const std::uint64_t w = rng.Next() & 0x7f7f7f7f7f7f7f7full;
    for (int b = 0; b < 8; ++b) {
      out[i + static_cast<std::uint32_t>(b)] =
          static_cast<std::uint8_t>(w >> (8 * b));
    }
  }
  for (; i < len - 4; ++i) out[i] = static_cast<std::uint8_t>(rng.Next() & 0x7f);
  for (int b = 0; b < 4; ++b) {
    out[len - 4 + static_cast<std::uint32_t>(b)] =
        static_cast<std::uint8_t>(tag >> (8 * b));
  }
}

std::uint32_t LoadTag(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
         (std::uint32_t{p[2]} << 16) | (std::uint32_t{p[3]} << 24);
}

Snapshot Snapshot::Take(vmmc::vmmc_core::Cluster& cluster) {
  Snapshot s;
  vmmc::sim::Simulator& sim = cluster.simulator();
  const vmmc::obs::Registry& m = sim.metrics();
  s.events = sim.events_processed();
  s.pio_post_ns = m.SumCounters("node", ".host.pio_post_ns");
  s.lanai_exec_ns = m.SumCounters("node", ".lanai.exec_ns");
  s.host_dma_busy_ns = m.SumCounters("node", ".dma.host.busy_ns");
  s.nettx_busy_ns = m.SumCounters("node", ".dma.nettx.busy_ns");
  s.link_blocked_ns = m.SumCounters("fabric.link", ".blocked_ns");
  s.chunks_sent = m.SumCounters("node", ".lcp.chunks_sent");
  s.retransmits = m.SumCounters("node", ".lcp.retransmits");
  s.rto_fires = m.SumCounters("node", ".lcp.retransmit_timeouts");
  s.window_stalls = m.SumCounters("node", ".lcp.window_stalls");
  s.tlb_hit = m.SumCounters("node", ".tlb.hit");
  s.tlb_miss = m.SumCounters("node", ".tlb.miss");
  s.regcache_hit = m.SumCounters("node", ".regcache.hit");
  s.regcache_miss = m.SumCounters("node", ".regcache.miss");
  for (int i = 0; i < cluster.num_nodes(); ++i) {
    s.bcopy_bytes += cluster.node(i).machine->cpu().bcopy_bytes();
  }
  vmmc::myrinet::Fabric& fabric = cluster.fabric();
  s.queue_wait_ns = static_cast<std::uint64_t>(fabric.total_queue_wait());
  s.hol_stalls = fabric.total_hol_stalls();
  s.link_ser.reserve(static_cast<std::size_t>(fabric.num_links()));
  for (int i = 0; i < fabric.num_links(); ++i) {
    s.link_ser.push_back(fabric.link_at(i).serialize_time());
  }
  return s;
}

bool RunPhase(vmmc::sim::Simulator& sim, SpanLog& log, const char* layer,
              const char* name, const int& pending, Tick limit) {
  const int span = log.Begin(layer, name, sim.now());
  const Tick deadline = sim.now() + limit;
  const bool ok = Drive(
      sim, [&] { return pending == 0; }, [&] { return sim.now() > deadline; },
      vmmc::sim::kMillisecond);
  log.End(span, sim.now());
  return ok;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) / 2];
}

namespace {

// Nearest-rank quantile: the smallest sample with at least q of all
// samples at or below it.
double QuantileUs(const std::vector<Tick>& sorted, double q) {
  const auto n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return static_cast<double>(sorted[std::max<std::size_t>(rank, 1) - 1]) / 1000.0;
}

}  // namespace

LayerValue P50Us(std::string name, std::vector<Tick> durations) {
  LayerValue v{std::move(name), 0, static_cast<long>(durations.size()), false};
  if (durations.empty()) return v;
  std::sort(durations.begin(), durations.end());
  v.value = QuantileUs(durations, 0.5);
  return v;
}

LayerValue P99Us(std::string name, std::vector<Tick> durations) {
  LayerValue v{std::move(name), 0, static_cast<long>(durations.size()), false};
  // Ten samples beyond the 99th percentile need 1000 in all.
  if (durations.size() < 1000) {
    v.missing = true;
    return v;
  }
  std::sort(durations.begin(), durations.end());
  v.value = QuantileUs(durations, 0.99);
  return v;
}

std::uint32_t MaxSramUsed(vmmc::vmmc_core::Cluster& cluster) {
  std::uint32_t used = 0;
  for (int i = 0; i < cluster.num_nodes(); ++i) {
    used = std::max(used, cluster.node(i).nic->sram().used_bytes());
  }
  return used;
}

}  // namespace perfbench
