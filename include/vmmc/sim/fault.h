// Deterministic fault injection for the simulated platform.
//
// A FaultPlan describes what should go wrong — bit flips on fabric links
// (caught by the CRC-8 at the receiving NIC), whole-packet drops, bounded
// delivery jitter, and host-DMA engine stalls — and the FaultInjector,
// owned by the Simulator, executes it under its own seeded Rng. Fault
// decisions draw from that dedicated stream, so two runs with the same
// seed and plan are byte-identical, and enabling faults does not perturb
// any other random decision in the run.
//
// Hardware hooks query the injector at the point the fault would occur:
// Link::Send consults OnLinkTransmit for every packet put on a wire, and
// NicCard's host-DMA engines consult DmaStallDelay before each transfer.
// An unconfigured injector answers "no fault" without touching the Rng.
#pragma once

#include <cstdint>
#include <vector>

#include "vmmc/obs/metrics.h"
#include "vmmc/sim/rng.h"
#include "vmmc/sim/time.h"
#include "vmmc/util/buffer.h"

namespace vmmc::sim {

// Where a packet currently is when a link-fault decision is made: the flat
// fabric link id plus the link's topological origin — (switch, port) for a
// link leaving a switch output port, or the source NIC id for the
// NIC-to-switch injection link. Filled by the Fabric when the topology is
// wired; links built outside a Fabric report all -1 and match only
// wildcard rules.
struct LinkSite {
  int link_id = -1;
  int switch_id = -1;  // origin switch, -1 for NIC-injection links
  int port = -1;       // origin output port on switch_id
  int src_nic = -1;    // origin NIC, -1 for switch-originated links
};

// One fabric-link fault rule. A rule applies to a packet when every
// non-wildcard (-1) field matches the link's LinkSite, so a link can be
// addressed by flat id, by topology position (switch, port), or by the
// injecting NIC; all-wildcard rules apply to every link. Each matching
// rule is applied in plan order, so rates compose per packet.
struct LinkFaultRule {
  int link_id = -1;           // -1: any link id
  int switch_id = -1;         // -1: any origin switch (with `port` below)
  int port = -1;              // -1: any output port of switch_id
  int src_nic = -1;           // -1: any injecting NIC
  double bitflip_rate = 0.0;  // P(flip one payload bit) per packet
  double drop_rate = 0.0;     // P(lose the packet on the wire) per packet
  double delay_rate = 0.0;    // P(extra delivery jitter) per packet
  Tick max_delay = 0;         // jitter drawn uniform in [1, max_delay] ns
};

// A host-DMA stall window on one node's NIC. The engine performs no
// transfer while stalled; transfers issued inside a window wait for it to
// close. With period > 0 the window recurs (start + k*period for all k).
struct DmaStallRule {
  int node_id = -1;  // -1: all nodes
  Tick start = 0;
  Tick duration = 0;
  Tick period = 0;  // 0: one-shot
};

struct FaultPlan {
  std::uint64_t seed = 0xFA017ull;
  std::vector<LinkFaultRule> links;
  std::vector<DmaStallRule> dma_stalls;

  bool empty() const { return links.empty() && dma_stalls.empty(); }

  // Convenience: one wildcard rule for every link.
  static FaultPlan AllLinks(LinkFaultRule rule, std::uint64_t seed) {
    FaultPlan plan;
    plan.seed = seed;
    rule.link_id = -1;
    plan.links.push_back(rule);
    return plan;
  }
};

class FaultInjector {
 public:
  // What happens to one packet on one link.
  struct LinkVerdict {
    bool drop = false;
    bool corrupted = false;
    Tick extra_delay = 0;
  };

  // Counts into `metrics` as fault.injected.*.
  FaultInjector(const Tick* now, obs::Registry& metrics);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Installs `plan` and reseeds the fault Rng from plan.seed. Replaces any
  // previous plan; an empty plan deactivates the injector.
  void Configure(FaultPlan plan);
  void Clear() { Configure(FaultPlan{}); }

  bool active() const { return active_; }
  const FaultPlan& plan() const { return plan_; }

  // Decides the fate of one packet entering the link at `site`. May flip
  // one bit in `payload` (the receiver's CRC check then fails, as on real
  // hardware). Counts into fault.injected.*.
  LinkVerdict OnLinkTransmit(const LinkSite& site, util::Buffer& payload);

  // How long node `node_id`'s host-DMA engine must wait, from now, for the
  // current stall window (if any) to close. 0 = not stalled.
  Tick DmaStallDelay(int node_id);

 private:
  const Tick* now_;
  FaultPlan plan_;
  Rng rng_;
  bool active_ = false;

  obs::Counter& bitflips_;
  obs::Counter& drops_;
  obs::Counter& delays_;
  obs::Counter& delay_ns_;
  obs::Counter& dma_stalls_;
  obs::Counter& dma_stall_ns_;
};

}  // namespace vmmc::sim
