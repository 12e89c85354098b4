// The VMMC loadable device driver (§5.1): the only kernel-level code in
// the system. Two services, both driven by the NIC interrupt:
//  * software-TLB miss handling — translate virtual to physical for pinned
//    pages, locking send pages in memory and inserting up to 32
//    translations per interrupt (§4.5);
//  * notification delivery — forwarding LCP notifications to user
//    processes via signals (§5.1).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "vmmc/host/kernel.h"
#include "vmmc/lanai/nic_card.h"
#include "vmmc/params.h"
#include "vmmc/vmmc/lcp.h"

namespace vmmc::vmmc_core {

// What the user library's signal handler reads from the driver.
struct UserNotification {
  std::uint32_t export_id = 0;
  std::uint32_t msg_len = 0;
};

// Counts into node<N>.driver.{tlb_fills,pages_pinned,notifications}, N
// being the NIC's id: attach the NIC to its fabric before building this.
class VmmcDriver {
 public:
  VmmcDriver(const Params& params, host::Kernel& kernel, lanai::NicCard& nic,
             VmmcLcp& lcp);
  VmmcDriver(const VmmcDriver&) = delete;
  VmmcDriver& operator=(const VmmcDriver&) = delete;

  // Installs the interrupt handler (module load time).
  void Install() {
    kernel_.RegisterIrqHandler(lanai::NicCard::kIrq,
                               [this] { return HandleInterrupt(); });
  }

  // Library side: drain notifications destined for `pid` (called from the
  // signal handler).
  std::vector<UserNotification> DrainNotifications(int pid);

  std::uint64_t pages_pinned() const { return pages_pinned_.value(); }

 private:
  sim::Process HandleInterrupt();

  const Params& params_;
  host::Kernel& kernel_;
  VmmcLcp& lcp_;

  // Per pid, in delivery order; drained whole by DrainNotifications.
  std::unordered_map<int, std::vector<UserNotification>> pending_;

  obs::Counter& tlb_fills_;
  obs::Counter& pages_pinned_;
  obs::Counter& notifications_;
  int track_;  // "node<N>.driver" span track
};

}  // namespace vmmc::vmmc_core
