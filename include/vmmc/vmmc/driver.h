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

class VmmcDriver {
 public:
  VmmcDriver(const Params& params, host::Kernel& kernel, lanai::NicCard& nic,
             VmmcLcp& lcp)
      : params_(params), kernel_(kernel), nic_(nic), lcp_(lcp) {}
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

  std::uint64_t tlb_fills() const { return tlb_fills_; }
  std::uint64_t pages_pinned() const { return pages_pinned_; }
  std::uint64_t notifications_delivered() const { return notifications_delivered_; }

 private:
  sim::Process HandleInterrupt();
  // Lazy: the node id is only known once the NIC is attached, which can be
  // after driver Install in the boot sequence.
  void EnsureObs();

  const Params& params_;
  host::Kernel& kernel_;
  lanai::NicCard& nic_;
  VmmcLcp& lcp_;

  // Per pid, in delivery order; drained whole by DrainNotifications.
  std::unordered_map<int, std::vector<UserNotification>> pending_;
  std::uint64_t tlb_fills_ = 0;
  std::uint64_t pages_pinned_ = 0;
  std::uint64_t notifications_delivered_ = 0;

  obs::Counter* tlb_fills_m_ = nullptr;
  obs::Counter* pages_pinned_m_ = nullptr;
  obs::Counter* notifications_m_ = nullptr;
  int track_ = -1;  // "node<N>.driver" span track
};

}  // namespace vmmc::vmmc_core
