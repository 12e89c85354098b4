#include "vmmc/vmmc/driver.h"

#include <string>
#include <utility>

namespace vmmc::vmmc_core {

void VmmcDriver::EnsureObs() {
  if (track_ >= 0 || nic_.nic_id() < 0) return;
  const std::string node = "node" + std::to_string(nic_.nic_id());
  obs::Registry& m = kernel_.simulator().metrics();
  tlb_fills_m_ = &m.GetCounter(node + ".driver.tlb_fills");
  pages_pinned_m_ = &m.GetCounter(node + ".driver.pages_pinned");
  notifications_m_ = &m.GetCounter(node + ".driver.notifications");
  track_ = kernel_.simulator().tracer().RegisterTrack(node + ".driver");
}

sim::Process VmmcDriver::HandleInterrupt() {
  // The kernel already charged the interrupt-entry cost; this is the
  // driver's own work.
  sim::Simulator& sim = kernel_.simulator();
  EnsureObs();
  auto span = track_ >= 0 ? sim.tracer().Scope(track_, "irq")
                          : obs::Tracer::Span();
  co_await sim.Delay(1000);  // dispatch, read LCP service registers

  // --- TLB-miss service (§4.5) ---
  while (auto miss = lcp_.TakePendingTlbMiss()) {
    const auto [pid, vpn] = *miss;
    host::UserProcess* proc = kernel_.FindProcess(pid);
    ProcState* state = lcp_.FindProc(pid);
    std::vector<std::pair<mem::Vpn, mem::Pfn>> fills;
    if (proc != nullptr && state != nullptr) {
      // "On one interrupt, translations for up to 32 pages are inserted
      // into the SRAM TLB. Send pages are locked in memory by the VMMC
      // driver when it provides the translations" (§4.5).
      for (std::uint32_t i = 0; i < params_.vmmc.tlb_fill_batch; ++i) {
        const mem::VirtAddr va = mem::PageAddr(vpn + i);
        mem::AddressSpace& as = proc->address_space();
        if (!as.Translate(va).ok()) break;  // ran past the mapped region
        if (!as.TranslatePinned(va).ok()) {
          if (!kernel_.PinUserPages(*proc, va, 1).ok()) break;
          ++pages_pinned_;
          if (pages_pinned_m_ != nullptr) pages_pinned_m_->Inc();
        }
        fills.emplace_back(vpn + i, mem::PageNumber(as.Translate(va).value()));
        co_await sim.Delay(300);  // per-page walk + lock
      }
    }
    ++tlb_fills_;
    if (tlb_fills_m_ != nullptr) tlb_fills_m_->Inc();
    // Wake the LANai whether or not we found translations; an empty fill
    // makes it fail the send with kBadAddress.
    lcp_.CompleteTlbFill(pid, fills);
  }

  // --- notification delivery (§5.1: signals) ---
  while (auto n = lcp_.PopNotification()) {
    pending_[n->pid].push_back(UserNotification{n->export_id, n->msg_len});
    ++notifications_delivered_;
    if (notifications_m_ != nullptr) notifications_m_->Inc();
    co_await sim.Delay(500);  // queue management
    (void)kernel_.PostSignal(n->pid, host::kSigVmmcNotify);
  }
}

std::vector<UserNotification> VmmcDriver::DrainNotifications(int pid) {
  auto it = pending_.find(pid);
  if (it == pending_.end()) return {};
  return std::exchange(it->second, {});
}

}  // namespace vmmc::vmmc_core
