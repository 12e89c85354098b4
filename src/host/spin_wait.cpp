#include "vmmc/host/spin_wait.h"

#include <cassert>

namespace vmmc::host {

SpinWait::SpinWait(sim::Simulator& sim, sim::Tick period)
    : sim_(sim), period_(period) {
  assert(period > 0);
}

SpinWait::~SpinWait() { Disarm(); }

void SpinWait::Watch(mem::PhysicalMemory& memory, mem::PhysAddr pa,
                     std::uint64_t len) {
  assert(!waiting() && len > 0);
  Watched& w = watches_.emplace_back();
  w.memory = &memory;
  w.watch.begin = pa;
  w.watch.end = pa + len;
  w.watch.on_write = [](void* self) {
    static_cast<SpinWait*>(self)->OnChange();
  };
  w.watch.ctx = this;
}

Status SpinWait::Watch(mem::AddressSpace& as, mem::VirtAddr va,
                       std::uint64_t len) {
  assert(len > 0 && mem::PageNumber(va) == mem::PageNumber(va + len - 1));
  auto pa = as.Translate(va);
  if (!pa.ok()) return pa.status();
  Watch(as.physical_memory(), pa.value(), len);
  return OkStatus();
}

void SpinWait::Begin(std::coroutine_handle<> h, bool (*check)(void*),
                     void* ctx) {
  assert(!waiting());
  waiter_ = h;
  check_ = check;
  check_ctx_ = ctx;
  // The literal loop's first Delay(P) would be allocated right here.
  last_check_ = sim_.now();
  last_check_seq_ = sim_.ReserveSeq();
  for (Watched& w : watches_) w.memory->Arm(w.watch);
}

void SpinWait::OnChange() {
  if (!waiting() || wake_pending_) return;
  const sim::Tick now = sim_.now();
  const sim::Tick p = period_;
  // First grid point strictly after the last check and not before now.
  const sim::Tick k = now == last_check_ ? 1 : (now - last_check_ + p - 1) / p;
  sim::Tick t = last_check_ + k * p;
  if (t == now) {
    // The change lands on a skipped poll: seen there only if its event
    // was scheduled before that poll would have been.
    const bool seen = t - p == last_check_
                          ? sim_.dispatch_seq() < last_check_seq_
                          : sim_.dispatch_sched_time() < t - p;
    if (!seen) t += p;
  }
  // Wake where the poll at t would have run: scheduled at the last check
  // or, after skipped polls, first among the events scheduled at t - P.
  // The reserved seq keeps the key unique.
  wake_pending_ = true;
  sim_.AtAsScheduled(t, t - p, last_check_seq_, [this] { Wake(); });
}

void SpinWait::Wake() {
  wake_pending_ = false;
  last_check_ = sim_.now();
  if (!check_(check_ctx_)) {
    last_check_seq_ = sim_.ReserveSeq();
    return;
  }
  Disarm();
  // The resumed coroutine may destroy this SpinWait: touch nothing after.
  std::exchange(waiter_, nullptr).resume();
}

void SpinWait::Disarm() {
  for (Watched& w : watches_) {
    if (w.watch.armed_on != nullptr) w.watch.armed_on->Disarm(w.watch);
  }
}

}  // namespace vmmc::host
