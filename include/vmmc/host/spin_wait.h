// Host spin-waits (§4.5): the user library waits for the LANai by spinning
// on a word in cached host memory that the interface DMAs into. The loop
//
//   while (!cond()) co_await sim.Delay(period);
//
// checks at t0, t0 + P, t0 + 2P, ... and almost every check finds nothing.
// SpinWait models the same loop without an event per empty check: the
// waiter sleeps until one of its watched words is written (any
// mem::PhysicalMemory::Write, so host stores and NIC host-DMA writes
// alike) or its owner calls Notify(), then checks at the first grid point
// t0 + kP at which the literal loop would have seen the change, in that
// loop's position among the events of that tick. A check that finds the
// condition false re-arms from there, exactly like a literal poll.
//
// Same-tick rule. A change made by event W at exactly grid point T is
// seen at T only if W was scheduled before the skipped poll at T would
// have been, i.e. W was scheduled at a tick before T - P. When T - P is
// the waiter's own last check, the check reserved a seq
// (Simulator::ReserveSeq) and W must precede it instead. The wake is
// queued by the same rule (Simulator::AtAsScheduled): as if scheduled
// at T - P under the reserved seq, which is exactly the literal poll's
// key after a real check and, after skipped polls, puts it before every
// event scheduled at T - P or later. The one schedule this cannot tell
// apart is an event scheduled exactly P before a skipped poll; the rule
// orders it after that poll.
//
// A SpinWait serves one waiting coroutine at a time. Watches are set up
// once (Watch) and armed only while a coroutine waits, so a warmed wait
// allocates nothing.
#pragma once

#include <coroutine>
#include <cstdint>
#include <utility>
#include <vector>

#include "vmmc/mem/address_space.h"
#include "vmmc/mem/physical_memory.h"
#include "vmmc/sim/simulator.h"
#include "vmmc/util/status.h"

namespace vmmc::host {

class SpinWait {
 public:
  // `period` is the loop's poll interval P (> 0).
  SpinWait(sim::Simulator& sim, sim::Tick period);
  ~SpinWait();
  SpinWait(const SpinWait&) = delete;
  SpinWait& operator=(const SpinWait&) = delete;

  // Adds [pa, pa + len) of `memory` to the ranges whose writes wake the
  // waiter. Not while a coroutine waits.
  void Watch(mem::PhysicalMemory& memory, mem::PhysAddr pa, std::uint64_t len);
  // Same for a word of mapped memory, within one page; the page must
  // stay mapped to the same frame (exported or registered buffers are
  // pinned). Fails if the address is not mapped.
  Status Watch(mem::AddressSpace& as, mem::VirtAddr va, std::uint64_t len = 4);

  // The owner changed state the condition reads without writing watched
  // memory; wakes the waiter like a write would.
  void Notify() { OnChange(); }

  // Awaitable: returns once cond() holds at a check. The first check is
  // immediate, like the literal loop's.
  template <typename Cond>
  auto Until(Cond cond) {
    struct Awaiter {
      SpinWait& wait;
      Cond cond;
      bool await_ready() { return cond(); }
      void await_suspend(std::coroutine_handle<> h) {
        wait.Begin(h, [](void* self) {
          return static_cast<Awaiter*>(self)->cond();
        }, this);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, std::move(cond)};
  }

  bool waiting() const { return static_cast<bool>(waiter_); }

 private:
  void Begin(std::coroutine_handle<> h, bool (*check)(void*), void* ctx);
  void OnChange();
  void Wake();
  void Disarm();

  struct Watched {
    mem::PhysicalMemory* memory;
    mem::WriteWatch watch;
  };

  sim::Simulator& sim_;
  sim::Tick period_;
  std::vector<Watched> watches_;

  std::coroutine_handle<> waiter_;
  bool (*check_)(void*) = nullptr;
  void* check_ctx_ = nullptr;
  sim::Tick last_check_ = 0;           // tick of the last real check
  std::uint64_t last_check_seq_ = 0;   // seq reserved at that check
  bool wake_pending_ = false;
};

}  // namespace vmmc::host
