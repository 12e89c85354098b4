// Host CPU cost model (166 MHz Pentium). Besides converting work into
// simulated time, it counts bcopy traffic: the paper's zero-copy claim is
// verified in tests by asserting that the VMMC receive path performs no
// host-CPU copies, while vRPC's compatibility mode performs exactly one.
#pragma once

#include <cstdint>

#include "vmmc/params.h"
#include "vmmc/sim/simulator.h"

namespace vmmc::host {

class HostCpu {
 public:
  HostCpu(sim::Simulator& sim, const HostParams& params)
      : sim_(sim), params_(params) {}

  const HostParams& params() const { return params_; }

  // Busy-executes for `t` (`co_await cpu.Charge(t)`).
  sim::Simulator::DelayAwaiter Charge(sim::Tick t) { return sim_.Delay(t); }

  // Cost of copying `bytes` with the library bcopy (§5.4: ~50 MB/s).
  sim::Tick BcopyCost(std::uint64_t bytes) const {
    return params_.bcopy_call + sim::NsForBytes(bytes, params_.bcopy_mb_s);
  }

  // Copies `bytes` at library-bcopy speed and records the copy
  // (`co_await cpu.Bcopy(bytes)`).
  sim::Simulator::DelayAwaiter Bcopy(std::uint64_t bytes) {
    bcopy_bytes_ += bytes;
    ++bcopy_calls_;
    return sim_.Delay(BcopyCost(bytes));
  }

  std::uint64_t bcopy_bytes() const { return bcopy_bytes_; }
  std::uint64_t bcopy_calls() const { return bcopy_calls_; }

 private:
  sim::Simulator& sim_;
  const HostParams& params_;
  std::uint64_t bcopy_bytes_ = 0;
  std::uint64_t bcopy_calls_ = 0;
};

}  // namespace vmmc::host
