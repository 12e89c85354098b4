// PCI bus model.
//
// Two access paths, as on the paper's platform (§3, §5.2):
//  * memory-mapped I/O (PIO): fixed per-word costs measured in the paper
//    (read 0.422 us, write 0.121 us); modelled as uncontended since the
//    paper's PIO constants were measured end-to-end under load;
//  * DMA between host memory and LANai SRAM: exclusive bus ownership for
//    the duration of the burst (this contention is what makes
//    bidirectional VMMC traffic top out below one-way traffic, §5.3).
#pragma once

#include <cstdint>

#include "vmmc/params.h"
#include "vmmc/sim/process.h"
#include "vmmc/sim/simulator.h"
#include "vmmc/sim/sync.h"

namespace vmmc::host {

class PciBus {
 public:
  PciBus(sim::Simulator& sim, const PciParams& params)
      : sim_(sim), params_(params), bus_(sim, 1) {}

  const PciParams& params() const { return params_; }

  sim::Tick PioReadCost(int words = 1) const { return words * params_.pio_read; }
  sim::Tick PioWriteCost(int words = 1) const { return words * params_.pio_write; }

  // Programmed I/O writes across the bus; the calling coroutine is busy
  // (`co_await pci.PioWrite(words)`).
  sim::Simulator::DelayAwaiter PioWrite(int words) {
    return sim_.Delay(PioWriteCost(words));
  }

  // One DMA burst of `bytes` (either direction). Waits for the bus, then
  // holds it for dma_init + bytes/peak.
  sim::Process Dma(std::uint64_t bytes) {
    auto lock = co_await sim::ScopedAcquire(bus_);
    co_await sim_.Delay(params_.dma_init +
                        sim::NsForBytes(bytes, params_.dma_peak_mb_s));
    dma_bytes_ += bytes;
    ++dma_count_;
  }

  // Duration of an uncontended DMA burst.
  sim::Tick DmaCost(std::uint64_t bytes) const {
    return params_.dma_init + sim::NsForBytes(bytes, params_.dma_peak_mb_s);
  }

  std::uint64_t dma_bytes() const { return dma_bytes_; }
  std::uint64_t dma_count() const { return dma_count_; }

 private:
  sim::Simulator& sim_;
  const PciParams& params_;
  sim::Semaphore bus_;
  std::uint64_t dma_bytes_ = 0;
  std::uint64_t dma_count_ = 0;
};

}  // namespace vmmc::host
