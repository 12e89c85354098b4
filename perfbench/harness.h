// Shared pieces of the perfbench workloads: seeded inputs, the span log
// behind traced runs, per-op records, counter snapshots taken through the
// layers' public read APIs, and the watchdog that turns a stuck simulation
// into counted failures instead of a hang.
//
// The harness only calls public functions of the simulator's modules and
// reads the counters they already publish; it never changes program code.
// Every workload runs on one serial sim::Simulator.
//
// Every coroutine here takes its workload state by reference as its first
// parameter. sim::Process and sim::Task have aggregate promise types, and
// under C++20 parenthesized aggregate initialization a coroutine whose
// leading parameters convert to bool (a pointer, an integer) builds its
// promise from them: `started` comes out true and the coroutine never runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "vmmc/sim/simulator.h"
#include "vmmc/vmmc/cluster.h"

namespace perfbench {

using vmmc::sim::Tick;

// Wall clock in seconds. Only the harness reads it; nothing measured with
// it feeds back into the simulation.
inline double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// splitmix64. Every workload input (sizes, paths, offsets, payload bytes,
// the fault seed) is drawn from one of these, seeded from --seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }

 private:
  std::uint64_t state_;
};

// A seed for an independent stream keyed by (a, b).
inline std::uint64_t Mix(std::uint64_t a, std::uint64_t b) {
  return Rng(a ^ (b * 0xd1342543de82ef95ull + 0x2545f4914f6cdd1dull)).Next();
}

template <typename T>
void Shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.Below(i)]);
  }
}

// `count` values spread over [lo, hi] on a log scale, one uniform draw per
// equal-width stratum, in ascending order. The seed moves every value but
// hardly moves their mix, so aggregates stay comparable across seeds.
std::vector<std::uint32_t> StratifiedLogSizes(Rng& rng, int count,
                                              std::uint32_t lo, std::uint32_t hi);

// Message payloads carry a completion tag in their last four bytes: a
// little-endian word with bit 31 set, unique per op. Every other byte is
// below 0x80, so stale bytes can never read as a tag and a receiver that
// spins on the last word sees a message only once it has fully landed
// (VMMC delivers a message's chunks in order). `len` must be >= 4.
inline std::uint32_t TagFor(std::int64_t op) {
  return 0x8000'0000u | static_cast<std::uint32_t>(op & 0x7fff'ffff);
}
void FillPayload(std::vector<std::uint8_t>& out, std::uint32_t len,
                 std::uint64_t key, std::uint32_t tag);
std::uint32_t LoadTag(const std::uint8_t* p);

// One timed call into a layer's public function (or one whole op). Spans
// are recorded only in traced runs, kept in memory, and written out when
// the run ends.
struct Span {
  const char* layer = "";
  const char* name = "";
  std::int64_t op = -1;  // measured-op index; -1 for setup spans
  int parent = -1;       // index of the causing span, -1 for none
  int tag = -1;          // path or algorithm code of the op, -1 for none
  std::uint32_t bytes = 0;
  Tick sim_begin = 0;
  Tick sim_end = -1;  // -1: never ended (the op failed or stalled)
  double wall_begin = 0;
  double wall_end = 0;
};

class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 16);
  }
  // Returns the span id, or -1 when tracing is off (End ignores it).
  int Begin(const char* layer, const char* name, Tick now, std::int64_t op = -1,
            int parent = -1, std::uint32_t bytes = 0, int tag = -1) {
    if (!on_) return -1;
    Span s;
    s.layer = layer;
    s.name = name;
    s.op = op;
    s.parent = parent;
    s.tag = tag;
    s.bytes = bytes;
    s.sim_begin = now;
    s.wall_begin = WallNow();
    spans_.push_back(s);
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id, Tick now) {
    if (id < 0) return;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.sim_end = now;
    s.wall_end = WallNow();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
};

// How one op ended: an error status from a layer, or completion whose
// delivered bytes (or sums) were checked at the destination.
enum class OpStatus { kOk, kError, kBadData };

// One measured operation: the unit of sim_lat_*, ok_frac and the digest.
struct OpRecord {
  int kind = 0;    // workload-specific path / algorithm code
  int group = -1;  // pingpong: size group; allreduce64: call index
  std::uint32_t bytes = 0;  // payload bytes delivered
  Tick issue = -1;
  Tick done = -1;  // -1: never completed (error before completion or stall)
  bool ok = false;        // stays false for an op a stall left unfinished
  bool bad_data = false;  // completed, but delivered wrong bytes or sums

  void Finish(Tick now, OpStatus status) {
    done = now;
    ok = status == OpStatus::kOk;
    bad_data = status == OpStatus::kBadData;
  }
};

// Counters read around the measured phase, only through the layers'
// public read APIs (registry counters, Fabric totals, HostCpu,
// Link::serialize_time).
struct Snapshot {
  std::uint64_t events = 0;
  std::uint64_t pio_post_ns = 0;
  std::uint64_t bcopy_bytes = 0;
  std::uint64_t lanai_exec_ns = 0;
  std::uint64_t host_dma_busy_ns = 0;
  std::uint64_t nettx_busy_ns = 0;
  std::uint64_t queue_wait_ns = 0;
  std::uint64_t hol_stalls = 0;
  std::uint64_t link_blocked_ns = 0;
  std::uint64_t chunks_sent = 0;  // first transmissions only
  std::uint64_t retransmits = 0;
  std::uint64_t rto_fires = 0;
  std::uint64_t window_stalls = 0;
  std::uint64_t tlb_hit = 0;
  std::uint64_t tlb_miss = 0;
  std::uint64_t regcache_hit = 0;
  std::uint64_t regcache_miss = 0;
  std::vector<Tick> link_ser;  // per link, Link::serialize_time()

  static Snapshot Take(vmmc::vmmc_core::Cluster& cluster);
};

// One per-layer metric value. `samples` is the sample count of a latency
// metric (-1 for other kinds); `missing` marks a p99 with fewer than ten
// samples beyond it, reported as 0 instead of interpolated.
struct LayerValue {
  std::string name;
  double value = 0;
  long samples = -1;
  bool missing = false;
};

// Median of `v` (0 when empty).
double Median(std::vector<double> v);
// Nearest-rank p50 / p99 of simulated durations, in microseconds.
LayerValue P50Us(std::string name, std::vector<Tick> durations);
LayerValue P99Us(std::string name, std::vector<Tick> durations);

// What a workload hands back to the driver.
struct Outcome {
  std::string error;  // nonempty: setup failed, nothing was measured
  std::vector<OpRecord> ops;
  double setup_wall_s = 0;    // entering the workload -> first measured op
  double measure_wall_s = 0;  // the measured phase
  Tick measure_sim_begin = 0;
  int nodes = 0;
  std::uint32_t sram_used_max = 0;  // bytes, max over NICs after setup
  Tick boot_sim = 0;
  Snapshot before;
  Snapshot after;
  // Per-layer metrics only the workload knows how to derive from its op
  // records (one-way latencies by path, per-call skew, ...).
  std::vector<LayerValue> layer;
};

// Runs the simulation until `finished()` holds. Every `check_every` of
// simulated time it asks `overdue()` whether an outstanding op has missed
// its deadline. Returns false on a missed deadline or a drained event
// queue; the caller then counts every unfinished op as failed.
template <typename Finished, typename Overdue>
bool Drive(vmmc::sim::Simulator& sim, Finished finished, Overdue overdue,
           Tick check_every) {
  for (;;) {
    const Tick next_check = sim.now() + check_every;
    const bool stopped =
        sim.RunUntil([&] { return finished() || sim.now() >= next_check; });
    if (finished()) return true;
    if (!stopped || overdue()) return false;
  }
}

// Drives one setup phase until `*pending` (decremented by each spawned
// setup coroutine) reaches zero, under a span. False if the phase does not
// finish within `limit` of simulated time.
bool RunPhase(vmmc::sim::Simulator& sim, SpanLog& log, const char* layer,
              const char* name, const int& pending, Tick limit);

// Largest NicCard::sram().used_bytes() over the cluster's nodes.
std::uint32_t MaxSramUsed(vmmc::vmmc_core::Cluster& cluster);

Outcome RunPingpong(std::uint64_t seed, SpanLog& log);
Outcome RunAllreduce64(std::uint64_t seed, SpanLog& log);
Outcome RunBulkLossy(std::uint64_t seed, SpanLog& log);

}  // namespace perfbench
