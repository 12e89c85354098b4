// Simulator-native metrics: named counters, gauges, and histograms owned
// by a Registry (one per Simulator). A registry instrument is the only
// copy of a count: each component binds its instruments once, in its
// constructor or the factory that builds it, holds them as references
// and reads its own counts back from them, so accessors and dumps agree.
// Hot-path updates are then a plain add with no lookup, no lock, no null
// check and no branch on an "enabled" flag — metrics are always on and
// cheap enough to stay on.
//
// Naming scheme (see DESIGN.md): dot-separated, component instance first:
//   node0.lcp.chunks_sent     node1.tlb.miss      node0.dma.host.busy_ns
//   fabric.link3.bytes        fabric.switch0.dropped
// Counters that accumulate simulated time end in `_ns`.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "vmmc/sim/time.h"
#include "vmmc/util/stats.h"

namespace vmmc::obs {

// Monotonically increasing event / byte / tick count.
class Counter {
 public:
  void Inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

// Instantaneous level (queue depth, utilization). Tracks min/max and a
// sim-time-weighted mean: each value is weighted by how long it was held,
// so `send_queue_depth` averaged this way is true mean occupancy.
class Gauge {
 public:
  void Set(sim::Tick now, double v);
  void Add(sim::Tick now, double delta) { Set(now, value_ + delta); }

  double value() const { return value_; }
  double min() const { return seen_ ? min_ : 0.0; }
  double max() const { return seen_ ? max_ : 0.0; }
  // Time-weighted mean over [first Set, now]; 0 before any Set.
  double TimeWeightedMean(sim::Tick now) const;

 private:
  double value_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  double weighted_sum_ = 0.0;  // integral of value over sim time
  sim::Tick first_ = 0;
  sim::Tick last_ = 0;
  bool seen_ = false;
};

// Sample distribution with power-of-two buckets (values are typically
// durations in ticks). Fixed bucket layout keeps updates O(1) and dumps
// deterministic.
class Histo {
 public:
  static constexpr std::size_t kBuckets = 64;

  void Observe(double v);

  std::uint64_t count() const { return stats_.count(); }
  double sum() const { return sum_; }
  double mean() const { return stats_.mean(); }
  double min() const { return stats_.min(); }
  double max() const { return stats_.max(); }
  // Estimated quantile from the log2 buckets (exact for count 0/1).
  double Quantile(double q) const;

 private:
  OnlineStats stats_;
  double sum_ = 0.0;
  std::uint64_t buckets_[kBuckets] = {};
};

// The per-simulator instrument store. Get* registers on first use and
// returns the same instrument for the same name thereafter, so any layer
// can aggregate into a shared counter without coordination. Iteration is
// in name order (std::map), which keeps every dump deterministic.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histo& GetHisto(const std::string& name);

  // Read-side helpers for benches: value of a named instrument, 0 / null
  // semantics if it was never registered.
  std::uint64_t CounterValue(const std::string& name) const;
  const Gauge* FindGauge(const std::string& name) const;
  const Histo* FindHisto(const std::string& name) const;

  // Sum of all counters whose name matches `prefix` + anything + `suffix`
  // (suffix may be empty). Lets benches aggregate e.g. every
  // "fabric.link*.ser_ns" without enumerating links.
  std::uint64_t SumCounters(std::string_view prefix,
                            std::string_view suffix = "") const;

  std::size_t size() const {
    return counters_.size() + gauges_.size() + histos_.size();
  }

  // Snapshot as a JSON object (deterministic: sorted names, fixed float
  // formatting) or as a stats.h table for terminal output.
  std::string ToJson(sim::Tick now) const;
  Table ToTable(sim::Tick now) const;

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histo>> histos_;
};

}  // namespace vmmc::obs
