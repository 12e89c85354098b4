#include "vmmc/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace vmmc::obs {

namespace {

// Fixed-format float rendering so snapshots are byte-stable.
std::string Num(double v) {
  if (std::isnan(v)) return "0";
  char buf[64];
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.6f", v);
  }
  return buf;
}

std::string Num(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  return buf;
}

// Bucket index: 0 for v <= 1, else 1 + floor(log2(v)), clamped.
std::size_t BucketIndex(double v) {
  if (v <= 1.0) return 0;
  const double l = std::log2(v);
  const std::size_t i = 1 + static_cast<std::size_t>(l);
  return std::min(i, Histo::kBuckets - 1);
}

}  // namespace

void Gauge::Set(sim::Tick now, double v) {
  if (!seen_) {
    first_ = now;
    seen_ = true;
  } else {
    weighted_sum_ += value_ * static_cast<double>(now - last_);
  }
  value_ = v;
  last_ = now;
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
}

double Gauge::TimeWeightedMean(sim::Tick now) const {
  if (!seen_) return 0.0;
  const sim::Tick span = now - first_;
  if (span <= 0) return value_;
  const double total =
      weighted_sum_ + value_ * static_cast<double>(now - last_);
  return total / static_cast<double>(span);
}

void Histo::Observe(double v) {
  stats_.Add(v);
  sum_ += v;
  ++buckets_[BucketIndex(v)];
}

double Histo::Quantile(double q) const {
  const std::uint64_t n = stats_.count();
  if (n == 0) return 0.0;
  if (n == 1) return stats_.min();
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(n);
  double cum = 0.0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    const double next = cum + static_cast<double>(buckets_[i]);
    if (next >= target) {
      // Interpolate inside the power-of-two bucket, clamped to the
      // observed range so small-n estimates stay sane.
      const double lo = (i == 0) ? 0.0 : std::exp2(static_cast<double>(i - 1));
      const double hi = std::exp2(static_cast<double>(i));
      const double frac = std::clamp(
          (target - cum) / static_cast<double>(buckets_[i]), 0.0, 1.0);
      return std::clamp(lo + frac * (hi - lo), stats_.min(), stats_.max());
    }
    cum = next;
  }
  return stats_.max();
}

Counter& Registry::GetCounter(const std::string& name) {
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::GetGauge(const std::string& name) {
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histo& Registry::GetHisto(const std::string& name) {
  auto& slot = histos_[name];
  if (!slot) slot = std::make_unique<Histo>();
  return *slot;
}

std::uint64_t Registry::CounterValue(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

const Gauge* Registry::FindGauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histo* Registry::FindHisto(const std::string& name) const {
  auto it = histos_.find(name);
  return it == histos_.end() ? nullptr : it->second.get();
}

std::uint64_t Registry::SumCounters(std::string_view prefix,
                                    std::string_view suffix) const {
  std::uint64_t sum = 0;
  for (const auto& [name, counter] : counters_) {
    if (name.size() < prefix.size() + suffix.size()) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (!suffix.empty() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    sum += counter->value();
  }
  return sum;
}

std::string Registry::ToJson(sim::Tick now) const {
  std::string out = "{\"sim_time_ns\":" + Num(static_cast<std::uint64_t>(now));
  out += ",\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out += ',';
    first = false;
    out += '"' + name + "\":" + Num(c->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out += ',';
    first = false;
    out += '"' + name + "\":{\"value\":" + Num(g->value()) +
           ",\"min\":" + Num(g->min()) + ",\"max\":" + Num(g->max()) +
           ",\"time_weighted_mean\":" + Num(g->TimeWeightedMean(now)) + '}';
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histos_) {
    if (!first) out += ',';
    first = false;
    out += '"' + name + "\":{\"count\":" + Num(h->count()) +
           ",\"sum\":" + Num(h->sum()) + ",\"mean\":" + Num(h->mean()) +
           ",\"min\":" + Num(h->min()) + ",\"max\":" + Num(h->max()) +
           ",\"p50\":" + Num(h->Quantile(0.5)) +
           ",\"p99\":" + Num(h->Quantile(0.99)) + '}';
  }
  out += "}}";
  return out;
}

Table Registry::ToTable(sim::Tick now) const {
  Table table({"metric", "value", "detail"});
  for (const auto& [name, c] : counters_) {
    table.AddRow({name, Num(c->value()), ""});
  }
  for (const auto& [name, g] : gauges_) {
    table.AddRow({name, Num(g->value()),
                  "min " + Num(g->min()) + "  max " + Num(g->max()) +
                      "  tw-mean " + Num(g->TimeWeightedMean(now))});
  }
  for (const auto& [name, h] : histos_) {
    table.AddRow({name, Num(h->count()) + " samples",
                  "mean " + Num(h->mean()) + "  p50 " + Num(h->Quantile(0.5)) +
                      "  max " + Num(h->max())});
  }
  return table;
}

}  // namespace vmmc::obs
