#include "vmmc/util/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

namespace vmmc {

void OnlineStats::Add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double OnlineStats::variance() const {
  if (count_ == 0) return 0.0;
  // m2_ can go epsilon-negative through floating-point cancellation.
  return std::max(0.0, m2_ / static_cast<double>(count_));
}

double OnlineStats::sample_variance() const {
  if (count_ < 2) return 0.0;
  return std::max(0.0, m2_ / static_cast<double>(count_ - 1));
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1, 0) {
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
}

void Histogram::Add(double x) {
  auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  counts_[static_cast<std::size_t>(it - bounds_.begin())]++;
  ++total_;
}

double Histogram::Quantile(double q) const {
  if (total_ == 0) return 0.0;
  if (std::isnan(q)) q = 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total_);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    // Empty buckets carry no mass: skip them so a quantile never lands in
    // a bucket no sample fell into (q=0 used to report the first bucket's
    // bound even when every sample sat far above it).
    if (counts_[i] == 0) continue;
    const double next = cum + static_cast<double>(counts_[i]);
    if (next >= target) {
      const double lo = (i == 0) ? 0.0 : bounds_[i - 1];
      const double hi = (i < bounds_.size()) ? bounds_[i] : lo * 2.0 + 1.0;
      const double frac = std::clamp(
          (target - cum) / static_cast<double>(counts_[i]), 0.0, 1.0);
      return lo + frac * (hi - lo);
    }
    cum = next;
  }
  return bounds_.empty() ? 0.0 : bounds_.back();
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::AddRow(std::vector<std::string> cells) {
  assert(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::ToString() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line;
    for (std::size_t c = 0; c < row.size(); ++c) {
      line += row[c];
      line.append(widths[c] - row[c].size() + 2, ' ');
    }
    while (!line.empty() && line.back() == ' ') line.pop_back();
    line += '\n';
    return line;
  };
  std::string out = render_row(headers_);
  std::size_t rule = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) rule += widths[c] + 2;
  out.append(rule > 2 ? rule - 2 : rule, '-');
  out += '\n';
  for (const auto& row : rows_) out += render_row(row);
  return out;
}

void Table::Print() const { std::fputs(ToString().c_str(), stdout); }

std::string FormatDouble(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

std::string FormatSize(std::uint64_t bytes) {
  char buf[32];
  if (bytes >= (1u << 20) && bytes % (1u << 20) == 0) {
    std::snprintf(buf, sizeof(buf), "%lluM",
                  static_cast<unsigned long long>(bytes >> 20));
  } else if (bytes >= 1024 && bytes % 1024 == 0) {
    std::snprintf(buf, sizeof(buf), "%lluK",
                  static_cast<unsigned long long>(bytes >> 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

}  // namespace vmmc
