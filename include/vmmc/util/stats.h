// Statistics helpers used by benches and tests: online moments, fixed-bucket
// histograms, and a small table printer that renders paper-style rows.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace vmmc {

// Online mean / min / max / variance (Welford).
class OnlineStats {
 public:
  void Add(double x);

  std::uint64_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double variance() const;         // population variance (0 when empty)
  double sample_variance() const;  // Bessel-corrected (0 for < 2 samples)
  double stddev() const;

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Histogram with caller-supplied bucket upper bounds (last bucket catches
// overflow). Used by latency-distribution tests.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void Add(double x);
  std::uint64_t bucket_count(std::size_t i) const { return counts_.at(i); }
  std::size_t buckets() const { return counts_.size(); }
  std::uint64_t total() const { return total_; }
  // Linear-interpolated quantile estimate in [0,1].
  double Quantile(double q) const;

 private:
  std::vector<double> bounds_;       // ascending; implicit +inf at the end
  std::vector<std::uint64_t> counts_;  // bounds_.size() + 1 buckets
  std::uint64_t total_ = 0;
};

// Column-aligned table printer for bench output.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);
  // Renders with a header rule, columns padded to the widest cell.
  std::string ToString() const;
  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// Formats a double with `digits` fractional digits ("9.80").
std::string FormatDouble(double v, int digits);
// "4", "1K", "64K", "1M" style size labels used on the paper's axes.
std::string FormatSize(std::uint64_t bytes);

}  // namespace vmmc
