// Summary statistics the benchmark reports: percentiles with their sample
// support, and ratios that always carry their base.
#ifndef PERFBENCH_SRC_STATS_H_
#define PERFBENCH_SRC_STATS_H_

#include <cstdint>
#include <vector>

namespace perfbench {

// Minimum number of samples that must lie beyond a reported percentile.
constexpr uint64_t kTailSupport = 10;

// Nearest-rank percentile of an ascending-sorted sample; 0 when empty.
double Percentile(const std::vector<double>& sorted, double q);

// True when `n` samples put at least kTailSupport of them beyond the q-th
// percentile, i.e. n * (1 - q) >= kTailSupport.
bool Supports(uint64_t n, double q);

// The highest quantile of the ladder 0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999
// that `n` samples support; 0 when not even the median is supported.
double HighestSupportedQuantile(uint64_t n);

// A latency distribution: median, p99 and the highest supported tail.
// p99 falls back to the highest supported quantile below it when the
// sample is too small, and `p99_q` says which quantile was used.
struct LatencySummary {
  uint64_t samples = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double p99_q = 0.0;
  double tail = 0.0;
  double tail_q = 0.0;
  double mean = 0.0;
};

// Sorts `samples` in place.
LatencySummary Summarize(std::vector<double>* samples);

// A ratio that keeps its numerator and denominator so every report can
// state its base. value() is 0 for an empty base.
struct Ratio {
  double num = 0.0;
  double den = 0.0;
  double value() const { return den == 0.0 ? 0.0 : num / den; }
};

double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STATS_H_
