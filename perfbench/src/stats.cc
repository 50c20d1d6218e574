#include "perfbench/src/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  // Nearest rank: the smallest value with at least q of the sample at or
  // below it.
  auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

bool Supports(uint64_t n, double q) {
  // Samples strictly beyond the nearest-rank q-th percentile.
  const auto rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(n)));
  return n >= rank && n - rank >= kTailSupport;
}

double HighestSupportedQuantile(uint64_t n) {
  double best = 0.0;
  for (const double q : {0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999}) {
    if (Supports(n, q)) {
      best = q;
    }
  }
  return best;
}

LatencySummary Summarize(std::vector<double>* samples) {
  LatencySummary s;
  std::sort(samples->begin(), samples->end());
  s.samples = samples->size();
  if (samples->empty()) {
    return s;
  }
  s.mean = std::accumulate(samples->begin(), samples->end(), 0.0) /
           static_cast<double>(samples->size());
  s.p50 = Percentile(*samples, 0.5);
  s.tail_q = HighestSupportedQuantile(s.samples);
  s.tail = Percentile(*samples, s.tail_q == 0.0 ? 1.0 : s.tail_q);
  s.p99_q = std::min(0.99, s.tail_q == 0.0 ? 0.5 : s.tail_q);
  s.p99 = Percentile(*samples, s.p99_q);
  return s;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench
