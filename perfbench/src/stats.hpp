// Order statistics used by the benchmark's metrics.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile (the same rule as numpy's default).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) { return 0.0; }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Geometric mean of the positive entries of `v` (0 when there are none).
inline double geomean(const std::vector<double>& v) {
  double log_sum = 0.0;
  std::size_t n = 0;
  for (double x : v) {
    if (x > 0.0) {
      log_sum += std::log(x);
      ++n;
    }
  }
  return n == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(n));
}

/// Quantile of a log2 histogram (bucket b counts values in [2^b, 2^(b+1))),
/// interpolated linearly inside the bucket that holds the q-th value.
template <std::size_t B>
double hist_quantile(const std::uint64_t (&hist)[B], double q) {
  std::uint64_t total = 0;
  for (std::uint64_t c : hist) { total += c; }
  if (total == 0) { return 0.0; }
  const double rank = q * static_cast<double>(total);
  double seen = 0.0;
  for (std::size_t b = 0; b < B; ++b) {
    if (hist[b] == 0) { continue; }
    const double next = seen + static_cast<double>(hist[b]);
    if (next >= rank) {
      const double lo = std::ldexp(1.0, static_cast<int>(b));
      return lo + lo * (rank - seen) / static_cast<double>(hist[b]);
    }
    seen = next;
  }
  return std::ldexp(1.0, static_cast<int>(B));
}

}  // namespace perfbench
