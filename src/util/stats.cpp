#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/assert.hpp"

namespace sent::util {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double median(std::span<const double> xs) { return percentile(xs, 50.0); }

double percentile(std::span<const double> xs, double p) {
  if (xs.empty()) return 0.0;
  SENT_REQUIRE(p >= 0.0 && p <= 100.0);
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  if (v.size() == 1) return v[0];
  double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  auto lo = static_cast<std::size_t>(rank);
  auto hi = std::min(lo + 1, v.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double l2_distance(std::span<const double> a, std::span<const double> b) {
  SENT_REQUIRE(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    double d = a[i] - b[i];
    s += d * d;
  }
  return std::sqrt(s);
}

double dot(std::span<const double> a, std::span<const double> b) {
  SENT_REQUIRE(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

}  // namespace sent::util
