// Small statistics helpers used by the featurizer, the ML detectors, and
// the benchmark reporting code.
#pragma once

#include <span>

namespace sent::util {

/// Arithmetic mean; 0 for an empty input.
double mean(std::span<const double> xs);

/// Unbiased sample variance (n-1 denominator); 0 for n < 2.
double variance(std::span<const double> xs);

/// Sample standard deviation.
double stddev(std::span<const double> xs);

/// Median of a copy of the input; 0 for empty input.
double median(std::span<const double> xs);

/// Linear-interpolated percentile, p in [0, 100]; 0 for empty input.
double percentile(std::span<const double> xs, double p);

/// Euclidean distance between two equal-length vectors.
double l2_distance(std::span<const double> a, std::span<const double> b);

/// Dot product of two equal-length vectors.
double dot(std::span<const double> a, std::span<const double> b);

}  // namespace sent::util
