// The benchmark's own statistics: percentiles under the reporting rule,
// medians, worker busy share, span self times and failure shares.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"

namespace sentbench {

/// Samples a percentile must leave beyond it before it may be reported.
inline constexpr std::size_t kMinBeyond = 10;

/// A nearest-rank percentile of a sample set, with the counts the
/// reporting rule needs.
struct Percentile {
  double value = 0.0;
  std::size_t n = 0;     ///< sample count
  std::size_t beyond = 0;  ///< samples ranked above the percentile
  /// At least kMinBeyond samples lie beyond it.
  bool reportable() const { return n > 0 && beyond >= kMinBeyond; }
};

/// Nearest-rank percentile: the ceil(p/100 * n)-th smallest sample.
Percentile percentile(std::vector<double> samples, double p);

/// The highest percentile (in whole tenths of a percent) that leaves at
/// least kMinBeyond samples beyond it; 0 when n <= kMinBeyond.
double highest_reportable_percentile(std::size_t n);

/// Smallest sample count for which percentile p is reportable.
std::size_t samples_needed(double p);

/// Median (mean of the two middle values for even n); 0 when empty.
double median(std::vector<double> values);

/// First quartile, median and third quartile by the method of Python's
/// statistics.quantiles(values, n=4) (its default, "exclusive"), so the
/// benchmark and its repeat-mode summary agree. A single value is its own
/// quartiles; empty input gives zeros.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> values);

/// Share of worker capacity spent inside runner calls:
/// sum of call times / (campaign wall * workers).
double worker_busy_share(double call_seconds, double wall_seconds,
                         std::size_t workers);

/// Self time per layer over a span log. A span's self time is its
/// capacity (duration * parallelism) minus the durations of its children;
/// the layer is the span name up to the first '.' ("run" spans, whose self
/// time no layer call covers, are the residual). The self times of all
/// spans add up to `total_ns`, the summed capacity of the root spans.
struct SelfTimes {
  std::map<std::string, double> layer_ns;
  std::map<std::string, double> span_ns;  ///< by full span name
  double total_ns = 0.0;
  std::size_t roots = 0;
};
SelfTimes self_times(const SpanLog& log);

/// Operations attempted and failed; every attempt, failed or not, is in
/// the denominator of the share.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(std::uint64_t attempts, std::uint64_t failures) {
    attempted += attempts;
    failed += failures;
  }
  double share() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

}  // namespace sentbench
