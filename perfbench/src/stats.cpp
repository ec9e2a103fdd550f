#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sentbench {

namespace {

// Integer nearest rank for p in tenths of a percent, free of the rounding
// that ceil(p / 100.0 * n) suffers at exact multiples.
std::size_t rank_for(std::size_t n, long tenths) {
  const auto scaled = static_cast<std::uint64_t>(n) *
                      static_cast<std::uint64_t>(tenths);
  return static_cast<std::size_t>((scaled + 999) / 1000);
}

long to_tenths(double p) {
  if (!(p > 0.0 && p <= 100.0))
    throw std::invalid_argument("percentile outside (0, 100]");
  return std::lround(p * 10.0);
}

}  // namespace

Percentile percentile(std::vector<double> samples, double p) {
  Percentile out;
  out.n = samples.size();
  if (samples.empty()) return out;
  const std::size_t rank =
      std::max<std::size_t>(1, rank_for(out.n, to_tenths(p)));
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  out.value = samples[rank - 1];
  out.beyond = out.n - rank;
  return out;
}

double highest_reportable_percentile(std::size_t n) {
  for (long tenths = 1000; tenths >= 1; --tenths) {
    const std::size_t rank = rank_for(n, tenths);
    if (rank >= 1 && n - rank >= kMinBeyond)
      return static_cast<double>(tenths) / 10.0;
  }
  return 0.0;
}

std::size_t samples_needed(double p) {
  const long tenths = to_tenths(p);
  for (std::size_t n = kMinBeyond + 1;; ++n) {
    if (n - rank_for(n, tenths) >= kMinBeyond) return n;
  }
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                           : (values[mid - 1] + values[mid]) / 2.0;
}

Quartiles quartiles(std::vector<double> values) {
  Quartiles out;
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  out.median = median(values);
  if (values.size() == 1) {
    out.q1 = out.q3 = values[0];
    return out;
  }
  // statistics.quantiles, method "exclusive": cut point i of n = 4 sits at
  // 1-based position i * (len + 1) / 4, clamped to [1, len - 1], with
  // linear interpolation to the next value.
  const auto len = static_cast<long>(values.size());
  auto cut = [&](long i) {
    long j = i * (len + 1) / 4;
    j = std::clamp(j, 1L, len - 1);
    const long delta = i * (len + 1) - j * 4;
    return (values[static_cast<std::size_t>(j - 1)] *
                static_cast<double>(4 - delta) +
            values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  out.q1 = cut(1);
  out.q3 = cut(3);
  return out;
}

double worker_busy_share(double call_seconds, double wall_seconds,
                         std::size_t workers) {
  if (wall_seconds <= 0.0 || workers == 0) return 0.0;
  return call_seconds / (wall_seconds * static_cast<double>(workers));
}

SelfTimes self_times(const SpanLog& log) {
  SelfTimes out;
  // Capacity of each span, less its children's durations.
  std::vector<std::vector<double>> self(log.lanes());
  for (std::size_t lane = 0; lane < log.lanes(); ++lane) {
    for (const Span& s : log.lane(lane))
      self[lane].push_back(static_cast<double>(s.duration_ns()) *
                           static_cast<double>(s.parallelism));
  }
  for (std::size_t lane = 0; lane < log.lanes(); ++lane) {
    for (const Span& s : log.lane(lane)) {
      if (!s.parent.valid()) {
        out.total_ns += static_cast<double>(s.duration_ns()) *
                        static_cast<double>(s.parallelism);
        ++out.roots;
        continue;
      }
      self.at(static_cast<std::size_t>(s.parent.lane))
          .at(static_cast<std::size_t>(s.parent.index)) -=
          static_cast<double>(s.duration_ns());
    }
  }
  for (std::size_t lane = 0; lane < log.lanes(); ++lane) {
    const std::vector<Span>& spans = log.lane(lane);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const std::string name = spans[i].name;
      const std::string layer = name.substr(0, name.find('.'));
      out.layer_ns[layer] += self[lane][i];
      out.span_ns[name] += self[lane][i];
    }
  }
  return out;
}

}  // namespace sentbench
