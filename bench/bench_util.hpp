// Shared helpers for the experiment-reproduction binaries.
#pragma once

#include <chrono>
#include <cstdio>
#include <initializer_list>
#include <string>

#include "pipeline/sentomist.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace sent::bench {

/// Print a section header.
inline void section(const std::string& title) {
  std::printf("\n=== %s ===\n\n", title.c_str());
}

/// Wall seconds elapsed since `start` (steady clock): a driver timing a
/// whole campaign or run from outside the program.
inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Declare the standard --jobs flag. `what` names the work that fans out
/// (campaign workers, detector threads, ...); every binary shares the same
/// spelling and "0 = all hardware cores" convention.
inline void add_jobs_flag(util::Cli& cli, const std::string& what) {
  cli.add_flag("jobs", what + " (0 = all hardware cores)", "0");
}

/// Resolve the parsed --jobs value (0 means every hardware core). A
/// negative value is a usage error (exit 2), not a 2^64-sized thread pool.
inline std::size_t parse_jobs(const util::Cli& cli) {
  auto jobs = static_cast<std::size_t>(cli.get_nonneg_int("jobs"));
  return jobs == 0 ? util::ThreadPool::hardware_threads() : jobs;
}

/// Validate a --case value against the driver's case list. An unknown value
/// gets a usage error naming the valid cases; the caller exits nonzero
/// instead of silently running a default set.
inline bool check_case(const std::string& name,
                       std::initializer_list<const char*> valid) {
  for (const char* v : valid)
    if (name == v) return true;
  std::fprintf(stderr, "unknown --case %s (valid:", name.c_str());
  for (const char* v : valid) std::fprintf(stderr, " %s", v);
  std::fprintf(stderr, ")\n");
  return false;
}

/// Print the detection-quality summary the paper reports in prose.
inline void print_quality(const pipeline::AnalysisReport& report) {
  std::printf("samples (event-handling intervals): %zu\n",
              report.samples.size());
  std::printf("feature dimensionality:             %zu\n",
              report.feature_dim);
  std::printf("detector:                           %s\n",
              report.detector_name.c_str());
  std::printf("ground-truth buggy intervals:       %zu\n",
              report.buggy_count());
  auto ranks = report.bug_ranks();
  std::printf("ranks of buggy intervals:           ");
  if (ranks.empty()) {
    std::printf("(none)\n");
  } else {
    for (std::size_t i = 0; i < ranks.size(); ++i)
      std::printf("%s%zu", i ? ", " : "", ranks[i]);
    std::printf("\n");
  }
  if (!ranks.empty()) {
    std::printf("first buggy interval at rank:       %zu\n",
                report.first_bug_rank());
    std::printf("precision@%zu:                       %.3f\n",
                report.first_bug_rank(),
                report.precision_at(report.first_bug_rank()));
    std::size_t k = std::min<std::size_t>(10, report.ranking.size());
    std::printf("buggy intervals in top-%zu:          %zu\n", k,
                static_cast<std::size_t>(report.precision_at(k) *
                                             static_cast<double>(k) +
                                         0.5));
  }
}

}  // namespace sent::bench
