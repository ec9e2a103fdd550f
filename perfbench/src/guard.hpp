// Build guard: the benchmark only records numbers from an optimized,
// uninstrumented build on a machine with a core for every worker.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace sentbench {

/// Facts of the build this binary came from, recorded with every result.
struct BuildInfo {
  std::string compiler;
  std::string build_type;
  std::string flags;
  bool ndebug = false;     ///< assertions compiled out
  bool sanitized = false;  ///< address or thread sanitizer compiled in
};

BuildInfo build_info();

/// Logical CPUs this process may run on (its affinity mask, else
/// std::thread::hardware_concurrency).
std::size_t hardware_threads();

/// Reasons the run must be refused; empty when it may go ahead.
std::vector<std::string> guard_violations(const BuildInfo& build,
                                          std::size_t hardware,
                                          std::size_t threads);

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

}  // namespace sentbench
