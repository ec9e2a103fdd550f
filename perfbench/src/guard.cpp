#include "guard.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <thread>

#ifndef SENTBENCH_BUILD_TYPE
#define SENTBENCH_BUILD_TYPE "unknown"
#endif
#ifndef SENTBENCH_CXX_FLAGS
#define SENTBENCH_CXX_FLAGS "unknown"
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SENTBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SENTBENCH_SANITIZED 1
#endif
#endif

namespace sentbench {

BuildInfo build_info() {
  BuildInfo b;
#if defined(__clang__)
  b.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  b.compiler = "gcc " __VERSION__;
#else
  b.compiler = "unknown";
#endif
  b.build_type = SENTBENCH_BUILD_TYPE;
  b.flags = SENTBENCH_CXX_FLAGS;
#ifdef NDEBUG
  b.ndebug = true;
#endif
#ifdef SENTBENCH_SANITIZED
  b.sanitized = true;
#endif
  return b;
}

std::size_t hardware_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

std::vector<std::string> guard_violations(const BuildInfo& build,
                                          std::size_t hardware,
                                          std::size_t threads) {
  std::vector<std::string> out;
  if (!build.ndebug)
    out.push_back("assertion-enabled build (NDEBUG not defined)");
  if (build.sanitized) out.push_back("sanitizer build");
  if (threads > hardware)
    out.push_back("workload needs " + std::to_string(threads) +
                  " threads but only " + std::to_string(hardware) +
                  " hardware threads are available");
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace sentbench
