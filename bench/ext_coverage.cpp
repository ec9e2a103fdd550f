// Extension E7 — interleaving coverage as a test-adequacy signal
// (after the paper's reference [20], Lai et al.'s inter-context criteria).
//
// For the case-I workload, sweeps seeds and reports each run's
// interleaving coverage next to whether the data-pollution bug triggered.
// The link the table shows: pollution occurs only in runs whose coverage
// includes the ADC self-interleaving pair — the structural precondition
// of the race — so coverage is a cheap leading indicator of whether a
// randomized run even COULD have exposed the bug.
#include <cstdio>

#include "apps/scenarios.hpp"
#include "bench_util.hpp"
#include "core/coverage.hpp"
#include "util/cli.hpp"

using namespace sent;

int main(int argc, char** argv) {
  util::Cli cli;
  cli.add_flag("runs", "seeds to sweep", "12");
  if (!cli.parse(argc, argv)) return 1;
  auto runs = static_cast<std::size_t>(cli.get_nonneg_int("runs"));

  bench::section(
      "Extension E7: interleaving coverage vs bug triggering (case I, "
      "D=20ms)");
  util::Table table({"seed", "coverage ratio", "ADC self-overlap count",
                     "pollutions (truth)"});

  core::InterleavingCoverage cumulative;
  std::size_t with_self = 0, triggered_with_self = 0, triggered_without = 0;
  for (std::uint64_t seed = 1; seed <= runs; ++seed) {
    apps::Case1Config config;
    config.seed = seed;
    config.sample_periods_ms = {20};
    config.run_seconds = 10.0;
    apps::Case1Result r = apps::run_case1(config);
    core::InterleavingCoverage cov =
        core::measure_interleaving(r.runs[0].sensor_trace);
    cumulative.merge(cov);
    std::uint64_t self = cov.count(os::irq::kAdc, os::irq::kAdc);
    if (self > 0) {
      ++with_self;
      triggered_with_self += r.runs[0].pollutions > 0;
    } else {
      triggered_without += r.runs[0].pollutions > 0;
    }
    table.add_row({util::cell(seed), util::cell(cov.ratio(), 3),
                   util::cell(self), util::cell(r.runs[0].pollutions)});
  }
  std::fputs(table.render().c_str(), stdout);

  std::printf(
      "\nruns with the ADC self-interleaving pair covered: %zu; of those, "
      "%zu triggered the bug.\nruns without it that triggered: %zu "
      "(structurally impossible; expect 0).\n",
      with_self, triggered_with_self, triggered_without);

  bench::section("Cumulative coverage over all runs");
  std::fputs(cumulative.render().c_str(), stdout);
  return 0;
}
