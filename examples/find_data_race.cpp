// Developer workflow: my data-collection app sometimes reports corrupted
// packets — which of the thousands of event-procedure instances should I
// look at?
//
// Runs the Oscilloscope application (the paper's Figure-2 code) at a fast
// sampling rate under background load, then lets Sentomist rank the ADC
// event-handling intervals. Run with --fixed to see the repaired
// (double-buffered) firmware produce a quiet ranking instead.
//
// Build & run:  ./build/examples/find_data_race [--fixed]
#include <cstdio>

#include "apps/scenarios.hpp"
#include "pipeline/sentomist.hpp"
#include "util/cli.hpp"

using namespace sent;

int main(int argc, char** argv) {
  util::Cli cli;
  cli.add_flag("seed", "experiment seed", "5");
  cli.add_switch("fixed", "run the repaired firmware");
  if (!cli.parse(argc, argv)) return 1;

  apps::Case1Config config;
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  config.sample_periods_ms = {20};  // one aggressive run
  config.run_seconds = 20.0;
  const bool fixed = cli.get_switch("fixed");
  if (fixed) config.osc.mutation = apps::OscMutation::None;

  std::printf("running Oscilloscope (%s firmware), D = 20 ms, 20 s...\n",
              fixed ? "repaired" : "buggy");
  apps::Case1Result result = apps::run_case1(config);
  const apps::Case1Run& run = result.runs[0];
  std::printf("%llu readings, %llu packets sent, %llu reached the sink\n",
              static_cast<unsigned long long>(run.readings),
              static_cast<unsigned long long>(run.packets_sent),
              static_cast<unsigned long long>(run.sink_received));

  pipeline::AnalysisReport report =
      pipeline::analyze({{&run.sensor_trace, 0}}, os::irq::kAdc);

  std::printf("\n%zu ADC event-handling intervals; inspect in this order:\n\n",
              report.samples.size());
  std::fputs(format_ranking_table(report, false, false, 8, 2).c_str(),
             stdout);

  if (report.buggy_count() > 0) {
    std::printf(
        "\nGround truth: %llu pollution(s) actually occurred; the first "
        "truly-buggy interval sits at rank %zu.\n",
        static_cast<unsigned long long>(run.pollutions),
        report.first_bug_rank());
  } else {
    std::printf("\nGround truth: no pollution occurred in this run.\n");
  }
  return 0;
}
