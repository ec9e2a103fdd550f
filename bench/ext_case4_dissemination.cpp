// Extension E5 — a fourth case study beyond the paper: torn updates in
// Trickle-based dissemination.
//
// Nine nodes disseminate a (version, value) pair under Trickle timing;
// node 0 publishes updates. The buggy adopt path writes the version field,
// spends ~2.5 ms committing to flash, then writes the value — so a Trickle
// fire that preempts the flash commit broadcasts a TORN pair (new version,
// old value). Receivers adopt the wrong value and suppress the correct
// summary as "consistent": silent data corruption until the next version.
//
// The symptom lives in the FLASH-READY event procedure (its interval spans
// the adopt task and therefore the preempting broadcast); the Trickle
// timer's own intervals are control-flow-identical for torn and normal
// fires — a useful demonstration that picking the event type to anatomize
// matters. The detector runs with nu=0.1: the symptom rate here (a few
// per ~150 intervals) needs the outlier budget nu*l to exceed the number
// of buggy intervals, the documented guidance for choosing nu.
#include <cstdio>

#include "apps/scenarios.hpp"
#include "bench_util.hpp"
#include "ml/ocsvm.hpp"
#include "util/cli.hpp"

using namespace sent;

int main(int argc, char** argv) {
  util::Cli cli;
  cli.add_flag("seed", "experiment seed", "1");
  cli.add_flag("run-seconds", "virtual run length", "60");
  cli.add_flag("rows", "ranking rows to print", "7");
  cli.add_switch("fixed", "run the repaired (version-last) variant");
  if (!cli.parse(argc, argv)) return 1;

  apps::Case4Config config;
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  config.run_seconds = cli.get_duration("run-seconds", sim::kCyclesPerSecond);
  const bool fixed = cli.get_switch("fixed");
  if (fixed) config.app.mutation = apps::DissMutation::None;

  bench::section("Extension E5: torn updates in Trickle dissemination");
  std::printf("9 nodes (3x3 grid), publisher = 0; %g s; seed %llu%s\n",
              config.run_seconds,
              static_cast<unsigned long long>(config.seed),
              fixed ? "; FIXED variant" : "");

  apps::Case4Result result = apps::run_case4(config);

  util::Table stats({"node", "version", "value", "summaries", "adoptions",
                     "torn broadcasts (truth)"});
  for (const auto& s : result.stats) {
    stats.add_row({util::cell(std::size_t(s.id)), util::cell(int(s.version)),
                   util::cell(int(s.value)), util::cell(s.summaries_sent),
                   util::cell(s.adoptions), util::cell(s.torn_broadcasts)});
  }
  std::fputs(stats.render().c_str(), stdout);
  std::printf(
      "updates published: %llu; torn broadcasts: %llu; corruption "
      "exposure: %.1f node-seconds\n",
      static_cast<unsigned long long>(result.updates_injected),
      static_cast<unsigned long long>(result.total_torn()),
      result.corruption_node_seconds);

  const apps::Analysis analyzed = apps::analysis_of(result);
  pipeline::AnalysisOptions options;
  ml::OcsvmParams params;
  params.nu = 0.1;
  options.detector = std::make_shared<ml::OneClassSvm>(params);
  pipeline::AnalysisReport report =
      pipeline::analyze(analyzed.traces, analyzed.line, options);

  bench::section(
      "Ranking over FLASH-READY intervals (index = [node, instance])");
  std::fputs(format_ranking_table(report, /*with_run=*/false,
                                  /*with_node=*/true,
                                  static_cast<std::size_t>(
                                      cli.get_nonneg_int("rows")),
                                  2)
                 .c_str(),
             stdout);
  bench::print_quality(report);

  // Contrast: the Trickle timer's own intervals cannot see the tear.
  pipeline::AnalysisReport blind =
      pipeline::analyze(analyzed.traces, result.trickle_line, options);
  bench::section("Contrast: Trickle-timer intervals (wrong event type)");
  std::printf(
      "same traces, %zu intervals: first buggy interval at rank %zu of "
      "%zu\n(the torn fire executes the exact same instructions as a "
      "normal fire).\n",
      blind.samples.size(), blind.first_bug_rank(), blind.samples.size());
  return 0;
}
