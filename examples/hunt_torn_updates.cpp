// Case study IV as a developer story: "nodes sometimes serve a stale
// value even though their version is current — where do I look?"
//
// Runs the Trickle dissemination network, shows the corruption happening
// (node-seconds of wrong values served), then lets Sentomist rank the
// flash-ready event-handling intervals and renders the top hit: a Trickle
// broadcast nested inside the adopt task's flash-commit window — the torn
// read, visible in the timeline.
//
// Build & run:  ./build/examples/hunt_torn_updates [--fixed]
#include <cstdio>

#include "apps/scenarios.hpp"
#include "ml/ocsvm.hpp"
#include "pipeline/inspect.hpp"
#include "pipeline/sentomist.hpp"
#include "util/cli.hpp"

using namespace sent;

int main(int argc, char** argv) {
  util::Cli cli;
  cli.add_flag("seed", "experiment seed", "1");
  cli.add_switch("fixed", "run the repaired (version-last) firmware");
  if (!cli.parse(argc, argv)) return 1;

  apps::Case4Config config;
  config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const bool fixed = cli.get_switch("fixed");
  if (fixed) config.app.mutation = apps::DissMutation::None;

  std::printf("disseminating over 9 nodes for %g s (%s firmware)...\n",
              config.run_seconds, fixed ? "repaired" : "buggy");
  apps::Case4Result r = apps::run_case4(config);
  std::printf(
      "%llu versions published; %llu torn broadcasts; %.1f node-seconds "
      "of wrong values served\n",
      static_cast<unsigned long long>(r.updates_injected),
      static_cast<unsigned long long>(r.total_torn()),
      r.corruption_node_seconds);

  std::vector<pipeline::TaggedTrace> traces;
  for (std::size_t i = 0; i < r.traces.size(); ++i)
    traces.push_back({&r.traces[i], i});

  pipeline::AnalysisOptions options;
  ml::OcsvmParams params;
  params.nu = 0.1;  // symptom fraction here is a few percent
  options.detector = std::make_shared<ml::OneClassSvm>(params);
  options.keep_features = true;
  auto flash_line = static_cast<trace::IrqLine>(r.trickle_line + 1);
  pipeline::AnalysisReport report =
      pipeline::analyze(traces, flash_line, options);

  std::printf("\n%zu flash-ready intervals; inspect in this order:\n\n",
              report.samples.size());
  std::fputs(format_ranking_table(report, false, true, 6, 2).c_str(),
             stdout);

  // Render the highest-ranked TRUE hit (or rank 1 if none is marked).
  std::size_t pos = 0;
  for (std::size_t p = 0; p < report.ranking.size(); ++p) {
    if (report.samples[report.ranking[p].sample_index].has_bug) {
      pos = p;
      break;
    }
  }
  const auto& s = report.samples[report.ranking[pos].sample_index];
  std::printf("\n");
  std::fputs(pipeline::render_interval_detail(r.traces[s.run], report, pos,
                                              /*max_timeline_rows=*/20)
                 .c_str(),
             stdout);
  if (!fixed)
    std::printf(
        "\nThe int(%d) nested inside the adopt task's window is the "
        "Trickle\nbroadcast reading the half-written pair.\n",
        int(r.trickle_line));
  return 0;
}
