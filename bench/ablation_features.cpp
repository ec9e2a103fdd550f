// Ablation A2 — feature comparison (paper §V-B).
//
// The paper argues for the instruction counter over cheaper abstractions.
// This bench ranks the same intervals (cases I and II) featured three
// ways: full instruction counters (Definition 4), per-code-object
// (function-level, Dustminer-style) counts, and coarse scalar summaries.
#include <cstdio>

#include "apps/scenarios.hpp"
#include "bench_util.hpp"
#include "util/cli.hpp"

using namespace sent;

namespace {

void report_rows(util::Table& table, const std::string& case_name,
                 const apps::Analysis& analyzed) {
  for (pipeline::FeatureKind kind :
       {pipeline::FeatureKind::InstructionCounter,
        pipeline::FeatureKind::CodeObject, pipeline::FeatureKind::Coarse}) {
    pipeline::AnalysisOptions options;
    options.features = kind;
    pipeline::AnalysisReport report =
        pipeline::analyze(analyzed.traces, analyzed.line, options);
    table.add_row({case_name, pipeline::to_string(kind),
                   util::cell(report.feature_dim),
                   util::cell(report.first_bug_rank()),
                   util::cell(report.precision_at(5), 3)});
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli;
  cli.add_flag("seed", "experiment seed", "5");
  if (!cli.parse(argc, argv)) return 1;
  auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  bench::section("Ablation A2: interval featurization comparison");
  util::Table table(
      {"case", "features", "dim", "first bug rank", "precision@5"});

  const struct {
    const char* name;
    apps::Scenario scenario;
    std::uint64_t seed;
  } cases[] = {{"I data-pollution", apps::Case1Config{}, seed},
               {"II busy-drop", apps::Case2Config{}, 3}};
  for (const auto& c : cases) {
    const apps::Simulation sim = apps::simulate(c.scenario, c.seed);
    report_rows(table, c.name, sim.analyzed);
  }

  std::fputs(table.render().c_str(), stdout);
  return 0;
}
