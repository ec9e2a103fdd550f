// Extension E1 — bug localization (paper §VII future work).
//
// After Sentomist ranks the suspicious intervals, the localizer contrasts
// them against the normal population per static instruction and names the
// code the symptom lives in. Ground truth per case:
//   I   — the pollution is in Read.readDone / prepareAndSendPacket
//         (interleaved ADC handler writes into the unsent packet);
//   II  — the active drop path in Receive.receive (drop_busy);
//   III — the unhandled FAIL path in CtpForwardingEngine.sendTask.
#include <cstdio>

#include "apps/scenarios.hpp"
#include "bench_util.hpp"
#include "util/cli.hpp"

using namespace sent;

namespace {

void run_case(const std::string& title, const apps::Analysis& analyzed,
              std::size_t k, const std::string& expected_object) {
  pipeline::AnalysisOptions options;
  options.keep_features = true;
  pipeline::AnalysisReport report =
      pipeline::analyze(analyzed.traces, analyzed.line, options);
  core::Localization loc = pipeline::localize_top_k(report, k);

  bench::section(title);
  std::printf("contrasting the %zu most suspicious of %zu intervals\n\n", k,
              report.samples.size());
  std::fputs(pipeline::format_localization(loc).c_str(), stdout);

  std::size_t rank_of_expected = 0;
  for (std::size_t i = 0; i < loc.code_objects.size(); ++i) {
    if (loc.code_objects[i].code_object == expected_object) {
      rank_of_expected = i + 1;
      break;
    }
  }
  std::printf("\nknown-buggy code object '%s' localized at rank %zu of %zu\n",
              expected_object.c_str(), rank_of_expected,
              loc.code_objects.size());
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli;
  cli.add_flag("seed", "experiment seed", "5");
  cli.add_flag("top-k", "suspicious intervals to contrast", "3");
  if (!cli.parse(argc, argv)) return 1;
  auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  auto k = static_cast<std::size_t>(cli.get_positive_int("top-k"));

  const struct {
    const char* title;
    apps::Scenario scenario;
    std::uint64_t seed;
    std::size_t k;
    const char* expected_object;
  } cases[] = {{"E1 / case I: localize the data pollution",
                apps::Case1Config{}, seed, k, "Read.readDone"},
               {"E1 / case II: localize the active drop", apps::Case2Config{},
                3, k, "Receive.receive"},
               {"E1 / case III: localize the unhandled FAIL",
                apps::Case3Config{}, seed, 1, "CtpForwardingEngine.sendTask"}};
  for (const auto& c : cases) {
    const apps::Simulation sim = apps::simulate(c.scenario, c.seed);
    run_case(c.title, sim.analyzed, c.k, c.expected_object);
  }
  return 0;
}
