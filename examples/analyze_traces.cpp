// sentomist-analyze: the offline back end as a command-line tool.
//
// Feed it one or more recorded trace files (trace::save_trace_file format,
// e.g. produced by examples/offline_analysis or your own harness), pick
// the event type and detector, and it prints the inspection ranking and,
// optionally, the symptom-to-code localization.
//
//   ./build/examples/analyze_traces --traces a.trace,b.trace --line 5
//       --detector knn --top 10 --localize 3
//
// With no --traces it demonstrates itself: records the three case-I runs
// to a temp directory first, then analyzes the files.
#include <cstdio>
#include <sstream>

#include "apps/scenarios.hpp"
#include "ml/detectors.hpp"
#include "pipeline/inspect.hpp"
#include "pipeline/sentomist.hpp"
#include "trace/serialize.hpp"
#include "util/cli.hpp"

using namespace sent;

namespace {

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

pipeline::FeatureKind make_features(const std::string& name, bool& ok) {
  ok = true;
  if (name == "instructions")
    return pipeline::FeatureKind::InstructionCounter;
  if (name == "functions") return pipeline::FeatureKind::CodeObject;
  if (name == "coarse") return pipeline::FeatureKind::Coarse;
  ok = false;
  std::fprintf(stderr, "unknown features '%s'\n", name.c_str());
  return pipeline::FeatureKind::InstructionCounter;
}

// Demo mode: record the case-I runs into files and return their paths.
std::vector<std::string> record_demo_traces() {
  apps::Case1Config config;
  config.seed = 5;
  config.sample_periods_ms = {20, 40, 60};
  config.run_seconds = 10.0;
  apps::Case1Result r = apps::run_case1(config);
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < r.runs.size(); ++i) {
    std::string path =
        "/tmp/sentomist_demo_run" + std::to_string(i) + ".trace";
    trace::save_trace_file(r.runs[i].sensor_trace, path);
    paths.push_back(path);
  }
  std::printf("(demo mode: recorded %zu case-I traces under /tmp)\n\n",
              paths.size());
  return paths;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli;
  cli.add_flag("traces", "comma-separated trace files", "");
  cli.add_flag("line", "interrupt line (event type) to anatomize", "5");
  cli.add_flag("detector",
               "ocsvm | pca | knn | lof | mahalanobis | kfd", "ocsvm");
  cli.add_flag("features", "instructions | functions | coarse",
               "instructions");
  cli.add_flag("top", "ranking rows to print", "10");
  cli.add_flag("localize",
               "contrast the k most suspicious intervals against the rest "
               "(0 = off)",
               "0");
  cli.add_flag("inspect",
               "render timeline + deviations for the top n intervals "
               "(0 = off)",
               "0");
  cli.add_switch("csv", "dump the full ranking as CSV instead of a table");
  if (!cli.parse(argc, argv)) return 1;

  std::vector<std::string> paths = split_commas(cli.get("traces"));
  if (paths.empty()) paths = record_demo_traces();

  std::vector<trace::NodeTrace> traces;
  traces.reserve(paths.size());
  for (const auto& path : paths) {
    traces.push_back(trace::load_trace_file(path));
    std::printf("loaded %-40s node %u, %zu lifecycle items\n", path.c_str(),
                traces.back().node_id, traces.back().lifecycle.size());
  }

  pipeline::AnalysisOptions options;
  options.detector = ml::make_detector(cli.get("detector"));
  if (!options.detector) {
    std::fprintf(stderr, "unknown detector '%s'\n",
                 cli.get("detector").c_str());
    return 1;
  }
  bool ok = false;
  options.features = make_features(cli.get("features"), ok);
  if (!ok) return 1;
  auto k_localize = static_cast<std::size_t>(cli.get_nonneg_int("localize"));
  auto n_inspect = static_cast<std::size_t>(cli.get_nonneg_int("inspect"));
  options.keep_features = k_localize > 0 || n_inspect > 0;

  std::vector<pipeline::TaggedTrace> tagged;
  for (std::size_t i = 0; i < traces.size(); ++i)
    tagged.push_back({&traces[i], i});
  auto line = static_cast<trace::IrqLine>(cli.get_int("line"));
  pipeline::AnalysisReport report = analyze(tagged, line, options);

  std::printf("\n%zu intervals of event type int(%d); detector %s\n\n",
              report.samples.size(), int(line),
              report.detector_name.c_str());
  if (cli.get_switch("csv")) {
    std::printf("rank,run,node,instance,score\n");
    for (std::size_t pos = 0; pos < report.ranking.size(); ++pos) {
      const auto& e = report.ranking[pos];
      const auto& s = report.samples[e.sample_index];
      std::printf("%zu,%zu,%u,%zu,%.6f\n", pos + 1, s.run + 1, s.node_id,
                  s.interval.seq_in_type + 1, e.score);
    }
  } else {
    const auto top = static_cast<std::size_t>(cli.get_nonneg_int("top"));
    std::fputs(format_ranking_table(report, /*with_run=*/traces.size() > 1,
                                    /*with_node=*/false, top, 2)
                   .c_str(),
               stdout);
  }

  for (std::size_t pos = 0;
       pos < std::min(n_inspect, report.ranking.size()); ++pos) {
    const auto& s = report.samples[report.ranking[pos].sample_index];
    // Samples were tagged with run = input file index.
    if (s.run >= traces.size()) continue;
    std::printf("\n");
    std::fputs(
        pipeline::render_interval_detail(traces[s.run], report, pos)
            .c_str(),
        stdout);
  }

  if (k_localize > 0) {
    std::printf("\nsymptom-to-code localization (top %zu vs rest):\n\n",
                k_localize);
    std::fputs(pipeline::format_localization(
                   pipeline::localize_top_k(report, k_localize))
                   .c_str(),
               stdout);
  }
  return 0;
}
