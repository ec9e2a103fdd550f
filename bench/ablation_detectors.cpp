// Ablation A1 — detector comparison (paper §VI-E: "one-class SVM is not
// the sole option ... A further comparison study can be conducted in our
// future work"; this bench conducts it).
//
// All three case studies are run once; each detector ranks the same
// feature matrices. Reported per (case, detector): rank of the first
// true-bug interval, smallest inspection depth covering every detectable
// bug, and precision among the top-5.
#include <cstdio>
#include <functional>
#include <memory>

#include "apps/scenarios.hpp"
#include "bench_util.hpp"
#include "ml/detectors.hpp"
#include "ml/kfd.hpp"
#include "ml/ocsvm.hpp"
#include "util/cli.hpp"

using namespace sent;

namespace {

struct NamedDetector {
  std::string name;
  std::function<std::shared_ptr<core::OutlierDetector>()> make;
};

std::vector<NamedDetector> detectors() {
  return {
      {"ocsvm-rbf", [] { return std::make_shared<ml::OneClassSvm>(); }},
      {"ocsvm-linear",
       [] {
         ml::OcsvmParams p;
         p.kernel.type = ml::KernelType::Linear;
         return std::make_shared<ml::OneClassSvm>(p);
       }},
      {"pca", [] { return std::make_shared<ml::PcaDetector>(); }},
      {"knn", [] { return std::make_shared<ml::KnnDetector>(); }},
      {"lof", [] { return std::make_shared<ml::LofDetector>(); }},
      {"mahalanobis",
       [] { return std::make_shared<ml::MahalanobisDetector>(); }},
      {"oc-kfd",
       [] { return std::make_shared<ml::KernelFisherDetector>(); }},
  };
}

void report_rows(util::Table& table, const std::string& case_name,
                 const apps::Analysis& analyzed) {
  for (const auto& d : detectors()) {
    pipeline::AnalysisOptions options;
    options.detector = d.make();
    pipeline::AnalysisReport report =
        pipeline::analyze(analyzed.traces, analyzed.line, options);
    table.add_row({case_name, d.name, util::cell(report.samples.size()),
                   util::cell(report.buggy_count()),
                   util::cell(report.first_bug_rank()),
                   util::cell(report.inspection_depth_for_all()),
                   util::cell(report.precision_at(5), 3)});
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli;
  cli.add_flag("seed", "experiment seed", "5");
  if (!cli.parse(argc, argv)) return 1;
  auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  bench::section("Ablation A1: outlier-detector comparison");
  util::Table table({"case", "detector", "samples", "buggy",
                     "first bug rank", "depth for all", "precision@5"});

  const struct {
    const char* name;
    apps::Scenario scenario;
    std::uint64_t seed;
  } cases[] = {{"I data-pollution", apps::Case1Config{}, seed},
               {"II busy-drop", apps::Case2Config{}, 3},
               {"III ctp-hang", apps::Case3Config{}, seed}};
  for (const auto& c : cases) {
    const apps::Simulation sim = apps::simulate(c.scenario, c.seed);
    report_rows(table, c.name, sim.analyzed);
  }

  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\nNote: 'depth for all' counts every interval containing a ground-\n"
      "truth marker, including short polluter-side windows the paper's\n"
      "methodology would not flag; 'first bug rank' is the headline "
      "metric.\n");
  return 0;
}
