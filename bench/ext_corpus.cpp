// Extension E7 — corpus x detector evaluation matrix (DESIGN.md §16).
//
// Sweeps the built-in transient-bug corpus (>= 12 parameterized variants
// across the atomicity / ordering / shared-flag taxonomy) against six
// detectors (OCSVM, kNN, LOF, PCA, Mahalanobis, and the oracle-labelled
// DustMiner baseline), grading every ranking against the corpus's derived
// ground-truth interval labels. Writes BENCH_corpus.json.
//
// Self-check: unless --selfcheck-jobs 0, the sweep runs twice — serial and
// at --selfcheck-jobs workers — and the two deterministic JSON renderings
// must be byte-identical, or the driver exits nonzero. The per-seed label/
// rank cross-checks against campaign stats run inside run_sweep itself.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "corpus/corpus.hpp"
#include "corpus/eval.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace sent;

namespace {

// The tier-1 smoke subset: one fast variant per taxonomy class, covering
// three of the four applications.
const std::vector<std::string> kSmokeIds = {
    "osc-shared-buffer-d20", "osc-late-commit-d20", "fwd-busy-drop-i100"};

std::vector<std::string> split_csv(const std::string& value) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= value.size()) {
    std::size_t comma = value.find(',', pos);
    if (comma == std::string::npos) comma = value.size();
    if (comma > pos) out.push_back(value.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return out;
}

bool resolve_variants(const std::string& value,
                      std::vector<corpus::VariantSpec>& specs) {
  if (value == "all") {
    specs = corpus::builtin_corpus();
    return true;
  }
  const std::vector<std::string> ids =
      value == "smoke" ? kSmokeIds : split_csv(value);
  for (const std::string& id : ids) {
    const corpus::VariantSpec* spec = corpus::find_variant(id);
    if (spec == nullptr) {
      std::fprintf(stderr,
                   "unknown --variants entry %s (valid: all, smoke, %s)\n",
                   id.c_str(), corpus::corpus_ids().c_str());
      return false;
    }
    specs.push_back(*spec);
  }
  if (specs.empty()) {
    std::fprintf(stderr, "--variants selected nothing (valid: all, smoke, %s)\n",
                 corpus::corpus_ids().c_str());
    return false;
  }
  return true;
}

void print_matrix(const corpus::SweepResult& result) {
  bench::section("corpus x detector matrix (detection rate @ top-" +
                 std::to_string(result.options.k) + " | precision@" +
                 std::to_string(result.options.k) + ")");
  std::vector<std::string> header = {"variant", "class", "trig"};
  for (const std::string& d : corpus::detector_names()) header.push_back(d);
  util::Table table(header);
  // The precision column index for k inside ks (fallback: first entry).
  std::size_t pk = 0;
  for (std::size_t i = 0; i < result.options.ks.size(); ++i)
    if (result.options.ks[i] == result.options.k) pk = i;
  for (const corpus::VariantReport& vr : result.variants) {
    std::vector<std::string> row = {
        vr.id, vr.bug_class,
        std::to_string(vr.triggered) + "/" + std::to_string(vr.seeds)};
    for (const corpus::DetectorCell& cell : vr.cells) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%.2f|%.2f", cell.detection_rate,
                    cell.precision[pk]);
      row.push_back(buf);
    }
    table.add_row(row);
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\ncells: detection_rate|precision@%zu over triggered seeds; "
      "dustminer uses ORACLE labels.\n",
      result.options.ks[pk]);
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli;
  cli.add_flag("variants",
               "comma-separated variant ids, or 'all' / 'smoke'", "all");
  cli.add_flag("seeds", "seeds per variant", "5");
  cli.add_flag("first-seed", "first seed", "1");
  cli.add_flag("top-k", "detection cut-off rank", "5");
  cli.add_flag("run-scale", "virtual-duration multiplier", "1.0");
  cli.add_flag("selfcheck-jobs",
               "re-run serially and require byte-identical JSON "
               "(0 = skip the self-check)",
               "4");
  cli.add_flag("json", "write the metrics JSON here", "BENCH_corpus.json");
  cli.add_switch("list", "print the corpus manifest and exit");
  bench::add_jobs_flag(cli, "campaign workers");
  if (!cli.parse(argc, argv)) return 1;

  if (cli.get_switch("list")) {
    util::Table table({"id", "class", "case", "marker", "params"});
    for (const corpus::VariantSpec& v : corpus::builtin_corpus()) {
      std::string params;
      for (const auto& [name, value] : v.params()) {
        if (!params.empty()) params += " ";
        params += name + "=" + value;
      }
      table.add_row(
          {v.id, corpus::to_string(v.bug_class), v.case_tag(), v.marker,
           params});
    }
    std::fputs(table.render().c_str(), stdout);
    return 0;
  }

  std::vector<corpus::VariantSpec> specs;
  if (!resolve_variants(cli.get("variants"), specs)) return 2;

  corpus::SweepOptions options;
  options.first_seed = static_cast<std::uint64_t>(
      cli.get_nonneg_int("first-seed"));
  options.seeds = static_cast<std::size_t>(cli.get_nonneg_int("seeds"));
  options.k = static_cast<std::size_t>(cli.get_positive_int("top-k"));
  options.run_scale = cli.get_positive_double("run-scale");
  options.threads = bench::parse_jobs(cli);
  if (options.seeds == 0) {
    std::fprintf(stderr, "--seeds must be positive\n");
    return 2;
  }

  std::printf("corpus sweep: %zu variants x %zu detectors x %zu seeds "
              "(--jobs %zu, run-scale %g)\n",
              specs.size(), corpus::detector_names().size(), options.seeds,
              options.threads, options.run_scale);
  const corpus::SweepResult result = corpus::run_sweep(specs, options);
  const std::string json = corpus::sweep_json(result);

  const auto selfcheck_jobs =
      static_cast<std::size_t>(cli.get_nonneg_int("selfcheck-jobs"));
  if (selfcheck_jobs > 0) {
    corpus::SweepOptions serial = options;
    serial.threads = 1;
    corpus::SweepOptions parallel = options;
    parallel.threads = selfcheck_jobs;
    // Compare against whichever schedule the main sweep did NOT use (and
    // both when the main sweep was neither).
    for (const corpus::SweepOptions& other : {serial, parallel}) {
      if (other.threads == options.threads) continue;
      const std::string other_json =
          corpus::sweep_json(corpus::run_sweep(specs, other));
      if (other_json != json) {
        std::fprintf(stderr,
                     "SELF-CHECK FAILED: sweep at --jobs %zu is not "
                     "byte-identical to --jobs %zu\n",
                     options.threads, other.threads);
        return 1;
      }
    }
    std::printf("self-check OK: serial and --jobs %zu sweeps byte-identical\n",
                selfcheck_jobs);
  }

  print_matrix(result);

  const std::string json_path = cli.get("json");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << json;
    if (!out) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
