#include "pipeline/sentomist.hpp"

#include <algorithm>
#include <sstream>

#include "ml/detectors.hpp"
#include "ml/error.hpp"
#include "ml/ocsvm.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/table.hpp"

namespace sent::pipeline {

namespace {

// Back-end introspection (DESIGN.md §11): how many analyses ran, how much
// interval material they saw, how often the detector had to degrade, and
// the phase scopes of the back end's stages.
struct Metrics {
  obs::Counter analyses = obs::Registry::global().counter("pipeline.analyses");
  obs::Counter traces = obs::Registry::global().counter("pipeline.traces");
  obs::Counter intervals =
      obs::Registry::global().counter("pipeline.intervals");
  obs::Counter knn_fallbacks =
      obs::Registry::global().counter("pipeline.knn_fallbacks");
  obs::Histogram samples_per_analysis =
      obs::Registry::global().histogram("pipeline.samples_per_analysis");
  obs::Phase analyze{"pipeline.analyze"};
  obs::Phase anatomize{"pipeline.anatomize"};
  obs::Phase featurize{"pipeline.featurize"};
  obs::Phase samples{"pipeline.samples"};
  obs::Phase score{"pipeline.score"};
  obs::Phase rank{"pipeline.rank"};

  static const Metrics& get() {
    static Metrics m;
    return m;
  }
};

}  // namespace

const char* to_string(FeatureKind kind) {
  switch (kind) {
    case FeatureKind::InstructionCounter: return "instruction-counter";
    case FeatureKind::Coarse: return "coarse";
    case FeatureKind::CodeObject: return "code-object";
  }
  return "?";
}

std::string Sample::label(bool with_run, bool with_node) const {
  std::ostringstream os;
  std::size_t seq1 = interval.seq_in_type + 1;
  if (with_run && with_node) {
    os << "[" << run + 1 << ", " << node_id << ", " << seq1 << "]";
  } else if (with_run) {
    os << "[" << run + 1 << ", " << seq1 << "]";
  } else if (with_node) {
    os << "[" << node_id << ", " << seq1 << "]";
  } else {
    os << seq1;
  }
  return os.str();
}

std::shared_ptr<core::OutlierDetector> default_detector() {
  return std::make_shared<ml::OneClassSvm>();
}

namespace {

core::FeatureMatrix featurize(const trace::NodeTrace& trace,
                              std::span<const core::EventInterval> intervals,
                              FeatureKind kind) {
  switch (kind) {
    case FeatureKind::InstructionCounter:
      return core::instruction_counters(trace, intervals);
    case FeatureKind::Coarse:
      return core::coarse_features(trace, intervals);
    case FeatureKind::CodeObject:
      return core::code_object_counters(trace, intervals);
  }
  SENT_ASSERT_MSG(false, "unknown feature kind");
  return {};
}

bool marker_in_window(const trace::BugMarker& bug,
                      const core::EventInterval& interval) {
  return bug.cycle >= interval.start_cycle &&
         bug.cycle <= interval.end_cycle;
}

}  // namespace

AnalysisReport analyze(const std::vector<TaggedTrace>& traces,
                       trace::IrqLine line, const AnalysisOptions& options) {
  SENT_REQUIRE_MSG(!traces.empty(), "no traces to analyze");
  obs::Span analyze_span(Metrics::get().analyze, line);
  Metrics::get().analyses.inc();

  AnalysisReport report;
  core::FeatureMatrix matrix;

  for (const auto& tagged : traces) {
    SENT_REQUIRE(tagged.trace != nullptr);
    Metrics::get().traces.inc();
    const trace::NodeTrace& node_trace = *tagged.trace;
    std::vector<core::EventInterval> intervals;
    {
      obs::Span anatomize_span(Metrics::get().anatomize);
      core::Anatomizer anatomizer(node_trace);
      intervals = anatomizer.intervals_for(line);
    }
    Metrics::get().intervals.inc(intervals.size());
    if (intervals.empty()) continue;

    core::FeatureMatrix part;
    {
      obs::Span featurize_span(Metrics::get().featurize);
      part = featurize(node_trace, intervals, options.features);
    }
    obs::Span samples_span(Metrics::get().samples);
    core::append_rows(matrix, part);
    for (const auto& interval : intervals) {
      Sample s;
      s.node_id = node_trace.node_id;
      s.run = tagged.run;
      s.interval = interval;
      for (const auto& bug : node_trace.bugs) {
        if (marker_in_window(bug, interval)) {
          s.has_bug = true;
          s.bug_kinds.push_back(bug.kind);
        }
      }
      report.samples.push_back(std::move(s));
    }
  }

  SENT_REQUIRE_MSG(!report.samples.empty(),
                   "no event-handling intervals for line "
                       << int(line) << " in the given traces");

  Metrics::get().samples_per_analysis.record(report.samples.size());
  score_and_rank(report, std::move(matrix), options);
  return report;
}

void score_and_rank(AnalysisReport& report, core::FeatureMatrix matrix,
                    const AnalysisOptions& options) {
  SENT_REQUIRE_MSG(matrix.size() == report.samples.size(),
                   "feature rows and samples out of step");
  std::shared_ptr<core::OutlierDetector> detector = options.detector;
  if (!detector) {
    ml::OcsvmParams params;
    params.pool = options.pool;
    detector = std::make_shared<ml::OneClassSvm>(params);
  }
  report.detector_name = detector->name();
  report.feature_dim = matrix.dim();

  try {
    obs::Span score_span(Metrics::get().score);
    report.scores = detector->score(matrix.values);
  } catch (const ml::TrainingError& e) {
    // Degrade instead of dying: the k-NN distance detector has no training
    // phase and handles any finite matrix, so a run whose features broke
    // the SVM still yields a (coarser) ranking. The report says so.
    Metrics::get().knn_fallbacks.inc();
    ml::KnnDetector fallback;
    report.scores = fallback.score(matrix.values);
    report.detector_name = fallback.name() + " (fallback)";
    report.degraded = true;
    report.degradation = e.what();
  }
  SENT_ASSERT(report.scores.size() == report.samples.size());
  {
    obs::Span rank_span(Metrics::get().rank);
    core::normalize_scores(report.scores);
    report.ranking.clear();
    auto ranked = core::rank_ascending(report.scores);
    report.ranking.reserve(ranked.size());
    for (const auto& r : ranked)
      report.ranking.push_back(RankedEntry{r.index, r.score});
  }
  if (options.keep_features) report.features = std::move(matrix);
}

core::Localization localize_top_k(const AnalysisReport& report,
                                  std::size_t k) {
  SENT_REQUIRE_MSG(!report.features.empty(),
                   "localize_top_k needs keep_features = true");
  return core::localize(report.features,
                        core::lowest_k(report.scores, k));
}

std::string format_localization(const core::Localization& localization,
                                std::size_t max_instructions,
                                std::size_t max_objects) {
  std::ostringstream os;
  {
    util::Table table({"suspect code object", "suspicion"});
    for (std::size_t i = 0;
         i < std::min(max_objects, localization.code_objects.size()); ++i) {
      const auto& o = localization.code_objects[i];
      table.add_row({o.code_object, util::cell(o.score, 2)});
    }
    os << table.render() << '\n';
  }
  {
    util::Table table({"suspect instruction", "suspicion",
                       "mean (suspicious)", "mean (normal)"});
    for (std::size_t i = 0;
         i < std::min(max_instructions, localization.instructions.size());
         ++i) {
      const auto& instr = localization.instructions[i];
      table.add_row({instr.name, util::cell(instr.score, 2),
                     util::cell(instr.suspicious_mean, 2),
                     util::cell(instr.normal_mean, 2)});
    }
    os << table.render();
  }
  return os.str();
}

std::vector<std::size_t> AnalysisReport::bug_ranks() const {
  std::vector<std::size_t> ranks;
  for (std::size_t pos = 0; pos < ranking.size(); ++pos) {
    if (samples[ranking[pos].sample_index].has_bug)
      ranks.push_back(pos + 1);
  }
  return ranks;
}

std::size_t AnalysisReport::buggy_count() const {
  std::size_t n = 0;
  for (const auto& s : samples) n += s.has_bug;
  return n;
}

double AnalysisReport::precision_at(std::size_t k) const {
  SENT_REQUIRE(k >= 1);
  k = std::min(k, ranking.size());
  std::size_t hits = 0;
  for (std::size_t pos = 0; pos < k; ++pos)
    hits += samples[ranking[pos].sample_index].has_bug;
  return static_cast<double>(hits) / static_cast<double>(k);
}

std::size_t AnalysisReport::inspection_depth_for_all() const {
  auto ranks = bug_ranks();
  return ranks.empty() ? 0 : ranks.back();
}

std::size_t AnalysisReport::first_bug_rank() const {
  auto ranks = bug_ranks();
  return ranks.empty() ? 0 : ranks.front();
}

std::string format_ranking_table(const AnalysisReport& report, bool with_run,
                                 bool with_node, std::size_t top,
                                 std::size_t bottom) {
  util::Table table({"Instance Index", "Score", "Bug (ground truth)"});
  auto add = [&](std::size_t pos) {
    const RankedEntry& entry = report.ranking[pos];
    const Sample& s = report.samples[entry.sample_index];
    std::string truth;
    if (s.has_bug) {
      truth = s.bug_kinds.front();
      if (s.bug_kinds.size() > 1)
        truth += " (x" + std::to_string(s.bug_kinds.size()) + ")";
    }
    table.add_row({s.label(with_run, with_node), util::cell(entry.score, 4),
                   truth});
  };
  std::size_t n = report.ranking.size();
  if (n <= top + bottom) {
    for (std::size_t pos = 0; pos < n; ++pos) add(pos);
    return table.render();
  }
  for (std::size_t pos = 0; pos < top; ++pos) add(pos);
  table.add_row({"...", "...", ""});
  for (std::size_t pos = n - bottom; pos < n; ++pos) add(pos);
  return table.render();
}

}  // namespace sent::pipeline
