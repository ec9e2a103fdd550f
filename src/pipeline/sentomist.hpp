// The assembled Sentomist tool (paper Figure 3).
//
// Input: one or more node traces (possibly from several testing runs
// and/or several nodes running the same program image) plus the event type
// (interrupt line) under test. The pipeline anatomizes each trace into
// event-handling intervals, features them, scores them with a plug-in
// outlier detector, normalizes scores (largest positive = 1, footnote 5)
// and produces the ascending ranking that the paper's Figure 5 prints —
// the priority order for manual inspection.
//
// Ground-truth bug markers recorded by the instrumented applications are
// matched against interval windows so benches can grade the ranking; they
// are never visible to the detector.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/anatomizer.hpp"
#include "core/detector.hpp"
#include "core/features.hpp"
#include "core/localizer.hpp"
#include "trace/recorder.hpp"

namespace sent::util {
class ThreadPool;
}

namespace sent::pipeline {

/// One interval-sample with provenance.
struct Sample {
  std::uint32_t node_id = 0;  ///< node the trace came from
  std::size_t run = 0;        ///< testing-run index (case I sweeps runs)
  core::EventInterval interval;
  bool has_bug = false;       ///< ground truth: a marker in the window
  std::vector<std::string> bug_kinds;

  /// Paper-style index: "[run+1, seq+1]", "[node, seq+1]" or plain "seq+1"
  /// depending on which fields the case study uses.
  std::string label(bool with_run, bool with_node) const;
};

using TaggedTrace = trace::TaggedTrace;

enum class FeatureKind { InstructionCounter, Coarse, CodeObject };

const char* to_string(FeatureKind kind);

struct AnalysisOptions {
  FeatureKind features = FeatureKind::InstructionCounter;
  /// Detector; nullptr selects the default one-class SVM (RBF, nu=0.05).
  std::shared_ptr<core::OutlierDetector> detector;
  /// Keep the feature matrix on the report (needed for localize_top_k).
  bool keep_features = false;
  /// Borrowed pool for the default detector's kernel build and batch
  /// scoring, handed to its OcsvmParams::pool (ignored when `detector` is
  /// set). nullptr runs inline; scores are identical either way.
  util::ThreadPool* pool = nullptr;
};

struct RankedEntry {
  std::size_t sample_index;  ///< into AnalysisReport::samples
  double score;              ///< normalized score
};

struct AnalysisReport {
  std::vector<Sample> samples;        ///< in matrix-row order
  std::vector<double> scores;         ///< normalized, per sample
  std::vector<RankedEntry> ranking;   ///< ascending score
  std::string detector_name;
  std::size_t feature_dim = 0;
  /// Present only when AnalysisOptions::keep_features was set.
  core::FeatureMatrix features;
  /// True when the configured detector failed to train (ml::TrainingError)
  /// and the pipeline fell back to the k-NN distance detector instead of
  /// aborting; `degradation` holds the original error (DESIGN.md §9).
  bool degraded = false;
  std::string degradation;

  /// 1-based ranks of ground-truth buggy samples, ascending.
  std::vector<std::size_t> bug_ranks() const;
  std::size_t buggy_count() const;
  /// Fraction of the top-k that is truly buggy.
  double precision_at(std::size_t k) const;
  /// Smallest k such that the top-k contains ALL buggy samples (0 if none).
  std::size_t inspection_depth_for_all() const;
  /// Rank of the first buggy sample (0 if none).
  std::size_t first_bug_rank() const;
};

/// Run the Sentomist back end over the traces' intervals of event type
/// `line`. All traces must share the same program image (identical
/// instruction tables).
AnalysisReport analyze(const std::vector<TaggedTrace>& traces,
                       trace::IrqLine line,
                       const AnalysisOptions& options = {});

/// The scoring tail of analyze(), shared with the streaming fleet-ingest
/// service (src/stream) so a streamed analysis ranks bit-identically to the
/// batch pipeline: select the detector (options.detector, else the default
/// OCSVM on options.pool), score `matrix`, fall back to k-NN on
/// ml::TrainingError, normalize, and fill scores / ranking / detector_name
/// / feature_dim (and `features` when keep_features) on `report`. The
/// report's samples must already be populated in matrix-row order.
void score_and_rank(AnalysisReport& report, core::FeatureMatrix matrix,
                    const AnalysisOptions& options = {});

/// Render the paper's Figure-5 style table: ascending scores with instance
/// indices. `top` and `bottom` bound how many head/tail rows to include
/// (the paper prints the head, an ellipsis, and the tail).
std::string format_ranking_table(const AnalysisReport& report,
                                 bool with_run, bool with_node,
                                 std::size_t top = 7, std::size_t bottom = 2);

/// Construct the default detector (one-class SVM, RBF, nu=0.05).
std::shared_ptr<core::OutlierDetector> default_detector();

/// Bug localization (paper §VII): contrast the k most suspicious intervals
/// against the rest and rank static instructions / code objects by how
/// discriminative their execution counts are. The report must have been
/// produced with keep_features = true.
core::Localization localize_top_k(const AnalysisReport& report,
                                  std::size_t k);

/// Render a localization as a table ("suspect code" listing).
std::string format_localization(const core::Localization& localization,
                                std::size_t max_instructions = 8,
                                std::size_t max_objects = 5);

}  // namespace sent::pipeline
