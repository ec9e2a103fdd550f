// Transient-bug corpus (DESIGN.md §16).
//
// The paper validates Sentomist on three case-study anecdotes; the corpus
// turns that into a measurable claim. Each VariantSpec names one seeded
// mutation — an atomicity violation, an ordering bug, or a shared-flag
// race across the interrupt/task boundary (Sun et al.'s disentanglement
// taxonomy) — built into one of the existing applications by its
// scenario's mutation enum. Running a variant yields node traces whose
// ground-truth labels are DERIVED FROM THE TRACE ITSELF: the mutated code
// marks the exact cycle at which the bug manifests, and every anatomized
// interval of the case's event type whose window contains such a marker is
// labelled buggy. No interval is ever hand-labelled.
//
// The same spec with its mutation set to None (`baseline = true`, the
// repaired app) is the control: it must produce zero markers and therefore
// zero labels, which tests/corpus_test.cpp enforces for every variant.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "apps/scenarios.hpp"
#include "pipeline/sentomist.hpp"

namespace sent::corpus {

/// Sun et al.'s interrupt-disentanglement taxonomy classes.
enum class BugClass : std::uint8_t { Atomicity, Ordering, SharedFlag };

const char* to_string(BugClass c);

/// One parameterized transient-bug variant: a labelled Scenario whose app
/// carries the variant's mutation.
struct VariantSpec {
  std::string id;           ///< stable corpus id, e.g. "osc-late-commit-d20"
  BugClass bug_class = BugClass::Atomicity;
  std::string marker;       ///< trace marker kind = the ground-truth key
  std::string description;
  apps::Scenario scenario;  ///< the mutated world, at full duration

  /// "I", "II", "III" or "IV": the scenario's case study.
  std::string case_tag() const;

  /// Canonical (name, value) list of the knobs this variant's case reads —
  /// the golden manifest's parameter record.
  std::vector<std::pair<std::string, std::string>> params() const;
};

/// The built-in corpus: >= 12 variants covering all three taxonomy classes
/// across the four applications. Order is stable (manifest order).
const std::vector<VariantSpec>& builtin_corpus();

/// Lookup by id; nullptr when unknown.
const VariantSpec* find_variant(const std::string& id);

/// Comma-joined list of valid ids (for usage errors).
std::string corpus_ids();

// ---------------------------------------------------------------- labels

/// Ground-truth label for one anatomized interval: the (node, run,
/// interval-window) coordinates the detectors are graded against.
struct IntervalLabel {
  std::uint32_t node_id = 0;
  std::size_t run = 0;
  std::size_t seq_in_type = 0;  ///< chronological index among same-type
  sim::Cycle start_cycle = 0;
  sim::Cycle end_cycle = 0;
  std::size_t marker_hits = 0;  ///< markers of the variant's kind inside

  bool operator==(const IntervalLabel&) const = default;
};

struct GroundTruth {
  std::string marker;                 ///< the kind that was matched
  std::vector<IntervalLabel> labels;  ///< analysis-sample order
  std::size_t marker_events = 0;      ///< raw markers of that kind seen

  bool triggered() const { return !labels.empty(); }
};

/// Derive ground truth for `traces` (in analysis order) at event type
/// `line`: anatomize each trace and label every interval whose
/// [start_cycle, end_cycle] window contains >= 1 marker of `kind`. This is
/// an independent derivation of pipeline::analyze()'s per-sample has_bug
/// flag; tests/corpus_test.cpp holds the two to agreement.
GroundTruth derive_ground_truth(
    const std::vector<pipeline::TaggedTrace>& traces, trace::IrqLine line,
    const std::string& kind);

/// Canonical text serialization (one line per label) and its FNV-1a digest
/// — the golden manifest's drift detector.
std::string ground_truth_text(const GroundTruth& truth);
std::uint64_t ground_truth_digest(const GroundTruth& truth);

// ------------------------------------------------------------ generation

/// The product of one seeded variant run: the simulation (every trace the
/// run returned, and the analyzed views with their run tags and event
/// type) and the derived ground truth.
struct VariantRun {
  apps::Simulation sim;
  GroundTruth truth;
};

/// Simulate `spec` at `seed` and derive its ground truth. `run_scale`
/// multiplies the variant's virtual duration (smoke tests shrink it).
/// `baseline = true` swaps the mutation for None (the repaired app, the
/// unmutated control). An arena, when given, donates pooled buffers
/// exactly as in campaigns; recycle each of `sim.traces` once.
VariantRun run_variant(const VariantSpec& spec, std::uint64_t seed,
                       double run_scale = 1.0,
                       apps::WorldArena* arena = nullptr,
                       bool baseline = false);

}  // namespace sent::corpus
