// Interval featurization (paper §V-B).
//
// The primary abstraction is the INSTRUCTION COUNTER (Definition 4): a
// vector of N elements, N = total static instructions in the node program,
// whose i-th element is the number of times instruction i executed during
// the interval's wall-clock window. Counting over the window — including
// instructions contributed by *other* instances that interleave into it —
// is what makes buggy interleavings visible.
//
// Two cheaper abstractions are provided for the feature-ablation bench:
// coarse scalar features and per-code-object (function-level) counters.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/anatomizer.hpp"
#include "ml/matrix.hpp"
#include "trace/recorder.hpp"

namespace sent::core {

struct FeatureMatrix {
  std::vector<std::string> names;  ///< one per column
  ml::Matrix values;               ///< one row per interval (flat, row-major)

  std::size_t dim() const { return names.size(); }
  std::size_t size() const { return values.rows(); }
  bool empty() const { return values.empty(); }
  std::span<const double> row(std::size_t i) const { return values.row(i); }
};

/// Definition 4: one instruction-counter row per interval. Column i
/// corresponds to static instruction i of the trace's program.
FeatureMatrix instruction_counters(const trace::NodeTrace& trace,
                                   std::span<const EventInterval> intervals);

/// Ablation: scalar summary features (duration, executed instructions,
/// tasks, posts, preempting interrupts within the window).
FeatureMatrix coarse_features(const trace::NodeTrace& trace,
                              std::span<const EventInterval> intervals);

/// Ablation: execution counts aggregated per code object — roughly the
/// function-level granularity of Dustminer-style logging.
FeatureMatrix code_object_counters(const trace::NodeTrace& trace,
                                   std::span<const EventInterval> intervals);

/// Append `other`'s rows to `base` (column layouts must match). Used to
/// pool intervals from several nodes running the same program image.
void append_rows(FeatureMatrix& base, const FeatureMatrix& other);

// ---- per-interval row fill ------------------------------------------------
//
// instruction_counters and the streaming featurizer (src/stream) share this
// single-interval fill, so a row computed incrementally from a stream's
// retained buffers is bit-identical to the corresponding batch row by
// construction.

/// Column names for instruction_counters ("code_object/name" per entry).
std::vector<std::string> instruction_counter_names(
    const std::vector<trace::InstrMeta>& table);

/// Definition 4 row: per-static-instruction execution counts inside the
/// interval's wall-clock window. `instrs` may be any chronologically sorted
/// span that covers the window; `row` must be zero-filled and sized to the
/// program's instruction count.
void instruction_counter_row(std::span<const trace::InstrExec> instrs,
                             const EventInterval& interval,
                             std::span<double> row);

}  // namespace sent::core
