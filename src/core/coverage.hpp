// Inter-context interleaving coverage (after Lai, Cheung & Chan's
// inter-context test adequacy criteria for nesC applications — the
// paper's reference [20]).
//
// A transient bug needs a particular interleaving to trigger, so a useful
// adequacy measure for a randomized test run is WHICH interleavings it
// exercised: for every event-handling interval of type A, which other
// event types B fired inside A's window (an "A overlapped-by B" context
// pair), and whether A was overlapped by another instance of its own type
// (self-interleaving — the shape behind case study I's data race).
//
// The ext_coverage bench shows the practical link: runs whose coverage
// includes the (ADC, ADC) self-pair are exactly the runs where the
// Oscilloscope pollution can trigger.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/anatomizer.hpp"

namespace sent::core {

struct ContextPair {
  trace::IrqLine outer = 0;  ///< interval's own event type
  trace::IrqLine inner = 0;  ///< event type firing inside its window
  auto operator<=>(const ContextPair&) const = default;
};

struct InterleavingCoverage {
  /// Observed (outer, inner) pairs with occurrence counts.
  std::map<ContextPair, std::uint64_t> pairs;
  /// Event types present in the trace.
  std::vector<trace::IrqLine> event_types;

  std::uint64_t count(trace::IrqLine outer, trace::IrqLine inner) const;

  /// Observed pairs / all possible ordered pairs over the trace's event
  /// types (including self-pairs). In [0, 1].
  double ratio() const;

  /// Merge another run's observations (multi-run campaigns).
  void merge(const InterleavingCoverage& other);

  /// Aligned table of observed pairs.
  std::string render() const;
};

/// Measure the interleaving coverage of one trace: for every interval (of
/// every event type), record which event types have an int() item inside
/// the interval's wall-clock window (excluding the interval's own opening
/// item).
InterleavingCoverage measure_interleaving(const trace::NodeTrace& trace);

}  // namespace sent::core
