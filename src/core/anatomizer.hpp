// Event-handling interval identification (paper §V-A, Definition 2 and the
// Figure 4 algorithm).
//
// An event-handling interval is the lifetime of one event procedure
// instance: it starts at the entry of the instance's interrupt handler and
// ends when the instance's last task completes (or at the handler's exit if
// it posted no tasks). Instance membership is resolved from the lifecycle
// sequence alone using the paper's three criteria:
//
//   Criterion 1 — the task posted via the i-th postTask is executed via the
//                 i-th runTask (single FIFO queue);
//   Criterion 2 — the top-level postTasks of an int-reti string are the
//                 handler's own posts;
//   Criterion 3 — postTasks between a runTask and the next runTask (outside
//                 nested int-reti strings) are posted by that task.
//
// The Figure 4 algorithm is a breadth-first search over task generations:
// handler posts -> their runTasks -> the posts inside those runs -> ...
// Intervals may overlap (instances interleave); that is deliberate — the
// featurizer counts everything executed inside the wall-clock window.
//
// Since the streaming refactor, the batch Anatomizer is a thin REPLAY over
// the push-mode state machine (core/stream_anatomizer.hpp): the whole
// lifecycle sequence is pushed through a StreamAnatomizer at construction
// and the emitted intervals are cached sorted by start index. Batch and
// streaming results are therefore bit-identical by construction.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/int_reti.hpp"
#include "trace/recorder.hpp"

namespace sent::core {

struct EventInterval {
  trace::IrqLine irq = 0;

  std::size_t start_index = 0;  ///< lifecycle index of the opening int(n)
  std::size_t end_index = 0;    ///< lifecycle index of the last item
                                ///< (matching reti, or last task's runTask)

  sim::Cycle start_cycle = 0;
  sim::Cycle end_cycle = 0;

  std::size_t task_count = 0;  ///< tasks belonging to this instance
  std::size_t seq_in_type = 0; ///< chronological index among same-type
                               ///< instances (the paper's `s` in [r, s])

  /// The trace ended before the instance completed; end_* reflect the end
  /// of the recording.
  bool truncated = false;

  sim::Cycle duration() const { return end_cycle - start_cycle; }
};

class Anatomizer {
 public:
  /// Validates the sequence, then replays it through the streaming state
  /// machine and caches every interval (sorted by start index). Throws
  /// (MalformedTrace / AssertionError) on concurrency-model violations.
  explicit Anatomizer(const trace::NodeTrace& trace);

  /// All event-handling intervals whose event type is interrupt line
  /// `line`, in chronological order of their int(n) items.
  std::vector<EventInterval> intervals_for(trace::IrqLine line) const;

  /// Intervals of every event type (chronological by start).
  std::vector<EventInterval> all_intervals() const;

  /// Interrupt lines present in the trace, ascending.
  std::vector<trace::IrqLine> event_types() const;

 private:
  const trace::NodeTrace& trace_;
  /// Every interval of the trace, sorted by start_index (one per Int item).
  std::vector<EventInterval> intervals_;
};

}  // namespace sent::core
