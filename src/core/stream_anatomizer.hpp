// Push-mode event-interval anatomizer: the Criterion-1/2/3 logic of the
// batch Anatomizer (paper §V-A, Figure 4) recast as an incremental state
// machine.
//
// Items are pushed one at a time; an interval is emitted the moment its
// boundary is determined — when the handler's reti arrives (no tasks), or
// when the depth-0 region of the instance's last task closes (the next
// runTask begins, or the trace ends). The batch Anatomizer is a thin replay
// over this machine, so the two produce bit-identical intervals by
// construction; the streaming fleet-ingest service (src/stream) drives the
// same machine frame by frame.
//
// The Figure-4 breadth-first search becomes bookkeeping on the fly:
//
//   Criterion 1 — a FIFO of posted-task tickets: the i-th runTask pops the
//                 i-th ticket (task ids are cross-checked);
//   Criterion 2 — a stack of open handlers: a postTask at depth > 0 is
//                 owned by the innermost open instance;
//   Criterion 3 — a depth-0 postTask is owned by whichever instance's task
//                 opened the current run region (the span from a runTask to
//                 the next runTask).
//
// Memory is bounded by the number of IN-FLIGHT instances and unconsumed
// task tickets, not by the trace length: completed instances leave the slab
// as soon as they are emitted. That is what makes long-running streaming
// ingest possible at all.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/anatomizer.hpp"
#include "core/int_reti.hpp"
#include "trace/lifecycle.hpp"

namespace sent::core {

class StreamAnatomizer {
 public:
  /// Consume the next lifecycle item. Throws MalformedTrace when the item
  /// violates the concurrency model (reti with no open handler, runTask
  /// inside a handler, runTask with no matching postTask, Criterion-1 task
  /// id mismatch). After a throw the machine is poisoned: further push()
  /// calls are rejected, but intervals already emitted stay valid and
  /// finish() still flushes the in-flight state (salvaged prefix).
  void push(const trace::LifecycleItem& item);

  /// End of input: close the current run region normally, then flush every
  /// remaining in-flight instance as truncated, ending at the last pushed
  /// item and `run_end` — exactly the batch semantics for a recording that
  /// stopped mid-instance.
  void finish(sim::Cycle run_end);

  /// Move out the intervals emitted so far (in emission order, which is
  /// boundary-determination order, not start order).
  std::vector<EventInterval> drain();

  /// Emitted-but-not-drained interval count (cheap readiness probe).
  std::size_t ready_count() const { return ready_.size(); }

  bool finished() const { return finished_; }
  bool poisoned() const { return poisoned_; }

  /// Items successfully consumed so far (== the index the next item gets).
  std::size_t items_seen() const { return index_; }

  std::size_t open_instances() const { return live_count_; }
  std::size_t outstanding_tasks() const { return fifo_.size(); }

  /// Smallest start cycle over in-flight instances; nullopt when none are
  /// open. Streaming consumers use it as the retention floor for their
  /// instruction and bug-marker buffers.
  std::optional<sim::Cycle> earliest_open_start_cycle() const;

  /// Rough retained-state footprint (slab + ticket FIFO + ready queue), the
  /// machine's contribution to a stream's memory proxy.
  std::size_t state_bytes() const;

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  struct Instance {
    EventInterval interval;  ///< start_*/irq/seq_in_type set at open
    std::size_t open_tasks = 0;  ///< posted but not yet run
    bool handler_open = true;
    bool live = false;
    /// Candidate end from the instance's most recent runTask (Figure 4's
    /// `loc`); end_cycle_candidate == 0 means that task never completed.
    std::size_t end_index_candidate = 0;
    sim::Cycle end_cycle_candidate = 0;
  };

  void on_int(const trace::LifecycleItem& item, std::size_t index);
  void on_post(const trace::LifecycleItem& item);
  void on_run(const trace::LifecycleItem& item, std::size_t index);
  void on_reti(const trace::LifecycleItem& item, std::size_t index);

  /// Called when instance `idx`'s current run region closes: emit it if it
  /// is complete, or mark it truncated (last task never completed) so
  /// finish() extends it to the end of the recording.
  void close_region_for(std::uint32_t idx);
  void emit(std::uint32_t idx, std::size_t end_index, sim::Cycle end_cycle,
            bool truncated);
  std::uint32_t acquire_slot();
  void release(std::uint32_t idx);

  std::vector<Instance> slab_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_count_ = 0;

  std::vector<std::uint32_t> handler_stack_;  ///< innermost open instances
  /// Criterion-1 ticket FIFO: (owning instance or kNone, task id).
  std::deque<std::pair<std::uint32_t, std::uint32_t>> fifo_;
  /// Instance owning the current depth-0 run region (kNone outside any
  /// owned region).
  std::uint32_t region_owner_ = kNone;

  /// Per-event-type chronological counters (the paper's `s` in [r, s]),
  /// keyed by the full int(n) argument.
  std::unordered_map<std::uint32_t, std::size_t> seq_in_type_;

  std::vector<EventInterval> ready_;
  std::size_t index_ = 0;
  std::size_t depth_ = 0;
  std::size_t run_count_ = 0;  ///< runTask items consumed (Criterion-1 k)
  bool finished_ = false;
  bool poisoned_ = false;
};

}  // namespace sent::core
