// Per-node trace recorder: the front-end data-acquisition half of
// Sentomist (paper §VI-A, the Avrora monitor).
//
// The recorder captures three streams per node:
//   1. the lifecycle sequence (postTask / runTask / int / reti),
//   2. the instruction execution stream (cycle, static instruction id),
//   3. ground-truth bug markers emitted by instrumented application code.
// Streams 1–2 are what the analysis consumes; stream 3 replaces the paper's
// manual inspection when scoring rankings and never reaches the detector.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "trace/lifecycle.hpp"

namespace sent::trace {

/// Static instruction id: index into the node program's instruction table.
using InstrId = std::uint32_t;

/// One executed instruction.
struct InstrExec {
  sim::Cycle cycle;
  InstrId instr;
};

/// Metadata describing a static instruction (for reports and debugging).
struct InstrMeta {
  std::string code_object;  ///< owning handler/task name
  std::string name;         ///< mnemonic within the code object
  std::uint32_t cycles;     ///< cost charged per execution
};

/// A ground-truth bug manifestation, emitted by application instrumentation
/// at the moment the faulty behaviour actually occurs.
struct BugMarker {
  sim::Cycle cycle;
  std::string kind;  ///< e.g. "data-pollution", "busy-drop", "ctp-hang"
};

/// Everything recorded for one node over one run.
struct NodeTrace {
  std::uint32_t node_id = 0;
  std::vector<LifecycleItem> lifecycle;
  std::vector<InstrExec> instrs;
  std::vector<BugMarker> bugs;
  std::vector<InstrMeta> instr_table;
  sim::Cycle run_end = 0;  ///< virtual time at which recording stopped

  /// Total executed instructions.
  std::size_t executed() const { return instrs.size(); }

  /// Empty every stream while keeping the vectors' capacity, so a trace
  /// taken from a finished run can seed the next run's Recorder without
  /// reallocating the (large) instruction buffer. Content-wise the result
  /// is indistinguishable from a default-constructed NodeTrace.
  void clear_keep_capacity() {
    lifecycle.clear();
    instrs.clear();
    bugs.clear();
    instr_table.clear();
    node_id = 0;
    run_end = 0;
  }
};

/// A borrowed trace tagged with the testing run it came from (case I sweeps
/// runs): the unit the analysis reads, in analysis order.
struct TaggedTrace {
  const NodeTrace* trace = nullptr;
  std::size_t run = 0;
};

/// Recorder used by the machine/kernel while a node runs. Owns the growing
/// NodeTrace; take() moves it out at end of run.
class Recorder {
 public:
  /// `recycled` donates its buffer capacity (typically a trace from an
  /// earlier run on this worker, scrubbed by apps::WorldArena::recycle,
  /// DESIGN.md §15). It must be blank, so recording starts from the same
  /// logical state either way; a stale record is a precondition error.
  explicit Recorder(std::uint32_t node_id, NodeTrace recycled = NodeTrace{});

  void on_post_task(sim::Cycle cycle, TaskId task);

  /// Records a runTask item and returns its index so on_task_end can patch
  /// the completion cycle.
  std::size_t on_run_task(sim::Cycle cycle, TaskId task);
  void on_task_end(std::size_t run_item_index, sim::Cycle cycle);

  void on_int(sim::Cycle cycle, IrqLine line);
  void on_reti(sim::Cycle cycle, IrqLine line);

  /// Inline: one call per executed virtual instruction (the hot path).
  void on_instr(sim::Cycle cycle, InstrId instr) {
    trace_.instrs.push_back({cycle, instr});
  }

  /// Direct access to the instruction stream for the bytecode machine's
  /// fused dispatch loop, which batches appends through a stack buffer.
  /// Appending {cycle, instr} records here is equivalent to on_instr calls
  /// in the same order.
  std::vector<InstrExec>& instr_sink() { return trace_.instrs; }
  void on_bug(sim::Cycle cycle, const std::string& kind);

  void set_instr_table(std::vector<InstrMeta> table);

  const NodeTrace& trace() const { return trace_; }

  /// Finalize (stamping run_end) and move the trace out.
  NodeTrace take(sim::Cycle run_end);

 private:
  NodeTrace trace_;
};

}  // namespace sent::trace
