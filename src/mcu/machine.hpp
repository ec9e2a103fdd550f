// The virtual MCU.
//
// Implements the paper's three concurrency rules (§III):
//   Rule 1 — an interrupt handler is triggered only by its own hardware
//            interrupt line;
//   Rule 2 — handlers and tasks run to completion unless preempted by
//            (other) interrupt handlers;
//   Rule 3 — tasks are posted by handlers or other tasks and executed FIFO.
//
// Execution is driven by the shared discrete-event queue: each machine step
// (deliver an interrupt, execute one instruction, start a task, retire a
// frame) is one event, and its cycle cost delays the next step. A
// machine's steps ride its own step lane instead of the general heap
// (DESIGN.md §12.4), and runs of typed ops execute in place when the queue
// proves nothing else fires first (DESIGN.md §12). Devices raise interrupt
// lines asynchronously; a raised line is delivered at the next step
// boundary if the preemption rule allows, otherwise it stays pending. A
// sleeping machine (no frames, no runnable task) schedules nothing and is
// woken by raise_irq / notify_task_posted.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "mcu/program.hpp"
#include "sim/event_queue.hpp"
#include "trace/recorder.hpp"

namespace sent::mcu {

/// Source of runnable tasks; implemented by the OS kernel (FIFO queue).
class TaskProvider {
 public:
  virtual ~TaskProvider() = default;
  virtual bool has_task() = 0;
  /// Pop the next task FIFO; also returns its code object.
  virtual std::pair<trace::TaskId, CodeId> pop_task() = 0;
};

/// Fixed micro-costs of machine operations, in cycles (AVR-flavoured).
namespace cost {
inline constexpr std::uint32_t kIntEntry = 4;  ///< dispatch into a handler
inline constexpr std::uint32_t kReti = 4;      ///< return from interrupt
inline constexpr std::uint32_t kRunTask = 6;   ///< scheduler dequeue + call
inline constexpr std::uint32_t kTaskRet = 2;   ///< task frame retirement
inline constexpr std::uint32_t kWakeup = 4;    ///< leave sleep mode
}  // namespace cost

class Machine {
 public:
  Machine(sim::EventQueue& queue, trace::Recorder& recorder,
          const Program& program);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Install the kernel's task queue. Must be set before run.
  void set_task_provider(TaskProvider* provider);

  /// Bind an interrupt line to its (non-task) handler code object.
  /// Rule 1: one handler per line, one line per handler binding.
  void register_handler(trace::IrqLine line, CodeId handler);

  /// Device-facing: raise an interrupt line. Latched until delivered; a
  /// second raise while latched is absorbed (level-triggered latch), which
  /// mirrors a real IRQ flag register.
  void raise_irq(trace::IrqLine line);

  /// Kernel-facing: a task was posted; wake the machine if sleeping.
  void notify_task_posted();

  /// Depth of the frame stack (0 = idle/sleeping, 1 = task or handler,
  /// >1 = nested preemption). Exposed for tests.
  std::size_t frame_depth() const { return frames_.size(); }

  /// Number of interrupt deliveries so far (tests/benches).
  std::uint64_t interrupts_delivered() const { return ints_delivered_; }

  /// Lines that currently have a handler bound, ascending (fault
  /// injection: the legal targets for a spurious raise under Rule 1).
  std::vector<trace::IrqLine> bound_lines() const;
  bool handler_bound(trace::IrqLine line) const {
    return line < handlers_.size() && handlers_[line] != kNoHandler;
  }

  /// Fault-injection hook: when set, every raise_irq consults the filter
  /// and a `true` return silently drops the raise (a lost wakeup). The
  /// latch is never set, so an absorbed re-raise cannot resurrect it.
  void set_irq_drop_hook(std::function<bool(trace::IrqLine)> hook) {
    irq_drop_hook_ = std::move(hook);
  }
  std::uint64_t irqs_dropped() const { return irqs_dropped_; }

  /// Push the batched obs counters into the global registry. Called from
  /// the destructor; the dispatch loop itself only bumps plain integers
  /// (keeping the hot path branch-free, DESIGN.md §12).
  void flush_metrics();

 private:
  struct Frame {
    CodeId code;
    std::uint32_t pc = 0;  ///< word offset into CodeObject::words
    bool is_handler = false;
    trace::IrqLine line = 0;          // handlers only
    std::size_t run_item_index = 0;   // tasks only: recorder patch handle
  };

  sim::EventQueue& queue_;
  trace::Recorder& recorder_;
  const Program& program_;
  TaskProvider* provider_ = nullptr;

  std::vector<Frame> frames_;
  std::uint64_t pending_ = 0;  // bitmask of raised lines (max 64 lines)
  std::vector<CodeId> handlers_ = std::vector<CodeId>(64, kNoHandler);
  bool step_scheduled_ = false;
  bool in_step_ = false;  // step() will schedule its own continuation
  const sim::LaneId lane_;  // this machine's step lane in queue_
  std::uint64_t ints_delivered_ = 0;
  std::function<bool(trace::IrqLine)> irq_drop_hook_;
  std::uint64_t irqs_dropped_ = 0;

  // Batched obs metrics (flushed by flush_metrics / the destructor).
  std::uint64_t pending_raises_ = 0;
  std::uint64_t pending_delivered_ = 0;
  std::uint64_t pending_dropped_ = 0;

  static constexpr CodeId kNoHandler = ~CodeId{0};

  /// Schedule the next step `delay` cycles from now: a continuation, or a
  /// wake from sleep (delay = cost::kWakeup).
  void schedule_step(std::uint32_t delay);
  /// Lane callback: the queue fires the step armed in `lane_`.
  static void fire_lane(void* self);
  void step();
  /// One machine step (deliver / execute / start / retire). Returns true
  /// with the cycle cost of the step in `delay` when a continuation is
  /// due, false when the machine goes to sleep. step() either arms the
  /// continuation in the lane or — when the event queue proves nothing
  /// else fires first — executes it inline.
  bool step_once(std::uint32_t& delay);
  std::uint32_t exec_bytecode(Frame& frame, const CodeObject& code);

  /// Lowest-numbered pending line deliverable under the preemption rule
  /// (only a strictly lower-numbered line preempts a handler), or -1 if
  /// none.
  int deliverable_irq() const;
};

}  // namespace sent::mcu
