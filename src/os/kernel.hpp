// TinyOS-like kernel: task registration, the single FIFO task queue, and
// the postTask / runTask trace hooks.
//
// Unlike TinyOS 2.x (where re-posting a pending task fails), the plain
// post() here always enqueues. The paper's Criterion 1 — "the task posted
// via the ith postTask is executed via the ith runTask" — assumes exactly
// this model, and it is what the anatomizer's pairing step relies on.
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "mcu/machine.hpp"
#include "mcu/program.hpp"
#include "sim/event_queue.hpp"
#include "trace/recorder.hpp"

namespace sent::os {

class Kernel final : public mcu::TaskProvider {
 public:
  Kernel(sim::EventQueue& queue, trace::Recorder& recorder,
         mcu::Machine& machine, const mcu::Program& program);

  /// Register a code object (of task kind) as a postable task.
  trace::TaskId register_task(mcu::CodeId code);

  /// Post a task FIFO. Always succeeds; emits a postTask lifecycle item.
  void post(trace::TaskId task);

  std::size_t queue_depth() const { return queue_.size(); }

  // TaskProvider:
  bool has_task() override { return !queue_.empty(); }
  std::pair<trace::TaskId, mcu::CodeId> pop_task() override;

 private:
  sim::EventQueue& queue_time_;
  trace::Recorder& recorder_;
  mcu::Machine& machine_;
  const mcu::Program& program_;
  /// Pending post: the task plus the cycle it was posted at (for the
  /// post-to-run latency histogram, DESIGN.md §11).
  struct Pending {
    trace::TaskId task;
    sim::Cycle posted_at;
  };

  std::vector<mcu::CodeId> task_codes_;  // TaskId -> CodeId
  std::deque<Pending> queue_;
};

}  // namespace sent::os
