// A sensor node: program + recorder + machine + kernel + timers.
//
// Applications build their code objects into node.program(), register
// handlers/tasks, attach hardware devices, and the simulation's event queue
// drives everything. At the end of a run, take_trace() yields the NodeTrace
// consumed by the Sentomist front end.
#pragma once

#include <cstdint>
#include <memory>

#include "mcu/machine.hpp"
#include "mcu/program.hpp"
#include "os/kernel.hpp"
#include "os/timer.hpp"
#include "sim/event_queue.hpp"
#include "trace/recorder.hpp"

namespace sent::os {

class Node {
 public:
  /// `recycled` optionally donates blank trace-buffer capacity from a
  /// previous run (worker-local world pools, DESIGN.md §15); recording
  /// behaviour is identical with or without it.
  Node(std::uint32_t id, sim::EventQueue& queue,
       trace::NodeTrace recycled = trace::NodeTrace{})
      : id_(id),
        queue_(queue),
        recorder_(id, std::move(recycled)),
        machine_(queue, recorder_, program_),
        kernel_(queue, recorder_, machine_, program_),
        timers_(queue, machine_) {}

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  std::uint32_t id() const { return id_; }
  sim::EventQueue& queue() { return queue_; }
  mcu::Program& program() { return program_; }
  const mcu::Program& program() const { return program_; }
  mcu::Machine& machine() { return machine_; }
  Kernel& kernel() { return kernel_; }
  TimerService& timers() { return timers_; }
  trace::Recorder& recorder() { return recorder_; }

  /// Emit a ground-truth bug marker (application instrumentation only;
  /// never visible to the detector).
  void mark_bug(const std::string& kind) {
    recorder_.on_bug(queue_.now(), kind);
  }

  /// Finalize the run: stamps the instruction table and moves the trace out.
  trace::NodeTrace take_trace() {
    recorder_.set_instr_table(program_.instr_table());
    return recorder_.take(queue_.now());
  }

 private:
  std::uint32_t id_;
  sim::EventQueue& queue_;
  trace::Recorder recorder_;
  mcu::Program program_;
  mcu::Machine machine_;
  Kernel kernel_;
  TimerService timers_;
};

}  // namespace sent::os
