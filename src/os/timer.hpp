// Virtualized timers.
//
// TinyOS multiplexes many logical timers onto hardware compare channels;
// here each logical timer gets its own interrupt line (from irq::kTimerBase
// upward), so "event type == interrupt number" holds for timer events too —
// the property the anatomizer's grouping step depends on. The service turns
// deadlines into raise_irq calls on the machine.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "mcu/machine.hpp"
#include "os/irq.hpp"
#include "sim/event_queue.hpp"

namespace sent::os {

class TimerService {
 public:
  TimerService(sim::EventQueue& queue, mcu::Machine& machine);

  /// Allocate a timer line. The caller must register a handler code object
  /// for the returned line before the timer first fires.
  trace::IrqLine create(const std::string& name);

  /// Fire every `period` cycles, first at now + `first` (default: period).
  void start_periodic(trace::IrqLine line, sim::Cycle period,
                      std::optional<sim::Cycle> first = std::nullopt);

  /// Fire once at now + delay.
  void start_oneshot(trace::IrqLine line, sim::Cycle delay);

  /// Stop a timer; pending fire (if any) is cancelled.
  void stop(trace::IrqLine line);

  /// Crystal drift for this node's timer hardware, in parts per million:
  /// every armed delay is scaled by (1 + ppm/1e6). Real mote crystals sit
  /// within roughly +/-50 ppm, which is what slowly decorrelates
  /// same-period timers across a network. Applies to timers armed after
  /// the call.
  void set_drift_ppm(double ppm);
  double drift_ppm() const { return drift_ppm_; }

  bool running(trace::IrqLine line) const;

  /// Whether `line` was allocated by this service's create().
  bool owns(trace::IrqLine line) const;

  /// Force a running timer to fire now — a spurious early compare match
  /// (fault injection). The pending fire is cancelled first, so slot
  /// bookkeeping stays consistent: periodic timers reschedule from now,
  /// one-shots disarm as usual. No-op if the timer is not running (real
  /// timer hardware filters a glitch on a disarmed channel).
  void fire_early(trace::IrqLine line);

 private:
  struct Slot {
    std::string name;
    sim::Cycle period = 0;  // 0 => one-shot
    sim::EventId pending = 0;
    bool active = false;
    /// Sub-cycle drift error carried between arms so ppm-scale drift
    /// accumulates instead of vanishing in integer truncation.
    double drift_error = 0.0;
  };

  sim::EventQueue& queue_;
  mcu::Machine& machine_;
  std::vector<Slot> slots_;  // index: line - kTimerBase
  double drift_ppm_ = 0.0;

  Slot& slot(trace::IrqLine line);
  const Slot& slot(trace::IrqLine line) const;
  void fire(trace::IrqLine line);
  sim::Cycle drifted(Slot& s, sim::Cycle delay);
};

}  // namespace sent::os
