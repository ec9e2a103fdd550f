#include "os/timer.hpp"

#include "util/assert.hpp"

namespace sent::os {

TimerService::TimerService(sim::EventQueue& queue, mcu::Machine& machine)
    : queue_(queue), machine_(machine) {}

void TimerService::set_drift_ppm(double ppm) {
  SENT_REQUIRE_MSG(ppm > -1e5 && ppm < 1e5, "implausible crystal drift");
  drift_ppm_ = ppm;
}

sim::Cycle TimerService::drifted(Slot& s, sim::Cycle delay) {
  if (drift_ppm_ == 0.0) return delay;
  double desired =
      static_cast<double>(delay) * (1.0 + drift_ppm_ / 1e6) + s.drift_error;
  auto actual = static_cast<sim::Cycle>(desired + 0.5);
  if (actual < 1) actual = 1;
  s.drift_error = desired - static_cast<double>(actual);
  return actual;
}

trace::IrqLine TimerService::create(const std::string& name) {
  auto line = static_cast<trace::IrqLine>(irq::kTimerBase + slots_.size());
  SENT_REQUIRE_MSG(line < irq::kTimerLimit, "too many timers");
  slots_.push_back(Slot{name, 0, 0, false});
  return line;
}

TimerService::Slot& TimerService::slot(trace::IrqLine line) {
  SENT_REQUIRE(line >= irq::kTimerBase &&
               line < irq::kTimerBase + slots_.size());
  return slots_[static_cast<std::size_t>(line - irq::kTimerBase)];
}

const TimerService::Slot& TimerService::slot(trace::IrqLine line) const {
  SENT_REQUIRE(line >= irq::kTimerBase &&
               line < irq::kTimerBase + slots_.size());
  return slots_[static_cast<std::size_t>(line - irq::kTimerBase)];
}

void TimerService::start_periodic(trace::IrqLine line, sim::Cycle period,
                                  std::optional<sim::Cycle> first) {
  SENT_REQUIRE(period > 0);
  Slot& s = slot(line);
  SENT_REQUIRE_MSG(!s.active, "timer " << s.name << " already running");
  s.period = period;
  s.active = true;
  s.pending = queue_.schedule_after(drifted(s, first.value_or(period)),
                                    [this, line] { fire(line); });
}

void TimerService::start_oneshot(trace::IrqLine line, sim::Cycle delay) {
  Slot& s = slot(line);
  SENT_REQUIRE_MSG(!s.active, "timer " << s.name << " already running");
  s.period = 0;
  s.active = true;
  s.pending = queue_.schedule_after(drifted(s, delay), [this, line] { fire(line); });
}

void TimerService::stop(trace::IrqLine line) {
  Slot& s = slot(line);
  if (!s.active) return;
  queue_.cancel(s.pending);
  s.pending = 0;
  s.active = false;
}

bool TimerService::running(trace::IrqLine line) const {
  return slot(line).active;
}

bool TimerService::owns(trace::IrqLine line) const {
  return line >= irq::kTimerBase &&
         line < irq::kTimerBase + slots_.size();
}

void TimerService::fire_early(trace::IrqLine line) {
  Slot& s = slot(line);
  if (!s.active) return;
  queue_.cancel(s.pending);
  fire(line);
}

void TimerService::fire(trace::IrqLine line) {
  Slot& s = slot(line);
  SENT_ASSERT(s.active);
  if (s.period > 0) {
    s.pending = queue_.schedule_after(drifted(s, s.period), [this, line] { fire(line); });
  } else {
    s.pending = 0;
    s.active = false;
  }
  machine_.raise_irq(line);
}

}  // namespace sent::os
