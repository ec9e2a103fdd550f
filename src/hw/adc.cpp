#include "hw/adc.hpp"

#include "util/assert.hpp"

namespace sent::hw {

AdcDevice::AdcDevice(sim::EventQueue& queue, mcu::Machine& machine,
                     util::Rng rng)
    : queue_(queue),
      machine_(machine),
      rng_(rng),
      sensor_(make_constant_sensor(0)) {}

void AdcDevice::set_sensor(SensorFn sensor) {
  SENT_REQUIRE(sensor != nullptr);
  sensor_ = std::move(sensor);
}

bool AdcDevice::request_read() {
  if (busy_) {
    ++dropped_;
    return false;
  }
  busy_ = true;
  const sim::Cycle latency =
      kMeanLatency - kJitter +
      static_cast<sim::Cycle>(rng_.below(2 * kJitter + 1));
  // Conversion-complete is never cancelled, so it can ride the queue's
  // deferred-inline path when it turns out to be the next event.
  queue_.schedule_or_inline(queue_.now() + latency, [this] {
    busy_ = false;
    value_ = sensor_(queue_.now());
    ++conversions_;
    machine_.raise_irq(os::irq::kAdc);
  });
  return true;
}

}  // namespace sent::hw
