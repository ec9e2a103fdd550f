#include "hw/sensor.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numbers>

namespace sent::hw {

SensorFn make_temperature_sensor(util::Rng rng, double base, double amplitude,
                                 sim::Cycle period, double noise,
                                 double spike, double spike_prob) {
  auto state = std::make_shared<util::Rng>(rng);
  return [=](sim::Cycle now) -> std::uint16_t {
    double phase = 2.0 * std::numbers::pi *
                   static_cast<double>(now % period) /
                   static_cast<double>(period);
    double v = base + amplitude * std::sin(phase) + state->normal(0.0, noise);
    if (state->chance(spike_prob)) v += spike;
    v = std::clamp(v, 0.0, 1023.0);
    return static_cast<std::uint16_t>(v);
  };
}

SensorFn make_constant_sensor(std::uint16_t value) {
  return [value](sim::Cycle) { return value; };
}

}  // namespace sent::hw
