// Synthetic environmental sensor models.
//
// Substitution note (DESIGN.md §2): the paper samples a real temperature
// channel through the mote ADC; we generate a plausible signal (slow
// sinusoid + Gaussian noise + rare spikes) so the ADC path and the data
// values it produces exercise the same application code.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/time.hpp"
#include "util/rng.hpp"

namespace sent::hw {

/// Maps virtual time to a 10-bit ADC reading (0..1023).
using SensorFn = std::function<std::uint16_t(sim::Cycle)>;

/// Temperature-like signal: `base` counts, diurnal-ish sinusoid of
/// `amplitude` counts with `period`, Gaussian noise with `noise` stddev,
/// and a spike of +`spike` counts with probability `spike_prob` per sample.
SensorFn make_temperature_sensor(util::Rng rng, double base = 500.0,
                                 double amplitude = 60.0,
                                 sim::Cycle period = sim::kCyclesPerSecond * 60,
                                 double noise = 4.0, double spike = 120.0,
                                 double spike_prob = 0.002);

/// Constant reading.
SensorFn make_constant_sensor(std::uint16_t value);

}  // namespace sent::hw
