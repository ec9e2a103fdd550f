// ADC device.
//
// The application requests a conversion (Read.read in TinyOS); after the
// conversion time (plus small jitter) the chip latches a sensor reading and
// raises the ADC data-ready interrupt — the event type of case study I.
#pragma once

#include <cstdint>

#include "hw/sensor.hpp"
#include "mcu/machine.hpp"
#include "os/irq.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace sent::hw {

class AdcDevice {
 public:
  AdcDevice(sim::EventQueue& queue, mcu::Machine& machine, util::Rng rng);

  /// Conversion latency: uniform in [kMeanLatency - kJitter,
  /// kMeanLatency + kJitter].
  static constexpr sim::Cycle kMeanLatency = sim::cycles_from_micros(200);
  static constexpr sim::Cycle kJitter = sim::cycles_from_micros(40);

  void set_sensor(SensorFn sensor);

  /// Start a conversion. Ignored (returns false) if one is in flight —
  /// real ADCs drop overlapping requests.
  bool request_read();

  /// Latched reading; valid from the data-ready interrupt until the next
  /// conversion completes.
  std::uint16_t value() const { return value_; }

  bool busy() const { return busy_; }

  std::uint64_t conversions() const { return conversions_; }
  std::uint64_t dropped_requests() const { return dropped_; }

 private:
  sim::EventQueue& queue_;
  mcu::Machine& machine_;
  util::Rng rng_;
  SensorFn sensor_;
  bool busy_ = false;
  std::uint16_t value_ = 0;
  std::uint64_t conversions_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace sent::hw
