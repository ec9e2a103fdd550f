// Per-node energy accounting.
//
// WSN applications are event-driven precisely to save energy (§III); this
// meter quantifies it. MCU energy is derived from the recorded trace
// (active cycles = executed instruction costs plus dispatch overheads,
// everything else is sleep); radio energy from the chip's accumulated
// transmit airtime, with the receiver assumed always listening when not
// transmitting (CC1000 without low-power listening). Power constants are
// Mica2-flavoured and overridable.
#pragma once

#include "hw/radio_params.hpp"
#include "mcu/machine.hpp"
#include "sim/time.hpp"
#include "trace/recorder.hpp"

namespace sent::hw {

struct EnergyParams {
  // Milliwatts.
  double mcu_active_mw = 24.0;  ///< ATmega128L active @ 3V
  double mcu_sleep_mw = 0.03;   ///< power-save mode
  double radio_tx_mw = 76.0;    ///< CC1000 @ 0 dBm
  double radio_rx_mw = 36.0;    ///< receive / listen
};

struct EnergyBreakdown {
  // Millijoules.
  double mcu_active_mj = 0.0;
  double mcu_sleep_mj = 0.0;
  double radio_tx_mj = 0.0;
  double radio_rx_mj = 0.0;

  double total_mj() const {
    return mcu_active_mj + mcu_sleep_mj + radio_tx_mj + radio_rx_mj;
  }
  /// Fraction of the run the MCU was awake.
  double mcu_duty_cycle = 0.0;
};

/// Estimate a node's energy over its recorded run. `tx_airtime` is the
/// radio's total transmit time (RadioChip::tx_airtime()); dispatch
/// overheads are the machine's fixed costs (mcu::cost).
EnergyBreakdown estimate_energy(const trace::NodeTrace& trace,
                                sim::Cycle tx_airtime,
                                const EnergyParams& params = {});

/// Same, for a node running low-power listening: the receiver only
/// listens for the LPL duty cycle of its idle time (afterglow and
/// forced-on windows are second-order and ignored).
EnergyBreakdown estimate_energy_lpl(const trace::NodeTrace& trace,
                                    sim::Cycle tx_airtime,
                                    const LplParams& lpl,
                                    const EnergyParams& params = {});

}  // namespace sent::hw
