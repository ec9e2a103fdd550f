#include "hw/energy.hpp"

#include "util/assert.hpp"

namespace sent::hw {

EnergyBreakdown estimate_energy(const trace::NodeTrace& trace,
                                sim::Cycle tx_airtime,
                                const EnergyParams& params) {
  SENT_REQUIRE(trace.run_end > 0);
  SENT_REQUIRE(tx_airtime <= trace.run_end);

  // Active MCU cycles: executed instruction costs plus the dispatch
  // overhead of every lifecycle transition.
  sim::Cycle active = 0;
  for (const auto& e : trace.instrs) {
    SENT_REQUIRE(e.instr < trace.instr_table.size());
    active += trace.instr_table[e.instr].cycles;
  }
  for (const auto& item : trace.lifecycle) {
    switch (item.kind) {
      case trace::LifecycleKind::Int:
        active += mcu::cost::kIntEntry + mcu::cost::kWakeup;
        break;
      case trace::LifecycleKind::Reti:
        active += mcu::cost::kReti;
        break;
      case trace::LifecycleKind::RunTask:
        active += mcu::cost::kRunTask + mcu::cost::kTaskRet;
        break;
      case trace::LifecycleKind::PostTask:
        break;  // accounted inside the posting instruction's cost
    }
  }
  active = std::min(active, trace.run_end);

  auto seconds = [](sim::Cycle c) { return sim::seconds_from_cycles(c); };
  double active_s = seconds(active);
  double sleep_s = seconds(trace.run_end - active);
  double tx_s = seconds(tx_airtime);
  double rx_s = seconds(trace.run_end - tx_airtime);

  EnergyBreakdown out;
  out.mcu_active_mj = params.mcu_active_mw * active_s;
  out.mcu_sleep_mj = params.mcu_sleep_mw * sleep_s;
  out.radio_tx_mj = params.radio_tx_mw * tx_s;
  out.radio_rx_mj = params.radio_rx_mw * rx_s;
  out.mcu_duty_cycle =
      static_cast<double>(active) / static_cast<double>(trace.run_end);
  return out;
}

EnergyBreakdown estimate_energy_lpl(const trace::NodeTrace& trace,
                                    sim::Cycle tx_airtime,
                                    const LplParams& lpl,
                                    const EnergyParams& params) {
  EnergyBreakdown out = estimate_energy(trace, tx_airtime, params);
  if (!lpl.enabled) return out;
  // The idle-listening share shrinks to the LPL duty cycle.
  double rx_s = sim::seconds_from_cycles(trace.run_end - tx_airtime);
  out.radio_rx_mj = params.radio_rx_mw * rx_s * lpl.duty_cycle();
  return out;
}

}  // namespace sent::hw
