// Case study I application: single-hop data collection (Oscilloscope).
//
// Reproduces the paper's Figure 2 verbatim in structure:
//
//   event void Read.readDone(error_t error, uint16_t data) {
//     packet->data[dataItem] = data;
//     dataItem++;
//     if (dataItem == 3) { dataItem = 0; post prepareAndSendPacket(); }
//   }
//
// A periodic timer (period D) requests an ADC conversion; the ADC
// data-ready handler collects readings; every third reading posts a task
// that sends the three readings to the sink in one packet.
//
// THE BUG: readDone keeps writing into the same packet buffer the posted
// task will send. If the task is delayed past the next ADC interrupt —
// e.g. a heavy maintenance task is queued ahead of it — the fourth reading
// overwrites data[0] before the packet leaves: data pollution. The
// repaired app (OscMutation::None) double-buffers (readDone commits the
// triple into a send buffer when posting), which is the canonical repair.
//
// The optional "maintenance" event procedure models the paper's "another
// heavy-weighted event procedure": a low-rate timer that occasionally
// posts a long-running task, lengthening the task queue.
#pragma once

#include <array>
#include <cstdint>

#include "hw/adc.hpp"
#include "hw/radio.hpp"
#include "os/node.hpp"
#include "proto/am.hpp"
#include "util/rng.hpp"

namespace sent::apps {

/// Which transient bug the app carries (DESIGN.md §16). Each member but
/// `None` reintroduces exactly one taxonomy class of bug into the repaired
/// app, marking ground truth at the manifestation point; `None` is the
/// repaired app itself. The config's default is the paper's bug.
enum class OscMutation : std::uint8_t {
  None = 0,
  /// Atomicity: the send task reads the live packet buffer (the paper's
  /// Figure-2 bug).
  SharedBuffer,
  /// Ordering: the double-buffer commit is deferred from the posting
  /// handler into the task body — correct only if the task runs before
  /// the next ADC interrupt.
  LateCommit,
  /// Shared-flag race: the handler trusts `send_pending_` as a busy guard
  /// and drops the fresh triple whenever the previous send task has not
  /// cleared it yet.
  PendingSkip,
};

struct OscilloscopeConfig {
  net::NodeId sink = 0;

  /// Sampling period D (the application-specific parameter swept in the
  /// paper's case study I: 20/40/60/80/100 ms).
  sim::Cycle sample_period = sim::cycles_from_millis(20);

  /// Heavy maintenance event procedure.
  bool with_maintenance = true;
  sim::Cycle maintenance_period = sim::cycles_from_millis(800);
  double maintenance_heavy_prob = 0.35;  ///< chance a fire posts heavy work
  std::uint32_t heavy_iterations = 16;
  std::uint32_t heavy_iteration_cost = 18000;  ///< cycles per iteration

  /// The bug built into the app; None builds the repaired
  /// (double-buffered) app.
  OscMutation mutation = OscMutation::SharedBuffer;
};

class OscilloscopeApp {
 public:
  /// Builds all code objects into `node`'s program and registers handlers.
  /// The ADC and radio devices must outlive the app.
  OscilloscopeApp(os::Node& node, hw::AdcDevice& adc, hw::RadioChip& chip,
                  OscilloscopeConfig config, util::Rng rng);

  OscilloscopeApp(const OscilloscopeApp&) = delete;
  OscilloscopeApp& operator=(const OscilloscopeApp&) = delete;

  /// Start the sample (and maintenance) timers.
  void start();

  // ---- ground truth / statistics ----------------------------------------
  std::uint64_t readings() const { return readings_; }
  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t sends_skipped_busy() const { return skipped_busy_; }
  std::uint64_t pollutions() const { return pollutions_; }
  std::uint64_t heavy_tasks() const { return heavy_tasks_; }
  std::uint64_t mutation_drops() const { return mutation_drops_; }

 private:
  os::Node& node_;
  hw::AdcDevice& adc_;
  hw::RadioChip& chip_;
  OscilloscopeConfig config_;
  util::Rng rng_;

  trace::IrqLine sample_line_ = 0;
  trace::IrqLine maintenance_line_ = 0;
  trace::TaskId send_task_ = 0;
  trace::TaskId heavy_task_ = 0;

  // --- application state (what the nesC module's variables would be) ---
  std::uint32_t data_item_ = 0;
  std::array<std::uint16_t, 3> packet_data_{};  ///< the shared buffer (bug)
  std::array<std::uint16_t, 3> send_buffer_{};  ///< the committed copy
  bool send_pending_ = false;  ///< instrumentation: packet committed, unsent
  bool commit_done_ = true;    ///< LateCommit: task has committed the triple
  std::uint32_t heavy_remaining_ = 0;
  std::uint32_t discard_remaining_ = 0;  ///< PendingSkip drop-path loop
  std::uint16_t enc_tmp_ = 0;  ///< encoding-loop scratch register

  std::uint64_t readings_ = 0, packets_sent_ = 0, skipped_busy_ = 0,
                pollutions_ = 0, heavy_tasks_ = 0, mutation_drops_ = 0;

  void build_code();
};

}  // namespace sent::apps
