// Case study IV (an extension beyond the paper's three): Trickle-driven
// value dissemination with a TORN-UPDATE transient bug.
//
// Every node runs a Drip-style dissemination client: it holds a
// (version, value) pair, broadcasts summaries under Trickle timing, adopts
// newer versions it hears, and resets Trickle on any inconsistency so
// updates sweep the network quickly. A designated publisher node injects
// new versions.
//
// THE BUG: adopting an update is deferred work — the SPI handler schedules
// it behind a flash-ready delay, and the adopt task then (1) writes the
// version field, (2) spends ~5 ms committing the value to flash, (3)
// writes the value field. If the Trickle timer fires during step (2), the
// summary-building handler preempts the task and reads a TORN pair:
// the NEW version with the OLD value. Nodes hearing that summary adopt
// the wrong value, and because their version is now current, the correct
// summary later looks "consistent" and is suppressed — the corruption is
// silent and permanent. The canonical fix is publish ordering: commit the
// value first and write the version LAST (DissMutation::None), which makes
// any torn read harmless (old version + anything is simply ignored).
#pragma once

#include <cstdint>

#include "hw/radio.hpp"
#include "os/node.hpp"
#include "proto/trickle.hpp"
#include "util/rng.hpp"

namespace sent::apps {

/// Which transient bug the app carries (DESIGN.md §16). `None` is the
/// repaired app; the config's default is case IV's torn update.
enum class DissMutation : std::uint8_t {
  None = 0,
  TornWrite,  ///< atomicity: version visible before the committed value
};

struct DisseminationConfig {
  bool is_publisher = false;

  proto::TrickleParams trickle;

  /// Flash-ready latency before the adopt task is posted (uniform range):
  /// page-erase plus write-queue time on a dataflash part.
  sim::Cycle flash_delay_min = sim::cycles_from_millis(30);
  sim::Cycle flash_delay_max = sim::cycles_from_millis(120);

  /// Duration of the in-task flash commit between the two field writes.
  std::uint32_t flash_commit_iterations = 25;
  std::uint32_t flash_commit_iteration_cost = 1500;  ///< ~5 ms total

  /// The bug built into the app; None builds the repaired app (value
  /// first, version last: publish ordering).
  DissMutation mutation = DissMutation::TornWrite;
};

class DisseminationApp {
 public:
  DisseminationApp(os::Node& node, hw::RadioChip& chip,
                   DisseminationConfig config, util::Rng rng);

  DisseminationApp(const DisseminationApp&) = delete;
  DisseminationApp& operator=(const DisseminationApp&) = delete;

  /// Start Trickle.
  void start();

  /// Environment hook (publisher only): stage the next value and raise the
  /// publish interrupt. Called from simulation events, not from MCU code.
  void inject_update(std::uint16_t value);

  /// The Trickle timer's interrupt line — the anatomized event type.
  trace::IrqLine trickle_line() const { return trickle_line_; }

  std::uint16_t version() const { return version_; }
  std::uint16_t value() const { return value_; }

  std::uint64_t summaries_sent() const { return summaries_sent_; }
  std::uint64_t summaries_suppressed() const {
    return trickle_.suppressions();
  }
  std::uint64_t sends_skipped_busy() const { return skipped_busy_; }
  std::uint64_t adoptions() const { return adoptions_; }
  std::uint64_t torn_broadcasts() const { return torn_; }

 private:
  os::Node& node_;
  hw::RadioChip& chip_;
  DisseminationConfig config_;
  util::Rng rng_;
  proto::Trickle trickle_;

  trace::IrqLine trickle_line_ = 0;
  trace::IrqLine flash_line_ = 0;
  trace::IrqLine publish_line_ = 0;
  trace::TaskId adopt_task_ = 0;

  // --- module state ---
  std::uint16_t version_ = 0;
  std::uint16_t value_ = 0;
  /// True between the buggy adopt task's version write and value write.
  bool version_ahead_of_value_ = false;

  std::uint16_t pend_version_ = 0;
  std::uint16_t pend_value_ = 0;
  bool adopt_pending_ = false;

  std::uint16_t staged_publish_value_ = 0;  ///< environment -> handler

  hw::RadioChip::Event event_{};
  std::uint16_t rx_version_ = 0;
  std::uint16_t rx_value_ = 0;
  std::uint32_t flash_remaining_ = 0;
  bool should_transmit_ = false;
  sim::Cycle next_delay_ = 0;

  std::uint64_t summaries_sent_ = 0, skipped_busy_ = 0, adoptions_ = 0,
                torn_ = 0;

  void build_code();
  void restart_trickle_timer(sim::Cycle delay);
};

}  // namespace sent::apps
