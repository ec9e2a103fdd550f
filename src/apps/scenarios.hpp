// End-to-end simulation scenarios for the case studies (§VI, plus the
// case-IV extension).
//
// Each run_caseN builds a world (event queue, channel, nodes, devices,
// applications), runs it for the configured virtual duration, and returns
// the recorded node traces plus application-level ground truth. Which bug
// each app carries is its config's mutation enum: the default is the
// paper's bug, `None` the repaired app.
//
// A case study is one simulated world plus one anatomized event type over
// chosen node traces. apps::Scenario is that world as a value (one CaseN
// config), and analysis_of(CaseNResult) is the per-case choice of traces,
// run tags and line, written once. simulate() runs a Scenario at a seed
// and returns every trace the run produced together with that analysis.
// The Sentomist pipeline consumes the analyzed traces; benches consume the
// ground truth to score rankings.
#pragma once

#include <cstdint>
#include <optional>
#include <variant>
#include <vector>

#include "apps/ctp_heartbeat.hpp"
#include "apps/dissemination.hpp"
#include "apps/forwarding.hpp"
#include "apps/oscilloscope.hpp"
#include "apps/world_arena.hpp"
#include "fault/plan.hpp"
#include "hw/radio_params.hpp"
#include "trace/recorder.hpp"

namespace sent::apps {

// Every world is built on a WorldArena (worker-local amortized state,
// DESIGN.md §15): the run borrows the arena's event queue (reset first)
// and its recycled trace buffers, and banks its trace capacity back when
// the caller recycles the result. A caller that passes no arena gets a
// function-local one, which dies with the run. A warm arena and a cold one
// build bit-identical worlds — the parity battery in
// tests/worker_pool_test.cpp holds them to it.

// Every case config carries the same two robustness knobs (DESIGN.md §9):
//
//   faults       — fault-injection plan realized against the run's world
//                  from the run seed's "faults" substream. The default
//                  (all-zero) plan attaches nothing and consumes no
//                  randomness, so clean runs are bit-identical to builds
//                  that predate fault injection.
//   event_budget — watchdog: maximum simulation events for the run, 0 =
//                  unlimited. A run that exceeds it throws
//                  sim::WatchdogTimeout (campaigns classify it TimedOut).

// ------------------------------------------------------------- case I

struct Case1Config {
  std::uint64_t seed = 1;
  /// The paper's five testing runs: D = 20, 40, 60, 80, 100 ms.
  std::vector<double> sample_periods_ms = {20, 40, 60, 80, 100};
  double run_seconds = 10.0;
  fault::FaultPlan faults;
  std::uint64_t event_budget = 0;
  OscilloscopeConfig osc;  ///< base config (and bug); sample_period per run
  hw::RadioParams radio = [] {
    hw::RadioParams p;
    p.bits_per_second = 76800.0;  // CC1000 at its maximum rate
    return p;
  }();
};

struct Case1Run {
  double sample_period_ms = 0;
  trace::NodeTrace sensor_trace;
  std::uint64_t readings = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t pollutions = 0;
  std::uint64_t heavy_tasks = 0;
  std::uint64_t sink_received = 0;
};

struct Case1Result {
  std::vector<Case1Run> runs;
  std::uint64_t events_executed = 0;  ///< summed over all sample periods
  std::uint64_t total_pollutions() const;
};

Case1Result run_case1(const Case1Config& config, WorldArena* arena = nullptr);

// ------------------------------------------------------------- case II

struct Case2Config {
  std::uint64_t seed = 1;
  double run_seconds = 20.0;
  double mean_interval_ms = 100.0;
  fault::FaultPlan faults;
  std::uint64_t event_budget = 0;

  /// Payload size range for the source's packets. The relay checksums one
  /// byte per loop iteration before forwarding, so payload size directly
  /// sets the run's instruction density (perf benches crank it up).
  std::size_t min_payload_bytes = 4;
  std::size_t max_payload_bytes = 16;

  /// Channel impairments (default: clean). Gilbert-Elliott, when set,
  /// overrides the iid loss rate.
  double loss_rate = 0.0;
  std::optional<net::Channel::GilbertElliott> gilbert_elliott;

  /// The bug built into the relay (DESIGN.md §16), plus the TornMailbox
  /// window knob. None builds the repaired relay.
  RelayMutation relay_mutation = RelayMutation::BusyDrop;
  std::uint32_t relay_mailbox_iteration_cost = 900;

  /// Low-power listening on every mote (default: always-on radios).
  hw::LplParams lpl;
  hw::RadioParams radio = [] {
    hw::RadioParams p;
    p.bits_per_second = 250000.0;  // CC2420-class rate: short busy windows
    // Firmware bookkeeping hold after each exchange: the quiet-channel
    // window in which new arrivals hit the busy flag and get dropped.
    p.post_tx_hold = sim::cycles_from_millis(3);
    return p;
  }();

  /// The source mote runs leaner firmware (no post-exchange hold) so it can
  /// emit closely-spaced packets — the random arrival process the relay
  /// must survive.
  hw::RadioParams source_radio = [] {
    hw::RadioParams p;
    p.bits_per_second = 250000.0;
    return p;
  }();
};

struct Case2Result {
  trace::NodeTrace relay_trace;
  std::uint64_t source_sent = 0;
  std::uint64_t relay_received = 0;
  std::uint64_t relay_forwarded = 0;
  std::uint64_t relay_dropped_busy = 0;
  std::uint64_t sink_received = 0;
  std::uint64_t events_executed = 0;
  sim::Cycle relay_tx_airtime = 0;  ///< for energy accounting
};

Case2Result run_case2(const Case2Config& config, WorldArena* arena = nullptr);

// ------------------------------------------------------------- case III

struct Case3Config {
  std::uint64_t seed = 1;
  double run_seconds = 15.0;
  std::size_t rows = 3, cols = 3;  ///< 9 nodes, root = node 0
  std::size_t num_sources = 4;
  fault::FaultPlan faults;
  std::uint64_t event_budget = 0;
  CtpHeartbeatConfig app;  ///< base (and bug); role flags set per node
  hw::RadioParams radio = [] {
    hw::RadioParams p;
    p.bits_per_second = 100000.0;
    return p;
  }();
};

struct Case3NodeStats {
  net::NodeId id = 0;
  bool is_source = false;
  bool hung = false;
  std::uint64_t send_fails = 0;
  std::uint64_t reports = 0;
  std::uint64_t heartbeats_sent = 0;
};

struct Case3Result {
  std::vector<trace::NodeTrace> traces;  ///< indexed by node id
  std::vector<net::NodeId> sources;
  trace::IrqLine report_line = 0;
  std::vector<Case3NodeStats> stats;  ///< indexed by node id
  std::uint64_t delivered_to_root = 0;
  std::uint64_t events_executed = 0;
  std::size_t hung_nodes() const;
};

Case3Result run_case3(const Case3Config& config, WorldArena* arena = nullptr);

// ------------------------------------------------------------- case IV
// (extension: Trickle dissemination with the torn-update bug)

struct Case4Config {
  std::uint64_t seed = 1;
  double run_seconds = 60.0;
  std::size_t rows = 3, cols = 3;  ///< node 0 publishes
  double mean_update_interval_s = 3.0;
  fault::FaultPlan faults;
  std::uint64_t event_budget = 0;
  DisseminationConfig app = [] {
    DisseminationConfig c;
    c.flash_commit_iterations = 12;  // ~2.5 ms tear window
    return c;
  }();  ///< base (and bug); is_publisher set per node
  hw::RadioParams radio = [] {
    hw::RadioParams p;
    p.bits_per_second = 100000.0;
    return p;
  }();
};

struct Case4NodeStats {
  net::NodeId id = 0;
  std::uint16_t version = 0;
  std::uint16_t value = 0;
  bool corrupted = false;  ///< value != the published value for version
  std::uint64_t summaries_sent = 0;
  std::uint64_t adoptions = 0;
  std::uint64_t torn_broadcasts = 0;
};

struct Case4Result {
  std::vector<trace::NodeTrace> traces;  ///< indexed by node id
  trace::IrqLine trickle_line = 0;
  std::vector<Case4NodeStats> stats;     ///< indexed by node id
  std::uint16_t published_version = 0;
  std::uint64_t updates_injected = 0;
  std::uint64_t events_executed = 0;
  /// Integrated damage: node-seconds spent holding a value that disagrees
  /// with the published value for the node's own version (sampled at 2 Hz
  /// by the environment). A torn adoption corrupts a node until the NEXT
  /// version sweeps through, so the exposure accumulates even though the
  /// end-of-run snapshot usually looks clean.
  double corruption_node_seconds = 0.0;
  std::uint64_t total_torn() const;
};

Case4Result run_case4(const Case4Config& config, WorldArena* arena = nullptr);

// ------------------------------------------------------------- scenario

/// One case study's world as a value: the app, topology, bug, faults and
/// duration. simulate() overrides the alternative's `seed` with the run's.
using Scenario = std::variant<Case1Config, Case2Config, Case3Config,
                              Case4Config>;

/// What the Sentomist back end reads from one case's result: the analyzed
/// traces in analysis order, with their run tags, and the anatomized line.
struct Analysis {
  std::vector<trace::TaggedTrace> traces;  ///< views into the result
  trace::IrqLine line = 0;
};

/// The per-case analysis choice, written once:
///   I   every testing run's sensor trace, tagged with its run index, at
///       the ADC data-ready line;
///   II  the relay's trace at the radio SPI line;
///   III the source nodes' traces (ascending node id) at the report
///       timer's line;
///   IV  every node's trace at the flash-ready line (the tear is only
///       visible in FLASH-READY intervals, which span the preempting
///       broadcast; the Trickle timer's own intervals are
///       control-flow-identical for torn and normal fires).
Analysis analysis_of(const Case1Result& result);
Analysis analysis_of(const Case2Result& result);
Analysis analysis_of(const Case3Result& result);
Analysis analysis_of(const Case4Result& result);

/// One seeded run of a Scenario.
struct Simulation {
  /// Every trace the run returned, each exactly once, so a caller with an
  /// arena recycles every buffer once (the result's order: case I by run,
  /// cases III and IV by node id).
  std::vector<trace::NodeTrace> traces;
  Analysis analyzed;  ///< analysis_of the run, viewing into `traces`
  std::uint64_t events_executed = 0;

  Simulation() = default;
  Simulation(Simulation&&) = default;
  Simulation& operator=(Simulation&&) = default;
  // A copy's views would still point into the original's traces.
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;
};

/// Run `scenario` at `seed` (through `arena` when given, exactly as
/// run_caseN does) and return its traces and analysis.
Simulation simulate(const Scenario& scenario, std::uint64_t seed,
                    WorldArena* arena = nullptr);

}  // namespace sent::apps
