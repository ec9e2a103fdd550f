#include "apps/scenarios.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>

#include "apps/sink.hpp"
#include "fault/injector.hpp"
#include "net/topology.hpp"
#include "os/irq.hpp"
#include "util/assert.hpp"

namespace sent::apps {

namespace {

/// Build the run's injector when the plan has runtime faults; a clean plan
/// yields nullopt and the run proceeds exactly as before fault injection
/// existed (no substream derived, nothing scheduled).
std::optional<fault::FaultInjector> make_injector(sim::EventQueue& queue,
                                                  const fault::FaultPlan& plan,
                                                  const util::Rng& run_rng,
                                                  double run_seconds) {
  if (!plan.any_runtime()) return std::nullopt;
  return std::optional<fault::FaultInjector>(
      std::in_place, queue, plan, run_rng.substream("faults"),
      sim::cycles_from_seconds(run_seconds));
}

/// Attach the per-node fault surfaces (radio, clock, interrupts).
void attach_node_faults(std::optional<fault::FaultInjector>& injector,
                        os::Node& node, hw::RadioChip& chip) {
  if (!injector) return;
  injector->attach_radio(chip);
  injector->attach_clock(node.id(), node.timers());
  injector->attach_interrupts(node.id(), node.machine(), node.timers());
}

}  // namespace

// ------------------------------------------------------------- case I

std::uint64_t Case1Result::total_pollutions() const {
  std::uint64_t n = 0;
  for (const auto& run : runs) n += run.pollutions;
  return n;
}

Case1Result run_case1(const Case1Config& config, WorldArena* arena) {
  SENT_REQUIRE(!config.sample_periods_ms.empty());
  SENT_REQUIRE(config.run_seconds > 0);
  WorldArena local;
  if (!arena) arena = &local;
  Case1Result result;
  util::Rng master(config.seed);

  for (std::size_t r = 0; r < config.sample_periods_ms.size(); ++r) {
    double d_ms = config.sample_periods_ms[r];
    util::Rng run_rng = master.substream("case1-run" + std::to_string(r));

    sim::EventQueue& queue = arena->checkout_queue();
    if (config.event_budget) queue.set_watchdog_budget(config.event_budget);
    net::Channel channel(queue, run_rng.substream("channel"));
    auto injector =
        make_injector(queue, config.faults, run_rng, config.run_seconds);

    os::Node sink_node(0, queue, arena->take_buffer());
    hw::RadioChip sink_chip(queue, sink_node.machine(), channel, 0,
                            run_rng.substream("sink-chip"), config.radio);
    SinkApp sink(sink_node, sink_chip);

    os::Node sensor_node(1, queue, arena->take_buffer());
    hw::RadioChip sensor_chip(queue, sensor_node.machine(), channel, 1,
                              run_rng.substream("sensor-chip"),
                              config.radio);
    sensor_chip.set_signal_txdone(false);  // Oscilloscope is fire-and-forget
    hw::AdcDevice adc(queue, sensor_node.machine(),
                      run_rng.substream("adc"));
    hw::SensorFn signal =
        hw::make_temperature_sensor(run_rng.substream("sensor-signal"));
    if (injector)
      signal = injector->wrap_sensor(std::move(signal), "adc-1");
    adc.set_sensor(std::move(signal));

    OscilloscopeConfig osc = config.osc;
    osc.sink = 0;
    osc.sample_period = sim::cycles_from_millis(d_ms);
    OscilloscopeApp app(sensor_node, adc, sensor_chip, osc,
                        run_rng.substream("osc-app"));
    app.start();
    attach_node_faults(injector, sink_node, sink_chip);
    attach_node_faults(injector, sensor_node, sensor_chip);

    queue.run_until(sim::cycles_from_seconds(config.run_seconds));
    result.events_executed += queue.executed();

    Case1Run run;
    run.sample_period_ms = d_ms;
    run.sensor_trace = sensor_node.take_trace();
    run.readings = app.readings();
    run.packets_sent = app.packets_sent();
    run.pollutions = app.pollutions();
    run.heavy_tasks = app.heavy_tasks();
    run.sink_received = sink.received(proto::am::kOscilloscope);
    result.runs.push_back(std::move(run));
    // The sink's trace is never consumed; bank its capacity for the next
    // sub-run / seed.
    arena->recycle(sink_node.take_trace());
  }
  return result;
}

// ------------------------------------------------------------- case II

Case2Result run_case2(const Case2Config& config, WorldArena* arena) {
  SENT_REQUIRE(config.run_seconds > 0);
  WorldArena local;
  if (!arena) arena = &local;
  util::Rng master(config.seed);
  util::Rng rng = master.substream("case2");

  sim::EventQueue& queue = arena->checkout_queue();
  if (config.event_budget) queue.set_watchdog_budget(config.event_budget);
  net::Channel channel(queue, rng.substream("channel"));
  auto injector =
      make_injector(queue, config.faults, rng, config.run_seconds);
  if (config.gilbert_elliott) {
    channel.set_gilbert_elliott(*config.gilbert_elliott);
  } else if (config.loss_rate > 0.0) {
    channel.set_loss_rate(config.loss_rate);
  }

  os::Node sink_node(0, queue, arena->take_buffer());
  hw::RadioChip sink_chip(queue, sink_node.machine(), channel, 0,
                          rng.substream("chip0"), config.radio);
  SinkApp sink(sink_node, sink_chip);

  os::Node relay_node(1, queue, arena->take_buffer());
  hw::RadioChip relay_chip(queue, relay_node.machine(), channel, 1,
                           rng.substream("chip1"), config.radio);
  RelayConfig relay_config;
  relay_config.next_hop = 0;
  relay_config.mutation = config.relay_mutation;
  relay_config.mailbox_iteration_cost = config.relay_mailbox_iteration_cost;
  RelayApp relay(relay_node, relay_chip, relay_config);

  os::Node source_node(2, queue, arena->take_buffer());
  hw::RadioChip source_chip(queue, source_node.machine(), channel, 2,
                            rng.substream("chip2"), config.source_radio);
  RandomSourceConfig src_config;
  src_config.dst = 1;
  src_config.mean_interval = sim::cycles_from_millis(config.mean_interval_ms);
  src_config.min_payload_bytes = config.min_payload_bytes;
  src_config.max_payload_bytes = config.max_payload_bytes;
  RandomSourceApp source(source_node, source_chip, src_config,
                         rng.substream("source"));

  if (config.lpl.enabled) {
    sink_chip.set_lpl(config.lpl);
    relay_chip.set_lpl(config.lpl);
    source_chip.set_lpl(config.lpl);
  }

  net::make_chain(channel, {0, 1, 2});
  source.start();
  attach_node_faults(injector, sink_node, sink_chip);
  attach_node_faults(injector, relay_node, relay_chip);
  attach_node_faults(injector, source_node, source_chip);
  queue.run_until(sim::cycles_from_seconds(config.run_seconds));

  Case2Result result;
  result.events_executed = queue.executed();
  result.relay_tx_airtime = relay_chip.tx_airtime();
  result.relay_trace = relay_node.take_trace();
  result.source_sent = source.sent();
  result.relay_received = relay.received();
  result.relay_forwarded = relay.forwarded();
  result.relay_dropped_busy = relay.dropped_busy();
  result.sink_received = sink.received(proto::am::kForward);
  // Only the relay trace leaves with the result; bank the other two.
  arena->recycle(sink_node.take_trace());
  arena->recycle(source_node.take_trace());
  return result;
}

// ------------------------------------------------------------- case III

std::size_t Case3Result::hung_nodes() const {
  std::size_t n = 0;
  for (const auto& s : stats) n += s.hung;
  return n;
}

Case3Result run_case3(const Case3Config& config, WorldArena* arena) {
  SENT_REQUIRE(config.run_seconds > 0);
  WorldArena local;
  if (!arena) arena = &local;
  const std::size_t n = config.rows * config.cols;
  SENT_REQUIRE(n >= 2);
  SENT_REQUIRE(config.num_sources >= 1 && config.num_sources < n);
  util::Rng master(config.seed);
  util::Rng rng = master.substream("case3");

  sim::EventQueue& queue = arena->checkout_queue();
  if (config.event_budget) queue.set_watchdog_budget(config.event_budget);
  net::Channel channel(queue, rng.substream("channel"));
  auto injector =
      make_injector(queue, config.faults, rng, config.run_seconds);

  // "We randomly select sensor nodes as sources" — any node except the
  // root (node 0).
  std::vector<net::NodeId> candidates;
  for (std::size_t i = 1; i < n; ++i)
    candidates.push_back(static_cast<net::NodeId>(i));
  rng.shuffle(candidates);
  std::vector<net::NodeId> sources(candidates.begin(),
                                   candidates.begin() +
                                       static_cast<long>(config.num_sources));
  std::sort(sources.begin(), sources.end());
  auto is_source = [&](net::NodeId id) {
    return std::find(sources.begin(), sources.end(), id) != sources.end();
  };

  std::vector<std::unique_ptr<os::Node>> nodes;
  std::vector<std::unique_ptr<hw::RadioChip>> chips;
  std::vector<std::unique_ptr<CtpHeartbeatApp>> ctp_apps;
  for (std::size_t i = 0; i < n; ++i) {
    auto id = static_cast<net::NodeId>(i);
    nodes.push_back(
        std::make_unique<os::Node>(id, queue, arena->take_buffer()));
    chips.push_back(std::make_unique<hw::RadioChip>(
        queue, nodes[i]->machine(), channel, id,
        rng.substream("chip" + std::to_string(i)), config.radio));
    CtpHeartbeatConfig app_config = config.app;
    app_config.is_root = (i == 0);
    app_config.is_source = is_source(id);
    ctp_apps.push_back(std::make_unique<CtpHeartbeatApp>(
        *nodes[i], *chips[i], app_config,
        rng.substream("app" + std::to_string(i))));
  }
  net::make_grid(channel, config.rows, config.cols);
  for (auto& app : ctp_apps) app->start();
  for (std::size_t i = 0; i < n; ++i)
    attach_node_faults(injector, *nodes[i], *chips[i]);

  queue.run_until(sim::cycles_from_seconds(config.run_seconds));

  Case3Result result;
  result.events_executed = queue.executed();
  result.sources = sources;
  result.report_line = ctp_apps[0]->report_line();
  for (std::size_t i = 0; i < n; ++i) {
    Case3NodeStats s;
    s.id = static_cast<net::NodeId>(i);
    s.is_source = is_source(s.id);
    s.hung = ctp_apps[i]->ctp().hung();
    s.send_fails = ctp_apps[i]->ctp().send_fail_events();
    s.reports = ctp_apps[i]->reports_attempted();
    s.heartbeats_sent = ctp_apps[i]->heartbeat().sent();
    result.stats.push_back(s);
    if (i == 0) result.delivered_to_root =
        ctp_apps[i]->ctp().delivered_to_root();
    result.traces.push_back(nodes[i]->take_trace());
  }
  return result;
}

// ------------------------------------------------------------- case IV

std::uint64_t Case4Result::total_torn() const {
  std::uint64_t n = 0;
  for (const auto& s : stats) n += s.torn_broadcasts;
  return n;
}

Case4Result run_case4(const Case4Config& config, WorldArena* arena) {
  SENT_REQUIRE(config.run_seconds > 0);
  WorldArena local;
  if (!arena) arena = &local;
  const std::size_t n = config.rows * config.cols;
  SENT_REQUIRE(n >= 2);
  util::Rng master(config.seed);
  util::Rng rng = master.substream("case4");

  sim::EventQueue& queue = arena->checkout_queue();
  if (config.event_budget) queue.set_watchdog_budget(config.event_budget);
  net::Channel channel(queue, rng.substream("channel"));
  auto injector =
      make_injector(queue, config.faults, rng, config.run_seconds);

  std::vector<std::unique_ptr<os::Node>> nodes;
  std::vector<std::unique_ptr<hw::RadioChip>> chips;
  std::vector<std::unique_ptr<DisseminationApp>> diss_apps;
  for (std::size_t i = 0; i < n; ++i) {
    auto id = static_cast<net::NodeId>(i);
    nodes.push_back(
        std::make_unique<os::Node>(id, queue, arena->take_buffer()));
    chips.push_back(std::make_unique<hw::RadioChip>(
        queue, nodes[i]->machine(), channel, id,
        rng.substream("chip" + std::to_string(i)), config.radio));
    DisseminationConfig app_config = config.app;
    app_config.is_publisher = (i == 0);
    diss_apps.push_back(std::make_unique<DisseminationApp>(
        *nodes[i], *chips[i], app_config,
        rng.substream("app" + std::to_string(i))));
  }
  net::make_grid(channel, config.rows, config.cols);
  for (auto& app : diss_apps) app->start();
  for (std::size_t i = 0; i < n; ++i)
    attach_node_faults(injector, *nodes[i], *chips[i]);

  // Environment: the publisher stages a new value at random times; track
  // the authoritative version -> value map for ground truth.
  std::map<std::uint16_t, std::uint16_t> published;
  std::uint64_t injected = 0;
  util::Rng update_rng = rng.substream("updates");
  std::function<void()> inject = [&] {
    auto value = static_cast<std::uint16_t>(update_rng.below(0xFFFF));
    ++injected;
    diss_apps[0]->inject_update(value);
    published[static_cast<std::uint16_t>(injected)] = value;
    sim::Cycle delay = std::max<sim::Cycle>(
        static_cast<sim::Cycle>(update_rng.exponential(
            config.mean_update_interval_s *
            static_cast<double>(sim::kCyclesPerSecond))),
        sim::cycles_from_millis(400));
    if (queue.now() + delay <
        sim::cycles_from_seconds(config.run_seconds) -
            sim::cycles_from_seconds(2.0))
      queue.schedule_after(delay, inject);
  };
  queue.schedule_at(sim::cycles_from_millis(500), inject);

  // Environment probe: sample every node's (version, value) at 2 Hz and
  // accumulate time spent disagreeing with the published value.
  double corruption_node_seconds = 0.0;
  std::function<void()> probe = [&] {
    for (const auto& app : diss_apps) {
      std::uint16_t v = app->version();
      if (v == 0) continue;
      auto it = published.find(v);
      if (it == published.end() || it->second != app->value())
        corruption_node_seconds += 0.5;
    }
    queue.schedule_after(sim::kCyclesPerSecond / 2, probe);
  };
  queue.schedule_at(sim::kCyclesPerSecond / 2, probe);

  queue.run_until(sim::cycles_from_seconds(config.run_seconds));

  Case4Result result;
  result.events_executed = queue.executed();
  result.corruption_node_seconds = corruption_node_seconds;
  result.trickle_line = diss_apps[0]->trickle_line();
  result.published_version = static_cast<std::uint16_t>(injected);
  result.updates_injected = injected;
  for (std::size_t i = 0; i < n; ++i) {
    Case4NodeStats s;
    s.id = static_cast<net::NodeId>(i);
    s.version = diss_apps[i]->version();
    s.value = diss_apps[i]->value();
    auto it = published.find(s.version);
    s.corrupted = s.version != 0 &&
                  (it == published.end() || it->second != s.value);
    s.summaries_sent = diss_apps[i]->summaries_sent();
    s.adoptions = diss_apps[i]->adoptions();
    s.torn_broadcasts = diss_apps[i]->torn_broadcasts();
    result.stats.push_back(s);
    result.traces.push_back(nodes[i]->take_trace());
  }
  return result;
}

// ------------------------------------------------------------- scenario

Analysis analysis_of(const Case1Result& result) {
  Analysis a;
  for (std::size_t r = 0; r < result.runs.size(); ++r)
    a.traces.push_back({&result.runs[r].sensor_trace, r});
  a.line = os::irq::kAdc;
  return a;
}

Analysis analysis_of(const Case2Result& result) {
  return {{{&result.relay_trace, 0}}, os::irq::kRadioSpi};
}

Analysis analysis_of(const Case3Result& result) {
  Analysis a;
  for (net::NodeId src : result.sources)
    a.traces.push_back({&result.traces[src], 0});
  a.line = result.report_line;
  return a;
}

Analysis analysis_of(const Case4Result& result) {
  Analysis a;
  for (const trace::NodeTrace& t : result.traces) a.traces.push_back({&t, 0});
  a.line = static_cast<trace::IrqLine>(result.trickle_line + 1);
  return a;
}

namespace {

Case1Result run_case(const Case1Config& c, WorldArena* a) {
  return run_case1(c, a);
}
Case2Result run_case(const Case2Config& c, WorldArena* a) {
  return run_case2(c, a);
}
Case3Result run_case(const Case3Config& c, WorldArena* a) {
  return run_case3(c, a);
}
Case4Result run_case(const Case4Config& c, WorldArena* a) {
  return run_case4(c, a);
}

/// Every trace a result holds, in the order simulate() hands them back.
std::vector<trace::NodeTrace*> traces_of(Case1Result& result) {
  std::vector<trace::NodeTrace*> out;
  for (Case1Run& run : result.runs) out.push_back(&run.sensor_trace);
  return out;
}

std::vector<trace::NodeTrace*> traces_of(Case2Result& result) {
  return {&result.relay_trace};
}

template <typename Result>  // cases III and IV: one trace per node
std::vector<trace::NodeTrace*> traces_of(Result& result) {
  std::vector<trace::NodeTrace*> out;
  for (trace::NodeTrace& t : result.traces) out.push_back(&t);
  return out;
}

}  // namespace

Simulation simulate(const Scenario& scenario, std::uint64_t seed,
                    WorldArena* arena) {
  return std::visit(
      [seed, arena](auto config) {
        config.seed = seed;
        auto result = run_case(config, arena);
        Simulation sim;
        sim.events_executed = result.events_executed;
        sim.analyzed = analysis_of(result);
        const std::vector<trace::NodeTrace*> all = traces_of(result);
        sim.traces.reserve(all.size());
        for (trace::NodeTrace* t : all) sim.traces.push_back(std::move(*t));
        // Re-point each view from the result's trace to its new home.
        for (trace::TaggedTrace& view : sim.analyzed.traces)
          view.trace =
              &sim.traces[std::find(all.begin(), all.end(), view.trace) -
                          all.begin()];
        return sim;
      },
      scenario);
}

}  // namespace sent::apps
