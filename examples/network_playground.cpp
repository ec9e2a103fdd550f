// Substrate tour (no ML): build a 4x4-grid sensor network running CTP plus
// the heartbeat protocol on the discrete-event emulator, run half a
// virtual minute, and print routing/delivery/liveness statistics.
//
// Shows the simulation layers on their own: event queue, channel +
// topology, radio chips, TinyOS-like nodes and the protocol stack.
//
// Build & run:  ./build/examples/network_playground [--loss 0.05]
#include <cstdio>
#include <memory>

#include "apps/ctp_heartbeat.hpp"
#include "hw/energy.hpp"
#include "hw/radio.hpp"
#include "net/topology.hpp"
#include "os/node.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace sent;

int main(int argc, char** argv) {
  util::Cli cli;
  cli.add_flag("seed", "experiment seed", "1");
  cli.add_flag("loss", "per-link frame loss probability", "0.02");
  cli.add_flag("seconds", "virtual run time", "30");
  if (!cli.parse(argc, argv)) return 1;

  const std::size_t rows = 4, cols = 4, n = rows * cols;
  util::Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));

  sim::EventQueue queue;
  net::Channel channel(queue, rng.substream("channel"));
  channel.set_loss_rate(cli.get_probability("loss"));

  hw::RadioParams radio;
  radio.bits_per_second = 100000.0;

  std::vector<std::unique_ptr<os::Node>> nodes;
  std::vector<std::unique_ptr<hw::RadioChip>> chips;
  std::vector<std::unique_ptr<apps::CtpHeartbeatApp>> ctp_apps;
  for (std::size_t i = 0; i < n; ++i) {
    auto id = static_cast<net::NodeId>(i);
    nodes.push_back(std::make_unique<os::Node>(id, queue));
    chips.push_back(std::make_unique<hw::RadioChip>(
        queue, nodes[i]->machine(), channel, id,
        rng.substream("chip" + std::to_string(i)), radio));
    apps::CtpHeartbeatConfig config;
    config.is_root = (i == 0);
    config.is_source = (i % 3 == 1);  // a third of the nodes report
    config.mutation = apps::CtpMutation::None;  // repaired: focus on the net
    ctp_apps.push_back(std::make_unique<apps::CtpHeartbeatApp>(
        *nodes[i], *chips[i], config,
        rng.substream("app" + std::to_string(i))));
  }
  net::make_grid(channel, rows, cols);
  for (auto& app : ctp_apps) app->start();

  double seconds = cli.get_duration("seconds", sim::kCyclesPerSecond);
  queue.run_until(sim::cycles_from_seconds(seconds));

  std::printf("ran %.0f virtual seconds on a %zux%zu grid (loss %.0f%%)\n\n",
              seconds, rows, cols, cli.get_probability("loss") * 100);

  util::Table table({"node", "role", "parent", "path ETX", "queue",
                     "alive neighbors", "reports", "hb skipped (busy)"});
  for (std::size_t i = 0; i < n; ++i) {
    const auto& ctp = ctp_apps[i]->ctp();
    std::string parent = "-";
    if (ctp.parent()) parent = std::to_string(*ctp.parent());
    std::string etx = ctp.path_etx() == proto::CtpNode::kNoRoute
                          ? "-"
                          : std::to_string(ctp.path_etx());
    table.add_row(
        {util::cell(i),
         i == 0 ? "root" : (i % 3 == 1 ? "source" : "relay"), parent, etx,
         util::cell(ctp.queue_depth()),
         util::cell(ctp_apps[i]->heartbeat().alive_neighbors(
             queue.now(), sim::cycles_from_millis(1500))),
         util::cell(ctp_apps[i]->reports_attempted()),
         util::cell(ctp_apps[i]->heartbeat().skipped_busy())});
  }
  std::fputs(table.render().c_str(), stdout);

  // Per-node energy over the run (MCU from the trace, radio from the
  // chip's transmit airtime).
  double total_mj = 0.0;
  double max_duty = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sim::Cycle tx = chips[i]->tx_airtime();
    trace::NodeTrace t = nodes[i]->take_trace();
    hw::EnergyBreakdown e = hw::estimate_energy(t, tx);
    total_mj += e.total_mj();
    max_duty = std::max(max_duty, e.mcu_duty_cycle);
  }
  std::printf("\nnetwork energy over the run: %.1f mJ total "
              "(max MCU duty cycle %.3f%%)\n",
              total_mj, max_duty * 100.0);

  std::printf("packets delivered to the root: %llu\n",
              static_cast<unsigned long long>(
                  ctp_apps[0]->ctp().delivered_to_root()));
  std::printf("channel: %llu frames sent, %llu delivered, %llu collided, "
              "%llu lost\n",
              static_cast<unsigned long long>(channel.frames_sent()),
              static_cast<unsigned long long>(channel.frames_delivered()),
              static_cast<unsigned long long>(channel.frames_collided()),
              static_cast<unsigned long long>(channel.frames_lost()));
  return 0;
}
