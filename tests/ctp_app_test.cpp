// App-level CTP + heartbeat integration on small hand-built worlds
// (between the proto_test unit level and the full case-III scenario).
#include <gtest/gtest.h>

#include <memory>

#include "apps/ctp_heartbeat.hpp"
#include "net/topology.hpp"
#include "util/assert.hpp"

namespace sent::apps {
namespace {

struct World {
  sim::EventQueue q;
  net::Channel ch{q, util::Rng(77)};
  std::vector<std::unique_ptr<os::Node>> nodes;
  std::vector<std::unique_ptr<hw::RadioChip>> chips;
  std::vector<std::unique_ptr<CtpHeartbeatApp>> apps;

  void add(bool root, bool source, bool fixed = false) {
    auto id = static_cast<net::NodeId>(nodes.size());
    nodes.push_back(std::make_unique<os::Node>(id, q));
    hw::RadioParams radio;
    radio.bits_per_second = 100000.0;
    chips.push_back(std::make_unique<hw::RadioChip>(
        q, nodes.back()->machine(), ch, id, util::Rng(100 + id), radio));
    CtpHeartbeatConfig config;
    config.is_root = root;
    config.is_source = source;
    if (fixed) config.mutation = CtpMutation::None;
    apps.push_back(std::make_unique<CtpHeartbeatApp>(
        *nodes.back(), *chips.back(), config, util::Rng(200 + id)));
  }
  void start_all() {
    for (auto& app : apps) app->start();
  }
};

TEST(CtpApp, TwoNodeRouteConverges) {
  World w;
  w.add(/*root=*/true, /*source=*/false);
  w.add(/*root=*/false, /*source=*/true);
  w.ch.add_link(0, 1);
  w.start_all();
  w.q.run_until(sim::cycles_from_seconds(5));
  ASSERT_TRUE(w.apps[1]->ctp().parent().has_value());
  EXPECT_EQ(*w.apps[1]->ctp().parent(), 0);
  EXPECT_EQ(w.apps[1]->ctp().path_etx(), 1);
  EXPECT_EQ(w.apps[0]->ctp().path_etx(), 0);
}

TEST(CtpApp, ChainRoutesMultiHop) {
  World w;
  w.add(true, false);
  w.add(false, false);
  w.add(false, true);  // source two hops from the root
  net::make_chain(w.ch, {0, 1, 2});
  w.start_all();
  w.q.run_until(sim::cycles_from_seconds(10));
  ASSERT_TRUE(w.apps[2]->ctp().parent().has_value());
  EXPECT_EQ(*w.apps[2]->ctp().parent(), 1);
  EXPECT_EQ(w.apps[2]->ctp().path_etx(), 2);
  // Data produced during active phases reached the root via the relay.
  EXPECT_GT(w.apps[0]->ctp().delivered_to_root(), 0u);
}

TEST(CtpApp, HeartbeatsTrackNeighborLiveness) {
  World w;
  w.add(true, false);
  w.add(false, false);
  w.add(false, false);
  net::make_chain(w.ch, {0, 1, 2});
  w.start_all();
  w.q.run_until(sim::cycles_from_seconds(5));
  sim::Cycle window = sim::cycles_from_millis(1500);
  // The middle node hears both ends; the ends hear only the middle.
  EXPECT_EQ(w.apps[1]->heartbeat().alive_neighbors(w.q.now(), window), 2u);
  EXPECT_EQ(w.apps[0]->heartbeat().alive_neighbors(w.q.now(), window), 1u);
  EXPECT_EQ(w.apps[2]->heartbeat().alive_neighbors(w.q.now(), window), 1u);
}

TEST(CtpApp, IsolatedNodeDropsForLackOfRoute) {
  World w;
  w.add(true, false);   // root
  w.add(false, true);   // source, radio-isolated from the root
  w.add(false, false);  // bystander linked to the root
  w.ch.add_link(0, 2);  // restricted mode: node 1 hears nobody
  w.start_all();
  w.q.run_until(sim::cycles_from_seconds(5));
  EXPECT_FALSE(w.apps[1]->ctp().parent().has_value());
  EXPECT_GT(w.apps[1]->ctp().drops_no_route(), 0u);
  EXPECT_EQ(w.apps[0]->ctp().delivered_to_root(), 0u);
}

TEST(CtpApp, ReportLineConsistentAcrossNodes) {
  World w;
  w.add(true, false);
  w.add(false, true);
  EXPECT_EQ(w.apps[0]->report_line(), w.apps[1]->report_line());
  // Identical program image: same instruction table on both nodes.
  EXPECT_EQ(w.nodes[0]->program().instr_count(),
            w.nodes[1]->program().instr_count());
}

}  // namespace
}  // namespace sent::apps
