#include <gtest/gtest.h>

#include "apps/scenarios.hpp"
#include "pipeline/sentomist.hpp"
#include "proto/trickle.hpp"
#include "util/assert.hpp"

namespace sent::proto {
namespace {

TrickleParams params(sim::Cycle imin = 1000, std::uint32_t doublings = 3,
                     std::uint32_t k = 2) {
  TrickleParams p;
  p.imin = imin;
  p.doublings = doublings;
  p.redundancy = k;
  return p;
}

TEST(Trickle, FirstFireInSecondHalfOfImin) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Trickle t(params(), util::Rng(seed));
    sim::Cycle fire = t.start();
    EXPECT_GE(fire, 500u);
    EXPECT_LT(fire, 1000u);
  }
}

TEST(Trickle, FireThenIntervalEndSumToInterval) {
  Trickle t(params(), util::Rng(1));
  sim::Cycle fire = t.start();
  Trickle::Step step = t.advance();  // the fire point
  EXPECT_TRUE(step.transmit);        // no suppression yet
  EXPECT_EQ(fire + step.next_delay, 1000u);
}

TEST(Trickle, IntervalDoublesUpToImax) {
  Trickle t(params(1000, 3), util::Rng(2));
  t.start();
  std::vector<sim::Cycle> intervals;
  for (int i = 0; i < 12; ++i) {
    Trickle::Step step = t.advance();  // fire
    (void)step;
    t.advance();  // interval end -> next interval begins
    intervals.push_back(t.interval());
  }
  EXPECT_EQ(intervals[0], 2000u);
  EXPECT_EQ(intervals[1], 4000u);
  EXPECT_EQ(intervals[2], 8000u);
  // Caps at Imin * 2^3.
  for (std::size_t i = 2; i < intervals.size(); ++i)
    EXPECT_EQ(intervals[i], 8000u);
}

TEST(Trickle, RedundancySuppressesTransmission) {
  Trickle t(params(1000, 3, /*k=*/2), util::Rng(3));
  t.start();
  t.on_consistent();
  t.on_consistent();  // counter reaches k
  Trickle::Step step = t.advance();
  EXPECT_FALSE(step.transmit);
  EXPECT_EQ(t.suppressions(), 1u);
  // Next interval: counter resets, transmission allowed again.
  t.advance();
  Trickle::Step step2 = t.advance();
  EXPECT_TRUE(step2.transmit);
}

TEST(Trickle, InconsistencyResetsToImin) {
  Trickle t(params(1000, 3), util::Rng(4));
  t.start();
  for (int i = 0; i < 6; ++i) t.advance();
  EXPECT_GT(t.interval(), 1000u);
  sim::Cycle fire = t.on_inconsistent();
  EXPECT_EQ(t.interval(), 1000u);
  EXPECT_GE(fire, 500u);
  EXPECT_LT(fire, 1000u);
  EXPECT_EQ(t.counter(), 0u);
}

TEST(Trickle, ParamValidation) {
  TrickleParams bad = params();
  bad.imin = 1;
  EXPECT_THROW(Trickle(bad, util::Rng(1)), util::PreconditionError);
  bad = params();
  bad.redundancy = 0;
  EXPECT_THROW(Trickle(bad, util::Rng(1)), util::PreconditionError);
  bad = params();
  bad.doublings = 40;
  EXPECT_THROW(Trickle(bad, util::Rng(1)), util::PreconditionError);
}

}  // namespace
}  // namespace sent::proto

namespace sent::apps {
namespace {

Case4Config small_case4(bool fixed, std::uint64_t seed = 1) {
  Case4Config c;
  c.seed = seed;
  if (fixed) c.app.mutation = DissMutation::None;
  c.run_seconds = 30.0;
  return c;
}

TEST(Case4, UpdatesDisseminateToAllNodes) {
  Case4Result r = run_case4(small_case4(true));
  EXPECT_GT(r.updates_injected, 3u);
  for (const auto& s : r.stats) {
    EXPECT_EQ(s.version, r.published_version) << "node " << s.id;
    EXPECT_FALSE(s.corrupted) << "node " << s.id;
  }
  EXPECT_DOUBLE_EQ(r.corruption_node_seconds, 0.0);
}

TEST(Case4, BuggyVariantTearsOccasionally) {
  // Tears are transient: sweep a few seeds and require at least one.
  std::uint64_t total_torn = 0;
  double exposure = 0.0;
  for (std::uint64_t seed : {1, 2, 3}) {
    Case4Result r = run_case4(small_case4(false, seed));
    total_torn += r.total_torn();
    exposure += r.corruption_node_seconds;
    // Torn broadcasts leave ground-truth markers on the tearing node.
    std::uint64_t marked = 0;
    for (const auto& t : r.traces)
      for (const auto& bug : t.bugs) marked += bug.kind == "torn-summary";
    EXPECT_EQ(marked, r.total_torn());
  }
  EXPECT_GE(total_torn, 1u);
  EXPECT_GT(exposure, 0.0);  // wrong values actually served
}

TEST(Case4, FixedVariantNeverTears) {
  for (std::uint64_t seed : {1, 2, 3}) {
    Case4Result r = run_case4(small_case4(true, seed));
    EXPECT_EQ(r.total_torn(), 0u);
    for (const auto& t : r.traces) EXPECT_TRUE(t.bugs.empty());
  }
}

TEST(Case4, PublisherNeverTears) {
  Case4Result r = run_case4(small_case4(false));
  EXPECT_EQ(r.stats[0].torn_broadcasts, 0u);
  EXPECT_EQ(r.stats[0].adoptions, 0u);  // publishes, never adopts
}

TEST(Case4, TrickleSuppressionIsActive) {
  Case4Result r = run_case4(small_case4(true));
  // With k=2 and 9 nodes in a grid, plenty of summaries are suppressed;
  // total traffic stays far below one-per-node-per-Imin.
  std::uint64_t sent = 0;
  for (const auto& s : r.stats) sent += s.summaries_sent;
  EXPECT_GT(sent, 50u);
  EXPECT_LT(sent, 2000u);
}

TEST(Case4, DeterministicForSameSeed) {
  Case4Result a = run_case4(small_case4(false, 9));
  Case4Result b = run_case4(small_case4(false, 9));
  EXPECT_EQ(a.total_torn(), b.total_torn());
  ASSERT_EQ(a.traces.size(), b.traces.size());
  for (std::size_t i = 0; i < a.traces.size(); ++i) {
    EXPECT_EQ(a.traces[i].lifecycle.size(), b.traces[i].lifecycle.size());
    EXPECT_EQ(a.traces[i].instrs.size(), b.traces[i].instrs.size());
  }
}

TEST(Case4, InjectOnNonPublisherThrows) {
  sim::EventQueue q;
  net::Channel ch(q, util::Rng(1));
  os::Node node(3, q);
  hw::RadioChip chip(q, node.machine(), ch, 3, util::Rng(2));
  DisseminationConfig config;  // not a publisher
  DisseminationApp app(node, chip, config, util::Rng(3));
  EXPECT_THROW(app.inject_update(5), util::PreconditionError);
}

}  // namespace
}  // namespace sent::apps
