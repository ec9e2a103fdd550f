#include <gtest/gtest.h>

#include <vector>

#include "net/channel.hpp"
#include "net/packet.hpp"
#include "net/topology.hpp"
#include "util/assert.hpp"

namespace sent::net {
namespace {

struct Capture final : RadioListener {
  std::vector<Packet> frames;
  void on_frame(const Packet& p) override { frames.push_back(p); }
};

Packet data_packet(NodeId dst, std::uint16_t seq = 0) {
  Packet p;
  p.type = FrameType::Data;
  p.dst = dst;
  p.seq = seq;
  p.payload = {1, 2, 3};
  return p;
}

TEST(Packet, SizeAccountsForTypeAndPayload) {
  Packet d = data_packet(3);
  EXPECT_EQ(d.size_bytes(), 12u + 3u);
  Packet rts;
  rts.type = FrameType::Rts;
  rts.payload = {9, 9, 9, 9};  // control frames ignore payload
  EXPECT_EQ(rts.size_bytes(), 6u);
}

TEST(Packet, U16RoundTrip) {
  std::vector<std::uint8_t> buf;
  put_u16(buf, 0xBEEF);
  put_u16(buf, 7);
  EXPECT_EQ(get_u16(buf, 0), 0xBEEF);
  EXPECT_EQ(get_u16(buf, 2), 7);
  EXPECT_THROW(get_u16(buf, 3), util::PreconditionError);
}

struct ChannelHarness {
  sim::EventQueue q;
  Channel ch{q, util::Rng(42)};
  Capture a, b, c;
  ChannelHarness() {
    ch.add_node(0, &a);
    ch.add_node(1, &b);
    ch.add_node(2, &c);
  }
};

TEST(Channel, DeliversToEveryoneButSender) {
  ChannelHarness h;
  h.ch.transmit(0, data_packet(kBroadcast), 100);
  h.q.run_all();
  EXPECT_TRUE(h.a.frames.empty());
  ASSERT_EQ(h.b.frames.size(), 1u);
  ASSERT_EQ(h.c.frames.size(), 1u);
  EXPECT_EQ(h.b.frames[0].src, 0);  // channel stamps the sender
}

TEST(Channel, DeliveryHappensAtAirtimeEnd) {
  ChannelHarness h;
  h.q.schedule_at(50, [&] { h.ch.transmit(0, data_packet(1), 200); });
  h.q.run_until(249);
  EXPECT_TRUE(h.b.frames.empty());
  h.q.run_all();
  EXPECT_EQ(h.b.frames.size(), 1u);
  EXPECT_EQ(h.q.now(), 250u);
}

TEST(Channel, RestrictedLinksLimitAudibility) {
  ChannelHarness h;
  h.ch.add_link(0, 1);  // switches to explicit connectivity: 0-1 only
  h.ch.transmit(0, data_packet(kBroadcast), 100);
  h.q.run_all();
  EXPECT_EQ(h.b.frames.size(), 1u);
  EXPECT_TRUE(h.c.frames.empty());
}

TEST(Channel, CarrierBusyDuringTransmission) {
  ChannelHarness h;
  EXPECT_FALSE(h.ch.carrier_busy(1));
  h.ch.transmit(0, data_packet(kBroadcast), 100);
  EXPECT_TRUE(h.ch.carrier_busy(1));
  EXPECT_TRUE(h.ch.carrier_busy(0));  // own transmission
  h.q.run_all();
  EXPECT_FALSE(h.ch.carrier_busy(1));
}

TEST(Channel, CarrierRespectsTopology) {
  ChannelHarness h;
  h.ch.add_link(0, 1);
  h.ch.transmit(0, data_packet(1), 100);
  EXPECT_TRUE(h.ch.carrier_busy(1));
  EXPECT_FALSE(h.ch.carrier_busy(2));  // out of range
}

TEST(Channel, OverlappingTransmissionsCollideAtCommonReceivers) {
  ChannelHarness h;
  h.ch.transmit(0, data_packet(kBroadcast), 100);
  h.q.schedule_at(50, [&] { h.ch.transmit(1, data_packet(kBroadcast), 100); });
  h.q.run_all();
  // Node 2 hears both -> both corrupted there. Node 0 and 1 were each
  // transmitting during the other's frame -> nothing received anywhere.
  EXPECT_TRUE(h.c.frames.empty());
  EXPECT_TRUE(h.a.frames.empty());
  EXPECT_TRUE(h.b.frames.empty());
  EXPECT_EQ(h.ch.frames_collided(), 4u);
  EXPECT_EQ(h.ch.frames_delivered(), 0u);
}

TEST(Channel, NonOverlappingTransmissionsAllDeliver) {
  ChannelHarness h;
  h.ch.transmit(0, data_packet(kBroadcast), 100);
  h.q.run_all();
  h.ch.transmit(1, data_packet(kBroadcast), 100);
  h.q.run_all();
  EXPECT_EQ(h.b.frames.size(), 1u);
  EXPECT_EQ(h.a.frames.size(), 1u);
  EXPECT_EQ(h.c.frames.size(), 2u);
  EXPECT_EQ(h.ch.frames_collided(), 0u);
}

TEST(Channel, HiddenTerminalCollidesOnlyAtCommonNeighbour) {
  // 0-1-2 chain: 0 and 2 cannot hear each other (hidden terminals), so
  // both transmit; only node 1 sees the collision.
  ChannelHarness h;
  make_chain(h.ch, {0, 1, 2});
  h.ch.transmit(0, data_packet(kBroadcast), 100);
  h.ch.transmit(2, data_packet(kBroadcast), 100);
  h.q.run_all();
  EXPECT_TRUE(h.b.frames.empty());        // corrupted at node 1
  EXPECT_EQ(h.ch.frames_collided(), 2u);  // both copies at node 1
}

TEST(Channel, LossRateDropsApproximately) {
  sim::EventQueue q;
  Channel ch(q, util::Rng(7));
  Capture rx;
  Capture tx_side;
  ch.add_node(0, &tx_side);
  ch.add_node(1, &rx);
  ch.set_loss_rate(0.3);
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    ch.transmit(0, data_packet(1, static_cast<std::uint16_t>(i)), 10);
    q.run_all();
  }
  double rate = 1.0 - double(rx.frames.size()) / n;
  EXPECT_NEAR(rate, 0.3, 0.05);
  EXPECT_EQ(ch.frames_lost() + ch.frames_delivered(), (std::uint64_t)n);
}

TEST(Channel, InvalidUsageThrows) {
  sim::EventQueue q;
  Channel ch(q, util::Rng(1));
  Capture a;
  ch.add_node(0, &a);
  EXPECT_THROW(ch.add_node(0, &a), util::PreconditionError);
  EXPECT_THROW(ch.add_node(1, nullptr), util::PreconditionError);
  EXPECT_THROW(ch.set_loss_rate(1.5), util::PreconditionError);
  EXPECT_THROW(ch.add_link(3, 3), util::PreconditionError);
  EXPECT_THROW(ch.transmit(9, data_packet(0), 10), util::PreconditionError);
  EXPECT_THROW(ch.transmit(0, data_packet(1), 0), util::PreconditionError);
}

// ---- node ids past one 64-bit word ----------------------------------------

// Records which listener got each frame, in delivery order.
struct Tagged final : RadioListener {
  NodeId id = 0;
  std::vector<NodeId>* log = nullptr;
  void on_frame(const Packet&) override { log->push_back(id); }
};

struct WideHarness {
  sim::EventQueue q;
  Channel ch{q, util::Rng(42)};
  std::vector<NodeId> log;
  std::vector<Tagged> nodes;
  /// Attaches `ids` in the given order.
  explicit WideHarness(const std::vector<NodeId>& ids) : nodes(ids.size()) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      nodes[i].id = ids[i];
      nodes[i].log = &log;
      ch.add_node(ids[i], &nodes[i]);
    }
  }
};

TEST(ChannelWide, EveryoneHearsInAscendingIdOrder) {
  std::vector<NodeId> ids;
  for (NodeId id = 130; id-- > 0;) ids.push_back(id);  // attach descending
  ids.push_back(65534);
  WideHarness h(ids);
  h.ch.transmit(100, data_packet(kBroadcast), 50);
  h.q.run_all();
  std::vector<NodeId> want;
  for (NodeId id = 0; id < 130; ++id)
    if (id != 100) want.push_back(id);
  want.push_back(65534);
  EXPECT_EQ(h.log, want);
  EXPECT_EQ(h.ch.frames_delivered(), 130u);
}

TEST(ChannelWide, LinksAcrossWordsLimitAudibilityAndCarrier) {
  WideHarness h({200, 128, 127, 64, 63});
  make_chain(h.ch, {63, 64, 128, 200});
  EXPECT_FALSE(h.ch.carrier_busy(128));
  h.ch.transmit(64, data_packet(kBroadcast), 50);
  EXPECT_TRUE(h.ch.carrier_busy(64));  // own transmission
  EXPECT_TRUE(h.ch.carrier_busy(63));
  EXPECT_TRUE(h.ch.carrier_busy(128));
  EXPECT_FALSE(h.ch.carrier_busy(127));  // attached, no link
  EXPECT_FALSE(h.ch.carrier_busy(200));  // two hops away
  EXPECT_FALSE(h.ch.carrier_busy(999));  // never seen: no links
  h.q.run_all();
  EXPECT_EQ(h.log, (std::vector<NodeId>{63, 128}));
  EXPECT_FALSE(h.ch.carrier_busy(63));
}

TEST(ChannelWide, CarrierSenseBeforeAnyLinkCoversUnseenIds) {
  WideHarness h({70, 140});
  h.ch.transmit(140, data_packet(kBroadcast), 50);
  EXPECT_TRUE(h.ch.carrier_busy(70));
  EXPECT_TRUE(h.ch.carrier_busy(999));  // every pair connected
}

TEST(ChannelWide, HiddenTerminalsCollideAtSharedReceiver) {
  // 63 and 200 both reach 128 but not each other; 64 hears only 63.
  WideHarness h({63, 64, 128, 200});
  h.ch.add_link(63, 128);
  h.ch.add_link(200, 128);
  h.ch.add_link(63, 64);
  h.ch.transmit(63, data_packet(kBroadcast), 100);
  h.q.schedule_at(40,
                  [&] { h.ch.transmit(200, data_packet(kBroadcast), 100); });
  h.q.run_all();
  EXPECT_EQ(h.log, (std::vector<NodeId>{64}));  // 63's frame, intact
  EXPECT_EQ(h.ch.frames_collided(), 2u);        // both copies at 128
  EXPECT_EQ(h.ch.frames_delivered(), 1u);
}

TEST(ChannelWide, HalfDuplexCorruptsBothSenders) {
  WideHarness h({70, 140, 300});
  h.ch.add_link(70, 140);
  h.ch.add_link(140, 300);
  h.ch.transmit(70, data_packet(kBroadcast), 100);
  h.ch.transmit(140, data_packet(kBroadcast), 100);
  h.q.run_all();
  // 70 and 140 were each transmitting during the other's frame; 300
  // hears 140 only, and 140's frame overlaps nothing 300 can hear.
  EXPECT_EQ(h.log, (std::vector<NodeId>{300}));
  EXPECT_EQ(h.ch.frames_collided(), 2u);
}

TEST(ChannelWide, LinksMayPrecedeAttachment) {
  sim::EventQueue q;
  Channel ch(q, util::Rng(1));
  ch.add_link(64, 65);
  std::vector<NodeId> log;
  Tagged a, b;
  a.id = 64;
  b.id = 65;
  a.log = b.log = &log;
  // Linked but not attached: not a legal sender yet.
  EXPECT_THROW(ch.transmit(64, data_packet(65), 10), util::PreconditionError);
  ch.add_node(65, &b);
  ch.add_node(64, &a);
  ch.transmit(64, data_packet(65), 10);
  q.run_all();
  EXPECT_EQ(log, (std::vector<NodeId>{65}));
}

TEST(ChannelWide, PreconditionsHold) {
  WideHarness h({64, 300});
  Capture extra;
  EXPECT_THROW(h.ch.add_node(300, &extra), util::PreconditionError);
  EXPECT_THROW(h.ch.add_node(64, &extra), util::PreconditionError);
  EXPECT_THROW(h.ch.add_link(99, 99), util::PreconditionError);
  EXPECT_THROW(h.ch.add_link(300, 300), util::PreconditionError);
  EXPECT_THROW(h.ch.transmit(65, data_packet(64), 10),
               util::PreconditionError);
  h.ch.add_node(65, &extra);  // a fresh id still attaches
  h.ch.transmit(65, data_packet(64), 10);
  h.q.run_all();
  EXPECT_EQ(h.log, (std::vector<NodeId>{64, 300}));
}

TEST(Topology, GridConnectivity) {
  sim::EventQueue q;
  Channel ch(q, util::Rng(1));
  std::vector<Capture> caps(9);
  for (NodeId i = 0; i < 9; ++i) ch.add_node(i, &caps[i]);
  auto ids = make_grid(ch, 3, 3);
  ASSERT_EQ(ids.size(), 9u);
  // Center node 4 hears a broadcast from node 1 (adjacent) but corner 0
  // does not hear node 8.
  ch.transmit(1, data_packet(kBroadcast), 10);
  q.run_all();
  EXPECT_EQ(caps[4].frames.size(), 1u);
  EXPECT_EQ(caps[0].frames.size(), 1u);  // 0-1 adjacent
  EXPECT_TRUE(caps[8].frames.empty());   // 1 and 8 not adjacent
  ch.transmit(8, data_packet(kBroadcast), 10);
  q.run_all();
  EXPECT_EQ(caps[0].frames.size(), 1u);  // 8's frame not heard at corner 0
  EXPECT_EQ(caps[5].frames.size(), 1u);
  EXPECT_EQ(caps[7].frames.size(), 1u);
}

}  // namespace
}  // namespace sent::net
