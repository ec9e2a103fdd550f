#include "net/channel.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace sent::net {

Channel::Channel(sim::EventQueue& queue, util::Rng rng)
    : queue_(queue), rng_(rng) {}

Channel::Index Channel::intern(NodeId id) {
  if (id >= index_of_.size()) index_of_.resize(std::size_t{id} + 1, 0);
  if (index_of_[id] != 0) return index_of_[id] - 1;
  const Index index = known_++;
  index_of_[id] = known_;
  if (known_ > words_ * 64) {
    // Widen every row by one word (rows are rare to grow: once per 64
    // nodes, while the world is built).
    const std::size_t words = words_ + 1;
    std::vector<std::uint64_t> hears(std::size_t{index} * words, 0);
    for (Index row = 0; row < index; ++row) {
      std::copy(hears_row(row), hears_row(row) + words_,
                hears.begin() + static_cast<std::ptrdiff_t>(row * words));
    }
    hears_ = std::move(hears);
    words_ = words;
    attached_.resize(words_, 0);
    for (Tx& tx : active_) tx.corrupted.resize(words_, 0);
  }
  hears_.resize(std::size_t{known_} * words_, 0);
  return index;
}

void Channel::add_node(NodeId id, RadioListener* listener) {
  SENT_REQUIRE(listener != nullptr);
  const Index index = intern(id);
  SENT_REQUIRE_MSG(!test(attached_.data(), index),
                   "node " << id << " already attached");
  set(attached_.data(), index);
  // Before the first add_link every pair of attached nodes is connected.
  if (!restricted_) {
    for (const Listener& other : listeners_) {
      set(hears_row(index), other.index);
      set(hears_row(other.index), index);
    }
  }
  auto at = std::lower_bound(
      listeners_.begin(), listeners_.end(), id,
      [](const Listener& l, NodeId want) { return l.id < want; });
  listeners_.insert(at, Listener{id, index, listener});
}

void Channel::set_loss_rate(double p) {
  SENT_REQUIRE(p >= 0.0 && p <= 1.0);
  loss_rate_ = p;
  ge_model_.reset();
}

void Channel::set_gilbert_elliott(const GilbertElliott& model) {
  SENT_REQUIRE(model.loss_good >= 0.0 && model.loss_good <= 1.0);
  SENT_REQUIRE(model.loss_bad >= 0.0 && model.loss_bad <= 1.0);
  SENT_REQUIRE(model.p_good_to_bad >= 0.0 && model.p_good_to_bad <= 1.0);
  SENT_REQUIRE(model.p_bad_to_good >= 0.0 && model.p_bad_to_good <= 1.0);
  ge_model_ = model;
  ge_burst_.clear();
}

bool Channel::delivery_lost(NodeId from, NodeId to) {
  if (!ge_model_) return rng_.chance(loss_rate_);
  bool& burst = ge_burst_[{from, to}];
  bool lost =
      rng_.chance(burst ? ge_model_->loss_bad : ge_model_->loss_good);
  // Advance the two-state Markov chain once per delivery attempt.
  if (burst) {
    if (rng_.chance(ge_model_->p_bad_to_good)) burst = false;
  } else {
    if (rng_.chance(ge_model_->p_good_to_bad)) burst = true;
  }
  return lost;
}

void Channel::add_link(NodeId a, NodeId b) {
  SENT_REQUIRE(a != b);
  if (!restricted_) {
    // Explicit connectivity replaces the all-pairs default.
    restricted_ = true;
    std::fill(hears_.begin(), hears_.end(), 0);
  }
  const Index ia = intern(a);
  const Index ib = intern(b);
  set(hears_row(ia), ib);
  set(hears_row(ib), ia);
}

bool Channel::carrier_busy(NodeId listener_node) const {
  const Index rx = index_of(listener_node);
  for (const auto& tx : active_) {
    if (tx.sender == listener_node) return true;  // own TX in flight
    // An id the channel never saw has no links: it hears everything only
    // while every pair is connected.
    if (rx == kUnknown ? !restricted_ : connected(tx.sender_index, rx))
      return true;
  }
  return false;
}

void Channel::transmit(NodeId sender, const Packet& packet,
                       sim::Cycle airtime) {
  const Index from = index_of(sender);
  SENT_REQUIRE_MSG(from != kUnknown && test(attached_.data(), from),
                   "unknown sender " << sender);
  SENT_REQUIRE(airtime > 0);
  ++frames_sent_;
  Tx tx;
  tx.id = next_tx_id_++;
  tx.sender = sender;
  tx.sender_index = from;
  tx.packet = packet;
  tx.packet.src = sender;
  tx.end = queue_.now() + airtime;
  if (!spare_rows_.empty()) {
    tx.corrupted = std::move(spare_rows_.back());
    spare_rows_.pop_back();
  }
  tx.corrupted.assign(words_, 0);

  // Collision marking: any attached receiver that can hear both this new
  // frame and an already-active frame gets both copies corrupted.
  const std::uint64_t* heard_new = hears_row(from);
  for (auto& other : active_) {
    const std::uint64_t* heard_other = hears_row(other.sender_index);
    for (std::size_t w = 0; w < words_; ++w) {
      const std::uint64_t both = heard_new[w] & heard_other[w] & attached_[w];
      other.corrupted[w] |= both;
      tx.corrupted[w] |= both;
    }
    // A node cannot transmit and receive simultaneously: the new frame is
    // unreceivable at the concurrent sender and vice versa.
    if (connected(from, other.sender_index)) {
      set(other.corrupted.data(), from);
      set(tx.corrupted.data(), other.sender_index);
    }
  }

  std::uint64_t id = tx.id;
  active_.push_back(std::move(tx));
  // End-of-airtime is never cancelled (even corrupted frames occupy the
  // medium to the end), so it can ride the deferred-inline path.
  queue_.schedule_or_inline(active_.back().end, [this, id] { finish(id); });
}

void Channel::finish(std::uint64_t tx_id) {
  auto it = std::find_if(active_.begin(), active_.end(),
                         [&](const Tx& t) { return t.id == tx_id; });
  SENT_ASSERT(it != active_.end());
  Tx tx = std::move(*it);
  active_.erase(it);

  for (const Listener& rx : listeners_) {
    if (!connected(tx.sender_index, rx.index)) continue;
    if (test(tx.corrupted.data(), rx.index)) {
      ++frames_collided_;
      continue;
    }
    if (delivery_lost(tx.sender, rx.id)) {
      ++frames_lost_;
      continue;
    }
    ++frames_delivered_;
    rx.listener->on_frame(tx.packet);
  }
  spare_rows_.push_back(std::move(tx.corrupted));
}

}  // namespace sent::net
