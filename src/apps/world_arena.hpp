// Worker-local world arena: the amortized-state half of the campaign
// engine (DESIGN.md §15).
//
// A campaign worker owns one WorldArena for its whole stint. Each seeded
// run checks the pooled event queue out (which scrubs it back to the
// just-constructed state while keeping the slot slab and heap storage) and
// pulls recycled NodeTrace buffers for its nodes, so the allocation churn
// of world construction — the slab growth and the multi-megabyte
// instruction streams — is paid once per worker instead of once per run.
// Everything else (nodes, chips, apps, fault injectors) is rebuilt per
// seed: those constructions are cheap and rebuilding keeps a warm arena's
// runs bit-identical to a cold one's by construction.
//
// Not thread-safe; one arena per worker, never shared.
#pragma once

#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "trace/recorder.hpp"

namespace sent::apps {

class WorldArena {
 public:
  WorldArena() = default;
  WorldArena(const WorldArena&) = delete;
  WorldArena& operator=(const WorldArena&) = delete;

  /// Reset the pooled event queue to a fresh logical state and hand it
  /// out. Call once per run, before building the world on it.
  sim::EventQueue& checkout_queue() {
    queue_.reset();
    return queue_;
  }

  /// A scrubbed trace buffer carrying recycled capacity from an earlier
  /// run (or a plain empty NodeTrace when none is banked — the two are
  /// behaviourally identical).
  trace::NodeTrace take_buffer() {
    if (spare_.empty()) return trace::NodeTrace{};
    trace::NodeTrace t = std::move(spare_.back());
    spare_.pop_back();
    return t;
  }

  /// Bank a finished trace's capacity for a later run. The content is
  /// scrubbed immediately so a banked buffer can never leak data between
  /// seeds. The pooled case runners take every buffer they recycle from
  /// here, the chaos ladder's salvage-loaded traces included
  /// (trace::load_trace_lenient loads into take_buffer()), so their bank
  /// stays flat. The bank is still bounded: a caller that recycles traces
  /// it allocated itself would otherwise grow the worker's footprint by
  /// one instruction stream per seed across a 10k-run campaign. Overflow
  /// buffers are simply freed.
  void recycle(trace::NodeTrace&& t) {
    if (spare_.size() >= kMaxBanked) return;
    t.clear_keep_capacity();
    spare_.push_back(std::move(t));
  }

  /// Recycle every trace in `ts` (leaves ts itself intact but with
  /// scrubbed, moved-from elements — callers recycle as the last touch).
  void recycle_all(std::vector<trace::NodeTrace>& ts) {
    for (trace::NodeTrace& t : ts) recycle(std::move(t));
  }

  std::size_t banked_buffers() const { return spare_.size(); }

 private:
  /// Plenty for the largest world (case III's 9 nodes) plus the chaos
  /// ladder's per-source salvaged traces, while keeping a worker's
  /// steady-state footprint flat.
  static constexpr std::size_t kMaxBanked = 32;

  sim::EventQueue queue_;
  std::vector<trace::NodeTrace> spare_;
};

}  // namespace sent::apps
