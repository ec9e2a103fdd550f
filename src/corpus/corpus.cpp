#include "corpus/corpus.hpp"

#include <cstdio>
#include <variant>

#include "core/anatomizer.hpp"
#include "util/assert.hpp"
#include "util/hash.hpp"

namespace sent::corpus {

const char* to_string(BugClass c) {
  switch (c) {
    case BugClass::Atomicity: return "atomicity";
    case BugClass::Ordering: return "ordering";
    case BugClass::SharedFlag: return "shared-flag";
  }
  return "?";
}

namespace {

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

template <typename... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};

/// Case II's firmware hold after each exchange, as every case-II variant
/// sets it. It is kept in ms for params(): 3 ms is 22,118.4 cycles, which
/// the radio's whole-cycle hold cannot give back.
constexpr double kPostTxHoldMs = 3.0;

VariantSpec case1(std::string id, BugClass cls, apps::OscMutation m,
                  std::string marker, double period_ms, double run_seconds,
                  std::uint32_t heavy_iters, std::string description) {
  apps::Case1Config c;
  c.sample_periods_ms = {period_ms};
  c.run_seconds = run_seconds;
  c.osc.heavy_iterations = heavy_iters;
  c.osc.mutation = m;
  return {std::move(id), cls, std::move(marker), std::move(description), c};
}

VariantSpec case2(std::string id, BugClass cls, apps::RelayMutation m,
                  std::string marker, double mean_ms,
                  std::uint32_t mailbox_cost, std::string description) {
  apps::Case2Config c;
  c.run_seconds = 20.0;
  c.mean_interval_ms = mean_ms;
  c.relay_mutation = m;
  c.relay_mailbox_iteration_cost = mailbox_cost;
  c.radio.post_tx_hold = sim::cycles_from_millis(kPostTxHoldMs);
  return {std::move(id), cls, std::move(marker), std::move(description), c};
}

VariantSpec case3(std::string id, std::size_t padding,
                  std::string description) {
  apps::Case3Config c;
  c.run_seconds = 15.0;
  c.app.heartbeat_padding = padding;
  c.app.mutation = apps::CtpMutation::StuckSending;
  return {std::move(id), BugClass::SharedFlag, "ctp-hang",
          std::move(description), c};
}

VariantSpec case4(std::string id, std::uint32_t tear_iters,
                  std::string description) {
  apps::Case4Config c;
  c.run_seconds = 40.0;
  c.app.flash_commit_iterations = tear_iters;
  c.app.mutation = apps::DissMutation::TornWrite;
  return {std::move(id), BugClass::Atomicity, "torn-summary",
          std::move(description), c};
}

std::vector<VariantSpec> build_corpus() {
  std::vector<VariantSpec> c;
  // --- case I: oscilloscope ----------------------------------------------
  // (The D = 40 variants run 20 s: the interleaving is rarer there.)
  c.push_back(case1("osc-shared-buffer-d20", BugClass::Atomicity,
                    apps::OscMutation::SharedBuffer, "data-pollution", 20, 10,
                    16, "send task reads the live packet buffer (Fig. 2)"));
  c.push_back(case1("osc-shared-buffer-d40", BugClass::Atomicity,
                    apps::OscMutation::SharedBuffer, "data-pollution", 40, 20,
                    24, "shared packet buffer at D = 40 ms, heavier task"));
  c.push_back(case1("osc-late-commit-d20", BugClass::Ordering,
                    apps::OscMutation::LateCommit, "late-commit-pollution",
                    20, 10, 16,
                    "double-buffer commit deferred into the send task"));
  c.push_back(case1("osc-late-commit-d40", BugClass::Ordering,
                    apps::OscMutation::LateCommit, "late-commit-pollution",
                    40, 20, 24, "deferred commit at D = 40 ms, heavier task"));
  c.push_back(case1("osc-pending-skip-d20", BugClass::SharedFlag,
                    apps::OscMutation::PendingSkip, "pending-skip-drop", 20,
                    10, 48,
                    "handler drops the triple while send_pending_ is set"));
  // --- case II: forwarding relay -----------------------------------------
  c.push_back(case2("fwd-busy-drop-i100", BugClass::SharedFlag,
                    apps::RelayMutation::BusyDrop, "busy-drop", 100, 900,
                    "active drop on the radio busy flag (paper case II)"));
  c.push_back(case2("fwd-busy-drop-i60", BugClass::SharedFlag,
                    apps::RelayMutation::BusyDrop, "busy-drop", 60, 900,
                    "busy-flag drop under heavier arrival pressure"));
  c.push_back(case2("fwd-torn-mailbox", BugClass::Atomicity,
                    apps::RelayMutation::TornMailbox, "torn-mailbox", 100,
                    2500,
                    "handler overwrites the staging slot mid-checksum"));
  c.push_back(case2("fwd-pop-first", BugClass::Ordering,
                    apps::RelayMutation::PopFirst, "pop-first-loss", 100,
                    900, "queue pop ordered before send confirmation"));
  // --- case IV: dissemination --------------------------------------------
  c.push_back(case4("dis-torn-write-w12", 12,
                    "version written before the committed value (~2.5 ms)"));
  c.push_back(case4("dis-torn-write-w24", 24,
                    "torn write with a doubled flash-commit window"));
  // --- case III: CTP + heartbeat -----------------------------------------
  c.push_back(case3("ctp-stuck-p96", 96,
                    "send-FAIL leaves `sending` set forever (paper case "
                    "III)"));
  c.push_back(case3("ctp-stuck-p160", 160,
                    "stuck `sending` under longer heartbeat airtime"));
  return c;
}

}  // namespace

const std::vector<VariantSpec>& builtin_corpus() {
  static const std::vector<VariantSpec> corpus = build_corpus();
  return corpus;
}

const VariantSpec* find_variant(const std::string& id) {
  for (const VariantSpec& v : builtin_corpus())
    if (v.id == id) return &v;
  return nullptr;
}

std::string corpus_ids() {
  std::string out;
  for (const VariantSpec& v : builtin_corpus()) {
    if (!out.empty()) out += ", ";
    out += v.id;
  }
  return out;
}

std::string VariantSpec::case_tag() const {
  static const char* const tags[] = {"I", "II", "III", "IV"};
  return tags[scenario.index()];
}

std::vector<std::pair<std::string, std::string>> VariantSpec::params() const {
  std::vector<std::pair<std::string, std::string>> p;
  p.emplace_back("run_seconds",
                 fmt_double(std::visit(
                     [](const auto& c) { return c.run_seconds; }, scenario)));
  std::visit(
      Overloaded{
          [&p](const apps::Case1Config& c) {
            p.emplace_back("sample_period_ms",
                           fmt_double(c.sample_periods_ms.front()));
            p.emplace_back("heavy_iterations",
                           std::to_string(c.osc.heavy_iterations));
          },
          [&p](const apps::Case2Config& c) {
            p.emplace_back("mean_interval_ms",
                           fmt_double(c.mean_interval_ms));
            p.emplace_back("post_tx_hold_ms", fmt_double(kPostTxHoldMs));
            if (c.relay_mutation == apps::RelayMutation::TornMailbox)
              p.emplace_back("mailbox_iteration_cost",
                             std::to_string(c.relay_mailbox_iteration_cost));
          },
          [&p](const apps::Case3Config& c) {
            p.emplace_back("heartbeat_padding",
                           std::to_string(c.app.heartbeat_padding));
          },
          [&p](const apps::Case4Config& c) {
            p.emplace_back("flash_commit_iterations",
                           std::to_string(c.app.flash_commit_iterations));
          }},
      scenario);
  return p;
}

// ------------------------------------------------------------------ labels

GroundTruth derive_ground_truth(
    const std::vector<pipeline::TaggedTrace>& traces, trace::IrqLine line,
    const std::string& kind) {
  GroundTruth truth;
  truth.marker = kind;
  for (const pipeline::TaggedTrace& tagged : traces) {
    const trace::NodeTrace& trace = *tagged.trace;
    for (const trace::BugMarker& bug : trace.bugs)
      if (bug.kind == kind) ++truth.marker_events;
    core::Anatomizer anatomizer(trace);
    for (const core::EventInterval& interval : anatomizer.intervals_for(line)) {
      std::size_t hits = 0;
      for (const trace::BugMarker& bug : trace.bugs) {
        if (bug.kind != kind) continue;
        if (bug.cycle >= interval.start_cycle &&
            bug.cycle <= interval.end_cycle)
          ++hits;
      }
      if (hits == 0) continue;
      IntervalLabel label;
      label.node_id = trace.node_id;
      label.run = tagged.run;
      label.seq_in_type = interval.seq_in_type;
      label.start_cycle = interval.start_cycle;
      label.end_cycle = interval.end_cycle;
      label.marker_hits = hits;
      truth.labels.push_back(label);
    }
  }
  return truth;
}

std::string ground_truth_text(const GroundTruth& truth) {
  std::string out = "marker=" + truth.marker +
                    " events=" + std::to_string(truth.marker_events) +
                    " labels=" + std::to_string(truth.labels.size()) + "\n";
  for (const IntervalLabel& l : truth.labels) {
    out += "node=" + std::to_string(l.node_id) +
           " run=" + std::to_string(l.run) +
           " seq=" + std::to_string(l.seq_in_type) +
           " start=" + std::to_string(l.start_cycle) +
           " end=" + std::to_string(l.end_cycle) +
           " hits=" + std::to_string(l.marker_hits) + "\n";
  }
  return out;
}

std::uint64_t ground_truth_digest(const GroundTruth& truth) {
  return util::fnv1a64(ground_truth_text(truth));
}

// -------------------------------------------------------------- generation

VariantRun run_variant(const VariantSpec& spec, std::uint64_t seed,
                       double run_scale, apps::WorldArena* arena,
                       bool baseline) {
  SENT_REQUIRE_MSG(run_scale > 0.0, "run_scale must be positive");
  apps::Scenario scenario = spec.scenario;
  std::visit([run_scale](auto& c) { c.run_seconds *= run_scale; }, scenario);
  if (baseline) {
    std::visit(
        Overloaded{
            [](apps::Case1Config& c) {
              c.osc.mutation = apps::OscMutation::None;
            },
            [](apps::Case2Config& c) {
              c.relay_mutation = apps::RelayMutation::None;
            },
            [](apps::Case3Config& c) {
              c.app.mutation = apps::CtpMutation::None;
            },
            [](apps::Case4Config& c) {
              c.app.mutation = apps::DissMutation::None;
            }},
        scenario);
  }
  VariantRun out;
  out.sim = apps::simulate(scenario, seed, arena);
  out.truth = derive_ground_truth(out.sim.analyzed.traces,
                                  out.sim.analyzed.line, spec.marker);
  return out;
}

}  // namespace sent::corpus
