#include "pipeline/campaign.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "fault/harness.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/journal.hpp"
#include "sim/event_queue.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace sent::pipeline {

namespace {

// Campaign-level introspection (DESIGN.md §11). Outcome counters are a pure
// function of (runner, options) and stay deterministic; per-run wall time
// (retries included) goes to the `campaign.run` phase scope, whose timer
// the snapshot keeps out of the deterministic sections. The journal.*
// counters describe durability work: resumed/recovered depend on where a
// previous campaign died, so they are honest about THIS invocation, not
// part of any cross-run determinism claim (snapshot comparisons in tier-1
// never mix resumed and fresh runs).
struct Metrics {
  obs::Counter runs = obs::Registry::global().counter("campaign.runs");
  obs::Counter triggered =
      obs::Registry::global().counter("campaign.triggered");
  obs::Counter failed = obs::Registry::global().counter("campaign.failed");
  obs::Counter timed_out =
      obs::Registry::global().counter("campaign.timed_out");
  obs::Counter retried = obs::Registry::global().counter("campaign.retried");
  obs::Counter degraded =
      obs::Registry::global().counter("campaign.degraded");
  obs::Counter quarantined =
      obs::Registry::global().counter("campaign.quarantined");
  obs::Counter journal_appends =
      obs::Registry::global().counter("campaign.journal.appends");
  obs::Counter journal_commits =
      obs::Registry::global().counter("campaign.journal.commits");
  obs::Counter journal_io_errors =
      obs::Registry::global().counter("campaign.journal.io_errors");
  obs::Counter journal_recovered =
      obs::Registry::global().counter("campaign.journal.recovered_records");
  obs::Counter journal_resumed =
      obs::Registry::global().counter("campaign.journal.resumed_runs");
  obs::Counter journal_truncated =
      obs::Registry::global().counter("campaign.journal.truncated_tails");
  obs::Phase run{"campaign.run"};

  static const Metrics& get() {
    static Metrics m;
    return m;
  }
};

}  // namespace

double CampaignStats::trigger_rate() const {
  if (runs == 0) return 0.0;
  return static_cast<double>(triggered) / static_cast<double>(runs);
}

double CampaignStats::detection_rate() const {
  if (triggered == 0) return 0.0;
  return static_cast<double>(detected_top_k) /
         static_cast<double>(triggered);
}

double CampaignStats::mean_first_rank() const {
  if (first_ranks.empty()) return 0.0;
  double sum = std::accumulate(first_ranks.begin(), first_ranks.end(), 0.0);
  return sum / static_cast<double>(first_ranks.size());
}

bool CampaignStats::operator==(const CampaignStats& other) const {
  return runs == other.runs && triggered == other.triggered &&
         detected_top_k == other.detected_top_k && k == other.k &&
         first_ranks == other.first_ranks && failed == other.failed &&
         timed_out == other.timed_out && retried == other.retried &&
         degraded == other.degraded && failures == other.failures &&
         quarantined == other.quarantined &&
         quarantined_seeds == other.quarantined_seeds;
}

namespace {

/// Everything the aggregation needs from one seeded run; keeping the full
/// AnalysisReport per seed alive across the whole campaign would be
/// wasteful at large run counts.
struct RunOutcome {
  RunStatus status = RunStatus::Completed;
  bool triggered = false;
  bool degraded = false;
  std::uint32_t attempts = 1;  ///< total attempts (1 = no retry)
  bool quarantined = false;    ///< failed every attempt under retry policy
  bool resumed = false;        ///< reconstructed from the journal
  std::size_t first_rank = 0;
  std::string message;  ///< Failed / TimedOut only
};

/// One runner invocation with per-run fault isolation: any exception is
/// captured into the outcome instead of escaping into the pool worker, so
/// a bad seed can never tear down its siblings. `primary_seed` keys the
/// harness-chaos abort decision (stable across resume); `attempt_seed` is
/// what the runner actually sees.
RunOutcome attempt(const ScenarioRunner& runner, std::uint64_t primary_seed,
                   std::uint64_t attempt_seed, std::uint32_t attempt_index,
                   const fault::HarnessInjector* injector) {
  RunOutcome out;
  try {
    if (injector) injector->maybe_abort_runner(primary_seed, attempt_index);
    AnalysisReport report = runner(attempt_seed);
    out.degraded = report.degraded;
    if (report.buggy_count() > 0) {
      out.triggered = true;
      out.first_rank = report.first_bug_rank();
    }
  } catch (const sim::WatchdogTimeout& e) {
    out.status = RunStatus::TimedOut;
    out.message = e.what();
    // 10k-run triage needs the budget arithmetic without re-running the
    // seed: how big was the allowance, how much had the run burned.
    if (e.budget() > 0) {
      out.message += " [event budget " + std::to_string(e.budget()) +
                     ", events executed " +
                     std::to_string(e.events_executed()) + "]";
    }
  } catch (const std::exception& e) {
    out.status = RunStatus::Failed;
    out.message = e.what();
  }
  return out;
}

/// Next seed in the retry schedule. A candidate that lands inside the
/// campaign's own window [first_seed, first_seed + runs) would silently
/// re-run a sibling's exact randomness; hop past the window (its length is
/// `runs`, so one hop always exits it) — deterministically, so campaigns
/// stay bit-identical across --jobs and resume.
std::uint64_t next_retry_seed(std::uint64_t prev,
                              const CampaignOptions& options) {
  std::uint64_t candidate = prev + options.retry_seed_offset;
  if (candidate >= options.first_seed &&
      candidate - options.first_seed < options.runs) {
    candidate += options.runs;
  }
  return candidate;
}

/// One seed through the full bounded-retry policy.
RunOutcome run_with_retries(const ScenarioRunner& runner, std::uint64_t seed,
                            const CampaignOptions& options,
                            const fault::HarnessInjector* injector) {
  RunOutcome out = attempt(runner, seed, seed, 0, injector);
  std::uint64_t attempt_seed = seed;
  std::uint32_t attempts = 1;
  for (std::size_t r = 1;
       r <= options.max_retries && out.status != RunStatus::Completed; ++r) {
    attempt_seed = next_retry_seed(attempt_seed, options);
    out = attempt(runner, seed, attempt_seed,
                  static_cast<std::uint32_t>(r), injector);
    ++attempts;
  }
  out.attempts = attempts;
  if (out.status != RunStatus::Completed && options.max_retries > 0)
    out.quarantined = true;
  return out;
}

JournalRecord to_record(std::uint64_t seed, const RunOutcome& out) {
  JournalRecord rec;
  rec.seed = seed;
  rec.status = out.status;
  rec.triggered = out.triggered;
  rec.first_rank = out.first_rank;
  rec.degraded = out.degraded;
  rec.attempts = out.attempts;
  rec.quarantined = out.quarantined;
  rec.message = out.message;
  return rec;
}

RunOutcome from_record(const JournalRecord& rec) {
  RunOutcome out;
  out.status = rec.status;
  out.triggered = rec.triggered;
  out.first_rank = static_cast<std::size_t>(rec.first_rank);
  out.degraded = rec.degraded;
  out.attempts = rec.attempts;
  out.quarantined = rec.quarantined;
  out.resumed = true;
  out.message = rec.message;
  return out;
}

/// Seeds each pool task claims: enough chunks for dynamic claiming to
/// rebalance (8 per worker), but never so large that one worker hoards the
/// tail. A scheduling choice only; aggregation is seed-ordered.
std::size_t seed_chunk(const CampaignOptions& options) {
  const std::size_t workers = std::max<std::size_t>(options.threads, 1);
  return std::clamp<std::size_t>(options.runs / (8 * workers), 1, 64);
}

}  // namespace

CampaignStats run_campaign(const ScenarioRunnerFactory& factory,
                           const CampaignOptions& options) {
  SENT_REQUIRE(factory != nullptr);
  SENT_REQUIRE(options.runs >= 1);
  SENT_REQUIRE(options.k >= 1);
  SENT_REQUIRE_MSG(!options.resume || !options.journal_path.empty(),
                   "resume requires a journal_path");
  SENT_REQUIRE_MSG(options.max_retries == 0 || options.retry_seed_offset > 0,
                   "retry policy needs a nonzero seed offset");

  std::optional<fault::HarnessInjector> injector;
  if (options.harness_faults.any())
    injector.emplace(options.harness_faults);
  const fault::HarnessInjector* inj = injector ? &*injector : nullptr;

  // Durable layer: recover any prior journal, index its outcomes by seed
  // (later records supersede earlier ones — the file is append-only), and
  // open the writer, which atomically rewrites the file without whatever
  // corrupt tail the recovery scan dropped.
  std::unordered_map<std::uint64_t, RunOutcome> resumed;
  std::unique_ptr<JournalWriter> journal;
  if (!options.journal_path.empty()) {
    const JournalMeta meta{options.first_seed, options.runs, options.k};
    std::vector<JournalRecord> keep;
    if (options.resume) {
      JournalRecovery recovery = recover_journal(options.journal_path);
      if (recovery.truncated) Metrics::get().journal_truncated.inc();
      if (recovery.file_existed && recovery.header_valid) {
        SENT_REQUIRE_MSG(
            recovery.meta == meta,
            "journal " << options.journal_path
                       << " belongs to a different campaign (meta "
                       << recovery.meta.first_seed << "/" << recovery.meta.runs
                       << "/" << recovery.meta.k << ", expected "
                       << options.first_seed << "/" << options.runs << "/"
                       << options.k << ")");
        std::map<std::uint64_t, JournalRecord> by_seed;
        for (JournalRecord& rec : recovery.records) {
          if (rec.seed < options.first_seed ||
              rec.seed - options.first_seed >= options.runs) {
            continue;  // defensive: outside this campaign's window
          }
          by_seed[rec.seed] = std::move(rec);  // last record wins
        }
        for (auto& [seed, rec] : by_seed) {
          resumed.emplace(seed, from_record(rec));
          keep.push_back(std::move(rec));
        }
      }
    }
    Metrics::get().journal_recovered.inc(keep.size());
    journal = std::make_unique<JournalWriter>(options.journal_path, meta,
                                              std::move(keep));
    if (inj) {
      journal->set_commit_hook([inj](std::uint64_t commit_index,
                                     std::string& bytes) {
        switch (inj->commit_fault(commit_index)) {
          case fault::HarnessInjector::CommitFault::IoError:
            throw std::runtime_error(
                "harness fault: injected journal IO error");
          case fault::HarnessInjector::CommitFault::ShortWrite:
            bytes.resize(static_cast<std::size_t>(
                static_cast<double>(bytes.size()) *
                inj->short_write_keep_fraction(commit_index)));
            break;
          case fault::HarnessInjector::CommitFault::None:
            break;
        }
      });
    }
  }

  // Fan the seeds out in contiguous chunks; each outcome slot is written
  // by exactly one invocation, so the hot loop carries no shared mutex
  // (the journal, when enabled, is the one shared structure). Journaled
  // seeds short-circuit: their outcome is reconstructed, not re-run, which
  // is what makes a resumed 10k campaign pick up where the crash left it.
  std::vector<RunOutcome> outcomes(options.runs);
  util::ThreadPool pool(options.threads);

  // Per-worker amortized state (DESIGN.md §15). The runner is built
  // lazily, on the worker's own thread, at its first non-resumed seed — a
  // fully resumed campaign never invokes the factory at all.
  std::vector<ScenarioRunner> runners(std::max<std::size_t>(pool.size(), 1));

  pool.parallel_for_indexed(
      options.runs, seed_chunk(options),
      [&](std::size_t worker, std::size_t i) {
        const std::uint64_t seed = options.first_seed + i;
        if (auto it = resumed.find(seed); it != resumed.end()) {
          outcomes[i] = it->second;
          return;
        }
        ScenarioRunner& runner = runners[worker];
        if (!runner) {
          runner = factory(worker);
          SENT_REQUIRE(runner != nullptr);
        }
        {
          obs::Span run_span(Metrics::get().run, seed);
          outcomes[i] = run_with_retries(runner, seed, options, inj);
        }
        if (journal) {
          journal->append(to_record(seed, outcomes[i]));
          // The kill hook fires AFTER the append so the journaled prefix
          // is exactly what a resumed campaign will find.
          if (inj) inj->maybe_kill(journal->appended());
        }
      });
  // A failed commit keeps its records for the next one; this last commit
  // lands any that the final appends' commits lost.
  if (journal) journal->commit();

  // Aggregate in seed order so parallel output is bit-identical to serial
  // — and so a resumed campaign, whose fresh runs interleave with
  // journal-reconstructed ones, is bit-identical to an uninterrupted run.
  CampaignStats stats;
  stats.runs = options.runs;
  stats.k = options.k;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const RunOutcome& outcome = outcomes[i];
    const std::uint64_t seed = options.first_seed + i;
    stats.retried += outcome.attempts - 1;
    stats.resumed_from_journal += outcome.resumed ? 1 : 0;
    if (outcome.quarantined) {
      ++stats.quarantined;
      stats.quarantined_seeds.push_back(seed);
    }
    if (outcome.status != RunStatus::Completed) {
      if (outcome.status == RunStatus::Failed) ++stats.failed;
      else ++stats.timed_out;
      stats.failures.push_back(
          RunFailure{seed, outcome.status, outcome.message});
      continue;
    }
    stats.degraded += outcome.degraded;
    if (!outcome.triggered) continue;
    ++stats.triggered;
    stats.first_ranks.push_back(outcome.first_rank);
    if (outcome.first_rank <= options.k) ++stats.detected_top_k;
  }

  Metrics::get().runs.inc(stats.runs);
  Metrics::get().triggered.inc(stats.triggered);
  Metrics::get().failed.inc(stats.failed);
  Metrics::get().timed_out.inc(stats.timed_out);
  Metrics::get().retried.inc(stats.retried);
  Metrics::get().degraded.inc(stats.degraded);
  Metrics::get().quarantined.inc(stats.quarantined);
  Metrics::get().journal_resumed.inc(stats.resumed_from_journal);
  if (journal) {
    Metrics::get().journal_appends.inc(journal->appended());
    Metrics::get().journal_commits.inc(journal->commits());
    Metrics::get().journal_io_errors.inc(journal->io_errors());
  }
  return stats;
}

CampaignStats run_campaign(const ScenarioRunner& runner,
                           const CampaignOptions& options) {
  SENT_REQUIRE(runner != nullptr);
  // Every worker invokes the one shared runner object (not a copy), which
  // must already be thread-safe — the historic contract.
  return run_campaign(ScenarioRunnerFactory([&runner](std::size_t) {
                        return ScenarioRunner(
                            [&runner](std::uint64_t seed) {
                              return runner(seed);
                            });
                      }),
                      options);
}

std::string summarize(const CampaignStats& stats) {
  std::ostringstream os;
  os << stats.runs << " runs: bug triggered in " << stats.triggered << " ("
     << static_cast<int>(stats.trigger_rate() * 100.0 + 0.5)
     << "%); when triggered, ranked top-" << stats.k << " in "
     << stats.detected_top_k << "/" << stats.triggered;
  if (stats.triggered > 0)
    os << " (mean first rank " << stats.mean_first_rank() << ")";
  if (stats.failed > 0) os << "; failed " << stats.failed;
  if (stats.timed_out > 0) os << "; timed out " << stats.timed_out;
  if (stats.degraded > 0) os << "; degraded " << stats.degraded;
  if (stats.retried > 0) os << "; retried " << stats.retried;
  if (stats.quarantined > 0) os << "; quarantined " << stats.quarantined;
  if (stats.resumed_from_journal > 0)
    os << "; resumed " << stats.resumed_from_journal << " from journal";
  return os.str();
}

namespace {

/// Minimal JSON string escaping (quote, backslash, control bytes).
std::string json_escape(const std::string& text) {
  std::ostringstream os;
  for (unsigned char c : text) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (c < 0x20) {
          static const char* hex = "0123456789abcdef";
          os << "\\u00" << hex[(c >> 4) & 0xF] << hex[c & 0xF];
        } else {
          os << static_cast<char>(c);
        }
    }
  }
  return os.str();
}

template <typename T>
void write_array(std::ostringstream& os, const std::vector<T>& values) {
  os << "[";
  for (std::size_t i = 0; i < values.size(); ++i)
    os << (i ? ", " : "") << values[i];
  os << "]";
}

}  // namespace

std::string stats_json(const CampaignStats& stats) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"runs\": " << stats.runs << ",\n";
  os << "  \"k\": " << stats.k << ",\n";
  os << "  \"triggered\": " << stats.triggered << ",\n";
  os << "  \"detected_top_k\": " << stats.detected_top_k << ",\n";
  os << "  \"trigger_rate\": " << stats.trigger_rate() << ",\n";
  os << "  \"detection_rate\": " << stats.detection_rate() << ",\n";
  os << "  \"mean_first_rank\": " << stats.mean_first_rank() << ",\n";
  os << "  \"first_ranks\": ";
  write_array(os, stats.first_ranks);
  os << ",\n";
  os << "  \"failed\": " << stats.failed << ",\n";
  os << "  \"timed_out\": " << stats.timed_out << ",\n";
  os << "  \"retried\": " << stats.retried << ",\n";
  os << "  \"degraded\": " << stats.degraded << ",\n";
  os << "  \"quarantined\": " << stats.quarantined << ",\n";
  os << "  \"quarantined_seeds\": ";
  write_array(os, stats.quarantined_seeds);
  os << ",\n";
  os << "  \"failures\": [";
  for (std::size_t i = 0; i < stats.failures.size(); ++i) {
    const RunFailure& f = stats.failures[i];
    os << (i ? "," : "") << "\n    {\"seed\": " << f.seed << ", \"status\": \""
       << (f.status == RunStatus::TimedOut ? "timed_out" : "failed")
       << "\", \"message\": \"" << json_escape(f.message) << "\"}";
  }
  os << (stats.failures.empty() ? "]" : "\n  ]") << "\n";
  os << "}\n";
  return os.str();
}

}  // namespace sent::pipeline
