#include "corpus/eval.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "core/anatomizer.hpp"
#include "core/detector.hpp"
#include "ml/detectors.hpp"
#include "ml/dustminer.hpp"
#include "util/assert.hpp"

namespace sent::corpus {

// ---- metric primitives ----------------------------------------------------

double precision_at(const std::vector<bool>& ranked_truth, std::size_t k) {
  const std::size_t depth = std::min(k, ranked_truth.size());
  if (depth == 0) return 0.0;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < depth; ++i)
    if (ranked_truth[i]) ++hits;
  return static_cast<double>(hits) / static_cast<double>(depth);
}

double recall_at(const std::vector<bool>& ranked_truth, std::size_t k) {
  std::size_t total = 0, hits = 0;
  for (std::size_t i = 0; i < ranked_truth.size(); ++i) {
    if (!ranked_truth[i]) continue;
    ++total;
    if (i < k) ++hits;
  }
  if (total == 0) return 0.0;
  return static_cast<double>(hits) / static_cast<double>(total);
}

double mean_rank(const std::vector<bool>& ranked_truth) {
  std::size_t total = 0, rank_sum = 0;
  for (std::size_t i = 0; i < ranked_truth.size(); ++i) {
    if (!ranked_truth[i]) continue;
    ++total;
    rank_sum += i + 1;
  }
  if (total == 0) return 0.0;
  return static_cast<double>(rank_sum) / static_cast<double>(total);
}

std::size_t first_rank(const std::vector<bool>& ranked_truth) {
  for (std::size_t i = 0; i < ranked_truth.size(); ++i)
    if (ranked_truth[i]) return i + 1;
  return 0;
}

double detection_rate(const std::vector<std::size_t>& first_ranks,
                      std::size_t k) {
  if (first_ranks.empty()) return 0.0;
  std::size_t detected = 0;
  for (std::size_t r : first_ranks)
    if (r > 0 && r <= k) ++detected;
  return static_cast<double>(detected) /
         static_cast<double>(first_ranks.size());
}

// ---- sweep ----------------------------------------------------------------

const std::vector<std::string>& detector_names() {
  static const std::vector<std::string> names = {
      "ocsvm", "knn", "lof", "pca", "mahalanobis", "dustminer"};
  return names;
}

namespace {

std::vector<bool> ranked_truth_of(
    const std::vector<pipeline::Sample>& samples,
    const std::vector<pipeline::RankedEntry>& ranking) {
  std::vector<bool> rt(ranking.size());
  for (std::size_t i = 0; i < ranking.size(); ++i)
    rt[i] = samples[ranking[i].sample_index].has_bug;
  return rt;
}

DetectorSeedOutcome grade(const std::vector<bool>& ranked_truth,
                          const SweepOptions& options) {
  DetectorSeedOutcome out;
  out.first_rank = first_rank(ranked_truth);
  out.seed_mean_rank = mean_rank(ranked_truth);
  out.precision.reserve(options.ks.size());
  out.recall.reserve(options.ks.size());
  for (std::size_t k : options.ks) {
    out.precision.push_back(precision_at(ranked_truth, k));
    out.recall.push_back(recall_at(ranked_truth, k));
  }
  return out;
}

/// DustMiner baseline with ORACLE labels: the ground-truth interval labels
/// are handed straight to the miner (its idealized best case — Sentomist's
/// whole point is that those labels normally require extensive manual
/// effort). Interval score = -(sum over the mined bad-discriminative
/// patterns of occurrences x pattern score); lower = more suspicious, the
/// shared ranking convention.
std::vector<double> dustminer_scores(
    const VariantRun& vr, const pipeline::AnalysisReport& report) {
  // Per-interval code-object sequences across the analyzed traces, in the
  // exact sample order analyze() used (trace order, chronological
  // intervals).
  std::vector<std::vector<std::uint32_t>> sequences;
  std::vector<std::string> names;
  std::unordered_map<std::string, std::uint32_t> name_ids;
  for (const trace::TaggedTrace& tagged : vr.sim.analyzed.traces) {
    const trace::NodeTrace& trace = *tagged.trace;
    core::Anatomizer anatomizer(trace);
    const std::vector<core::EventInterval> intervals =
        anatomizer.intervals_for(vr.sim.analyzed.line);
    std::vector<std::string> local_names;
    std::vector<std::vector<std::uint32_t>> local =
        ml::code_object_sequences(trace, intervals, &local_names);
    std::vector<std::uint32_t> remap(local_names.size());
    for (std::size_t i = 0; i < local_names.size(); ++i) {
      auto [it, inserted] = name_ids.try_emplace(
          local_names[i], static_cast<std::uint32_t>(names.size()));
      if (inserted) names.push_back(local_names[i]);
      remap[i] = it->second;
    }
    for (std::vector<std::uint32_t>& seq : local) {
      for (std::uint32_t& id : seq) id = remap[id];
      sequences.push_back(std::move(seq));
    }
  }
  SENT_REQUIRE_MSG(sequences.size() == report.samples.size(),
                   "dustminer sequence count disagrees with the pipeline");

  std::vector<double> scores(sequences.size(), 0.0);
  std::vector<bool> labels_bad(sequences.size());
  std::size_t bad = 0;
  for (std::size_t i = 0; i < report.samples.size(); ++i) {
    labels_bad[i] = report.samples[i].has_bug;
    if (labels_bad[i]) ++bad;
  }
  if (bad == 0 || bad == sequences.size()) return scores;  // degenerate

  ml::Dustminer miner;
  const std::vector<ml::MinedPattern> patterns =
      miner.mine(sequences, labels_bad, names);
  for (const ml::MinedPattern& pattern : patterns) {
    if (!pattern.more_frequent_in_bad) continue;
    std::vector<std::uint32_t> needle;
    needle.reserve(pattern.events.size());
    bool known = true;
    for (const std::string& event : pattern.events) {
      auto it = name_ids.find(event);
      if (it == name_ids.end()) {
        known = false;
        break;
      }
      needle.push_back(it->second);
    }
    if (!known || needle.empty()) continue;
    for (std::size_t i = 0; i < sequences.size(); ++i) {
      const std::vector<std::uint32_t>& seq = sequences[i];
      if (seq.size() < needle.size()) continue;
      std::size_t occurrences = 0;
      for (std::size_t j = 0; j + needle.size() <= seq.size(); ++j) {
        if (std::equal(needle.begin(), needle.end(), seq.begin() + j))
          ++occurrences;
      }
      scores[i] -= static_cast<double>(occurrences) * pattern.score;
    }
  }
  return scores;
}

}  // namespace

SweepResult run_sweep(const std::vector<VariantSpec>& specs,
                      const SweepOptions& options) {
  SENT_REQUIRE_MSG(!options.ks.empty(), "SweepOptions::ks must be non-empty");
  SweepResult result;
  result.options = options;
  result.variants.reserve(specs.size());

  for (const VariantSpec& spec : specs) {
    std::vector<SeedOutcome> outcomes(options.seeds);

    pipeline::ScenarioRunnerFactory factory =
        [&spec, &options, &outcomes](std::size_t) -> pipeline::ScenarioRunner {
      auto arena = std::make_shared<apps::WorldArena>();
      return [&spec, &options, &outcomes,
              arena](std::uint64_t seed) -> pipeline::AnalysisReport {
        VariantRun vr =
            run_variant(spec, seed, options.run_scale, arena.get());
        pipeline::AnalysisOptions aopts;
        aopts.keep_features = true;
        pipeline::AnalysisReport report = pipeline::analyze(
            vr.sim.analyzed.traces, vr.sim.analyzed.line, aopts);

        // The derived labels and the pipeline's marker matching are two
        // independent implementations of the same definition; a sweep that
        // lets them drift apart is grading against the wrong truth.
        SENT_REQUIRE_MSG(
            report.buggy_count() == vr.truth.labels.size(),
            "corpus labels disagree with pipeline ground truth");

        SeedOutcome out;
        out.triggered = vr.truth.triggered();
        out.label_digest = ground_truth_digest(vr.truth);
        out.samples = report.samples.size();
        out.labeled = vr.truth.labels.size();
        out.detectors.reserve(detector_names().size());
        for (const std::string& name : detector_names()) {
          std::vector<bool> rt;
          if (name == "ocsvm") {
            rt = ranked_truth_of(report.samples, report.ranking);
          } else if (name == "dustminer") {
            const std::vector<double> scores = dustminer_scores(vr, report);
            const std::vector<core::RankedSample> ranking =
                core::rank_ascending(scores);
            rt.resize(ranking.size());
            for (std::size_t i = 0; i < ranking.size(); ++i)
              rt[i] = report.samples[ranking[i].index].has_bug;
          } else {
            pipeline::AnalysisReport alt;
            alt.samples = report.samples;
            pipeline::AnalysisOptions dopts;
            dopts.detector = ml::make_detector(name);
            SENT_REQUIRE_MSG(dopts.detector, "unknown plug-in detector");
            pipeline::score_and_rank(alt, report.features, dopts);
            rt = ranked_truth_of(alt.samples, alt.ranking);
          }
          out.detectors.push_back(grade(rt, options));
        }
        SENT_REQUIRE_MSG(
            out.detectors.front().first_rank == report.first_bug_rank(),
            "sweep grading disagrees with the report's first bug rank");

        // Each seed owns one pre-allocated slot, so concurrent workers
        // never write the same element; aggregation below reads them in
        // seed order after the campaign joins.
        outcomes[seed - options.first_seed] = std::move(out);
        arena->recycle_all(vr.sim.traces);
        return report;
      };
    };

    pipeline::CampaignOptions copts;
    copts.first_seed = options.first_seed;
    copts.runs = options.seeds;
    copts.k = options.k;
    copts.threads = options.threads;
    const pipeline::CampaignStats stats = pipeline::run_campaign(factory, copts);
    SENT_REQUIRE_MSG(stats.failed == 0 && stats.timed_out == 0,
                     "corpus sweep run failed");

    // Cross-check the campaign's own accounting against the per-seed
    // grades: same triggered set, same OCSVM first ranks.
    std::size_t triggered = 0;
    std::vector<std::size_t> ocsvm_first_ranks;
    for (const SeedOutcome& out : outcomes) {
      if (!out.triggered) continue;
      ++triggered;
      ocsvm_first_ranks.push_back(out.detectors.front().first_rank);
    }
    SENT_REQUIRE_MSG(stats.triggered == triggered &&
                         stats.first_ranks == ocsvm_first_ranks,
                     "sweep grading disagrees with campaign stats");

    VariantReport vr;
    vr.id = spec.id;
    vr.bug_class = to_string(spec.bug_class);
    vr.case_tag = spec.case_tag();
    vr.marker = spec.marker;
    vr.params = spec.params();
    vr.seeds = options.seeds;
    vr.triggered = triggered;
    for (const SeedOutcome& out : outcomes) {
      vr.samples_total += out.samples;
      vr.labels_total += out.labeled;
    }

    for (std::size_t d = 0; d < detector_names().size(); ++d) {
      DetectorCell cell;
      cell.detector = detector_names()[d];
      cell.precision.assign(options.ks.size(), 0.0);
      cell.recall.assign(options.ks.size(), 0.0);
      std::vector<std::size_t> first_ranks;
      for (const SeedOutcome& out : outcomes) {
        if (!out.triggered) continue;
        const DetectorSeedOutcome& g = out.detectors[d];
        first_ranks.push_back(g.first_rank);
        cell.mean_first_rank += static_cast<double>(g.first_rank);
        cell.mean_rank += g.seed_mean_rank;
        for (std::size_t i = 0; i < options.ks.size(); ++i) {
          cell.precision[i] += g.precision[i];
          cell.recall[i] += g.recall[i];
        }
      }
      cell.detection_rate = detection_rate(first_ranks, options.k);
      if (!first_ranks.empty()) {
        const double n = static_cast<double>(first_ranks.size());
        cell.mean_first_rank /= n;
        cell.mean_rank /= n;
        for (std::size_t i = 0; i < options.ks.size(); ++i) {
          cell.precision[i] /= n;
          cell.recall[i] /= n;
        }
      }
      vr.cells.push_back(std::move(cell));
    }
    vr.outcomes = std::move(outcomes);
    result.variants.push_back(std::move(vr));
  }
  return result;
}

namespace {

std::string json_num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string json_hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "\"0x%016llx\"",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string json_num_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ",";
    out += json_num(values[i]);
  }
  out += "]";
  return out;
}

}  // namespace

std::string sweep_json(const SweepResult& result) {
  const SweepOptions& o = result.options;
  std::string out = "{\n";
  out += "  \"first_seed\": " + std::to_string(o.first_seed) + ",\n";
  out += "  \"seeds\": " + std::to_string(o.seeds) + ",\n";
  out += "  \"k\": " + std::to_string(o.k) + ",\n";
  out += "  \"run_scale\": " + json_num(o.run_scale) + ",\n";
  out += "  \"ks\": [";
  for (std::size_t i = 0; i < o.ks.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(o.ks[i]);
  }
  out += "],\n  \"detectors\": [";
  for (std::size_t i = 0; i < detector_names().size(); ++i) {
    if (i) out += ",";
    out += "\"" + detector_names()[i] + "\"";
  }
  out += "],\n  \"variants\": [\n";
  for (std::size_t v = 0; v < result.variants.size(); ++v) {
    const VariantReport& vr = result.variants[v];
    out += "    {\n";
    out += "      \"id\": \"" + vr.id + "\",\n";
    out += "      \"class\": \"" + vr.bug_class + "\",\n";
    out += "      \"case\": \"" + vr.case_tag + "\",\n";
    out += "      \"marker\": \"" + vr.marker + "\",\n";
    out += "      \"params\": {";
    for (std::size_t i = 0; i < vr.params.size(); ++i) {
      if (i) out += ", ";
      out += "\"" + vr.params[i].first + "\": \"" + vr.params[i].second +
             "\"";
    }
    out += "},\n";
    out += "      \"seeds\": " + std::to_string(vr.seeds) + ",\n";
    out += "      \"triggered\": " + std::to_string(vr.triggered) + ",\n";
    out += "      \"trigger_rate\": " +
           json_num(vr.seeds == 0 ? 0.0
                                  : static_cast<double>(vr.triggered) /
                                        static_cast<double>(vr.seeds)) +
           ",\n";
    out += "      \"samples\": " + std::to_string(vr.samples_total) + ",\n";
    out += "      \"labels\": " + std::to_string(vr.labels_total) + ",\n";
    out += "      \"label_digests\": [";
    for (std::size_t i = 0; i < vr.outcomes.size(); ++i) {
      if (i) out += ",";
      out += json_hex(vr.outcomes[i].label_digest);
    }
    out += "],\n      \"cells\": [\n";
    for (std::size_t d = 0; d < vr.cells.size(); ++d) {
      const DetectorCell& cell = vr.cells[d];
      out += "        {\"detector\": \"" + cell.detector + "\"";
      out += ", \"detection_rate\": " + json_num(cell.detection_rate);
      out += ", \"mean_first_rank\": " + json_num(cell.mean_first_rank);
      out += ", \"mean_rank\": " + json_num(cell.mean_rank);
      out += ", \"precision\": " + json_num_array(cell.precision);
      out += ", \"recall\": " + json_num_array(cell.recall);
      out += "}";
      out += (d + 1 < vr.cells.size()) ? ",\n" : "\n";
    }
    out += "      ]\n    }";
    out += (v + 1 < result.variants.size()) ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace sent::corpus
