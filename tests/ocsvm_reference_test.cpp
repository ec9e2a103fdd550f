// Cross-validation of the SMO one-class SVM against two independent
// solvers of the same dual: projected gradient descent with exact
// projection onto the capped simplex (optimal objective and scores on
// small problems), and NaiveOcsvm, a plain SMO oracle (alpha mass, rho and
// every decision on i.i.d. and repeated-row matrices, and the Figure 5
// rankings end to end). The detector's own answers are also frozen as data
// (tests/golden/ocsvm_digests.txt): bit patterns of its scores, alpha,
// rho and query decisions on synthetic and pipeline feature matrices.
// Sanitizer builds compile the fast-math Gram build differently, which
// moves those bits, so they compare against ocsvm_digests_sanitized.txt.
// Regenerate after an intentional behaviour change, in a default and in a
// sanitizer tree, with:
//   SENT_UPDATE_GOLDEN=1 ./ocsvm_reference_test
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <numeric>
#include <ostream>
#include <span>
#include <sstream>
#include <string>

#include "apps/scenarios.hpp"
#include "core/detector.hpp"
#include "golden.hpp"
#include "ml/kernel.hpp"
#include "ml/ocsvm.hpp"
#include "ml/scaler.hpp"
#include "obs/metrics.hpp"
#include "pipeline/sentomist.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace sent::ml {
namespace {

using Rows = std::vector<std::vector<double>>;

// Projection of x onto {a : 0 <= a_i <= c, sum a = 1} via bisection on the
// shift tau in a_i = clip(x_i - tau, 0, c).
std::vector<double> project_capped_simplex(std::vector<double> x, double c) {
  auto sum_at = [&](double tau) {
    double s = 0.0;
    for (double v : x) s += std::clamp(v - tau, 0.0, c);
    return s;
  };
  double lo = -2.0, hi = 2.0;
  for (double v : x) {
    lo = std::min(lo, v - c - 1.0);
    hi = std::max(hi, v + 1.0);
  }
  for (int iter = 0; iter < 200; ++iter) {
    double mid = (lo + hi) / 2.0;
    if (sum_at(mid) > 1.0)
      lo = mid;
    else
      hi = mid;
  }
  double tau = (lo + hi) / 2.0;
  for (double& v : x) v = std::clamp(v - tau, 0.0, c);
  return x;
}

struct Reference {
  std::vector<double> alpha;
  double objective;
};

// Slow but independent: projected gradient descent on 1/2 a'Qa.
Reference reference_solve(const Rows& z, const KernelSpec& spec,
                          double gamma, double nu) {
  std::size_t n = z.size();
  double c = 1.0 / (nu * static_cast<double>(n));
  std::vector<double> q(n * n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      q[i * n + j] = kernel_eval(spec, gamma, z[i], z[j]);

  // Step size from the Lipschitz constant of the gradient (largest
  // eigenvalue of Q, estimated by power iteration) — guarantees monotone
  // convergence of projected gradient descent.
  double lipschitz = 1.0;
  {
    std::vector<double> v(n, 1.0 / std::sqrt(static_cast<double>(n)));
    for (int iter = 0; iter < 50; ++iter) {
      std::vector<double> w(n, 0.0);
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) w[i] += q[i * n + j] * v[j];
      double norm = 0.0;
      for (double x : w) norm += x * x;
      norm = std::sqrt(norm);
      if (norm < 1e-14) break;
      for (std::size_t i = 0; i < n; ++i) v[i] = w[i] / norm;
      lipschitz = norm;
    }
  }
  double step = 0.9 / lipschitz;

  std::vector<double> alpha(n, 1.0 / static_cast<double>(n));
  alpha = project_capped_simplex(alpha, c);
  for (int iter = 0; iter < 200000; ++iter) {
    std::vector<double> grad(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        grad[i] += q[i * n + j] * alpha[j];
    std::vector<double> next(n);
    for (std::size_t i = 0; i < n; ++i) next[i] = alpha[i] - step * grad[i];
    next = project_capped_simplex(std::move(next), c);
    double delta = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      delta = std::max(delta, std::abs(next[i] - alpha[i]));
    alpha = std::move(next);
    if (delta < 1e-13) break;
  }
  double objective = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      objective += alpha[i] * q[i * n + j] * alpha[j];
  return {alpha, objective / 2.0};
}

// 1/2 a'Qa for a given dual vector.
double dual_objective(const Rows& z, const KernelSpec& spec, double gamma,
                      const std::vector<double>& alpha) {
  double objective = 0.0;
  for (std::size_t i = 0; i < z.size(); ++i) {
    if (alpha[i] == 0.0) continue;
    for (std::size_t j = 0; j < z.size(); ++j)
      objective += alpha[i] * alpha[j] * kernel_eval(spec, gamma, z[i], z[j]);
  }
  return objective / 2.0;
}

Rows standardized_blob(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  Rows rows;
  for (std::size_t i = 0; i < n; ++i)
    rows.push_back({rng.normal(0, 1), rng.normal(0, 2), rng.normal(1, 1)});
  StandardScaler scaler;
  scaler.fit(rows);
  return scaler.transform(Matrix::from_rows(rows)).to_rows();
}

class OcsvmVsReference
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(OcsvmVsReference, ObjectivesAndRankingsAgree) {
  auto [n, nu] = GetParam();
  Rows z = standardized_blob(n, 1234 + n);
  KernelSpec spec;  // rbf
  double gamma = resolve_gamma(z[0].size());

  // Reference solution.
  Reference ref = reference_solve(z, spec, gamma, nu);

  // SMO solution. The detector standardizes its input again; the rows are
  // already standardized, so that changes them only by rounding.
  OcsvmParams params;
  params.nu = nu;
  OneClassSvm svm(params);
  std::vector<double> scores = svm.score(z);
  ASSERT_TRUE(svm.converged());

  // Both solvers minimize the same dual; the optima must coincide (the
  // SMO solution may be marginally better — never worse beyond tolerance).
  double smo_obj = dual_objective(z, spec, gamma, svm.alpha());
  EXPECT_NEAR(smo_obj, ref.objective, 1e-4) << "n=" << n << " nu=" << nu;
  EXPECT_LE(smo_obj, ref.objective + 1e-6);
  // The SMO solution must be feasible.
  double sum = 0.0;
  double c = 1.0 / (nu * static_cast<double>(n));
  for (double a : svm.alpha()) {
    EXPECT_GE(a, -1e-12);
    EXPECT_LE(a, c + 1e-12);
    sum += a;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);

  // Rankings agree on the clear extremes: the bottom-3 sample sets match.
  std::vector<double> ref_scores(n);
  {
    // Reference decision values: f_i = (Q alpha)_i - rho_ref with rho_ref
    // the mean gradient over free support vectors.
    double c = 1.0 / (nu * static_cast<double>(n));
    std::vector<double> grad(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        grad[i] += kernel_eval(spec, gamma, z[i], z[j]) * ref.alpha[j];
    double rho = 0.0;
    std::size_t free_count = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (ref.alpha[i] > 1e-8 && ref.alpha[i] < c - 1e-8) {
        rho += grad[i];
        ++free_count;
      }
    }
    if (free_count > 0) rho /= static_cast<double>(free_count);
    for (std::size_t i = 0; i < n; ++i) ref_scores[i] = grad[i] - rho;
  }
  // Q alpha is unique at the optimum (Q is PSD), so the two score vectors
  // must agree up to the additive rho convention: compare centred.
  double mean_smo = 0.0, mean_ref = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mean_smo += scores[i];
    mean_ref += ref_scores[i];
  }
  mean_smo /= static_cast<double>(n);
  mean_ref /= static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(scores[i] - mean_smo, ref_scores[i] - mean_ref, 2e-4)
        << "sample " << i << " n=" << n << " nu=" << nu;
  }
  // (The elementwise check above is the strong guarantee; exact rank
  // order can differ among near-tied bound samples, so it is not
  // asserted.)
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, OcsvmVsReference,
    ::testing::Values(std::make_tuple(std::size_t{25}, 0.2),
                      std::make_tuple(std::size_t{40}, 0.1),
                      std::make_tuple(std::size_t{60}, 0.15)));

// ---- Production detector vs a naive oracle ---------------------------------
//
// NaiveOcsvm solves the production detector's dual the plain way and
// shares no code with its distinct-row Gram, WSS2 selection, shrinking or
// support-vector compaction. It standardizes with StandardScaler, builds
// the per-element l x l Gram with kernel_eval, starts from LIBSVM's
// feasible point and runs first-order maximal-violating-pair SMO down to
// tol. rho is the mean gradient over free support vectors, or else the
// midpoint of the bound bracket (the production rule). A decision sums
// alpha_i k(x_i, z) over every training row; score() returns the training
// rows' decisions from the gradient, G_i - rho.
class NaiveOcsvm final : public core::OutlierDetector {
 public:
  explicit NaiveOcsvm(OcsvmParams params = {}) : p_(params) {}

  std::string name() const override { return "naive-ocsvm"; }
  using core::OutlierDetector::score;
  std::vector<double> score(const Matrix& rows) override {
    fit(rows);
    std::vector<double> out(g_.size());
    for (std::size_t i = 0; i < g_.size(); ++i) out[i] = g_[i] - rho_;
    return out;
  }

  void fit(const Matrix& rows) {
    scaler_.fit(rows);
    x_ = scaler_.transform(rows);
    const std::size_t l = x_.rows();
    gamma_ = resolve_gamma(x_.cols());
    const double c = 1.0 / (p_.nu * static_cast<double>(l));
    std::vector<double> q(l * l);
    for (std::size_t i = 0; i < l; ++i)
      for (std::size_t j = 0; j < l; ++j)
        q[i * l + j] = kernel_eval(p_.kernel, gamma_, x_.row(i), x_.row(j));

    alpha_.assign(l, 0.0);
    double remaining = 1.0;
    for (std::size_t i = 0; i < l && remaining > 0.0; ++i) {
      alpha_[i] = std::min(c, remaining);
      remaining -= alpha_[i];
    }
    g_.assign(l, 0.0);
    for (std::size_t i = 0; i < l; ++i)
      for (std::size_t j = 0; j < l; ++j) g_[i] += q[i * l + j] * alpha_[j];

    converged_ = false;
    for (std::size_t iter = 0; iter < p_.max_iter; ++iter) {
      std::size_t up = l, low = l;  // up can grow, low can shrink
      for (std::size_t t = 0; t < l; ++t) {
        if (alpha_[t] < c - kEps && (up == l || g_[t] < g_[up])) up = t;
        if (alpha_[t] > kEps && (low == l || g_[t] > g_[low])) low = t;
      }
      if (up == l || low == l || g_[low] - g_[up] < p_.tol) {
        converged_ = true;
        break;
      }
      const double quad = q[up * l + up] + q[low * l + low] -
                          2.0 * q[up * l + low];
      const double step = std::min({(g_[low] - g_[up]) / std::max(quad, kEps),
                                    c - alpha_[up], alpha_[low]});
      alpha_[up] += step;
      alpha_[low] -= step;
      for (std::size_t t = 0; t < l; ++t)
        g_[t] += step * (q[up * l + t] - q[low * l + t]);
    }

    double free_sum = 0.0, free_count = 0.0;
    double ub = std::numeric_limits<double>::infinity();   // min G at 0
    double lb = -std::numeric_limits<double>::infinity();  // max G at C
    for (std::size_t t = 0; t < l; ++t) {
      if (alpha_[t] > kEps && alpha_[t] < c - kEps) {
        free_sum += g_[t];
        free_count += 1.0;
      } else if (alpha_[t] <= kEps) {
        ub = std::min(ub, g_[t]);
      } else {
        lb = std::max(lb, g_[t]);
      }
    }
    rho_ = free_count > 0.0 ? free_sum / free_count : (ub + lb) / 2.0;
  }

  double decision(std::span<const double> row) const {
    std::vector<double> z(row.size());
    scaler_.transform_row(row, z);
    double sum = 0.0;
    for (std::size_t i = 0; i < x_.rows(); ++i)
      sum += alpha_[i] * kernel_eval(p_.kernel, gamma_, x_.row(i), z);
    return sum - rho_;
  }

  const std::vector<double>& alpha() const { return alpha_; }
  double rho() const { return rho_; }
  bool converged() const { return converged_; }

 private:
  static constexpr double kEps = 1e-12;
  OcsvmParams p_;
  StandardScaler scaler_;
  Matrix x_;
  std::vector<double> alpha_, g_;
  double gamma_ = 0.0, rho_ = 0.0;
  bool converged_ = false;
};

Matrix random_training_matrix(std::size_t l, std::size_t d,
                              std::uint64_t seed) {
  util::Rng rng(seed);
  Matrix x(l, d);
  for (std::size_t i = 0; i < l; ++i)
    for (std::size_t j = 0; j < d; ++j) x(i, j) = rng.normal();
  return x;
}

// l training rows of d features. distinct == 0 draws every row i.i.d.
// normal; otherwise the rows repeat `distinct` normal rows in shuffled
// order, the way Sentomist's intervals repeat feature rows, and share a
// constant first column, like an instruction every interval runs once.
struct Shape {
  std::size_t l = 0, d = 0, distinct = 0;
};

// The printed shape is the ctest name's suffix; i.i.d. shapes keep the
// "(l, d)" form.
void PrintTo(const Shape& s, std::ostream* os) {
  *os << "(" << s.l << ", " << s.d;
  if (s.distinct != 0) *os << ", " << s.distinct << " distinct";
  *os << ")";
}

// group[i] is the source row of training row i.
Matrix shape_matrix(const Shape& s, std::vector<std::size_t>& group) {
  const std::uint64_t seed = 0x5e11 + s.l * 31 + s.d;
  if (s.distinct == 0) {
    group.resize(s.l);
    std::iota(group.begin(), group.end(), std::size_t{0});
    return random_training_matrix(s.l, s.d, seed);
  }
  Matrix rows = random_training_matrix(s.distinct, s.d, seed);
  for (std::size_t k = 0; k < s.distinct; ++k) rows(k, 0) = 1.0;
  util::Rng rng(seed + s.distinct);
  group.clear();
  for (std::size_t i = 0; i < s.l; ++i)
    group.push_back(i < s.distinct ? i : rng.below(s.distinct));
  rng.shuffle(group);
  Matrix x(0, s.d);
  for (std::size_t k : group) x.append_row(rows.row(k));
  return x;
}

// At a tight tolerance the dual is solved to well below the comparison
// threshold, so rho, every decision value and the alpha mass of each group
// of identical rows agree with the oracle to 1e-9. (Per-variable alpha is
// not unique when rows repeat: any split of a group's mass among its rows
// is optimal.)
class FlatVsReference : public ::testing::TestWithParam<Shape> {};

TEST_P(FlatVsReference, AlphaRhoAndDecisionsAgree) {
  const Shape shape = GetParam();
  std::vector<std::size_t> group;
  Matrix x = shape_matrix(shape, group);
  const std::size_t l = shape.l, d = shape.d;

  OcsvmParams params;
  params.nu = 0.1;
  params.tol = 1e-12;

  NaiveOcsvm ref(params);
  ref.fit(x);
  ASSERT_TRUE(ref.converged());

  OneClassSvm opt(params);
  opt.fit(x);
  ASSERT_TRUE(opt.converged());

  ASSERT_EQ(ref.alpha().size(), opt.alpha().size());
  std::vector<double> ref_mass(l, 0.0), opt_mass(l, 0.0);
  for (std::size_t i = 0; i < l; ++i) {
    ref_mass[group[i]] += ref.alpha()[i];
    opt_mass[group[i]] += opt.alpha()[i];
  }
  for (std::size_t k = 0; k < l; ++k)
    EXPECT_NEAR(ref_mass[k], opt_mass[k], 1e-9) << "alpha mass of row " << k;
  EXPECT_NEAR(ref.rho(), opt.rho(), 1e-9);

  // Decisions on the training rows and on unseen queries: the compact-SV
  // evaluation must match the full-training-set sums.
  Matrix queries = random_training_matrix(32, d, 0xab + d);
  std::vector<double> opt_train = opt.decision_batch(x);
  std::vector<double> opt_query = opt.decision_batch(queries);
  for (std::size_t i = 0; i < l; ++i)
    EXPECT_NEAR(ref.decision(x.row(i)), opt_train[i], 1e-9)
        << "train row " << i;
  for (std::size_t i = 0; i < queries.rows(); ++i)
    EXPECT_NEAR(ref.decision(queries.row(i)), opt_query[i], 1e-9)
        << "query row " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FlatVsReference,
    ::testing::Values(Shape{60, 6}, Shape{120, 10}, Shape{200, 17},
                      Shape{120, 10, 12}, Shape{200, 3, 150},
                      Shape{1137, 22, 33}));

// Figure 5(a) end to end: the ranking table must be identical whether the
// analysis runs the oracle or the production detector — up to numerical
// ties. Many intervals share identical (or symmetric) feature rows, so
// their decision values coincide in exact arithmetic; their relative order
// then depends on floating-point summation order and is interchangeable.
// Every pair separated beyond the noise band must rank identically.
TEST(FlatVsReferencePipeline, Fig5aRankingOrderIdentical) {
  apps::Case1Config config;
  config.seed = 11;
  config.sample_periods_ms = {20, 60};
  config.run_seconds = 5.0;
  apps::Case1Result r = apps::run_case1(config);

  std::vector<pipeline::TaggedTrace> traces;
  for (std::size_t i = 0; i < r.runs.size(); ++i)
    traces.push_back({&r.runs[i].sensor_trace, i});

  auto ranking_with = [&](bool oracle) {
    pipeline::AnalysisOptions options;
    options.detector = oracle ? std::shared_ptr<core::OutlierDetector>(
                                    std::make_shared<NaiveOcsvm>())
                              : std::make_shared<OneClassSvm>();
    pipeline::AnalysisReport report =
        pipeline::analyze(traces, os::irq::kAdc, options);
    return report.ranking;
  };

  auto ref = ranking_with(true);
  auto opt = ranking_with(false);
  ASSERT_GT(ref.size(), 100u);
  ASSERT_EQ(ref.size(), opt.size());

  // Split the oracle's ranking into tie classes: a gap larger than the
  // noise band starts a new class. Within each class the two rankings must
  // hold the same set of samples; the class sequence itself is the table.
  constexpr double kTieEps = 1e-7;  // 10x the default solver tolerance
  std::size_t start = 0;
  std::size_t classes = 0;
  for (std::size_t pos = 1; pos <= ref.size(); ++pos) {
    if (pos < ref.size() &&
        ref[pos].score - ref[pos - 1].score < kTieEps)
      continue;
    std::vector<std::size_t> ref_ids, opt_ids;
    for (std::size_t k = start; k < pos; ++k) {
      ref_ids.push_back(ref[k].sample_index);
      opt_ids.push_back(opt[k].sample_index);
    }
    std::sort(ref_ids.begin(), ref_ids.end());
    std::sort(opt_ids.begin(), opt_ids.end());
    EXPECT_EQ(ref_ids, opt_ids) << "tie class at rank " << start + 1;
    start = pos;
    ++classes;
  }
  // The interesting part of the table is not one giant tie.
  EXPECT_GE(classes, 4u);
}

// Figures 5(b) and 5(c): the buggy intervals land at the same ranks under
// the oracle and the production detector. (The clean intervals of these cases form near-degenerate
// duplicate groups whose decision values tie within ~sqrt(tol), so their
// internal order is noise; the figures' content is where the bugs rank.)
TEST(FlatVsReferencePipeline, Fig5bcBugRanksIdentical) {
  auto bug_ranks_with = [](const std::vector<pipeline::TaggedTrace>& traces,
                           std::uint8_t line, bool oracle) {
    pipeline::AnalysisOptions options;
    options.detector = oracle ? std::shared_ptr<core::OutlierDetector>(
                                    std::make_shared<NaiveOcsvm>())
                              : std::make_shared<OneClassSvm>();
    return pipeline::analyze(traces, line, options).bug_ranks();
  };
  {
    apps::Case2Config config;
    config.seed = 3;
    apps::Case2Result r = apps::run_case2(config);
    std::vector<pipeline::TaggedTrace> traces{{&r.relay_trace, 0}};
    auto ref = bug_ranks_with(traces, os::irq::kRadioSpi, true);
    auto opt = bug_ranks_with(traces, os::irq::kRadioSpi, false);
    ASSERT_FALSE(ref.empty());
    EXPECT_EQ(ref, opt);
  }
  {
    apps::Case3Config config;
    config.seed = 5;
    apps::Case3Result r = apps::run_case3(config);
    std::vector<pipeline::TaggedTrace> traces;
    for (net::NodeId src : r.sources) traces.push_back({&r.traces[src], 0});
    auto ref = bug_ranks_with(traces, r.report_line, true);
    auto opt = bug_ranks_with(traces, r.report_line, false);
    EXPECT_EQ(ref, opt);
  }
}

// ---- The detector's answers as data ---------------------------------------
//
// One line per fit: l, d, the distinct rows the fit reported
// (ml.distinct_rows_per_fit), iterations, support vectors, convergence,
// and FNV-1a over the bit patterns of the training scores, alpha, rho and
// decision_batch() of 32 i.i.d. query rows. Every bit of those must
// survive a change to the solver's bookkeeping.

// FNV-1a over the bit patterns of `values`, as stored in memory.
std::uint64_t fnv1a_bits(std::span<const double> values) {
  return util::fnv1a64({reinterpret_cast<const char*>(values.data()),
                        values.size_bytes()});
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void describe_fit(std::ostream& os, const std::string& name, const Matrix& x,
                  const OcsvmParams& params) {
  obs::Registry& reg = obs::Registry::global();
  const obs::Snapshot before = reg.snapshot();
  OneClassSvm svm(params);
  const std::vector<double> scores = svm.score(x);
  const obs::Snapshot after = reg.snapshot();
  auto distinct_sum = [](const obs::Snapshot& snap) {
    for (const auto& [name, data] : snap.histograms)
      if (name == "ml.distinct_rows_per_fit") return data.sum;
    return std::uint64_t{0};
  };
  const std::vector<double> rho{svm.rho()};
  const Matrix queries = random_training_matrix(32, x.cols(), 0xab + x.cols());
  os << name << " l=" << x.rows() << " d=" << x.cols()
     << " distinct=" << distinct_sum(after) - distinct_sum(before)
     << " iterations=" << svm.iterations_used()
     << " sv=" << svm.support_vector_count()
     << " converged=" << svm.converged()
     << " scores=" << hex64(fnv1a_bits(scores))
     << " alpha=" << hex64(fnv1a_bits(svm.alpha()))
     << " rho=" << hex64(fnv1a_bits(rho))
     << " queries=" << hex64(fnv1a_bits(svm.decision_batch(queries)))
     << '\n';
}

// Six distinct raw rows, two of which differ only by 0.0 against 1e-300 in
// a column of larger values: standardizing maps both to the same double,
// so the fit sees five distinct rows.
Matrix collapsing_rows() {
  const double rows[6][2] = {{0.0, 0.0}, {1e-300, 0.0}, {1.0, 1.0},
                             {2.0, 1.0}, {3.0, 2.0},    {4.0, 2.0}};
  util::Rng rng(0xc011);
  Matrix x(0, 2);
  for (std::size_t i = 0; i < 60; ++i) x.append_row(rows[rng.below(6)]);
  return x;
}

std::string ocsvm_digests() {
  obs::Registry& reg = obs::Registry::global();
  struct Restore {
    obs::Registry& reg;
    bool enabled = reg.enabled();
    ~Restore() { reg.set_enabled(enabled); }
  } restore{reg};
  reg.set_enabled(true);

  std::ostringstream os;
  OcsvmParams tight;
  tight.nu = 0.1;
  tight.tol = 1e-12;
  std::vector<std::size_t> group;
  for (const Shape& shape :
       {Shape{60, 6}, Shape{120, 10}, Shape{200, 17}, Shape{120, 10, 12},
        Shape{200, 3, 150}, Shape{1137, 22, 33}}) {
    std::ostringstream name;
    PrintTo(shape, &name);
    const Matrix x = shape_matrix(shape, group);
    describe_fit(os, "shape" + name.str() + " default", x, OcsvmParams{});
    describe_fit(os, "shape" + name.str() + " nu=0.1 tol=1e-12", x, tight);
  }
  // Repeated-row shapes whose solves shrink and reconstruct often.
  OcsvmParams shrinking = tight;
  shrinking.nu = 0.05;
  describe_fit(os, "shape(100, 3, 75 distinct) nu=0.05 tol=1e-12",
               shape_matrix(Shape{100, 3, 75}, group), shrinking);
  describe_fit(os, "shape(100, 2, 66 distinct) nu=0.1 tol=1e-12",
               shape_matrix(Shape{100, 2, 66}, group), tight);
  describe_fit(os, "collapse default", collapsing_rows(), OcsvmParams{});

  // The detector's input in the Figure 5 pipelines and the benchmark's
  // pooled-I runs: the feature matrices pipeline::analyze builds.
  auto features_of = [](const std::vector<pipeline::TaggedTrace>& traces,
                        trace::IrqLine line) {
    pipeline::AnalysisOptions options;
    options.keep_features = true;
    return pipeline::analyze(traces, line, options).features.values;
  };
  for (std::uint64_t seed : {5u, 1u, 2u, 3u}) {
    apps::Case1Config config;
    config.seed = seed;
    apps::Case1Result r = apps::run_case1(config);
    std::vector<pipeline::TaggedTrace> traces;
    for (std::size_t i = 0; i < r.runs.size(); ++i)
      traces.push_back({&r.runs[i].sensor_trace, i});
    describe_fit(os, "case I seed=" + std::to_string(seed),
                 features_of(traces, os::irq::kAdc), OcsvmParams{});
  }
  {
    apps::Case2Config config;
    config.seed = 3;
    apps::Case2Result r = apps::run_case2(config);
    describe_fit(os, "case II seed=3",
                 features_of({{&r.relay_trace, 0}}, os::irq::kRadioSpi),
                 OcsvmParams{});
  }
  {
    apps::Case3Config config;
    config.seed = 5;
    apps::Case3Result r = apps::run_case3(config);
    std::vector<pipeline::TaggedTrace> traces;
    for (net::NodeId src : r.sources) traces.push_back({&r.traces[src], 0});
    describe_fit(os, "case III seed=5", features_of(traces, r.report_line),
                 OcsvmParams{});
  }
  return os.str();
}

TEST(OcsvmDigests, MatchFixture) {
  golden::check(SENT_OCSVM_DIGESTS, ocsvm_digests());
}

}  // namespace
}  // namespace sent::ml
