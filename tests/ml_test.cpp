#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>

#include "core/detector.hpp"
#include "ml/detectors.hpp"
#include "ml/error.hpp"
#include "ml/eigen.hpp"
#include "ml/kernel.hpp"
#include "ml/kfd.hpp"
#include "ml/ocsvm.hpp"
#include "ml/scaler.hpp"
#include "obs/metrics.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace sent::ml {
namespace {

using Rows = std::vector<std::vector<double>>;

// Gaussian blob with a few planted far-away outliers at the end. Each
// outlier sits in its own direction: a *tight pack* of far points would
// legitimately be treated as a second mode by a one-class SVM (it
// estimates the support of the distribution, which can be multi-modal),
// so isolated singletons are the honest "anomaly" shape.
Rows blob_with_outliers(std::size_t n_normal, std::size_t n_outliers,
                        std::uint64_t seed, double spread = 8.0) {
  util::Rng rng(seed);
  Rows rows;
  for (std::size_t i = 0; i < n_normal; ++i)
    rows.push_back({rng.normal(0, 1), rng.normal(0, 1)});
  for (std::size_t i = 0; i < n_outliers; ++i) {
    double angle = 2.0 * 3.14159265358979 *
                   (static_cast<double>(i) + rng.uniform()) /
                   static_cast<double>(std::max<std::size_t>(n_outliers, 1));
    double radius = spread + 2.0 * static_cast<double>(i);
    rows.push_back({radius * std::cos(angle), radius * std::sin(angle)});
  }
  return rows;
}

// True if every planted outlier (the last n_outliers rows) lands in the
// bottom `depth` positions of the ascending ranking.
bool outliers_rank_first(const std::vector<double>& scores,
                         std::size_t n_outliers, std::size_t depth) {
  auto ranked = core::rank_ascending(scores);
  std::size_t n = scores.size();
  std::size_t found = 0;
  for (std::size_t pos = 0; pos < depth && pos < n; ++pos)
    if (ranked[pos].index >= n - n_outliers) ++found;
  return found == n_outliers;
}

// ---------------------------------------------------------------- scaler

TEST(Scaler, StandardizesColumns) {
  Rows rows{{1, 10}, {3, 10}, {5, 10}};
  StandardScaler s;
  s.fit(rows);
  EXPECT_NEAR(s.mean()[0], 3.0, 1e-12);
  EXPECT_EQ(s.scale()[1], 1.0);  // zero variance guarded
  Matrix z = s.transform(Matrix::from_rows(rows));
  EXPECT_NEAR(z(0, 0), -std::sqrt(1.5), 1e-9);
  EXPECT_NEAR(z(1, 0), 0.0, 1e-12);
  EXPECT_NEAR(z(0, 1), 0.0, 1e-12);
}

TEST(Scaler, Validation) {
  StandardScaler s;
  EXPECT_THROW(s.fit(Matrix{}), util::PreconditionError);
  EXPECT_THROW(s.fit({{1.0}, {1.0, 2.0}}), util::PreconditionError);
  s.fit({{1.0, 2.0}});
  EXPECT_THROW(s.transform(Matrix::from_rows({{1.0}})),
               util::PreconditionError);
}

// ---------------------------------------------------------------- kernel

TEST(Kernel, RbfProperties) {
  KernelSpec spec;  // rbf
  std::vector<double> a{1, 2}, b{3, -1};
  double gamma = resolve_gamma(2);
  EXPECT_DOUBLE_EQ(gamma, 0.5);
  EXPECT_DOUBLE_EQ(kernel_eval(spec, gamma, a, a), 1.0);
  double kab = kernel_eval(spec, gamma, a, b);
  EXPECT_DOUBLE_EQ(kab, kernel_eval(spec, gamma, b, a));
  EXPECT_GT(kab, 0.0);
  EXPECT_LT(kab, 1.0);
}

TEST(Kernel, Linear) {
  KernelSpec lin;
  lin.type = KernelType::Linear;
  std::vector<double> a{1, 2}, b{3, -1};
  EXPECT_DOUBLE_EQ(kernel_eval(lin, 0.0, a, b), 1.0);
}

// l normal rows of d features: i.i.d. when distinct == 0, otherwise
// `distinct` normal rows repeated to l in shuffled order (the inputs
// micro_perf times).
Matrix normal_rows(std::size_t l, std::size_t d, std::size_t distinct,
                   std::uint64_t seed) {
  util::Rng rng(seed);
  Matrix rows(distinct == 0 ? l : distinct, d);
  for (std::size_t i = 0; i < rows.rows() * d; ++i)
    rows.data()[i] = rng.normal();
  if (distinct == 0) return rows;
  util::Rng pick_rng(seed + 1);
  std::vector<std::size_t> pick;
  for (std::size_t i = 0; i < l; ++i)
    pick.push_back(i < distinct ? i : pick_rng.below(distinct));
  pick_rng.shuffle(pick);
  Matrix x(0, d);
  for (std::size_t k : pick) x.append_row(rows.row(k));
  return x;
}

// The blocked, norm-cached build (kernel_opt.cpp, vector-math flags)
// against one kernel_eval per entry at the default flags, on i.i.d. rows
// and on 33 distinct rows repeated to l = 1137, d = 22 (the pooled
// Fig. 5(a) shape).
TEST(Kernel, BlockedBuildMatchesPerElement) {
  KernelSpec spec;  // rbf
  for (const Matrix& x :
       {normal_rows(80, 8, 0, 0xbeef), normal_rows(1137, 22, 33, 0xbeef)}) {
    const std::size_t l = x.rows();
    const double gamma = resolve_gamma(x.cols());
    std::vector<double> k;
    build_kernel_matrix(spec, gamma, x, nullptr, k);
    ASSERT_EQ(k.size(), l * l);
    double max_diff = 0.0;
    for (std::size_t i = 0; i < l; ++i)
      for (std::size_t j = 0; j < l; ++j)
        max_diff = std::max(
            max_diff, std::abs(k[i * l + j] -
                               kernel_eval(spec, gamma, x.row(i), x.row(j))));
    EXPECT_LT(max_diff, 1e-10) << "l=" << l << " d=" << x.cols();
  }
}

// ----------------------------------------------------------------- eigen

TEST(Eigen, DiagonalizesKnown2x2) {
  // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
  auto eig = symmetric_eigen({2, 1, 1, 2}, 2);
  ASSERT_EQ(eig.values.size(), 2u);
  EXPECT_NEAR(eig.values[0], 3.0, 1e-9);
  EXPECT_NEAR(eig.values[1], 1.0, 1e-9);
  // Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::abs(eig.vectors[0][0]), 1.0 / std::sqrt(2.0), 1e-9);
  EXPECT_NEAR(eig.vectors[0][0], eig.vectors[0][1], 1e-9);
}

TEST(Eigen, IdentityIsFixedPoint) {
  auto eig = symmetric_eigen({1, 0, 0, 0, 1, 0, 0, 0, 1}, 3);
  for (double v : eig.values) EXPECT_NEAR(v, 1.0, 1e-12);
}

TEST(Eigen, ReconstructsMatrix) {
  // A = V diag(values) V^T for a random symmetric matrix.
  util::Rng rng(3);
  std::size_t n = 5;
  std::vector<double> a(n * n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) {
      double v = rng.normal();
      a[i * n + j] = v;
      a[j * n + i] = v;
    }
  auto eig = symmetric_eigen(a, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (std::size_t k = 0; k < n; ++k)
        sum += eig.values[k] * eig.vectors[k][i] * eig.vectors[k][j];
      EXPECT_NEAR(sum, a[i * n + j], 1e-8);
    }
  }
}

TEST(Eigen, CovarianceOfKnownData) {
  Rows rows{{0, 0}, {2, 2}, {0, 2}, {2, 0}};
  auto cov = covariance_matrix(Matrix::from_rows(rows));
  EXPECT_NEAR(cov[0], 1.0, 1e-12);  // var x
  EXPECT_NEAR(cov[3], 1.0, 1e-12);  // var y
  EXPECT_NEAR(cov[1], 0.0, 1e-12);  // uncorrelated
}

// ----------------------------------------------------------------- ocsvm

TEST(Ocsvm, PlantedOutliersGetLowestScores) {
  Rows rows = blob_with_outliers(200, 3, 7);
  OneClassSvm svm;
  auto scores = svm.score(rows);
  ASSERT_EQ(scores.size(), rows.size());
  EXPECT_TRUE(outliers_rank_first(scores, 3, 3));
  EXPECT_TRUE(svm.converged());
}

TEST(Ocsvm, OutlierScoresAreNegative) {
  Rows rows = blob_with_outliers(200, 3, 11);
  OneClassSvm svm;
  auto scores = svm.score(rows);
  for (std::size_t i = rows.size() - 3; i < rows.size(); ++i)
    EXPECT_LT(scores[i], 0.0);
  // The bulk of the blob sits on the normal side.
  std::size_t positive = 0;
  for (std::size_t i = 0; i < rows.size() - 3; ++i)
    positive += scores[i] > 0.0;
  EXPECT_GT(positive, (rows.size() - 3) * 8 / 10);
}

TEST(Ocsvm, NuBoundsOutlierFraction) {
  // nu upper-bounds the fraction of training points with f(x) < 0.
  for (double nu : {0.02, 0.05, 0.1, 0.2}) {
    Rows rows = blob_with_outliers(300, 0, 13);
    OcsvmParams params;
    params.nu = nu;
    OneClassSvm svm(params);
    auto scores = svm.score(rows);
    std::size_t negative = 0;
    for (double s : scores) negative += s < -1e-9;
    EXPECT_LE(double(negative) / double(rows.size()), nu + 0.03)
        << "nu=" << nu;
  }
}

TEST(Ocsvm, NuLowerBoundsSupportVectors) {
  Rows rows = blob_with_outliers(300, 0, 17);
  OcsvmParams params;
  params.nu = 0.1;
  OneClassSvm svm(params);
  svm.fit(rows);
  EXPECT_GE(svm.support_vector_count(),
            static_cast<std::size_t>(0.1 * 300) - 1);
}

TEST(Ocsvm, InductiveDecisionSeparatesNewPoints) {
  Rows rows = blob_with_outliers(300, 0, 19);
  OneClassSvm svm;
  svm.fit(rows);
  std::vector<double> f = svm.decision_batch(Rows{{0.0, 0.0}, {50.0, 50.0}});
  EXPECT_GT(f[0], 0.0);
  EXPECT_LT(f[1], 0.0);
}

TEST(Ocsvm, DeterministicScores) {
  Rows rows = blob_with_outliers(100, 2, 23);
  OneClassSvm a, b;
  auto sa = a.score(rows);
  auto sb = b.score(rows);
  EXPECT_EQ(sa, sb);
}

// Draws an index with probability proportional to its (non-negative)
// weight.
std::size_t weighted_index(util::Rng& rng, const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  double x = rng.uniform() * total;
  double acc = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (x < acc) return i;
  }
  return weights.size() - 1;
}

// Feature matrices shaped like pooled Fig. 5(a): 33 distinct integer
// instruction-count rows (d = 22) repeated to l = 1137 and shuffled, with
// a few handler paths holding most intervals. group[i] is row i's source
// row.
Matrix duplicated_counts(std::uint64_t seed, std::vector<std::size_t>& group) {
  constexpr std::size_t kDistinct = 33, kDim = 22, kRows = 1137;
  util::Rng rng(seed);
  std::vector<double> base(kDim);
  for (double& v : base) v = static_cast<double>(rng.uniform_int(0, 200));
  Rows distinct;
  while (distinct.size() < kDistinct) {
    std::vector<double> row = base;
    for (int k = 0; k < 3; ++k)
      row[rng.below(kDim)] += static_cast<double>(rng.uniform_int(0, 40));
    if (std::find(distinct.begin(), distinct.end(), row) == distinct.end())
      distinct.push_back(row);
  }
  std::vector<double> weights(kDistinct);
  for (std::size_t k = 0; k < kDistinct; ++k)
    weights[k] = 1.0 / static_cast<double>((k + 1) * (k + 1));
  group.clear();
  for (std::size_t k = 0; k < kDistinct; ++k) group.push_back(k);
  while (group.size() < kRows) group.push_back(weighted_index(rng, weights));
  rng.shuffle(group);
  Matrix x(0, kDim);
  for (std::size_t k : group) x.append_row(distinct[k]);
  return x;
}

// Bitwise-identical rows must get bitwise-identical scores, so truly tied
// duplicate groups keep their stable (index) order in the ranking
// (DESIGN.md §10). Checked over many groups of many pooled-I-shaped
// matrices, where every duplicate group must score as one value.
TEST(Ocsvm, IdenticalRowsScoreEqually) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    std::vector<std::size_t> group;
    Matrix x = duplicated_counts(seed, group);
    OneClassSvm svm;
    std::vector<double> scores = svm.score(x);
    ASSERT_EQ(scores.size(), group.size());
    std::vector<std::size_t> first(group.size(), group.size());
    std::size_t split = 0;
    for (std::size_t i = 0; i < group.size(); ++i) {
      std::size_t& f = first[group[i]];
      if (f == group.size()) f = i;
      split += std::bit_cast<std::uint64_t>(scores[i]) !=
               std::bit_cast<std::uint64_t>(scores[f]);
    }
    EXPECT_EQ(split, 0u) << "rows scored apart from their group, seed "
                         << seed;
  }
  Rows rows(50, std::vector<double>{1.0, 2.0, 3.0});
  OneClassSvm svm;
  auto scores = svm.score(rows);
  for (double s : scores) EXPECT_EQ(s, scores[0]);
}

// Turns the global metrics registry on for one test and restores it after.
struct RegistryOn {
  obs::Registry& reg = obs::Registry::global();
  bool was_enabled = reg.enabled();
  RegistryOn() { reg.set_enabled(true); }
  ~RegistryOn() { reg.set_enabled(was_enabled); }
};

obs::HistogramData distinct_rows(const obs::Snapshot& snap) {
  for (const auto& [name, data] : snap.histograms)
    if (name == "ml.distinct_rows_per_fit") return data;
  return {};
}

// The fit builds its Gram over the distinct rows only (DESIGN.md §10),
// checked by count rather than by time: one fit of a pooled-I-shaped
// matrix records 33 distinct rows and builds 33 x 33 kernel cells, not
// 1137 x 1137.
TEST(Ocsvm, GramIsBuiltOverDistinctRows) {
  RegistryOn on;
  obs::Registry& reg = on.reg;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    std::vector<std::size_t> group;
    Matrix x = duplicated_counts(seed, group);
    const obs::Snapshot before = reg.snapshot();
    OneClassSvm svm;
    svm.fit(x);
    const obs::Snapshot after = reg.snapshot();
    EXPECT_EQ(distinct_rows(after).count - distinct_rows(before).count, 1u);
    EXPECT_EQ(distinct_rows(after).sum - distinct_rows(before).sum, 33u)
        << "seed " << seed;
    EXPECT_EQ(after.counter_value("ml.kernel_cells_built") -
                  before.counter_value("ml.kernel_cells_built"),
              33u * 33u)
        << "seed " << seed;
  }
}

// Six distinct raw rows, two of which differ only by 0.0 against 1e-300 in
// a column of larger values: standardizing maps both to the same double.
// (The same matrix is the "collapse" line of tests/golden/ocsvm_digests.txt.)
Matrix collapsing_rows() {
  const double rows[6][2] = {{0.0, 0.0}, {1e-300, 0.0}, {1.0, 1.0},
                             {2.0, 1.0}, {3.0, 2.0},    {4.0, 2.0}};
  util::Rng rng(0xc011);
  Matrix x(0, 2);
  for (std::size_t i = 0; i < 60; ++i) x.append_row(rows[rng.below(6)]);
  return x;
}

// The SMO does its gradient arithmetic once per class of identical rows
// (DESIGN.md §10), checked by count rather than by time. A pooled-I-shaped
// fit (33 classes, no shrink cycle before convergence) writes 33 gradient
// entries for each of the 57 rows with a nonzero starting alpha (nu * l =
// 56.85: 56 rows at C and one at 0.85 C) and 33 per iteration. Rows that
// are distinct raw but identical once standardized share a class: the
// collapse matrix fits over 5 classes, not 6.
TEST(Ocsvm, SmoUpdatesOneGradientPerClass) {
  RegistryOn on;
  obs::Registry& reg = on.reg;
  auto delta = [](const obs::Snapshot& before, const obs::Snapshot& after,
                  const char* name) {
    return after.counter_value(name) - before.counter_value(name);
  };
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    std::vector<std::size_t> group;
    Matrix x = duplicated_counts(seed, group);
    const obs::Snapshot before = reg.snapshot();
    OneClassSvm svm;
    svm.fit(x);
    const obs::Snapshot after = reg.snapshot();
    ASSERT_EQ(delta(before, after, "ml.smo_shrink_cycles"), 0u);
    EXPECT_EQ(delta(before, after, "ml.smo_gradient_updates"),
              (57 + svm.iterations_used()) * 33)
        << "seed " << seed;
  }

  Matrix x = collapsing_rows();
  std::vector<std::vector<double>> raw = x.to_rows();
  std::sort(raw.begin(), raw.end());
  ASSERT_EQ(std::unique(raw.begin(), raw.end()) - raw.begin(), 6);
  const obs::Snapshot before = reg.snapshot();
  OneClassSvm svm;
  svm.fit(x);
  const obs::Snapshot after = reg.snapshot();
  EXPECT_EQ(distinct_rows(after).sum - distinct_rows(before).sum, 5u);
  EXPECT_EQ(delta(before, after, "ml.kernel_cells_built"), 25u);
}

// Bit patterns: == on doubles would call -0.0 and 0.0 equal and a NaN
// unequal to itself.
std::vector<std::uint64_t> bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> out;
  for (double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

// A pool fans the Gram build out over 128-column tiles and
// decision_batch() over rows; neither may move a bit. Checked on 600 x 40
// i.i.d. rows (five tile stripes) and on the pooled-I shape, with pools of
// 1, 2 and 4 workers against the null-pool results.
TEST(Ocsvm, PoolScoresMatchInline) {
  std::vector<std::size_t> group;
  const KernelSpec spec;  // rbf, the detector's default
  for (const Matrix& x :
       {normal_rows(600, 40, 0, 0xfeed), duplicated_counts(7, group)}) {
    const double gamma = resolve_gamma(x.cols());
    std::vector<double> gram;
    build_kernel_matrix(spec, gamma, x, nullptr, gram);
    OneClassSvm inline_svm;
    const std::vector<double> scores = inline_svm.score(x);
    const std::vector<double> decisions = inline_svm.decision_batch(x);
    for (std::size_t workers : {1, 2, 4}) {
      util::ThreadPool pool(workers);
      std::vector<double> pooled_gram;
      build_kernel_matrix(spec, gamma, x, &pool, pooled_gram);
      OcsvmParams params;
      params.pool = &pool;
      OneClassSvm svm(params);
      const std::vector<double> pooled_scores = svm.score(x);
      EXPECT_EQ(bits(pooled_gram), bits(gram))
          << "gram, l=" << x.rows() << " workers=" << workers;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(svm.rho()),
                std::bit_cast<std::uint64_t>(inline_svm.rho()))
          << "rho, l=" << x.rows() << " workers=" << workers;
      EXPECT_EQ(bits(pooled_scores), bits(scores))
          << "score, l=" << x.rows() << " workers=" << workers;
      EXPECT_EQ(bits(svm.decision_batch(x)), bits(decisions))
          << "decision_batch, l=" << x.rows() << " workers=" << workers;
    }
  }
}

TEST(Ocsvm, ParamValidation) {
  OcsvmParams bad;
  bad.nu = 0.0;
  EXPECT_THROW(OneClassSvm{bad}, util::PreconditionError);
  bad.nu = 1.5;
  EXPECT_THROW(OneClassSvm{bad}, util::PreconditionError);
  OneClassSvm svm;
  EXPECT_THROW(svm.decision_batch(Rows{{1.0}}), util::PreconditionError);
  EXPECT_THROW(svm.score(Matrix{}), util::PreconditionError);
}

TEST(Ocsvm, LinearKernelAlsoWorks) {
  Rows rows = blob_with_outliers(150, 3, 29);
  OcsvmParams params;
  params.kernel.type = KernelType::Linear;
  OneClassSvm svm(params);
  auto scores = svm.score(rows);
  // Linear one-class SVM separates from the origin; with planted far
  // outliers the blob still dominates the ranking's top. We only require
  // sane output here.
  ASSERT_EQ(scores.size(), rows.size());
}

// ----------------------------------------------- alternative detectors

TEST(Pca, OffSubspaceOutlierDetected) {
  // Points near the line y = x; outlier far off the line but with an
  // in-range norm — invisible to per-coordinate checks.
  util::Rng rng(31);
  Rows rows;
  for (int i = 0; i < 200; ++i) {
    double t = rng.normal(0, 3);
    rows.push_back({t, t + rng.normal(0, 0.1)});
  }
  rows.push_back({2.0, -2.0});
  PcaDetector pca(0.9);
  auto scores = pca.score(rows);
  EXPECT_TRUE(outliers_rank_first(scores, 1, 1));
  EXPECT_GE(pca.components_used(), 1u);
}

TEST(Pca, DegenerateDataAllZero) {
  Rows rows(10, std::vector<double>{5.0, 5.0});
  PcaDetector pca;
  auto scores = pca.score(rows);
  for (double s : scores) EXPECT_EQ(s, 0.0);
}

TEST(Knn, SingletonAndSmallInputs) {
  KnnDetector knn(5);
  auto one = knn.score({{1.0, 2.0}});
  EXPECT_EQ(one, (std::vector<double>{0.0}));
}

TEST(Lof, UniformClusterScoresNearMinusOne) {
  util::Rng rng(37);
  Rows rows;
  for (int i = 0; i < 100; ++i)
    rows.push_back({rng.uniform(0, 1), rng.uniform(0, 1)});
  LofDetector lof(10);
  auto scores = lof.score(rows);
  double m = 0;
  for (double s : scores) m += s;
  m /= double(scores.size());
  EXPECT_NEAR(m, -1.0, 0.15);
}

TEST(Mahalanobis, CorrelationBreakingOutlier) {
  // Strongly correlated 2D data; the outlier has typical marginals but
  // breaks the correlation.
  util::Rng rng(41);
  Rows rows;
  for (int i = 0; i < 300; ++i) {
    double t = rng.normal(0, 2);
    rows.push_back({t, t + rng.normal(0, 0.2)});
  }
  rows.push_back({2.5, -2.5});
  MahalanobisDetector det;
  auto scores = det.score(rows);
  EXPECT_TRUE(outliers_rank_first(scores, 1, 2));
}

// Parameterized sweep over make_detector()'s names: every detector must
// put 3 planted far outliers in the top 5 of the ranking on the standard
// blob task.
struct DetectorName {
  std::string name;
};

// Without this, gtest prints the parameter as its raw bytes, which hold
// a heap address; ctest bakes that text into each discovered test name,
// so the names would change from build to build.
void PrintTo(const DetectorName& d, std::ostream* os) { *os << d.name; }

class DetectorSweep : public ::testing::TestWithParam<DetectorName> {};

TEST_P(DetectorSweep, PlantedOutliersInTopFive) {
  for (std::uint64_t seed : {101ULL, 202ULL, 303ULL}) {
    Rows rows = blob_with_outliers(200, 3, seed);
    std::shared_ptr<core::OutlierDetector> det =
        make_detector(GetParam().name);
    ASSERT_NE(det, nullptr) << GetParam().name;
    auto scores = det->score(rows);
    EXPECT_TRUE(outliers_rank_first(scores, 3, 5))
        << GetParam().name << " seed " << seed;
    EXPECT_FALSE(det->name().empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDetectors, DetectorSweep,
    ::testing::Values(DetectorName{"ocsvm"}, DetectorName{"pca"},
                      DetectorName{"knn"}, DetectorName{"lof"},
                      DetectorName{"mahalanobis"}, DetectorName{"kfd"}),
    [](const ::testing::TestParamInfo<DetectorName>& info) {
      return info.param.name;
    });

TEST(Detectors, MakeDetectorBuildsEachNamedDetector) {
  const std::pair<const char*, std::string> table[] = {
      {"ocsvm", OneClassSvm().name()},
      {"knn", "knn"},
      {"lof", "lof"},
      {"pca", "pca"},
      {"mahalanobis", "mahalanobis"},
      {"kfd", KernelFisherDetector().name()}};
  for (const auto& [name, detector_name] : table) {
    const std::shared_ptr<core::OutlierDetector> det = make_detector(name);
    ASSERT_NE(det, nullptr) << name;
    EXPECT_EQ(det->name(), detector_name);
  }
  EXPECT_EQ(make_detector("svm"), nullptr);
  EXPECT_EQ(make_detector(""), nullptr);
}

// Detector names are output: the fig5 drivers print the first one on their
// `detector:` line, so a kernel-spec change must not move them unnoticed.
TEST(Detectors, NamesThatDriversPrint) {
  EXPECT_EQ(OneClassSvm().name(), "ocsvm-rbf(gamma=auto)");
  OcsvmParams linear;
  linear.kernel.type = KernelType::Linear;
  EXPECT_EQ(OneClassSvm(linear).name(), "ocsvm-linear");
  EXPECT_EQ(KernelFisherDetector().name(), "oc-kfd");
}

TEST(Kfd, DegenerateIdenticalRowsScoreZero) {
  Rows rows(30, std::vector<double>{2.0, 4.0});
  KernelFisherDetector det;
  auto scores = det.score(rows);
  for (double s : scores) EXPECT_NEAR(s, 0.0, 1e-6);
}

TEST(Kfd, SingletonInput) {
  KernelFisherDetector det;
  auto scores = det.score({{1.0, 2.0}});
  EXPECT_EQ(scores, (std::vector<double>{0.0}));
}

TEST(Kfd, ExtractsRequestedComponents) {
  Rows rows = blob_with_outliers(100, 0, 77);
  KfdParams params;
  params.components = 4;
  KernelFisherDetector det(params);
  det.score(rows);
  EXPECT_EQ(det.eigenvalues().size(), 4u);
  // Eigenvalues come out in descending order (power iteration + deflation).
  for (std::size_t i = 1; i < det.eigenvalues().size(); ++i)
    EXPECT_GE(det.eigenvalues()[i - 1] + 1e-9, det.eigenvalues()[i]);
}

TEST(Kfd, ParamValidation) {
  KfdParams bad;
  bad.components = 0;
  EXPECT_THROW(KernelFisherDetector{bad}, util::PreconditionError);
}

// ----------------------------------------------------- ranking helpers

TEST(Ranking, AscendingStableOrder) {
  auto ranked = core::rank_ascending({0.5, -1.0, 0.5, -2.0});
  ASSERT_EQ(ranked.size(), 4u);
  EXPECT_EQ(ranked[0].index, 3u);
  EXPECT_EQ(ranked[1].index, 1u);
  EXPECT_EQ(ranked[2].index, 0u);  // tie: original order preserved
  EXPECT_EQ(ranked[3].index, 2u);
}

TEST(Ranking, NormalizeMakesMaxPositiveOne) {
  std::vector<double> scores{-0.4, 0.2, 2.0};
  core::normalize_scores(scores);
  EXPECT_DOUBLE_EQ(scores[2], 1.0);
  EXPECT_DOUBLE_EQ(scores[1], 0.1);
  EXPECT_DOUBLE_EQ(scores[0], -0.2);
}

TEST(Ranking, NormalizeNoopWithoutPositives) {
  std::vector<double> scores{-3.0, -1.0};
  core::normalize_scores(scores);
  EXPECT_DOUBLE_EQ(scores[0], -3.0);
}

// Degenerate inputs must raise typed ml::TrainingError (DESIGN.md §9), not
// abort: fault-injected traces can legitimately produce them and the
// pipeline catches the error to fall back to the distance detector.
TEST(Ocsvm, NonFiniteInputThrowsTrainingError) {
  Rows rows = blob_with_outliers(20, 2, 1);
  rows[3][1] = std::numeric_limits<double>::quiet_NaN();
  OneClassSvm svm;
  EXPECT_THROW(svm.fit(rows), TrainingError);
  rows[3][1] = std::numeric_limits<double>::infinity();
  EXPECT_THROW(svm.fit(rows), TrainingError);
}

TEST(Ocsvm, TrainingErrorIsARuntimeErrorWithContext) {
  try {
    Rows rows = {{1.0, std::numeric_limits<double>::quiet_NaN()}};
    OneClassSvm().fit(rows);
    FAIL() << "expected TrainingError";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("training error"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace sent::ml
