#include "ml/detectors.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ml/eigen.hpp"
#include "ml/kfd.hpp"
#include "ml/ocsvm.hpp"
#include "util/assert.hpp"
#include "util/stats.hpp"

namespace sent::ml {

namespace {

/// Pairwise Euclidean distances on standardized rows, as a flat symmetric
/// n x n matrix.
std::vector<double> distance_matrix(const Matrix& rows) {
  StandardScaler scaler;
  scaler.fit(rows);
  Matrix z = scaler.transform(rows);
  std::size_t n = z.rows();
  std::vector<double> dist(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) {
      double d = util::l2_distance(z.row(i), z.row(j));
      dist[i * n + j] = d;
      dist[j * n + i] = d;
    }
  return dist;
}

/// Indices of the k nearest neighbours of i (excluding i), plus sorted
/// neighbour distances.
void k_nearest(const std::vector<double>& dist, std::size_t n,
               std::size_t i, std::size_t k,
               std::vector<std::size_t>& idx_out,
               std::vector<double>& dist_out) {
  const double* di = &dist[i * n];
  std::vector<std::size_t> order;
  order.reserve(n - 1);
  for (std::size_t j = 0; j < n; ++j)
    if (j != i) order.push_back(j);
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<long>(std::min(k, order.size())),
                    order.end(), [&](std::size_t a, std::size_t b) {
                      return di[a] < di[b];
                    });
  order.resize(std::min(k, order.size()));
  idx_out = order;
  dist_out.clear();
  for (std::size_t j : order) dist_out.push_back(di[j]);
}

}  // namespace

// --------------------------------------------------------------------- PCA

PcaDetector::PcaDetector(double explained) : explained_(explained) {
  SENT_REQUIRE(explained > 0.0 && explained <= 1.0);
}

std::vector<double> PcaDetector::score(const ml::Matrix& rows) {
  std::size_t d = check_matrix(rows);
  StandardScaler scaler;
  scaler.fit(rows);
  Matrix z = scaler.transform(rows);

  auto eig = symmetric_eigen(covariance_matrix(z), d);
  double total = 0.0;
  for (double v : eig.values) total += std::max(v, 0.0);
  // Degenerate data (all rows equal): everything scores 0.
  if (total <= 1e-12) return std::vector<double>(rows.rows(), 0.0);

  double cum = 0.0;
  components_ = 0;
  for (double v : eig.values) {
    cum += std::max(v, 0.0);
    ++components_;
    if (cum / total >= explained_) break;
  }
  // Keep at least one component and leave at least one residual direction
  // when possible, otherwise every reconstruction is exact.
  if (components_ >= d && d > 1) components_ = d - 1;

  // Mean residual eigenvalue normalizes the Q statistic; floored so a
  // near-perfect subspace fit does not blow up the residual term.
  double lambda_res = 0.0;
  for (std::size_t kdx = components_; kdx < d; ++kdx)
    lambda_res += std::max(eig.values[kdx], 0.0);
  lambda_res /= std::max<double>(1.0, static_cast<double>(d - components_));
  lambda_res = std::max(lambda_res, 1e-6 * total);

  std::vector<double> scores(z.rows());
  for (std::size_t r = 0; r < z.rows(); ++r) {
    std::span<const double> zr = z.row(r);
    double norm2 = 0.0;
    for (double x : zr) norm2 += x * x;
    double t2 = 0.0;     // Hotelling T^2 inside the subspace
    double proj2 = 0.0;  // squared in-subspace norm
    for (std::size_t kdx = 0; kdx < components_; ++kdx) {
      double p = util::dot(zr, eig.vectors[kdx]);
      proj2 += p * p;
      t2 += p * p / std::max(eig.values[kdx], 1e-12);
    }
    double q = std::max(norm2 - proj2, 0.0);  // SPE residual
    scores[r] = -std::sqrt(t2 + q / lambda_res);
  }
  return scores;
}

// --------------------------------------------------------------------- kNN

KnnDetector::KnnDetector(std::size_t k) : k_(k) { SENT_REQUIRE(k >= 1); }

std::vector<double> KnnDetector::score(const ml::Matrix& rows) {
  check_matrix(rows);
  std::size_t n = rows.rows();
  if (n == 1) return {0.0};
  auto dist = distance_matrix(rows);
  std::size_t k = std::min(k_, n - 1);
  std::vector<double> scores(n);
  std::vector<std::size_t> idx;
  std::vector<double> nd;
  for (std::size_t i = 0; i < n; ++i) {
    k_nearest(dist, n, i, k, idx, nd);
    scores[i] = -util::mean(nd);
  }
  return scores;
}

// --------------------------------------------------------------------- LOF

LofDetector::LofDetector(std::size_t k) : k_(k) { SENT_REQUIRE(k >= 1); }

std::vector<double> LofDetector::score(const ml::Matrix& rows) {
  check_matrix(rows);
  std::size_t n = rows.rows();
  if (n <= 2) return std::vector<double>(n, 0.0);
  auto dist = distance_matrix(rows);
  std::size_t k = std::min(k_, n - 1);

  std::vector<std::vector<std::size_t>> neighbors(n);
  std::vector<double> k_distance(n);
  {
    std::vector<double> nd;
    for (std::size_t i = 0; i < n; ++i) {
      k_nearest(dist, n, i, k, neighbors[i], nd);
      k_distance[i] = nd.back();
    }
  }

  // Local reachability density.
  std::vector<double> lrd(n);
  for (std::size_t i = 0; i < n; ++i) {
    double reach_sum = 0.0;
    for (std::size_t j : neighbors[i])
      reach_sum += std::max(k_distance[j], dist[i * n + j]);
    lrd[i] = reach_sum > 1e-12
                 ? static_cast<double>(neighbors[i].size()) / reach_sum
                 : std::numeric_limits<double>::infinity();
  }

  std::vector<double> scores(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(lrd[i])) {
      // Dense duplicate cluster: perfectly normal.
      scores[i] = -1.0;
      continue;
    }
    double ratio_sum = 0.0;
    for (std::size_t j : neighbors[i]) {
      double r = std::isfinite(lrd[j])
                     ? lrd[j] / lrd[i]
                     : std::numeric_limits<double>::max();
      ratio_sum += std::min(r, 1e12);
    }
    scores[i] = -(ratio_sum / static_cast<double>(neighbors[i].size()));
  }
  return scores;
}

// ------------------------------------------------------------- Mahalanobis

MahalanobisDetector::MahalanobisDetector(double ridge) : ridge_(ridge) {
  SENT_REQUIRE(ridge > 0.0);
}

std::vector<double> MahalanobisDetector::score(const ml::Matrix& rows) {
  std::size_t d = check_matrix(rows);
  StandardScaler scaler;
  scaler.fit(rows);
  Matrix z = scaler.transform(rows);

  auto cov = covariance_matrix(z);
  for (std::size_t i = 0; i < d; ++i) cov[i * d + i] += ridge_;
  auto eig = symmetric_eigen(cov, d);

  // Inverse via eigendecomposition: Cov^-1 = V diag(1/lambda) V'.
  std::vector<double> scores(z.rows());
  for (std::size_t r = 0; r < z.rows(); ++r) {
    std::span<const double> zr = z.row(r);
    double m2 = 0.0;
    for (std::size_t kdx = 0; kdx < d; ++kdx) {
      double lambda = std::max(eig.values[kdx], ridge_ * 1e-3);
      double p = util::dot(zr, eig.vectors[kdx]);
      m2 += p * p / lambda;
    }
    scores[r] = -std::sqrt(std::max(m2, 0.0));
  }
  return scores;
}

std::shared_ptr<core::OutlierDetector> make_detector(
    const std::string& name) {
  if (name == "ocsvm") return std::make_shared<OneClassSvm>();
  if (name == "knn") return std::make_shared<KnnDetector>();
  if (name == "lof") return std::make_shared<LofDetector>();
  if (name == "pca") return std::make_shared<PcaDetector>();
  if (name == "mahalanobis") return std::make_shared<MahalanobisDetector>();
  if (name == "kfd") return std::make_shared<KernelFisherDetector>();
  return nullptr;
}

}  // namespace sent::ml
