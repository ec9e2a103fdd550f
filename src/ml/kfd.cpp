#include "ml/kfd.hpp"

#include <algorithm>
#include <cmath>

#include "ml/scaler.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace sent::ml {

KernelFisherDetector::KernelFisherDetector(KfdParams params)
    : params_(params) {
  SENT_REQUIRE(params_.components >= 1);
  SENT_REQUIRE(params_.power_iterations >= 1);
}

std::vector<double> KernelFisherDetector::score(const ml::Matrix& rows) {
  const std::size_t d = check_matrix(rows);
  const std::size_t n = rows.rows();
  if (n == 1) return {0.0};

  StandardScaler scaler;
  scaler.fit(rows);
  const Matrix z = scaler.transform(rows);
  const double gamma = resolve_gamma(d);

  // Gram matrix via the norm-cached blocked build, then double centring:
  // Kc = K - 1K/n - K1/n + 11'K/n^2.
  std::vector<double> k;
  build_kernel_matrix(params_.kernel, gamma, z, nullptr, k);
  std::vector<double> row_mean(n, 0.0);
  double total_mean = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) row_mean[i] += k[i * n + j];
    row_mean[i] /= static_cast<double>(n);
    total_mean += row_mean[i];
  }
  total_mean /= static_cast<double>(n);
  std::vector<double> kc(n * n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      kc[i * n + j] = k[i * n + j] - row_mean[i] - row_mean[j] + total_mean;

  // Diagonal before deflation: feature-space squared norms of the centred
  // points, needed for the reconstruction-error term.
  std::vector<double> kc_diag(n);
  for (std::size_t i = 0; i < n; ++i) kc_diag[i] = kc[i * n + i];
  double trace_total = 0.0;
  for (double v : kc_diag) trace_total += std::max(v, 0.0);

  // Power iteration with deflation for the leading eigenpairs.
  std::size_t n_components = std::min(params_.components, n - 1);
  std::vector<std::vector<double>> vectors;
  eigenvalues_.clear();
  util::Rng rng(0x5e17'0a11);
  std::vector<double> work(n), v(n);
  for (std::size_t c = 0; c < n_components; ++c) {
    for (double& x : v) x = rng.normal();
    double lambda = 0.0;
    for (std::size_t it = 0; it < params_.power_iterations; ++it) {
      // work = Kc v (Kc already deflated in place).
      for (std::size_t i = 0; i < n; ++i) {
        double sum = 0.0;
        const double* row = &kc[i * n];
        for (std::size_t j = 0; j < n; ++j) sum += row[j] * v[j];
        work[i] = sum;
      }
      double norm = 0.0;
      for (double x : work) norm += x * x;
      norm = std::sqrt(norm);
      if (norm < 1e-14) break;  // exhausted the spectrum
      for (std::size_t i = 0; i < n; ++i) v[i] = work[i] / norm;
      lambda = norm;  // Rayleigh quotient of the normalized iterate
    }
    if (lambda < 1e-12) break;
    // Deflate: Kc -= lambda v v'.
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        kc[i * n + j] -= lambda * v[i] * v[j];
    eigenvalues_.push_back(lambda);
    vectors.push_back(v);
  }

  if (eigenvalues_.empty())
    return std::vector<double>(n, 0.0);  // degenerate data

  // Residual eigenvalue scale for normalizing the reconstruction error.
  double captured = 0.0;
  for (double lambda : eigenvalues_) captured += lambda;
  double lambda_res =
      std::max((trace_total - captured) /
                   std::max<double>(1.0, static_cast<double>(n - eigenvalues_.size())),
               1e-9 * std::max(trace_total, 1.0));

  std::vector<double> scores(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Projection of point i onto kernel PC j is sqrt(lambda_j) * u_j[i].
    // With an RBF kernel every sufficiently-far point is near-ORTHOGONAL
    // to the data's principal subspace, so the discriminative quantity is
    // the feature-space reconstruction error (residual), normalized by
    // the regularized residual eigenvalue — the ridge-regularized tail of
    // Roth's OC-KFD Mahalanobis distance, whose leading terms are O(1)
    // for normal and outlying points alike and therefore omitted.
    double captured_norm2 = 0.0;
    for (std::size_t j = 0; j < eigenvalues_.size(); ++j) {
      double u = vectors[j][i];
      captured_norm2 += eigenvalues_[j] * u * u;
    }
    double residual = std::max(kc_diag[i] - captured_norm2, 0.0);
    scores[i] = -std::sqrt(residual / lambda_res);
  }
  return scores;
}

}  // namespace sent::ml
