#include "ml/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ml/scaler.hpp"
#include "util/assert.hpp"

namespace sent::ml {

SymmetricEigen symmetric_eigen(const std::vector<double>& a, std::size_t n,
                               double tol, std::size_t max_sweeps) {
  SENT_REQUIRE(n > 0);
  SENT_REQUIRE(a.size() == n * n);
  std::vector<double> m = a;  // working copy, driven to diagonal
  // v: accumulated rotations, starts as identity; v[i*n+k] is component i
  // of eigenvector k.
  std::vector<double> v(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) v[i * n + i] = 1.0;

  auto off_diagonal_norm = [&] {
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j) s += m[i * n + j] * m[i * n + j];
    return std::sqrt(s);
  };

  for (std::size_t sweep = 0; sweep < max_sweeps; ++sweep) {
    if (off_diagonal_norm() <= tol) break;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        double apq = m[p * n + q];
        if (std::abs(apq) <= tol) continue;
        double app = m[p * n + p], aqq = m[q * n + q];
        double theta = (aqq - app) / (2.0 * apq);
        double t = (theta >= 0 ? 1.0 : -1.0) /
                   (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        double cos_r = 1.0 / std::sqrt(t * t + 1.0);
        double sin_r = t * cos_r;
        // Rotate rows/cols p and q of m.
        for (std::size_t k = 0; k < n; ++k) {
          double mkp = m[k * n + p], mkq = m[k * n + q];
          m[k * n + p] = cos_r * mkp - sin_r * mkq;
          m[k * n + q] = sin_r * mkp + cos_r * mkq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          double mpk = m[p * n + k], mqk = m[q * n + k];
          m[p * n + k] = cos_r * mpk - sin_r * mqk;
          m[q * n + k] = sin_r * mpk + cos_r * mqk;
        }
        // Accumulate into v.
        for (std::size_t k = 0; k < n; ++k) {
          double vkp = v[k * n + p], vkq = v[k * n + q];
          v[k * n + p] = cos_r * vkp - sin_r * vkq;
          v[k * n + q] = sin_r * vkp + cos_r * vkq;
        }
      }
    }
  }

  // Collect and sort descending by eigenvalue.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return m[x * n + x] > m[y * n + y];
  });
  SymmetricEigen result;
  result.values.reserve(n);
  result.vectors.reserve(n);
  for (std::size_t k : order) {
    result.values.push_back(m[k * n + k]);
    std::vector<double> vec(n);
    for (std::size_t i = 0; i < n; ++i) vec[i] = v[i * n + k];
    result.vectors.push_back(std::move(vec));
  }
  return result;
}

std::vector<double> covariance_matrix(const Matrix& rows) {
  std::size_t d = check_matrix(rows);
  auto n = static_cast<double>(rows.rows());
  std::vector<double> mean(d, 0.0);
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    std::span<const double> row = rows.row(r);
    for (std::size_t j = 0; j < d; ++j) mean[j] += row[j];
  }
  for (double& m : mean) m /= n;
  std::vector<double> cov(d * d, 0.0);
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    std::span<const double> row = rows.row(r);
    for (std::size_t i = 0; i < d; ++i) {
      double di = row[i] - mean[i];
      for (std::size_t j = i; j < d; ++j)
        cov[i * d + j] += di * (row[j] - mean[j]);
    }
  }
  for (std::size_t i = 0; i < d; ++i)
    for (std::size_t j = i; j < d; ++j) {
      cov[i * d + j] /= n;
      cov[j * d + i] = cov[i * d + j];
    }
  return cov;
}

}  // namespace sent::ml
