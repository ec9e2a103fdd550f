// Symmetric eigendecomposition via the cyclic Jacobi method.
//
// Dimensionalities here are small (feature columns, a few hundred at
// most), where Jacobi is simple, robust, and plenty fast. Shared by the
// PCA and Mahalanobis detectors.
#pragma once

#include <cstddef>
#include <vector>

#include "ml/matrix.hpp"

namespace sent::ml {

/// Dense row-major symmetric matrix.
struct SymmetricEigen {
  std::vector<double> values;               ///< descending
  std::vector<std::vector<double>> vectors; ///< vectors[k] pairs values[k]
};

/// Decompose the n x n symmetric matrix `a` (row-major, only assumed
/// symmetric). Throws on non-square input.
SymmetricEigen symmetric_eigen(const std::vector<double>& a, std::size_t n,
                               double tol = 1e-12,
                               std::size_t max_sweeps = 64);

/// Covariance matrix (row-major, d x d) of centred data; uses the biased
/// (1/n) normalizer.
std::vector<double> covariance_matrix(const Matrix& rows);

}  // namespace sent::ml
