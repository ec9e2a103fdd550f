// Per-dimension standardization (zero mean, unit variance).
//
// Instruction counters have wildly different magnitudes per column (a hot
// loop instruction vs a rare branch); every kernel/distance-based detector
// here standardizes first. Zero-variance columns are left centred with
// scale 1 so constant instructions contribute nothing.
//
// The API operates on the flat ml::Matrix; the row-vector fit() overload
// is a thin adapter.
#pragma once

#include <span>
#include <vector>

#include "ml/matrix.hpp"

namespace sent::ml {

class StandardScaler {
 public:
  void fit(const Matrix& rows);
  void fit(const std::vector<std::vector<double>>& rows) {
    fit(Matrix::from_rows(rows));
  }

  /// Standardize one row into `out` (both must have the fitted width).
  void transform_row(std::span<const double> in, std::span<double> out) const;

  Matrix transform(const Matrix& rows) const;

  bool fitted() const { return !mean_.empty(); }
  const std::vector<double>& mean() const { return mean_; }
  const std::vector<double>& scale() const { return scale_; }

 private:
  std::vector<double> mean_;
  std::vector<double> scale_;
};

}  // namespace sent::ml
