#include "ml/scaler.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace sent::ml {

void StandardScaler::fit(const Matrix& rows) {
  std::size_t d = check_matrix(rows);
  auto n = static_cast<double>(rows.rows());
  mean_.assign(d, 0.0);
  scale_.assign(d, 1.0);
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    std::span<const double> row = rows.row(r);
    for (std::size_t j = 0; j < d; ++j) mean_[j] += row[j];
  }
  for (double& m : mean_) m /= n;
  std::vector<double> var(d, 0.0);
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    std::span<const double> row = rows.row(r);
    for (std::size_t j = 0; j < d; ++j) {
      double delta = row[j] - mean_[j];
      var[j] += delta * delta;
    }
  }
  for (std::size_t j = 0; j < d; ++j) {
    double s = std::sqrt(var[j] / n);
    scale_[j] = s > 1e-12 ? s : 1.0;
  }
}

void StandardScaler::transform_row(std::span<const double> in,
                                   std::span<double> out) const {
  SENT_REQUIRE(fitted());
  SENT_REQUIRE(in.size() == mean_.size() && out.size() == mean_.size());
  for (std::size_t j = 0; j < in.size(); ++j)
    out[j] = (in[j] - mean_[j]) / scale_[j];
}

Matrix StandardScaler::transform(const Matrix& rows) const {
  SENT_REQUIRE(fitted());
  SENT_REQUIRE(rows.cols() == mean_.size());
  Matrix out(rows.rows(), rows.cols());
  for (std::size_t r = 0; r < rows.rows(); ++r)
    transform_row(rows.row(r), out.row(r));
  return out;
}

}  // namespace sent::ml
