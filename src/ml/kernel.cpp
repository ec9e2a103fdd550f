#include "ml/kernel.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"
#include "util/stats.hpp"

namespace sent::ml {

std::string KernelSpec::to_string() const {
  return type == KernelType::Rbf ? "rbf(gamma=auto)" : "linear";
}

double resolve_gamma(std::size_t d) {
  SENT_REQUIRE(d > 0);
  return 1.0 / static_cast<double>(d);
}

double kernel_eval(const KernelSpec& spec, double gamma,
                   std::span<const double> a, std::span<const double> b) {
  SENT_REQUIRE(a.size() == b.size());
  switch (spec.type) {
    case KernelType::Rbf: {
      double d2 = 0.0;
      for (std::size_t i = 0; i < a.size(); ++i) {
        double diff = a[i] - b[i];
        d2 += diff * diff;
      }
      return std::exp(-gamma * d2);
    }
    case KernelType::Linear:
      return util::dot(a, b);
  }
  SENT_ASSERT_MSG(false, "unknown kernel type");
  return 0.0;
}

std::vector<double> row_squared_norms(const Matrix& x) {
  std::vector<double> norms(x.rows());
  const std::size_t d = x.cols();
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const double* xi = x.data() + i * d;
    double n = 0.0;
    for (std::size_t t = 0; t < d; ++t) n += xi[t] * xi[t];
    norms[i] = n;
  }
  return norms;
}

double kernel_from_dot(const KernelSpec& spec, double gamma, double dot_ab,
                       double norm_a, double norm_b) {
  switch (spec.type) {
    case KernelType::Rbf:
      // |a-b|^2 = |a|^2 + |b|^2 - 2<a,b>; clamp the cancellation residue
      // so near-duplicate rows cannot produce a (tiny) negative distance.
      return std::exp(-gamma *
                      std::max(norm_a + norm_b - 2.0 * dot_ab, 0.0));
    case KernelType::Linear:
      return dot_ab;
  }
  SENT_ASSERT_MSG(false, "unknown kernel type");
  return 0.0;
}

}  // namespace sent::ml
