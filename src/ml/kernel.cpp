#include "ml/kernel.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/assert.hpp"
#include "util/stats.hpp"

namespace sent::ml {

std::string KernelSpec::to_string() const {
  std::ostringstream os;
  switch (type) {
    case KernelType::Rbf:
      os << "rbf(gamma=" << (gamma > 0 ? std::to_string(gamma) : "auto")
         << ")";
      break;
    case KernelType::Linear:
      os << "linear";
      break;
    case KernelType::Poly:
      os << "poly(degree=" << degree << ")";
      break;
  }
  return os.str();
}

double resolve_gamma(const KernelSpec& spec, std::size_t d) {
  SENT_REQUIRE(d > 0);
  if (spec.gamma > 0) return spec.gamma;
  return 1.0 / static_cast<double>(d);
}

double powi(double base, int exponent) {
  if (exponent < 0) return std::pow(base, exponent);
  double result = 1.0;
  double square = base;
  for (int e = exponent; e > 0; e >>= 1) {
    if (e & 1) result *= square;
    square *= square;
  }
  return result;
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
    case KernelType::Poly:
      return powi(gamma * util::dot(a, b) + spec.coef0, spec.degree);
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
    case KernelType::Poly:
      return powi(gamma * dot_ab + spec.coef0, spec.degree);
  }
  SENT_ASSERT_MSG(false, "unknown kernel type");
  return 0.0;
}

}  // namespace sent::ml
