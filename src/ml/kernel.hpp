// Kernel functions for the one-class SVM.
//
// The RBF kernel is the paper's workhorse ("the kernel method can be
// seamlessly applied ... it can find a nonlinear boundary"), with
// gamma = 1 / dimensionality; the linear kernel is provided for ablation.
//
// build_kernel_matrix is the one Gram-matrix builder (DESIGN.md §10). It
// caches per-row squared norms so RBF entries come from one dot product —
// K(i,j) = exp(-gamma (|xi|^2 + |xj|^2 - 2 <xi,xj>)) — and walks the upper
// triangle in cache-sized tiles, fanning tile-rows across an optional
// thread pool. kernel_eval computes one entry directly from the two rows;
// it is compiled with the project's default flags, and the per-element
// Gram that ml_test and micro_perf build from it is the yardstick the
// blocked build is checked and timed against.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ml/matrix.hpp"

namespace sent::util {
class ThreadPool;
}

namespace sent::ml {

enum class KernelType : std::uint8_t { Rbf, Linear };

struct KernelSpec {
  KernelType type = KernelType::Rbf;

  std::string to_string() const;
};

/// Evaluate k(a, b) with `gamma` from resolve_gamma (ignored by linear).
double kernel_eval(const KernelSpec& spec, double gamma,
                   std::span<const double> a, std::span<const double> b);

/// The RBF gamma for dimensionality d: 1 / d (sensible after
/// standardization, matching LIBSVM's default on scaled data).
double resolve_gamma(std::size_t d);

/// Squared Euclidean norm of every row of `x`.
std::vector<double> row_squared_norms(const Matrix& x);

/// Finish one kernel entry from a precomputed dot product and the two
/// rows' squared norms (RBF uses the norms; linear ignores them).
double kernel_from_dot(const KernelSpec& spec, double gamma, double dot_ab,
                       double norm_a, double norm_b);

/// Dense symmetric l x l Gram matrix of `x` into `out` (resized), via the
/// norm-cached blocked triangular build. `pool` may be nullptr (inline).
void build_kernel_matrix(const KernelSpec& spec, double gamma,
                         const Matrix& x, util::ThreadPool* pool,
                         std::vector<double>& out);

}  // namespace sent::ml
