// One-class SVM (Schölkopf et al., "Estimating the support of a
// high-dimensional distribution", Neural Computation 13(7), 2001) — the
// paper's outlier detector, solved from scratch with an SMO algorithm (the
// same dual LIBSVM solves):
//
//     min_a  1/2 aᵀQa    s.t.  0 <= a_i <= 1/(nu*l),  sum a_i = 1
//
// with Q_ij = k(x_i, x_j). The decision function is
//
//     f(x) = sum_i a_i k(x_i, x) - rho,
//
// positive inside the estimated support (normal side), negative outside.
// nu upper-bounds the fraction of training points scored as outliers and
// lower-bounds the fraction of support vectors.
//
// Sentomist's intervals repeat a few feature rows many times, so the fit
// works on the U classes of bitwise-identical standardized rows: it
// standardizes and builds the Gram over one representative per class
// (memory O(U^2 + l)), and bitwise-identical rows get bitwise-identical
// scores. Second-order working-set selection (LIBSVM's WSS2) with
// shrinking keeps one dual variable per row and picks rows, but runs its
// gradient arithmetic once per class, bit for bit as a per-row solver
// would; convergence is only declared when the maximal KKT violation over
// the FULL variable set drops below tol (DESIGN.md §10). After fit the
// model is compacted to its support vectors, so decision_batch() scales
// with the SV count. The kernel build and
// decision_batch() run in parallel only on a pool the caller passes in
// (OcsvmParams::pool). Parity is checked against a naive oracle in
// tests/ocsvm_reference_test.cpp; tests/golden/ocsvm_digests.txt pins
// the detector's own answers.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/detector.hpp"
#include "ml/kernel.hpp"
#include "ml/matrix.hpp"
#include "ml/scaler.hpp"

namespace sent::util {
class ThreadPool;
}

namespace sent::ml {

struct OcsvmParams {
  double nu = 0.05;
  KernelSpec kernel{};
  /// KKT violation tolerance. Sentomist features are heavily duplicated
  /// (most intervals share identical instruction counts), which makes the
  /// dual near-degenerate: decision values of non-support rows land at the
  /// same magnitude as the solver residual. 1e-8 keeps those values above
  /// the convergence noise so ranking ties break on data, not solver path.
  /// Identical rows need no tolerance: they share one Gram row and score
  /// bit-identically, so they tie exactly and keep their index order.
  double tol = 1e-8;
  std::size_t max_iter = 200000;

  /// Borrowed pool that the kernel-matrix build and decision_batch() fan
  /// out across; null runs both inline. Every kernel entry and decision
  /// value is computed independently, so results are bit-identical with
  /// or without a pool, at any worker count.
  util::ThreadPool* pool = nullptr;
};

class OneClassSvm final : public core::OutlierDetector {
 public:
  explicit OneClassSvm(OcsvmParams params = {});

  std::string name() const override;

  /// Transductive use (as in the paper): fit on all intervals' features
  /// and score those same rows. Lower = more suspicious.
  std::vector<double> score(const ml::Matrix& rows) override;
  using core::OutlierDetector::score;

  // --- inductive API -----------------------------------------------------

  void fit(const Matrix& rows);
  void fit(const std::vector<std::vector<double>>& rows) {
    fit(Matrix::from_rows(rows));
  }
  bool fitted() const { return fitted_; }

  /// Signed distance f(x) of each row of a batch of new points (unscaled
  /// feature space). The batch is standardized once and rows fan out
  /// across params.pool when one is set (rows are independent, so the
  /// values do not depend on the pool).
  std::vector<double> decision_batch(const Matrix& rows) const;
  std::vector<double> decision_batch(
      const std::vector<std::vector<double>>& rows) const {
    return decision_batch(Matrix::from_rows(rows));
  }

  double rho() const { return rho_; }
  /// Dual variables after fit (one per training row; sums to 1).
  const std::vector<double>& alpha() const { return alpha_; }
  std::size_t support_vector_count() const;
  std::size_t iterations_used() const { return iterations_; }
  bool converged() const { return converged_; }

 private:
  OcsvmParams params_;
  StandardScaler scaler_;

  // Compact model: support vectors only.
  Matrix sv_x_;
  std::vector<double> sv_alpha_;
  std::vector<double> sv_norms_;

  std::vector<double> alpha_;
  std::vector<double> train_decision_;  ///< f(x_i) for the training rows
  double rho_ = 0.0;
  double gamma_ = 0.0;
  std::size_t dim_ = 0;
  std::size_t iterations_ = 0;
  bool converged_ = false;
  bool fitted_ = false;

  void solve(const std::vector<double>& k, std::size_t u,
             const std::vector<std::uint32_t>& cls);
  void smo(const std::vector<double>& k,
           const std::vector<std::uint32_t>& cls, double c,
           std::vector<double>& g);
  double decision_scaled(std::span<const double> z) const;
};

}  // namespace sent::ml
