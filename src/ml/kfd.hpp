// One-class Kernel Fisher Discriminant detector — the second alternative
// the paper names in §VI-E ("such as Principal Component Analysis and
// one-class Kernel Fisher Discriminants").
//
// Following Roth's kernelized-Gaussian view of OC-KFD: model the data as a
// Gaussian in the kernel-induced feature space, estimated through kernel
// PCA on the centred Gram matrix. A point's outlier score combines its
// variance-normalized distance inside the leading kernel principal
// subspace (the Fisher/Mahalanobis term) with its feature-space
// reconstruction error outside it. Eigenpairs of the centred Gram matrix
// are extracted by power iteration with deflation, which is exact enough
// for the handful of leading components the model needs and avoids a full
// O(n^3) decomposition on thousand-sample Gram matrices.
#pragma once

#include "core/detector.hpp"
#include "ml/kernel.hpp"

namespace sent::ml {

struct KfdParams {
  KernelSpec kernel{};          ///< RBF by default
  std::size_t components = 8;   ///< leading kernel principal components
  std::size_t power_iterations = 120;
};

class KernelFisherDetector final : public core::OutlierDetector {
 public:
  explicit KernelFisherDetector(KfdParams params = {});

  std::string name() const override { return "oc-kfd"; }

  std::vector<double> score(const ml::Matrix& rows) override;
  using core::OutlierDetector::score;

  /// Eigenvalues actually extracted on the last score() call (tests).
  const std::vector<double>& eigenvalues() const { return eigenvalues_; }

 private:
  KfdParams params_;
  std::vector<double> eigenvalues_;
};

}  // namespace sent::ml
