// Alternative outlier detectors pluggable into the Sentomist framework
// (paper §VI-E: "There are many other outlier detection algorithms ...
// such as Principal Component Analysis ... Sentomist can actually plug in
// these outlier detection algorithms conveniently. A further comparison
// study can be conducted" — that comparison is bench/ablation_detectors).
//
// All follow the core convention: LOWER score = MORE suspicious. Distance-
// like measures are negated so they rank the same way as the SVM's signed
// boundary distance. make_detector() is the one name -> detector table
// (the corpus sweep and the analyze_traces tool both read it).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "ml/matrix.hpp"
#include "ml/scaler.hpp"

namespace sent::ml {

/// PCA detector combining the two classic monitoring statistics: Hotelling
/// T^2 (variance-normalized deviation inside the principal subspace
/// capturing `explained` of the variance) and the SPE/Q residual
/// (off-subspace reconstruction error). score = -sqrt(T^2 + Q/lambda_res),
/// so both "far along the data directions" and "off the data subspace"
/// rank as outliers.
class PcaDetector final : public core::OutlierDetector {
 public:
  explicit PcaDetector(double explained = 0.95);
  std::string name() const override { return "pca"; }
  std::vector<double> score(const ml::Matrix& rows) override;
  using core::OutlierDetector::score;

  std::size_t components_used() const { return components_; }

 private:
  double explained_;
  std::size_t components_ = 0;
};

/// k-nearest-neighbour distance detector: score = -(mean distance to the
/// k nearest other points).
class KnnDetector final : public core::OutlierDetector {
 public:
  explicit KnnDetector(std::size_t k = 10);
  std::string name() const override { return "knn"; }
  std::vector<double> score(const ml::Matrix& rows) override;
  using core::OutlierDetector::score;

 private:
  std::size_t k_;
};

/// Local Outlier Factor (Breunig et al. 2000): score = -LOF_k(x).
class LofDetector final : public core::OutlierDetector {
 public:
  explicit LofDetector(std::size_t k = 10);
  std::string name() const override { return "lof"; }
  std::vector<double> score(const ml::Matrix& rows) override;
  using core::OutlierDetector::score;

 private:
  std::size_t k_;
};

/// Mahalanobis-distance detector with ridge-regularized covariance:
/// score = -sqrt((x-mu)' (Cov + eps I)^-1 (x-mu)).
class MahalanobisDetector final : public core::OutlierDetector {
 public:
  explicit MahalanobisDetector(double ridge = 1e-3);
  std::string name() const override { return "mahalanobis"; }
  std::vector<double> score(const ml::Matrix& rows) override;
  using core::OutlierDetector::score;

 private:
  double ridge_;
};

/// A detector by name, with default parameters: "ocsvm" (the one-class
/// SVM, RBF), "knn", "lof", "pca", "mahalanobis" or "kfd" (the one-class
/// kernel Fisher discriminant). nullptr for any other name.
std::shared_ptr<core::OutlierDetector> make_detector(
    const std::string& name);

}  // namespace sent::ml
