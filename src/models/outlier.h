// Unsupervised anomaly classifier — the paper's Section V extension:
//
//   "We plan to extend PREPARE to handle unseen anomalies by developing
//    unsupervised anomaly prediction models" (clustering / outlier
//    detection).
//
// This implementation keeps the TAN machinery but drops the class node:
// a Chow-Liu tree (unconditional mutual information, models/chow_liu.h)
// is fitted to the training data as a tree-structured density model
// P(a_1..a_n), and a sample is classified abnormal when its surprisal
// -log P exceeds a quantile threshold calibrated on the training data
// itself. Labels, if
// present in the dataset, are ignored — the model detects anomalies it
// has never seen, at the cost of not knowing what "this kind of
// abnormal" looks like.
//
// Attribution comes for free: each attribute contributes its local
// surprisal -log P(a_i | a_pi); the impact L_i reported is the excess of
// that surprisal over its training mean, so rarely-seen values of an
// attribute rank it high — compatible with the actuator's ranking.
#pragma once

#include <cstddef>
#include <vector>

#include "common/analyze_annotations.h"
#include "models/chow_liu.h"
#include "models/classifier.h"

namespace prepare {

class OutlierClassifier : public Classifier {
 public:
  /// `threshold_quantile` calibrates the decision boundary: a sample is
  /// abnormal when its surprisal exceeds this quantile of the training
  /// surprisals times `threshold_margin` (headroom for the quantile
  /// estimate from a finite normal sample). `alpha` is the Laplace
  /// smoothing pseudo-count.
  explicit OutlierClassifier(double threshold_quantile = 0.995,
                             double alpha = 1.0,
                             double threshold_margin = 1.25);

  /// Trains the density model. Labels in `data` are IGNORED (the whole
  /// point); pass everything observed during normal operation.
  void train(const LabeledDataset& data) override;
  bool trained() const override { return trained_; }

  /// Allocation-free like TanClassifier's overrides: the
  /// kOutlier configuration takes the same per-tick prediction path.
  PREPARE_HOT void classify_into(const std::vector<std::size_t>& row,
                                 Classification* out) const override;
  PREPARE_HOT void classify_expected_into(const std::vector<Distribution>& dists,
                                          Classification* out) const override;

  /// Total surprisal -log P(row) under the tree density.
  double surprisal(const std::vector<std::size_t>& row) const;
  double threshold() const { return threshold_; }
  static constexpr std::size_t kNoParent = ChowLiuTree::kNoParent;
  const std::vector<std::size_t>& parents() const { return parents_; }

 private:
  /// -log P(a_i = v | parent value).
  double local_surprisal(std::size_t attribute, std::size_t value,
                         std::size_t parent_value) const;

  double threshold_quantile_;
  double alpha_;
  double threshold_margin_;
  bool trained_ = false;
  std::vector<std::size_t> alphabet_;
  std::vector<std::size_t> parents_;
  /// table_[i]: alphabet[pi] x alphabet[i] counts (1 row for the root).
  std::vector<std::vector<double>> table_;
  /// Mean local surprisal per attribute on the training data (baseline
  /// for the impact scores).
  std::vector<double> baseline_;
  double threshold_ = 0.0;
};

}  // namespace prepare
