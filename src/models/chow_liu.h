// Chow–Liu tree learning, shared by the TAN classifier and the
// unsupervised outlier detector.
//
// Both models fit a tree over the attributes: compute the Laplace-
// smoothed mutual information of every attribute pair, take the
// maximum-weight spanning tree (Prim), and orient it from attribute 0 —
// each attribute then has at most one attribute parent. TAN weighs the
// pair by the class-conditional I(A_i; A_j | C) (Friedman's
// construction); the outlier detector by the plain I(A_i; A_j) of its
// unlabeled density model.
#pragma once

#include <cstddef>
#include <vector>

#include "models/dataset.h"

namespace prepare {

struct ChowLiuTree {
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  /// parents[i] = attribute i's attribute-parent, or kNoParent for the
  /// root (attribute 0).
  std::vector<std::size_t> parents;
  /// Symmetric pairwise edge weights (zero diagonal).
  std::vector<std::vector<double>> weights;
};

/// Learns the tree from `data` (already validate()d) with pseudo-count
/// `alpha` per joint cell. With `class_conditional`, a pair weighs
/// sum_c P(c) * max(0, I(A_i; A_j | C = c)) with the smoothed class prior
/// P(c) = (n_c + alpha) / (N + 2 alpha); otherwise it weighs
/// max(0, I(A_i; A_j)) over all rows and the labels are never read.
ChowLiuTree learn_chow_liu_tree(const LabeledDataset& data, double alpha,
                                bool class_conditional);

}  // namespace prepare
