#include "models/chow_liu.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace prepare {

ChowLiuTree learn_chow_liu_tree(const LabeledDataset& data, double alpha,
                                bool class_conditional) {
  const std::size_t n = data.attributes();
  const std::size_t classes = class_conditional ? 2 : 1;
  std::array<double, 2> class_weight = {1.0, 1.0};
  for (std::size_t c = 0; class_conditional && c < 2; ++c) {
    const double n_c = static_cast<double>(
        std::count(data.abnormal.begin(), data.abnormal.end(), c == 1));
    class_weight[c] =
        (n_c + alpha) / (static_cast<double>(data.size()) + 2.0 * alpha);
  }

  // Smoothed joint and marginal counts, class-major (class c's cells
  // follow class c-1's), filled in a single pass over the rows. The
  // buffers live outside the pair loop so each pair reuses one
  // allocation.
  ChowLiuTree tree;
  tree.weights.assign(n, std::vector<double>(n, 0.0));
  std::vector<double> joint, margin_i, margin_j;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const std::size_t ki = data.alphabet[i], kj = data.alphabet[j];
      joint.assign(classes * ki * kj, alpha);
      margin_i.assign(classes * ki, alpha * static_cast<double>(kj));
      margin_j.assign(classes * kj, alpha * static_cast<double>(ki));
      const double smoothing = alpha * static_cast<double>(ki * kj);
      std::array<double, 2> total = {smoothing, smoothing};
      for (std::size_t r = 0; r < data.rows.size(); ++r) {
        const std::size_t c = class_conditional && data.abnormal[r] ? 1 : 0;
        const std::size_t vi = data.rows[r][i], vj = data.rows[r][j];
        joint[(c * ki + vi) * kj + vj] += 1.0;
        margin_i[c * ki + vi] += 1.0;
        margin_j[c * kj + vj] += 1.0;
        total[c] += 1.0;
      }
      double info = 0.0;
      for (std::size_t c = 0; c < classes; ++c) {
        double info_c = 0.0;
        for (std::size_t vi = 0; vi < ki; ++vi) {
          for (std::size_t vj = 0; vj < kj; ++vj) {
            const double p_joint = joint[(c * ki + vi) * kj + vj] / total[c];
            const double p_i = margin_i[c * ki + vi] / total[c];
            const double p_j = margin_j[c * kj + vj] / total[c];
            if (p_joint > 0.0)
              info_c += p_joint * std::log(p_joint / (p_i * p_j));
          }
        }
        info += class_weight[c] * std::max(0.0, info_c);
      }
      tree.weights[i][j] = tree.weights[j][i] = info;
    }
  }

  // Maximum-weight spanning tree (Prim), rooted at attribute 0; the
  // traversal order fixes edge orientation: parent = the tree vertex
  // through which a vertex was attached.
  tree.parents.assign(n, ChowLiuTree::kNoParent);
  if (n <= 1) return tree;
  std::vector<bool> in_tree(n, false);
  std::vector<double> best_weight(n, -1.0);
  std::vector<std::size_t> best_from(n, ChowLiuTree::kNoParent);
  in_tree[0] = true;
  for (std::size_t j = 1; j < n; ++j) {
    best_weight[j] = tree.weights[0][j];
    best_from[j] = 0;
  }
  for (std::size_t added = 1; added < n; ++added) {
    std::size_t pick = ChowLiuTree::kNoParent;
    double pick_weight = -std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < n; ++j) {
      if (in_tree[j]) continue;
      if (best_weight[j] > pick_weight) {
        pick_weight = best_weight[j];
        pick = j;
      }
    }
    PREPARE_DCHECK(pick != ChowLiuTree::kNoParent);
    in_tree[pick] = true;
    tree.parents[pick] = best_from[pick];
    for (std::size_t j = 0; j < n; ++j) {
      if (in_tree[j]) continue;
      if (tree.weights[pick][j] > best_weight[j]) {
        best_weight[j] = tree.weights[pick][j];
        best_from[j] = pick;
      }
    }
  }
  return tree;
}

}  // namespace prepare
