#include "models/chow_liu.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>

#include "common/check.h"

namespace prepare {

ChowLiuTree learn_chow_liu_tree(const LabeledDataset& data, double alpha,
                                bool class_conditional) {
  const std::size_t n = data.attributes();
  const std::size_t rows = data.size();
  for (std::size_t i = 0; i < n; ++i)
    PREPARE_CHECK_LE(data.alphabet[i], std::size_t{1} << 16)
        << "attribute " << i << " has alphabet " << data.alphabet[i]
        << ", too large for a 16-bit symbol column";
  const std::size_t classes = class_conditional ? 2 : 1;
  std::array<double, 2> class_weight = {1.0, 1.0};
  for (std::size_t c = 0; class_conditional && c < 2; ++c) {
    const double n_c = static_cast<double>(
        std::count(data.abnormal.begin(), data.abnormal.end(), c == 1));
    class_weight[c] =
        (n_c + alpha) / (static_cast<double>(rows) + 2.0 * alpha);
  }

  // Attribute-major symbol columns and one class byte per row, so each
  // pair pass streams two contiguous arrays; each attribute's per-class
  // marginal counts (class-major) are taken once, not once per pair.
  std::vector<std::uint16_t> column(n * rows);
  std::vector<std::uint8_t> row_class(rows);
  std::vector<std::size_t> margin_at(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i)
    margin_at[i + 1] = margin_at[i] + classes * data.alphabet[i];
  std::vector<std::uint32_t> margin(margin_at[n], 0);
  std::array<std::uint32_t, 2> class_rows = {0, 0};
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t c = class_conditional && data.abnormal[r] ? 1 : 0;
    row_class[r] = static_cast<std::uint8_t>(c);
    ++class_rows[c];
    for (std::size_t i = 0; i < n; ++i) {
      column[i * rows + r] = static_cast<std::uint16_t>(data.rows[r][i]);
      ++margin[margin_at[i] + c * data.alphabet[i] + data.rows[r][i]];
    }
  }

  // Every smoothed count is a pseudo-count alpha * m (m = 1 for a joint
  // cell, the partner's alphabet for a marginal, ki * kj for a class
  // total) plus k rows, summed as s + 1.0 + ... + 1.0; for non-dyadic
  // alpha that is not always s + k. ladder(m)[k] holds that sum, built
  // on first use of m.
  std::map<std::size_t, std::vector<double>> ladders;
  const auto ladder = [&](std::size_t m) -> const std::vector<double>& {
    auto [it, fresh] = ladders.try_emplace(m, rows + 1);
    if (fresh) {
      it->second[0] = alpha * static_cast<double>(m);
      for (std::size_t k = 0; k < rows; ++k)
        it->second[k + 1] = it->second[k] + 1.0;
    }
    return it->second;
  };

  ChowLiuTree tree;
  tree.weights.assign(n, std::vector<double>(n, 0.0));
  std::vector<std::uint32_t> joint;
  std::vector<double> p_j;
  const std::vector<double>& cell = ladder(1);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint16_t* col_i = &column[i * rows];
    for (std::size_t j = i + 1; j < n; ++j) {
      const std::uint16_t* col_j = &column[j * rows];
      const std::size_t ki = data.alphabet[i], kj = data.alphabet[j];
      const std::vector<double>& margin_i = ladder(kj);
      const std::vector<double>& margin_j = ladder(ki);
      const std::vector<double>& total = ladder(ki * kj);
      joint.assign(classes * ki * kj, 0);
      for (std::size_t r = 0; r < rows; ++r)
        ++joint[(row_class[r] * ki + col_i[r]) * kj + col_j[r]];
      p_j.resize(kj);
      double info = 0.0;
      for (std::size_t c = 0; c < classes; ++c) {
        const double total_c = total[class_rows[c]];
        for (std::size_t vj = 0; vj < kj; ++vj)
          p_j[vj] = margin_j[margin[margin_at[j] + c * kj + vj]] / total_c;
        double info_c = 0.0;
        for (std::size_t vi = 0; vi < ki; ++vi) {
          const double p_i =
              margin_i[margin[margin_at[i] + c * ki + vi]] / total_c;
          for (std::size_t vj = 0; vj < kj; ++vj) {
            const double p_joint =
                cell[joint[(c * ki + vi) * kj + vj]] / total_c;
            if (p_joint > 0.0)
              info_c += p_joint * std::log(p_joint / (p_i * p_j[vj]));
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

std::vector<std::vector<double>> count_parent_tables(
    const LabeledDataset& data, const std::vector<std::size_t>& parents,
    std::optional<bool> label) {
  const std::size_t n = data.attributes();
  std::vector<std::vector<double>> tables(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t p = parents[i];
    const std::size_t k = p == ChowLiuTree::kNoParent ? 1 : data.alphabet[p];
    tables[i].assign(k * data.alphabet[i], 0.0);
  }
  for (std::size_t r = 0; r < data.size(); ++r) {
    if (label && data.abnormal[r] != *label) continue;
    const auto& row = data.rows[r];
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t pv =
          parents[i] == ChowLiuTree::kNoParent ? 0 : row[parents[i]];
      tables[i][pv * data.alphabet[i] + row[i]] += 1.0;
    }
  }
  return tables;
}

}  // namespace prepare
