#include "models/tan.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace prepare {

TanClassifier::TanClassifier(double alpha, Structure structure)
    : alpha_(alpha), structure_(structure) {
  PREPARE_CHECK(alpha > 0.0);
}

void TanClassifier::train(const LabeledDataset& data) {
  PREPARE_CHECK_MSG(!data.rows.empty(), "empty training set");
  PREPARE_CHECK(data.rows.size() == data.abnormal.size());
  PREPARE_CHECK(data.attributes() >= 1);
  data.validate();
  alphabet_ = data.alphabet;
  if (structure_ == Structure::kTree) {
    ChowLiuTree tree =
        learn_chow_liu_tree(data, alpha_, /*class_conditional=*/true);
    parents_ = std::move(tree.parents);
    cmi_ = std::move(tree.weights);
  } else {
    parents_.assign(data.attributes(), kNoParent);
  }
  for (int c = 0; c < 2; ++c) {
    cpt_[c] = count_parent_tables(data, parents_, c == 1);
    class_counts_[c] = static_cast<double>(
        std::count(data.abnormal.begin(), data.abnormal.end(), c == 1));
  }
  trained_ = true;
  build_impact_tables();
}

Probability TanClassifier::likelihood(std::size_t attribute, BinIndex value,
                                      BinIndex parent_value,
                                      bool abnormal) const {
  PREPARE_CHECK(trained_);
  PREPARE_CHECK(attribute < alphabet_.size());
  PREPARE_CHECK(value.value() < alphabet_[attribute]);
  const int c = abnormal ? 1 : 0;
  const std::size_t pv =
      parents_[attribute] == kNoParent ? 0 : parent_value.value();
  const std::size_t k = alphabet_[attribute];
  const auto& table = cpt_[c][attribute];
  const std::size_t base = pv * k;
  PREPARE_CHECK(base + k <= table.size());
  double row_total = 0.0;
  for (std::size_t v = 0; v < k; ++v) row_total += table[base + v];
  return Probability{(table[base + value.value()] + alpha_) /
                     (row_total + alpha_ * static_cast<double>(k))};
}

Probability TanClassifier::prior(bool abnormal) const {
  PREPARE_CHECK(trained_);
  const int c = abnormal ? 1 : 0;
  const double total = class_counts_[0] + class_counts_[1];
  const double p = (class_counts_[c] + alpha_) / (total + 2.0 * alpha_);
  PREPARE_DCHECK(p > 0.0 && p < 1.0) << "degenerate class prior " << p;
  return Probability{p};
}

double TanClassifier::conditional_mutual_information(std::size_t i,
                                                     std::size_t j) const {
  PREPARE_CHECK(trained_);
  PREPARE_CHECK(i < cmi_.size() && j < cmi_.size());
  return cmi_[i][j];
}

void TanClassifier::build_impact_tables() {
  // Train-time precomputation of every runtime log. The primary form is
  // exactly the expression the classify path used to evaluate per call —
  // log(likelihood_true / likelihood_false) on the smoothed CPT rows —
  // so table lookups are bit-identical to the old on-the-fly scores.
  // When that ratio is non-finite (alpha so small the smoothed
  // probability underflows to 0, giving 0/0 or 0/x), the cell is rebuilt
  // as a difference of log-likelihoods computed from raw counts, which
  // stays finite for any alpha > 0.
  log_prior_odds_ = std::log(prior(true) / prior(false));
  PREPARE_DCHECK(std::isfinite(log_prior_odds_))
      << "non-finite class prior log-odds " << log_prior_odds_;
  const std::size_t n = alphabet_.size();
  impact_table_.assign(n, {});
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t k = alphabet_[i];
    const std::size_t rows = parents_[i] == kNoParent ? 1 : alphabet_[parents_[i]];
    impact_table_[i].assign(rows * k, 0.0);
    for (std::size_t pv = 0; pv < rows; ++pv) {
      std::array<double, 2> row_total = {0.0, 0.0};
      for (int c = 0; c < 2; ++c)
        for (std::size_t v = 0; v < k; ++v)
          row_total[c] += cpt_[c][i][pv * k + v];
      for (std::size_t v = 0; v < k; ++v) {
        const BinIndex vi{v}, pvi{pv};
        double cell = std::log(likelihood(i, vi, pvi, true) /
                               likelihood(i, vi, pvi, false));
        if (!std::isfinite(cell)) {
          const double denom_k = alpha_ * static_cast<double>(k);
          cell = (std::log(cpt_[1][i][pv * k + v] + alpha_) -
                  std::log(row_total[1] + denom_k)) -
                 (std::log(cpt_[0][i][pv * k + v] + alpha_) -
                  std::log(row_total[0] + denom_k));
        }
        PREPARE_DCHECK(std::isfinite(cell))
            << "non-finite impact for attribute " << i << " value " << v
            << " parent value " << pv;
        impact_table_[i][pv * k + v] = cell;
      }
    }
  }
}

void TanClassifier::classify_into(const std::vector<std::size_t>& row,
                                  Classification* out) const {
  PREPARE_CHECK(trained_);
  PREPARE_CHECK(row.size() == alphabet_.size());
  PREPARE_CHECK(out != nullptr);
  // prepare-analyze: allow(hot-alloc): capacity-steady impacts reuse
  out->impacts.resize(row.size());
  out->score = LogOdds{log_prior_odds_};
  for (std::size_t i = 0; i < row.size(); ++i) {
    PREPARE_DCHECK_LT(row[i], alphabet_[i]);
    const std::size_t pv =
        parents_[i] == kNoParent ? 0 : row[parents_[i]];
    out->impacts[i] = log_impact(i, row[i], pv);
    out->score += out->impacts[i];
  }
  PREPARE_DCHECK(std::isfinite(out->score.value()))
      << "non-finite classification score " << out->score.value();
  out->abnormal = out->score > 0.0;
}

LogOdds TanClassifier::score(const std::vector<std::size_t>& row) const {
  PREPARE_CHECK(trained_);
  PREPARE_CHECK(row.size() == alphabet_.size());
  // Same table walk as classify(), minus the impact vector — the score
  // is bit-identical, with no allocation.
  LogOdds score{log_prior_odds_};
  for (std::size_t i = 0; i < row.size(); ++i) {
    PREPARE_DCHECK_LT(row[i], alphabet_[i]);
    const std::size_t pv = parents_[i] == kNoParent ? 0 : row[parents_[i]];
    score += log_impact(i, row[i], pv);
  }
  PREPARE_DCHECK(std::isfinite(score.value()))
      << "non-finite classification score " << score.value();
  return score;
}

Classifier::CptStats TanClassifier::cpt_stats() const {
  PREPARE_CHECK(trained_);
  CptStats stats;
  double support_sum = 0.0;
  std::size_t cells = 0;
  bool first = true;
  for (int c = 0; c < 2; ++c) {
    for (const std::vector<double>& table : cpt_[c]) {
      for (double count : table) {
        if (first) {
          stats.support_min = count;
          first = false;
        } else {
          stats.support_min = std::min(stats.support_min, count);
        }
        support_sum += count;
        ++cells;
      }
    }
  }
  if (cells > 0) stats.support_mean = support_sum / static_cast<double>(cells);
  double lo = 0.0;
  double hi = 0.0;
  bool first_cell = true;
  for (const std::vector<double>& table : impact_table_) {
    for (double cell : table) {
      if (first_cell) {
        lo = hi = cell;
        first_cell = false;
      } else {
        lo = std::min(lo, cell);
        hi = std::max(hi, cell);
      }
    }
  }
  stats.log_odds_spread = hi - lo;
  return stats;
}

void TanClassifier::classify_expected_into(
    const std::vector<Distribution>& dists, Classification* out) const {
  PREPARE_CHECK(trained_);
  PREPARE_CHECK(dists.size() == alphabet_.size());
  PREPARE_CHECK(out != nullptr);
  // prepare-analyze: allow(hot-alloc): capacity-steady impacts reuse
  out->impacts.resize(dists.size());
  out->score = LogOdds{log_prior_odds_};
  for (std::size_t i = 0; i < dists.size(); ++i) {
    PREPARE_CHECK_EQ(dists[i].size(), alphabet_[i])
        << "predicted distribution for attribute " << i
        << " does not match its alphabet";
    PREPARE_DCHECK(dists[i].is_normalized(1e-6))
        << "attribute " << i << " distribution sums to " << dists[i].sum();
    double e = 0.0;
    if (parents_[i] == kNoParent) {
      for (std::size_t v = 0; v < alphabet_[i]; ++v)
        if (dists[i][v] > 0.0) e += dists[i][v] * log_impact(i, v, 0);
    } else {
      // Expectation over the child's predicted distribution with the
      // parent pinned at its most likely predicted value. A full
      // independent product would put mass on (child, parent) pairs that
      // never co-occur — correlated attributes like free_mem/mem_util
      // would then cancel their own evidence.
      const std::size_t pv = dists[parents_[i]].mode();
      for (std::size_t v = 0; v < alphabet_[i]; ++v)
        if (dists[i][v] > 0.0) e += dists[i][v] * log_impact(i, v, pv);
    }
    out->impacts[i] = e;
    out->score += e;
  }
  PREPARE_DCHECK(std::isfinite(out->score.value()))
      << "non-finite expected-classification score " << out->score.value();
  out->abnormal = out->score > 0.0;
}

}  // namespace prepare
