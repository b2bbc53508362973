// Anomaly classifier interface (normal vs. abnormal) with per-attribute
// impact attribution.
//
// The score is the log-odds of Eq. (1) in the paper: a sum of one term
// per attribute (L_i, Eq. (2)) plus the class-prior term; a positive sum
// classifies the state as abnormal, and larger L_i means attribute i is
// more relevant to the predicted anomaly (Fig. 3).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/analyze_annotations.h"
#include "common/units.h"
#include "models/dataset.h"
#include "models/distribution.h"

namespace prepare {

struct Classification {
  bool abnormal = false;
  /// Log-odds score of Eq. (1): prior term + sum of impacts. > 0 means
  /// abnormal. Strongly typed — reads out as double, but can only be
  /// (re)built explicitly from a log-odds computation.
  LogOdds score;
  /// Per-attribute impact strengths L_i (Eq. 2), each itself a
  /// log-odds; kept as raw doubles because they flow straight into
  /// expectation/sort arithmetic.
  std::vector<double> impacts;
};

class Classifier {
 public:
  /// Aggregate CPT statistics for model introspection
  /// (obs/model_introspect.h): how much raw evidence backs the weakest
  /// conditional-probability cell and how spread the precomputed
  /// log-odds impact tables are. A support_min near zero flags a
  /// classifier running on smoothing alone.
  struct CptStats {
    double support_min = 0.0;      ///< min raw count over CPT cells
    double support_mean = 0.0;     ///< mean raw count over CPT cells
    double log_odds_spread = 0.0;  ///< max - min over impact cells
  };

  virtual ~Classifier() = default;

  virtual void train(const LabeledDataset& data) = 0;
  virtual bool trained() const = 0;

  /// Classifies a concrete discretized sample.
  Classification classify(const std::vector<std::size_t>& row) const {
    Classification out;
    classify_into(row, &out);
    return out;
  }

  /// Same result as classify(), written into `out` (non-null) so the
  /// per-tick caller can reuse one impact vector instead of allocating a
  /// fresh Classification every round. Backends implement it
  /// allocation-free (out->impacts only grows on the first call) — it is
  /// the steady-state classification path the analyzer proves hot-clean.
  virtual void classify_into(const std::vector<std::size_t>& row,
                             Classification* out) const = 0;

  /// Classifies a *predicted* sample given per-attribute value
  /// distributions (assumed independent): each L_i is replaced by its
  /// expectation under the predicted distributions. This is how the
  /// anomaly predictor performs "classification over future data".
  Classification classify_expected(
      const std::vector<Distribution>& dists) const {
    Classification out;
    classify_expected_into(dists, &out);
    return out;
  }

  /// Same result as classify_expected(), written into `out` (non-null),
  /// allocation-free for the same reason as classify_into() — it is the
  /// expected-mode arm of the per-tick prediction path.
  virtual void classify_expected_into(const std::vector<Distribution>& dists,
                                      Classification* out) const = 0;

  /// Log-odds score alone (Eq. 1), without the per-attribute impact
  /// vector. The default forwards to classify(); TanClassifier
  /// overrides it allocation-free so the per-horizon calibration sweep
  /// can score every look-ahead step cheaply.
  virtual LogOdds score(const std::vector<std::size_t>& row) const {
    return classify(row).score;
  }

  /// CPT introspection snapshot. The default (classifiers without
  /// conditional-probability tables) reports an empty statistic.
  virtual CptStats cpt_stats() const { return CptStats(); }

  /// Whether the score decomposes exactly as prior_log_odds() plus the
  /// per-attribute impacts, accumulated left to right in attribute
  /// order. TanClassifier (Eq. 1) satisfies this bit-for-bit —
  /// the flight-recorder replay (core/replay.h) relies on it to prove a
  /// captured episode bundle is complete. The outlier backend scores
  /// against a learned threshold instead and reports false.
  virtual bool score_decomposable() const { return false; }

  /// The class-prior log-odds term of Eq. (1) — the value the impact
  /// sum starts from. Only meaningful when score_decomposable().
  virtual LogOdds prior_log_odds() const { return LogOdds{0.0}; }

  /// Attribute indices sorted by impact, most anomaly-relevant first.
  static std::vector<std::size_t> ranked_attributes(const Classification& c);
  /// The attribution cause inference acts on: the prefix of the
  /// ranked_attributes() order (a stable sort: ties keep attribute
  /// order) whose impacts are positive, at most `limit` long.
  static std::vector<std::size_t> attribution_ranking(
      std::span<const double> impacts, std::size_t limit);
};

}  // namespace prepare
