// Markov-chain attribute-value predictor of any context length (paper
// Section II-B, Fig. 2).
//
// A predictor consumes the discretized sample stream of one attribute and
// answers "what is the value distribution `steps` sampling intervals from
// now?" The combined state is the tuple of the last `order` values; each
// step maps (v1..vn) -> (v2..vn, next) with probability P(next | v1..vn),
// learned with Laplace smoothing, and the final tuple distribution is
// marginalized onto the most recent value.
//
// Order 2 is the paper's 2-dependent model: combining every two single
// states into one turns a non-Markovian attribute (one moving along a
// ramp or a sinusoid, where the slope matters) into a Markovian one.
// Order 1 is the simple chain from the authors' earlier ALERT work [10],
// kept for the Fig. 11 comparison. Higher orders capture longer patterns
// but need alphabet^order transition rows of training data — the
// diminishing-returns trade the `abl_markov_n` bench quantifies.
#pragma once

#include <cstddef>
#include <vector>

#include "common/analyze_annotations.h"
#include "common/units.h"
#include "models/distribution.h"

namespace prepare {

class MarkovModel {
 public:
  /// Aggregate transition-row statistics for model introspection
  /// (obs/model_introspect.h): how spread the learned rows are and how
  /// much of the state space training actually visited. Entropy is in
  /// nats over the *smoothed* rows, restricted to rows with at least one
  /// observed transition (a never-visited row is uniform by smoothing
  /// and would drown the signal).
  struct RowStats {
    std::size_t rows = 0;           ///< transition rows in the model
    std::size_t occupied_rows = 0;  ///< rows with observed transitions
    double entropy_sum = 0.0;       ///< over occupied rows
    double entropy_max = 0.0;       ///< over occupied rows
    double count_total = 0.0;       ///< raw transition observations
  };

  /// `order` >= 1 context length; `alphabet` >= 2 number of discretized
  /// states; `alpha` the Laplace smoothing pseudo-count.
  MarkovModel(std::size_t order, std::size_t alphabet, double alpha = 0.5);

  /// Batch-trains on a symbol sequence (resets previous counts and sets
  /// the prediction context to the end of the sequence).
  void train(const std::vector<std::size_t>& sequence);

  /// Feeds one runtime observation. With `learn` true the transition
  /// counts are updated too (the paper's periodic model update); with
  /// false only the prediction context advances.
  void observe(BinIndex symbol, bool learn);

  /// Distribution of the attribute value `steps` intervals ahead
  /// (steps >= 1). Requires ready().
  Distribution predict(TickIndex steps) const;

  /// Same result as predict(), written into `out` (non-null) so a
  /// per-tick caller can reuse one buffer instead of allocating a fresh
  /// distribution every prediction.
  PREPARE_HOT void predict_into(TickIndex steps, Distribution* out) const;

  /// Fills (*out)[s-1] with the prediction for every horizon step
  /// s = 1..steps (resizing `out` to `steps`): one state-vector push
  /// that marginalizes after every step, so each element is
  /// bit-identical to the corresponding predict_into(s) result.
  PREPARE_HOT void predict_path_into(TickIndex steps,
                                     std::vector<Distribution>* out) const;

  /// Transition-row introspection snapshot.
  RowStats row_stats() const;

  /// Whether `order` symbols have been seen, enough context to predict.
  bool ready() const { return seen_ == order_; }

  /// Smoothed P(next | context); `context` holds `order` symbols, oldest
  /// first.
  Probability transition(const std::vector<std::size_t>& context,
                         BinIndex next) const;

 private:
  /// Recomputes one cached smoothed row P(· | ctx) from counts_.
  void rebuild_row(std::size_t ctx);
  /// The k-step look-ahead shared by predict_into and predict_path_into:
  /// pushes the one-hot current context `steps` times, writing the
  /// marginal after every step into (*path)[s] when `path` is non-null
  /// and the final marginal into `last` when it is non-null.
  void propagate(std::size_t steps, std::vector<Distribution>* path,
                 Distribution* last) const;
  /// Marginalizes a context distribution onto the most recent symbol
  /// (the low digit of the context index) and normalizes it.
  void marginalize(const std::vector<double>& v, Distribution* out) const;

  std::size_t order_;
  std::size_t alphabet_;
  double alpha_;
  std::size_t suffixes_;            ///< alphabet^(order-1)
  std::size_t states_;              ///< alphabet^order
  std::vector<double> counts_;      ///< states_ x alphabet_, row-major
  /// Smoothed transition rows mirroring counts_ (same bound as counts_,
  /// <= 1M entries), maintained incrementally: the k-step look-ahead
  /// reads rows straight from this cache, and only the row of the
  /// current context changes per learning observation.
  std::vector<double> probs_;       ///< states_ x alphabet_
  /// Row-major index of the last `order` symbols, oldest the most
  /// significant digit; meaningful once ready().
  std::size_t context_ = 0;
  std::size_t seen_ = 0;            ///< symbols observed, saturates at order
  /// Per-predict transient context-state distributions, sized once in
  /// the constructor so the hot look-ahead is provably allocation-free.
  mutable std::vector<double> scratch_v_, scratch_next_;
};

}  // namespace prepare
