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
//
// One MarkovModel holds every attribute of a component as a *lane*: each
// lane has its own alphabet, context and counts, all lanes share one
// order and advance together, and the look-ahead steps four lanes at a
// time (see propagate()). Every lane's output is bit-identical to a
// one-lane model fed the same symbols.
#pragma once

#include <array>
#include <cstddef>
#include <span>
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

  /// One lane per entry of `alphabets` (each >= 2 discretized states);
  /// `order` >= 1 context length shared by every lane; `alpha` the
  /// Laplace smoothing pseudo-count.
  MarkovModel(std::size_t order, const std::vector<std::size_t>& alphabets,
              double alpha);
  /// A one-lane model.
  MarkovModel(std::size_t order, std::size_t alphabet, double alpha = 0.5);

  std::size_t lanes() const { return lanes_.size(); }

  /// Batch-trains every lane on its own symbol sequence (one sequence
  /// per lane, all the same length): resets previous counts and sets the
  /// prediction contexts to the ends of the sequences.
  void train(const std::vector<std::vector<std::size_t>>& sequences);
  /// train() of a one-lane model.
  void train(const std::vector<std::size_t>& sequence);

  /// Feeds one runtime observation, one symbol per lane. With `learn`
  /// true the transition counts are updated too (the paper's periodic
  /// model update); with false only the prediction contexts advance.
  void observe(std::span<const std::size_t> symbols, bool learn);
  /// observe() of a one-lane model.
  void observe(BinIndex symbol, bool learn);

  /// Distribution of a one-lane model's value `steps` intervals ahead
  /// (steps >= 1). Requires ready().
  Distribution predict(TickIndex steps) const;

  /// Writes every lane's distribution `steps` intervals ahead into
  /// out[lane] (out.size() == lanes()), so a per-tick caller can reuse
  /// its buffers instead of allocating fresh distributions every
  /// prediction.
  PREPARE_HOT void predict_into(TickIndex steps,
                                std::span<Distribution> out) const;
  /// predict_into() of a one-lane model.
  PREPARE_HOT void predict_into(TickIndex steps, Distribution* out) const;

  /// Fills out[lane][s-1] with every lane's prediction for every horizon
  /// step s = 1..steps (resizing each path to `steps`): one state-vector
  /// push that marginalizes after every step, so each element is
  /// bit-identical to the corresponding predict_into(s) result.
  PREPARE_HOT void predict_path_into(
      TickIndex steps, std::span<std::vector<Distribution>> out) const;
  /// predict_path_into() of a one-lane model.
  PREPARE_HOT void predict_path_into(TickIndex steps,
                                     std::vector<Distribution>* out) const;

  /// Transition-row introspection snapshot of one lane.
  RowStats row_stats(std::size_t lane) const;
  /// row_stats() of a one-lane model.
  RowStats row_stats() const;

  /// Whether `order` symbols have been seen, enough context to predict.
  bool ready() const { return seen_ == order_; }

  /// Smoothed P(next | context) of one lane; `context` holds `order`
  /// symbols, oldest first.
  Probability transition(std::size_t lane,
                         const std::vector<std::size_t>& context,
                         BinIndex next) const;
  /// transition() of a one-lane model.
  Probability transition(const std::vector<std::size_t>& context,
                         BinIndex next) const;

 private:
  /// Lanes are stepped in groups of this many; a group's rows interleave
  /// its lanes so one 4-double block updates all of them at once.
  static constexpr std::size_t kGroupLanes = 4;

  /// State-space shape of one alphabet at the model's order.
  struct Shape {
    std::size_t alphabet = 0;
    std::size_t suffixes = 0;  ///< alphabet^(order-1)
    std::size_t states = 0;    ///< alphabet^order
  };
  struct Lane {
    Shape shape;
    std::size_t counts_offset = 0;  ///< first count of the lane in counts_
    /// Index of the last `order` symbols in the lane's own alphabet,
    /// oldest the most significant digit; meaningful once ready().
    std::size_t context = 0;
  };
  struct Group {
    /// The largest alphabet among the group's lanes; smaller alphabets
    /// are embedded with zero rows and zero columns.
    Shape shape;
    std::size_t probs_offset = 0;  ///< first cell of the group in probs_
  };

  Shape shape_of(std::size_t alphabet) const;
  /// Re-encodes a context index of lane `l` from the lane's alphabet to
  /// its group's.
  std::size_t group_index(std::size_t l, std::size_t ctx) const;
  /// Cell (ctx, next) of lane `l` in probs_; `group_ctx` is the context
  /// index in the group's alphabet.
  std::size_t prob_cell(std::size_t l, std::size_t group_ctx,
                        std::size_t next) const;
  /// Recomputes one cached smoothed row P(· | ctx) of lane `l` from
  /// counts_.
  void rebuild_row(std::size_t l, std::size_t ctx);
  void rebuild_all_rows();
  void require_one_lane() const;
  /// The k-step look-ahead shared by predict_into and predict_path_into:
  /// pushes every lane's one-hot current context `steps` times, one lane
  /// group at a time, writing each lane's marginal after every step into
  /// path[lane][s] when `path` is non-empty and the final marginal into
  /// last[lane] when `last` is non-empty.
  void propagate(std::size_t steps, std::span<std::vector<Distribution>> path,
                 std::span<Distribution> last) const;
  /// Marginalizes group `g`'s state vector `v` onto the most recent
  /// symbol (the low digit of the context index) of each of its lanes
  /// and writes lane g * kGroupLanes + k's normalized marginal to
  /// *out[k].
  void marginalize(std::size_t g, const double* v,
                   const std::array<Distribution*, kGroupLanes>& out) const;

  std::size_t order_;
  double alpha_;
  std::vector<Lane> lanes_;
  std::vector<Group> groups_;
  /// Raw transition counts, lane after lane, each states x alphabet
  /// row-major in the lane's own alphabet.
  std::vector<double> counts_;
  /// Smoothed transition rows mirroring counts_ (each lane <= 1M cells),
  /// maintained incrementally: the k-step look-ahead reads rows straight
  /// from this cache, and only the row of the current context changes
  /// per learning observation. Lane-group-major,
  /// [group][src][next][kGroupLanes] in the group's alphabet; padded
  /// cells (a smaller alphabet's extra rows and columns, the missing
  /// lanes of the last group) stay 0.
  std::vector<double> probs_;
  std::size_t seen_ = 0;  ///< symbols observed, saturates at order
  /// Per-predict transient group state vectors ([state][kGroupLanes]),
  /// sized once in the constructor so the hot look-ahead is provably
  /// allocation-free.
  mutable std::vector<double> scratch_v_, scratch_next_;
};

}  // namespace prepare
