#include "models/markov.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "common/check.h"

namespace prepare {

namespace {

// One lane group's four doubles, as two 16-byte halves. GCC and Clang
// accept the vector extension in ISO mode; a half is one SSE2 register on
// baseline x86-64 (and one NEON register on aarch64), whereas GCC lowers
// a 32-byte vector through stack spills when AVX is off. Every operation
// is element-wise IEEE arithmetic, so each lane computes exactly the
// scalar expression it would alone.
typedef double Half __attribute__((vector_size(2 * sizeof(double))));
struct Block {
  Half lo, hi;
};

// Unaligned access through memcpy: the state vectors and cached rows are
// plain double storage.
inline Block load_block(const double* p) {
  Block b;
  std::memcpy(&b.lo, p, sizeof b.lo);
  std::memcpy(&b.hi, p + 2, sizeof b.hi);
  return b;
}

inline void store_block(double* p, const Block& b) {
  std::memcpy(p, &b.lo, sizeof b.lo);
  std::memcpy(p + 2, &b.hi, sizeof b.hi);
}

}  // namespace

MarkovModel::MarkovModel(std::size_t order,
                         const std::vector<std::size_t>& alphabets,
                         double alpha)
    : order_(order), alpha_(alpha) {
  PREPARE_CHECK(order >= 1);
  PREPARE_CHECK(alpha > 0.0);
  PREPARE_CHECK_MSG(!alphabets.empty(), "a Markov model needs a lane");
  lanes_.resize(alphabets.size());
  std::size_t counts = 0;
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    PREPARE_CHECK(alphabets[l] >= 2);
    lanes_[l].shape = shape_of(alphabets[l]);
    lanes_[l].counts_offset = counts;
    counts += lanes_[l].shape.states * alphabets[l];
  }
  groups_.resize((lanes_.size() + kGroupLanes - 1) / kGroupLanes);
  std::size_t cells = 0, max_states = 0;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    std::size_t alphabet = 0;
    for (std::size_t l = g * kGroupLanes;
         l < std::min((g + 1) * kGroupLanes, lanes_.size()); ++l)
      alphabet = std::max(alphabet, lanes_[l].shape.alphabet);
    groups_[g].shape = shape_of(alphabet);
    groups_[g].probs_offset = cells;
    cells += groups_[g].shape.states * alphabet * kGroupLanes;
    max_states = std::max(max_states, groups_[g].shape.states);
  }
  counts_.assign(counts, 0.0);
  probs_.assign(cells, 0.0);
  scratch_v_.assign(max_states * kGroupLanes, 0.0);
  scratch_next_.assign(max_states * kGroupLanes, 0.0);
  rebuild_all_rows();
}

MarkovModel::MarkovModel(std::size_t order, std::size_t alphabet,
                         double alpha)
    : MarkovModel(order, std::vector<std::size_t>{alphabet}, alpha) {}

MarkovModel::Shape MarkovModel::shape_of(std::size_t alphabet) const {
  Shape shape;
  shape.alphabet = alphabet;
  shape.states = 1;
  for (std::size_t i = 0; i < order_; ++i) {
    PREPARE_CHECK_MSG(shape.states <= 1'000'000 / alphabet,
                      "alphabet^order too large");
    shape.states *= alphabet;
  }
  shape.suffixes = shape.states / alphabet;
  return shape;
}

std::size_t MarkovModel::group_index(std::size_t l, std::size_t ctx) const {
  const Shape& lane = lanes_[l].shape;
  const Shape& group = groups_[l / kGroupLanes].shape;
  if (lane.alphabet == group.alphabet) return ctx;
  std::size_t index = 0;
  for (std::size_t place = lane.suffixes; place > 0; place /= lane.alphabet) {
    index = index * group.alphabet + ctx / place;
    ctx %= place;
  }
  return index;
}

std::size_t MarkovModel::prob_cell(std::size_t l, std::size_t group_ctx,
                                   std::size_t next) const {
  const Group& group = groups_[l / kGroupLanes];
  return group.probs_offset +
         (group_ctx * group.shape.alphabet + next) * kGroupLanes +
         l % kGroupLanes;
}

void MarkovModel::rebuild_row(std::size_t l, std::size_t ctx) {
  // Same expression transition() historically evaluated per call:
  // (count + alpha) / (row_total + alpha * alphabet), so cached rows are
  // bit-identical to the on-the-fly probabilities.
  const std::size_t alphabet = lanes_[l].shape.alphabet;
  const double* counts = &counts_[lanes_[l].counts_offset + ctx * alphabet];
  double row_total = 0.0;
  for (std::size_t j = 0; j < alphabet; ++j) row_total += counts[j];
  const double denom = row_total + alpha_ * static_cast<double>(alphabet);
  double* row = &probs_[prob_cell(l, group_index(l, ctx), 0)];
  for (std::size_t j = 0; j < alphabet; ++j)
    row[j * kGroupLanes] = (counts[j] + alpha_) / denom;
}

void MarkovModel::rebuild_all_rows() {
  for (std::size_t l = 0; l < lanes_.size(); ++l)
    for (std::size_t ctx = 0; ctx < lanes_[l].shape.states; ++ctx)
      rebuild_row(l, ctx);
}

void MarkovModel::require_one_lane() const {
  PREPARE_CHECK_MSG(lanes_.size() == 1,
                    "single-lane call on a multi-lane Markov model");
}

void MarkovModel::train(
    const std::vector<std::vector<std::size_t>>& sequences) {
  PREPARE_CHECK(sequences.size() == lanes_.size());
  const std::size_t length = sequences.front().size();
  for (const auto& sequence : sequences)
    PREPARE_CHECK_MSG(sequence.size() == length,
                      "lane sequences differ in length");
  std::fill(counts_.begin(), counts_.end(), 0.0);
  rebuild_all_rows();
  for (Lane& lane : lanes_) lane.context = 0;
  seen_ = 0;
  std::vector<std::size_t> symbols(lanes_.size());
  for (std::size_t t = 0; t < length; ++t) {
    for (std::size_t l = 0; l < lanes_.size(); ++l)
      symbols[l] = sequences[l][t];
    observe(symbols, /*learn=*/true);
  }
}

void MarkovModel::train(const std::vector<std::size_t>& sequence) {
  require_one_lane();
  train(std::vector<std::vector<std::size_t>>{sequence});
}

void MarkovModel::observe(std::span<const std::size_t> symbols, bool learn) {
  PREPARE_CHECK(symbols.size() == lanes_.size());
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    Lane& lane = lanes_[l];
    const std::size_t s = symbols[l];
    PREPARE_CHECK(s < lane.shape.alphabet);
    if (seen_ == order_ && learn) {
      counts_[lane.counts_offset + lane.context * lane.shape.alphabet + s] +=
          1.0;
      rebuild_row(l, lane.context);
    }
    // Drop the oldest symbol (most significant digit), append `s`.
    // Before the context fills, the missing leading digits are zero, so
    // after `order` symbols the index is exact.
    lane.context =
        (lane.context % lane.shape.suffixes) * lane.shape.alphabet + s;
  }
  if (seen_ < order_) ++seen_;
}

void MarkovModel::observe(BinIndex symbol, bool learn) {
  require_one_lane();
  const std::size_t s = symbol.value();
  observe(std::span<const std::size_t>(&s, 1), learn);
}

Probability MarkovModel::transition(std::size_t lane,
                                    const std::vector<std::size_t>& context,
                                    BinIndex next) const {
  PREPARE_CHECK(lane < lanes_.size());
  PREPARE_CHECK(context.size() == order_);
  const std::size_t alphabet = lanes_[lane].shape.alphabet;
  PREPARE_CHECK(next.value() < alphabet);
  // Index the context directly in the group's alphabet.
  const std::size_t group_alphabet = groups_[lane / kGroupLanes].shape.alphabet;
  std::size_t index = 0;
  for (std::size_t s : context) {
    PREPARE_CHECK(s < alphabet);
    index = index * group_alphabet + s;
  }
  return Probability{probs_[prob_cell(lane, index, next.value())]};
}

Probability MarkovModel::transition(const std::vector<std::size_t>& context,
                                    BinIndex next) const {
  require_one_lane();
  return transition(0, context, next);
}

Distribution MarkovModel::predict(TickIndex steps) const {
  Distribution d;
  predict_into(steps, &d);
  return d;
}

void MarkovModel::predict_into(TickIndex steps,
                               std::span<Distribution> out) const {
  PREPARE_CHECK(out.size() == lanes_.size());
  propagate(steps.value(), /*path=*/{}, out);
}

void MarkovModel::predict_into(TickIndex steps, Distribution* out) const {
  PREPARE_CHECK(out != nullptr);
  require_one_lane();
  propagate(steps.value(), /*path=*/{}, std::span<Distribution>(out, 1));
}

void MarkovModel::predict_path_into(
    TickIndex steps, std::span<std::vector<Distribution>> out) const {
  PREPARE_CHECK(out.size() == lanes_.size());
  for (auto& path : out) {
    // prepare-analyze: allow(hot-alloc): capacity-steady — horizon fixed
    path.resize(steps.value());
  }
  propagate(steps.value(), out, /*last=*/{});
}

void MarkovModel::predict_path_into(TickIndex steps,
                                    std::vector<Distribution>* out) const {
  PREPARE_CHECK(out != nullptr);
  require_one_lane();
  predict_path_into(steps, std::span<std::vector<Distribution>>(out, 1));
}

void MarkovModel::propagate(
    std::size_t steps, std::span<std::vector<Distribution>> path,
    std::span<Distribution> last) const {
  PREPARE_CHECK_MSG(ready(), "predict() before enough observations");
  PREPARE_CHECK(steps >= 1);
  constexpr std::size_t W = kGroupLanes;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const Group& group = groups_[g];
    const std::size_t alphabet = group.shape.alphabet;
    const std::size_t suffixes = group.shape.suffixes;
    const std::size_t cells = group.shape.states * W;
    const std::size_t first = g * W;
    const std::size_t count = std::min(W, lanes_.size() - first);
    const double* probs = &probs_[group.probs_offset];
    // Constructor-sized scratch, refilled in place: no allocation per
    // tick. Slot k of state block i is lane first + k's mass in state i.
    double* v = scratch_v_.data();
    double* next = scratch_next_.data();
    std::fill(v, v + cells, 0.0);
    for (std::size_t k = 0; k < count; ++k)
      v[group_index(first + k, lanes_[first + k].context) * W + k] = 1.0;
    for (std::size_t s = 0; s < steps; ++s) {
      std::fill(next, next + cells, 0.0);
      // Context (a, r) — oldest symbol a, suffix r of the newer order-1
      // symbols — moves to (r, c) with the cached P(c | a, r) row; the
      // destinations of one suffix are contiguous. Sources are visited
      // in ascending context order, which fixes each destination's
      // summation order in every lane. A lane whose source mass is 0
      // (including padding) adds 0·p = +0.0, which leaves its
      // non-negative accumulator bit-unchanged, so each lane equals its
      // one-lane computation.
      for (std::size_t a = 0; a < alphabet; ++a) {
        for (std::size_t r = 0; r < suffixes; ++r) {
          const std::size_t src = a * suffixes + r;
          const Block mass = load_block(&v[src * W]);
          // Masses are non-negative: a zero sum means all four are 0.
          const Half pair_sums = mass.lo + mass.hi;
          if (pair_sums[0] + pair_sums[1] <= 0.0) continue;
          const double* row = &probs[src * alphabet * W];
          double* dst = &next[r * alphabet * W];
          for (std::size_t c = 0; c < alphabet; ++c) {
            const Block acc = load_block(&dst[c * W]);
            const Block p = load_block(&row[c * W]);
            store_block(&dst[c * W], {acc.lo + mass.lo * p.lo,
                                      acc.hi + mass.hi * p.hi});
          }
        }
      }
      std::swap(v, next);
#if PREPARE_DCHECK_IS_ON
      // Smoothed transition rows sum to 1, so each step conserves mass.
      for (std::size_t k = 0; k < count; ++k) {
        double mass = 0.0;
        for (std::size_t i = k; i < cells; i += W) mass += v[i];
        PREPARE_DCHECK_NEAR(mass, 1.0, 1e-6)
            << "lane " << first + k << " context-state mass leaked after step "
            << s + 1;
      }
#endif
      // Element s of a path is the marginal predict_into(s + 1) computes.
      if (!path.empty()) {
        std::array<Distribution*, W> out{};
        for (std::size_t k = 0; k < count; ++k) out[k] = &path[first + k][s];
        marginalize(g, v, out);
      }
    }
    if (!last.empty()) {
      std::array<Distribution*, W> out{};
      for (std::size_t k = 0; k < count; ++k) out[k] = &last[first + k];
      marginalize(g, v, out);
    }
  }
}

void MarkovModel::marginalize(
    std::size_t g, const double* v,
    const std::array<Distribution*, kGroupLanes>& out) const {
  // Each lane sums every (prefix, j) state over ascending prefixes, as
  // the one-lane loop does. Prefixes with a digit outside a lane's
  // alphabet hold exactly +0.0, so they add nothing to its sums.
  const Shape& group = groups_[g].shape;
  const std::size_t first = g * kGroupLanes;
  const std::size_t count = std::min(kGroupLanes, lanes_.size() - first);
  for (std::size_t k = 0; k < count; ++k)
    out[k]->assign_zero(lanes_[first + k].shape.alphabet);
  for (std::size_t j = 0; j < group.alphabet; ++j) {
    Block sum{};
    for (std::size_t prefix = 0; prefix < group.suffixes; ++prefix) {
      const Block b =
          load_block(&v[(prefix * group.alphabet + j) * kGroupLanes]);
      sum.lo += b.lo;
      sum.hi += b.hi;
    }
    double lane_sums[kGroupLanes];
    store_block(lane_sums, sum);
    for (std::size_t k = 0; k < count; ++k)
      if (j < out[k]->size()) (*out[k])[j] = lane_sums[k];
  }
  for (std::size_t k = 0; k < count; ++k) {
    out[k]->normalize();
    PREPARE_DCHECK(out[k]->is_normalized(1e-9))
        << "predict() output not a distribution";
  }
}

MarkovModel::RowStats MarkovModel::row_stats(std::size_t l) const {
  // A row is occupied when it has at least one raw observation; entropy
  // (nats) is evaluated on the smoothed row, whose cells are strictly
  // positive by Laplace smoothing.
  PREPARE_CHECK(l < lanes_.size());
  const Lane& lane = lanes_[l];
  const std::size_t alphabet = lane.shape.alphabet;
  RowStats stats;
  stats.rows = lane.shape.states;
  for (std::size_t ctx = 0; ctx < lane.shape.states; ++ctx) {
    const double* counts = &counts_[lane.counts_offset + ctx * alphabet];
    double row_total = 0.0;
    for (std::size_t j = 0; j < alphabet; ++j) row_total += counts[j];
    stats.count_total += row_total;
    if (row_total <= 0.0) continue;
    ++stats.occupied_rows;
    const double* row = &probs_[prob_cell(l, group_index(l, ctx), 0)];
    double entropy = 0.0;
    for (std::size_t j = 0; j < alphabet; ++j) {
      const double p = row[j * kGroupLanes];
      entropy -= p * std::log(p);
    }
    stats.entropy_sum += entropy;
    stats.entropy_max = std::max(stats.entropy_max, entropy);
  }
  return stats;
}

MarkovModel::RowStats MarkovModel::row_stats() const {
  require_one_lane();
  return row_stats(0);
}

}  // namespace prepare
