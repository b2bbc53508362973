#include "models/markov.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

// The innermost propagation loop is 28 bytes of scalar code that runs
// once per (step, source row) for only `alphabet` iterations. On
// Skylake-derived x86 cores, a loop whose closing compare-and-branch
// crosses or ends on a 32-byte boundary is evicted from the decoded-uop
// cache (the JCC-erratum microcode fix), and GCC's default 8/16-byte loop
// alignment leaves that to chance: on a Xeon, the identical instruction
// sequence ran a 13-attribute, 24-step order-2 look-ahead in 43 µs or
// 33 µs depending only on where the loop landed. Aligning the loops of
// propagate() to 32 bytes keeps the inner loop inside one window. The
// emitted arithmetic is unchanged, so results stay bit-identical.
#if defined(__GNUC__) && !defined(__clang__)
#define PREPARE_ALIGN_LOOPS_32 __attribute__((optimize("align-loops=32")))
#else
#define PREPARE_ALIGN_LOOPS_32
#endif

namespace prepare {

MarkovModel::MarkovModel(std::size_t order, std::size_t alphabet,
                         double alpha)
    : order_(order), alphabet_(alphabet), alpha_(alpha) {
  PREPARE_CHECK(order >= 1);
  PREPARE_CHECK(alphabet >= 2);
  PREPARE_CHECK(alpha > 0.0);
  states_ = 1;
  for (std::size_t i = 0; i < order_; ++i) {
    PREPARE_CHECK_MSG(states_ <= 1'000'000 / alphabet_,
                      "alphabet^order too large");
    states_ *= alphabet_;
  }
  suffixes_ = states_ / alphabet_;
  counts_.assign(states_ * alphabet_, 0.0);
  probs_.assign(states_ * alphabet_, 0.0);
  scratch_v_.assign(states_, 0.0);
  scratch_next_.assign(states_, 0.0);
  for (std::size_t ctx = 0; ctx < states_; ++ctx) rebuild_row(ctx);
}

void MarkovModel::rebuild_row(std::size_t ctx) {
  // Same expression transition() historically evaluated per call:
  // (count + alpha) / (row_total + alpha * alphabet), so cached rows are
  // bit-identical to the on-the-fly probabilities.
  const std::size_t base = ctx * alphabet_;
  double row_total = 0.0;
  for (std::size_t j = 0; j < alphabet_; ++j) row_total += counts_[base + j];
  const double denom = row_total + alpha_ * static_cast<double>(alphabet_);
  for (std::size_t j = 0; j < alphabet_; ++j)
    probs_[base + j] = (counts_[base + j] + alpha_) / denom;
}

void MarkovModel::train(const std::vector<std::size_t>& sequence) {
  std::fill(counts_.begin(), counts_.end(), 0.0);
  for (std::size_t ctx = 0; ctx < states_; ++ctx) rebuild_row(ctx);
  context_ = 0;
  seen_ = 0;
  for (std::size_t s : sequence) observe(BinIndex{s}, /*learn=*/true);
}

void MarkovModel::observe(BinIndex symbol, bool learn) {
  const std::size_t s = symbol.value();
  PREPARE_CHECK(s < alphabet_);
  if (seen_ == order_ && learn) {
    counts_[context_ * alphabet_ + s] += 1.0;
    rebuild_row(context_);
  }
  // Drop the oldest symbol (most significant digit), append `s`. Before
  // the context fills, the missing leading digits are zero, so after
  // `order` symbols the index is exact.
  context_ = (context_ % suffixes_) * alphabet_ + s;
  if (seen_ < order_) ++seen_;
}

Probability MarkovModel::transition(const std::vector<std::size_t>& context,
                                    BinIndex next) const {
  PREPARE_CHECK(context.size() == order_);
  PREPARE_CHECK(next.value() < alphabet_);
  std::size_t index = 0;
  for (std::size_t s : context) {
    PREPARE_CHECK(s < alphabet_);
    index = index * alphabet_ + s;
  }
  return Probability{probs_[index * alphabet_ + next.value()]};
}

Distribution MarkovModel::predict(TickIndex steps) const {
  Distribution d;
  predict_into(steps, &d);
  return d;
}

void MarkovModel::predict_into(TickIndex steps, Distribution* out) const {
  PREPARE_CHECK(out != nullptr);
  propagate(steps.value(), /*path=*/nullptr, out);
}

void MarkovModel::predict_path_into(TickIndex steps,
                                    std::vector<Distribution>* out) const {
  PREPARE_CHECK(out != nullptr);
  // prepare-analyze: allow(hot-alloc): capacity-steady — horizon fixed
  out->resize(steps.value());
  propagate(steps.value(), out, /*last=*/nullptr);
}

PREPARE_ALIGN_LOOPS_32 void MarkovModel::propagate(
    std::size_t steps, std::vector<Distribution>* path,
    Distribution* last) const {
  PREPARE_CHECK_MSG(ready(), "predict() before enough observations");
  PREPARE_CHECK(steps >= 1);
  // Constructor-sized scratch, refilled in place: no allocation per tick.
  auto& v = scratch_v_;
  auto& next = scratch_next_;
  std::fill(v.begin(), v.end(), 0.0);
  v[context_] = 1.0;
  for (std::size_t s = 0; s < steps; ++s) {
    std::fill(next.begin(), next.end(), 0.0);
    // Context (a, r) — oldest symbol a, suffix r of the newer order-1
    // symbols — moves to (r, c) with the cached P(c | a, r) row; the
    // destinations of one suffix are contiguous. Sources are visited in
    // ascending context order, which fixes each destination's
    // summation order.
    for (std::size_t a = 0; a < alphabet_; ++a) {
      for (std::size_t r = 0; r < suffixes_; ++r) {
        const std::size_t src = a * suffixes_ + r;
        const double mass = v[src];
        if (mass <= 0.0) continue;
        const double* row = &probs_[src * alphabet_];
        double* dst = &next[r * alphabet_];
        for (std::size_t c = 0; c < alphabet_; ++c) dst[c] += mass * row[c];
      }
    }
    std::swap(v, next);
#if PREPARE_DCHECK_IS_ON
    // Smoothed transition rows sum to 1, so each step conserves mass.
    double mass = 0.0;
    for (double x : v) mass += x;
    PREPARE_DCHECK_NEAR(mass, 1.0, 1e-6)
        << "context-state mass leaked after step " << s + 1;
#endif
    // Element s of a path is the marginal predict_into(s + 1) computes.
    if (path != nullptr) marginalize(v, &(*path)[s]);
  }
  if (last != nullptr) marginalize(v, last);
}

void MarkovModel::marginalize(const std::vector<double>& v,
                              Distribution* out) const {
  out->assign_zero(alphabet_);
  for (std::size_t prefix = 0; prefix < suffixes_; ++prefix) {
    const double* block = &v[prefix * alphabet_];
    for (std::size_t j = 0; j < alphabet_; ++j) (*out)[j] += block[j];
  }
  out->normalize();
  PREPARE_DCHECK(out->is_normalized(1e-9))
      << "predict() output not a distribution";
}

MarkovModel::RowStats MarkovModel::row_stats() const {
  // A row is occupied when it has at least one raw observation; entropy
  // (nats) is evaluated on the smoothed row, whose cells are strictly
  // positive by Laplace smoothing.
  RowStats stats;
  stats.rows = states_;
  for (std::size_t ctx = 0; ctx < states_; ++ctx) {
    const std::size_t base = ctx * alphabet_;
    double row_total = 0.0;
    for (std::size_t j = 0; j < alphabet_; ++j) row_total += counts_[base + j];
    stats.count_total += row_total;
    if (row_total <= 0.0) continue;
    ++stats.occupied_rows;
    double entropy = 0.0;
    for (std::size_t j = 0; j < alphabet_; ++j) {
      const double p = probs_[base + j];
      entropy -= p * std::log(p);
    }
    stats.entropy_sum += entropy;
    stats.entropy_max = std::max(stats.entropy_max, entropy);
  }
  return stats;
}

}  // namespace prepare
