// MarkovModel tests. Suites are named after the model each order
// reproduces: MarkovChain (order 1, the simple ALERT chain),
// TwoDependentMarkov (order 2, the paper's model) and NDependentMarkov
// (any order). MarkovLanes checks that every lane of a multi-lane model
// is bit-identical to a one-lane model fed the same symbols.
#include "models/markov.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"

namespace prepare {
namespace {

TEST(MarkovChain, RejectsBadConstruction) {
  EXPECT_THROW(MarkovModel(1, 1), CheckFailure);
  EXPECT_THROW(MarkovModel(1, 4, 0.0), CheckFailure);
}

TEST(MarkovChain, PredictBeforeContextThrows) {
  MarkovModel m(1, 3);
  EXPECT_THROW(m.predict(TickIndex{1}), CheckFailure);
  m.observe(BinIndex{0}, true);
  EXPECT_NO_THROW(m.predict(TickIndex{1}));
}

TEST(MarkovChain, TransitionRowsAreDistributions) {
  MarkovModel m(1, 4, 0.5);
  Rng rng(3);
  std::vector<std::size_t> seq;
  for (int i = 0; i < 500; ++i)
    seq.push_back(static_cast<std::size_t>(rng.uniform_int(0, 3)));
  m.train(seq);
  for (std::size_t from = 0; from < 4; ++from) {
    double total = 0.0;
    for (std::size_t to = 0; to < 4; ++to) total += m.transition({from}, BinIndex{to});
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(MarkovChain, LearnsDeterministicCycle) {
  MarkovModel m(1, 3, 0.01);
  std::vector<std::size_t> seq;
  for (int i = 0; i < 300; ++i) seq.push_back(i % 3);
  m.train(seq);
  // Last symbol is 2; one step ahead must be 0, two steps 1, three 2.
  EXPECT_EQ(m.predict(TickIndex{1}).mode(), 0u);
  EXPECT_EQ(m.predict(TickIndex{2}).mode(), 1u);
  EXPECT_EQ(m.predict(TickIndex{3}).mode(), 2u);
}

TEST(MarkovChain, MultiStepIsChapmanKolmogorov) {
  MarkovModel m(1, 3, 0.5);
  Rng rng(4);
  std::vector<std::size_t> seq;
  for (int i = 0; i < 400; ++i)
    seq.push_back(static_cast<std::size_t>(rng.uniform_int(0, 2)));
  m.train(seq);
  // P2[j] = sum_i P1[i] * T[i][j]
  const auto p1 = m.predict(TickIndex{1});
  const auto p2 = m.predict(TickIndex{2});
  for (std::size_t j = 0; j < 3; ++j) {
    double expect = 0.0;
    for (std::size_t i = 0; i < 3; ++i) expect += p1[i] * m.transition({i}, BinIndex{j});
    EXPECT_NEAR(p2[j], expect, 1e-9);
  }
}

TEST(MarkovChain, ObserveWithoutLearnOnlyMovesContext) {
  MarkovModel learner(1, 3, 0.01);
  std::vector<std::size_t> seq;
  for (int i = 0; i < 300; ++i) seq.push_back(i % 3);
  learner.train(seq);
  const double before = learner.transition({0}, BinIndex{1});
  learner.observe(BinIndex{0}, /*learn=*/false);
  learner.observe(BinIndex{0}, /*learn=*/false);  // a 0->0 transition, not learned
  EXPECT_DOUBLE_EQ(learner.transition({0}, BinIndex{1}), before);
  learner.observe(BinIndex{0}, /*learn=*/true);   // now learned
  EXPECT_NE(learner.transition({0}, BinIndex{0}), 0.0);
}

TEST(TwoDependentMarkov, RejectsBadConstruction) {
  EXPECT_THROW(MarkovModel(2, 1), CheckFailure);
  EXPECT_THROW(MarkovModel(2, 4, -1.0), CheckFailure);
}

TEST(TwoDependentMarkov, NeedsTwoObservations) {
  MarkovModel m(2, 3);
  EXPECT_FALSE(m.ready());
  m.observe(BinIndex{0}, true);
  EXPECT_FALSE(m.ready());
  EXPECT_THROW(m.predict(TickIndex{1}), CheckFailure);
  m.observe(BinIndex{1}, true);
  EXPECT_TRUE(m.ready());
  EXPECT_NO_THROW(m.predict(TickIndex{1}));
}

TEST(TwoDependentMarkov, TransitionRowsAreDistributions) {
  MarkovModel m(2, 3, 0.5);
  Rng rng(5);
  std::vector<std::size_t> seq;
  for (int i = 0; i < 600; ++i)
    seq.push_back(static_cast<std::size_t>(rng.uniform_int(0, 2)));
  m.train(seq);
  for (std::size_t a = 0; a < 3; ++a) {
    for (std::size_t b = 0; b < 3; ++b) {
      double total = 0.0;
      for (std::size_t c = 0; c < 3; ++c) total += m.transition({a, b}, BinIndex{c});
      EXPECT_NEAR(total, 1.0, 1e-9);
    }
  }
}

TEST(TwoDependentMarkov, PredictionSumsToOne) {
  MarkovModel m(2, 4, 0.5);
  Rng rng(6);
  std::vector<std::size_t> seq;
  for (int i = 0; i < 600; ++i)
    seq.push_back(static_cast<std::size_t>(rng.uniform_int(0, 3)));
  m.train(seq);
  for (std::size_t steps : {1u, 2u, 5u, 24u})
    EXPECT_NEAR(m.predict(TickIndex{steps}).sum(), 1.0, 1e-9);
}

// The paper's motivating case (Section II-B): a triangle-wave attribute.
// At a given level the next value depends on the *slope*, which only the
// pair state captures: the simple chain is blind to direction.
std::vector<std::size_t> triangle_sequence(std::size_t period_up,
                                           int repeats) {
  std::vector<std::size_t> seq;
  for (int r = 0; r < repeats; ++r) {
    for (std::size_t v = 0; v < period_up; ++v) seq.push_back(v);
    for (std::size_t v = period_up; v-- > 1;) seq.push_back(v);
  }
  return seq;
}

TEST(TwoDependentMarkov, TracksTriangleWaveSlope) {
  const auto seq = triangle_sequence(5, 60);  // 0..4..1 repeating
  MarkovModel two(2, 5, 0.05);
  two.train(seq);
  MarkovModel one(1, 5, 0.05);
  one.train(seq);
  // The sequence ends ... 3 2 1 (descending at 1): next is 0.
  EXPECT_EQ(two.predict(TickIndex{1}).mode(), 0u);
  // The simple chain at state 1 is torn between 0 (down) and 2 (up);
  // measure probability mass instead of the tie-dependent mode.
  EXPECT_GT(two.predict(TickIndex{1})[0], 0.9);
  EXPECT_LT(one.predict(TickIndex{1})[0], 0.7);
}

TEST(TwoDependentMarkov, OutperformsSimpleOnRampForecast) {
  // Long rising ramps: from (prev<cur) the 2-dependent model keeps
  // climbing over multiple steps; the simple chain diffuses.
  std::vector<std::size_t> seq;
  for (int r = 0; r < 50; ++r)
    for (std::size_t v = 0; v < 8; ++v) seq.push_back(v);
  MarkovModel two(2, 8, 0.05);
  MarkovModel one(1, 8, 0.05);
  // Train on all but the tail, then predict from mid-ramp.
  std::vector<std::size_t> train(seq.begin(), seq.end() - 5);
  two.train(train);
  one.train(train);
  // Context is ... 1 2 (ascending): three steps ahead should be 5.
  const auto p_two = two.predict(TickIndex{3});
  const auto p_one = one.predict(TickIndex{3});
  EXPECT_GT(p_two[5], p_one[5]);
  EXPECT_EQ(p_two.mode(), 5u);
}

TEST(TwoDependentMarkov, SymbolOutOfRangeThrows) {
  MarkovModel m(2, 3);
  EXPECT_THROW(m.observe(BinIndex{3}, true), CheckFailure);
}

// Property sweep: predictions are valid distributions for any horizon.
class MarkovHorizonSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MarkovHorizonSweep, ValidDistributionAtAnyHorizon) {
  Rng rng(9);
  std::vector<std::size_t> seq;
  for (int i = 0; i < 300; ++i)
    seq.push_back(static_cast<std::size_t>(rng.uniform_int(0, 4)));
  MarkovModel one(1, 5);
  MarkovModel two(2, 5);
  one.train(seq);
  two.train(seq);
  for (const auto& p : {one.predict(TickIndex{GetParam()}), two.predict(TickIndex{GetParam()})}) {
    EXPECT_NEAR(p.sum(), 1.0, 1e-9);
    for (std::size_t i = 0; i < p.size(); ++i) {
      EXPECT_GE(p[i], 0.0);
      EXPECT_LE(p[i], 1.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Horizons, MarkovHorizonSweep,
                         ::testing::Values(1, 2, 3, 6, 9, 24, 100));

std::vector<std::size_t> random_sequence(std::size_t n, std::size_t k,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::size_t> seq;
  for (std::size_t i = 0; i < n; ++i)
    seq.push_back(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(k) - 1)));
  return seq;
}

TEST(NDependentMarkov, RejectsBadConstruction) {
  EXPECT_THROW(MarkovModel(0, 3), CheckFailure);
  EXPECT_THROW(MarkovModel(1, 1), CheckFailure);
  EXPECT_THROW(MarkovModel(2, 3, 0.0), CheckFailure);
  EXPECT_THROW(MarkovModel(20, 10), CheckFailure);  // 10^20 states
}

TEST(NDependentMarkov, TransitionRowsAreDistributions) {
  MarkovModel m(3, 3, 0.5);
  m.train(random_sequence(800, 3, 3));
  std::vector<std::size_t> ctx(3);
  for (ctx[0] = 0; ctx[0] < 3; ++ctx[0])
    for (ctx[1] = 0; ctx[1] < 3; ++ctx[1])
      for (ctx[2] = 0; ctx[2] < 3; ++ctx[2]) {
        double total = 0.0;
        for (std::size_t n = 0; n < 3; ++n) total += m.transition(ctx, BinIndex{n});
        EXPECT_NEAR(total, 1.0, 1e-9);
      }
}

TEST(NDependentMarkov, ReadyNeedsOrderObservations) {
  MarkovModel m(3, 4);
  m.observe(BinIndex{0}, true);
  m.observe(BinIndex{1}, true);
  EXPECT_FALSE(m.ready());
  EXPECT_THROW(m.predict(TickIndex{1}), CheckFailure);
  m.observe(BinIndex{2}, true);
  EXPECT_TRUE(m.ready());
  EXPECT_NO_THROW(m.predict(TickIndex{2}));
}

TEST(NDependentMarkov, Order3DisambiguatesWhereOrder2CanNot) {
  // Period-6 wave 0 1 1 2 1 1 | ... : the order-2 context (1, 1) is
  // followed by 2 half the time (after 0 1 1) and by 0 the other half
  // (after 2 1 1); the order-3 context resolves the ambiguity.
  std::vector<std::size_t> seq;
  for (int r = 0; r < 100; ++r)
    for (std::size_t v : {0u, 1u, 1u, 2u, 1u, 1u}) seq.push_back(v);
  MarkovModel three(3, 3, 0.05);
  MarkovModel two(2, 3, 0.05);
  three.train(seq);
  two.train(seq);
  // Sequence ends ... 2 1 1: next must be 0.
  EXPECT_GT(three.predict(TickIndex{1})[0], 0.95);
  EXPECT_LT(two.predict(TickIndex{1})[0], 0.65);  // order-2 is torn between 0 and 2
}

TEST(NDependentMarkov, PredictionsAreValidDistributions) {
  MarkovModel m(3, 4, 0.2);
  m.train(random_sequence(500, 4, 5));
  for (std::size_t steps : {1u, 4u, 24u}) {
    const auto d = m.predict(TickIndex{steps});
    EXPECT_NEAR(d.sum(), 1.0, 1e-9);
    for (std::size_t i = 0; i < d.size(); ++i) EXPECT_GE(d[i], 0.0);
  }
}

// Order sweep: every order learns the deterministic cycle it can encode.
class MarkovOrderSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MarkovOrderSweep, LearnsCycle) {
  const std::size_t order = GetParam();
  std::vector<std::size_t> seq;
  for (int r = 0; r < 200; ++r)
    for (std::size_t v = 0; v < 4; ++v) seq.push_back(v);
  MarkovModel m(order, 4, 0.05);
  m.train(seq);
  // Sequence ends at 3; one step ahead is 0, two ahead 1, ...
  EXPECT_EQ(m.predict(TickIndex{1}).mode(), 0u);
  EXPECT_EQ(m.predict(TickIndex{2}).mode(), 1u);
  EXPECT_EQ(m.predict(TickIndex{6}).mode(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Orders, MarkovOrderSweep,
                         ::testing::Values(1, 2, 3, 4));

TEST(MarkovLanes, RejectsBadLanes) {
  EXPECT_THROW(MarkovModel(2, std::vector<std::size_t>{}, 0.5), CheckFailure);
  EXPECT_THROW(MarkovModel(2, std::vector<std::size_t>{3, 1}, 0.5),
               CheckFailure);
  MarkovModel m(2, std::vector<std::size_t>{3, 4}, 0.5);
  EXPECT_EQ(m.lanes(), 2u);
  EXPECT_THROW(m.train({{0, 1, 2}, {0, 1}}), CheckFailure);
  m.train({{0, 1, 2}, {0, 1, 3}});
  // One-lane calls on a two-lane model, and out-of-alphabet symbols.
  EXPECT_THROW(m.observe(BinIndex{0}, true), CheckFailure);
  EXPECT_THROW(m.predict(TickIndex{1}), CheckFailure);
  EXPECT_THROW(m.row_stats(), CheckFailure);
  EXPECT_THROW(m.row_stats(2), CheckFailure);
  const std::vector<std::size_t> bad{3, 0};
  EXPECT_THROW(m.observe(bad, true), CheckFailure);
  std::vector<Distribution> one(1);
  EXPECT_THROW(m.predict_into(TickIndex{1}, one), CheckFailure);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same_bits(const Distribution& lane, const Distribution& alone,
                      const char* what, std::size_t l) {
  ASSERT_EQ(lane.size(), alone.size()) << what << " lane " << l;
  for (std::size_t j = 0; j < lane.size(); ++j)
    EXPECT_EQ(bits(lane[j]), bits(alone[j]))
        << what << " lane " << l << " bin " << j;
}

/// (order, lane count). Lane l's alphabet cycles through 2..8, so one
/// lane group mixes alphabets and smaller ones are embedded in larger.
class MarkovLaneEquivalence
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(MarkovLaneEquivalence, EveryLaneMatchesOneLaneModel) {
  const auto [order, lanes] = GetParam();
  std::vector<std::size_t> alphabets(lanes);
  for (std::size_t l = 0; l < lanes; ++l)
    alphabets[l] = 2 + (l * 5 + order) % 7;

  // Per-lane seeded random walks (sparse rows, so some lanes of a group
  // carry no mass at a source while others do): 200 symbols train, the
  // rest stream through observe() with learning switched on and off at
  // random.
  Rng rng(1000 + 10 * order + lanes);
  constexpr std::size_t kTrain = 200, kTotal = 260;
  std::vector<std::vector<std::size_t>> walks(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    std::int64_t s = rng.uniform_int(0, alphabets[l] - 1);
    for (std::size_t i = 0; i < kTotal; ++i) {
      s = std::clamp<std::int64_t>(s + rng.uniform_int(-1, 1), 0,
                                   static_cast<std::int64_t>(alphabets[l]) - 1);
      walks[l].push_back(static_cast<std::size_t>(s));
    }
  }

  MarkovModel grouped(order, alphabets, 0.05);
  std::vector<MarkovModel> alone;
  std::vector<std::vector<std::size_t>> train(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    train[l].assign(walks[l].begin(), walks[l].begin() + kTrain);
    alone.emplace_back(order, alphabets[l], 0.05);
    alone[l].train(train[l]);
  }
  grouped.train(train);
  std::vector<std::size_t> row(lanes);
  for (std::size_t i = kTrain; i < kTotal; ++i) {
    const bool learn = rng.uniform_int(0, 2) != 0;
    for (std::size_t l = 0; l < lanes; ++l) {
      row[l] = walks[l][i];
      alone[l].observe(BinIndex{row[l]}, learn);
    }
    grouped.observe(row, learn);
  }

  std::vector<Distribution> got(lanes);
  Distribution want;
  for (std::size_t steps : {1u, 2u, 5u, 24u}) {
    grouped.predict_into(TickIndex{steps}, got);
    for (std::size_t l = 0; l < lanes; ++l) {
      alone[l].predict_into(TickIndex{steps}, &want);
      expect_same_bits(got[l], want, "predict_into", l);
    }
  }

  std::vector<std::vector<Distribution>> paths(lanes);
  grouped.predict_path_into(TickIndex{24}, paths);
  std::vector<Distribution> want_path;
  for (std::size_t l = 0; l < lanes; ++l) {
    alone[l].predict_path_into(TickIndex{24}, &want_path);
    ASSERT_EQ(paths[l].size(), want_path.size());
    for (std::size_t s = 0; s < want_path.size(); ++s)
      expect_same_bits(paths[l][s], want_path[s], "path", l);
  }

  for (std::size_t l = 0; l < lanes; ++l) {
    const MarkovModel::RowStats a = grouped.row_stats(l);
    const MarkovModel::RowStats b = alone[l].row_stats();
    EXPECT_EQ(a.rows, b.rows) << "lane " << l;
    EXPECT_EQ(a.occupied_rows, b.occupied_rows) << "lane " << l;
    EXPECT_EQ(bits(a.entropy_sum), bits(b.entropy_sum)) << "lane " << l;
    EXPECT_EQ(bits(a.entropy_max), bits(b.entropy_max)) << "lane " << l;
    EXPECT_EQ(bits(a.count_total), bits(b.count_total)) << "lane " << l;

    // Every transition cell, contexts enumerated oldest symbol first.
    std::vector<std::size_t> ctx(order, 0);
    for (std::size_t c = 0; c < b.rows; ++c) {
      for (std::size_t i = order, rest = c; i-- > 0; rest /= alphabets[l])
        ctx[i] = rest % alphabets[l];
      for (std::size_t next = 0; next < alphabets[l]; ++next)
        ASSERT_EQ(bits(grouped.transition(l, ctx, BinIndex{next}).value()),
                  bits(alone[l].transition(ctx, BinIndex{next}).value()))
            << "lane " << l << " context " << c << " next " << next;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MarkovLaneEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(1, 3, 4, 5, 13)));

}  // namespace
}  // namespace prepare
