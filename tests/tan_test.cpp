#include "models/tan.h"

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"

namespace prepare {
namespace {

/// Attribute 0: anomaly signal. Attribute 1: copy of attribute 0 (fully
/// correlated). Attribute 2: independent noise.
LabeledDataset correlated_dataset(std::size_t n, std::uint64_t seed) {
  LabeledDataset data;
  data.alphabet = {3, 3, 3};
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const bool abnormal = i % 4 == 0;
    const std::size_t a0 =
        abnormal ? 2 : static_cast<std::size_t>(rng.uniform_int(0, 1));
    const std::size_t a1 = a0;
    const std::size_t a2 = static_cast<std::size_t>(rng.uniform_int(0, 2));
    data.rows.push_back({a0, a1, a2});
    data.abnormal.push_back(abnormal);
  }
  return data;
}

/// Verifies the parent vector forms a tree rooted at a single attribute.
void expect_valid_tree(const std::vector<std::size_t>& parents) {
  std::size_t roots = 0;
  for (std::size_t i = 0; i < parents.size(); ++i) {
    if (parents[i] == TanClassifier::kNoParent) {
      ++roots;
      continue;
    }
    ASSERT_LT(parents[i], parents.size());
    // Walk to the root; must terminate (no cycles).
    std::set<std::size_t> seen = {i};
    std::size_t cur = parents[i];
    while (cur != TanClassifier::kNoParent) {
      ASSERT_TRUE(seen.insert(cur).second) << "cycle through " << cur;
      cur = parents[cur];
    }
  }
  EXPECT_EQ(roots, 1u);
}

TEST(Tan, RejectsBadConstruction) {
  EXPECT_THROW(TanClassifier(0.0), CheckFailure);
}

TEST(Tan, StructureIsATree) {
  TanClassifier tan;
  tan.train(correlated_dataset(400, 1));
  expect_valid_tree(tan.parents());
}

TEST(Tan, CorrelatedAttributesBecomeNeighbors) {
  TanClassifier tan;
  tan.train(correlated_dataset(400, 2));
  // Attributes 0 and 1 are copies: one must be the other's parent.
  const auto& p = tan.parents();
  EXPECT_TRUE(p[1] == 0 || p[0] == 1);
}

TEST(Tan, CmiSymmetricNonNegative) {
  TanClassifier tan;
  tan.train(correlated_dataset(400, 3));
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_GE(tan.conditional_mutual_information(i, j), 0.0);
      EXPECT_DOUBLE_EQ(tan.conditional_mutual_information(i, j),
                       tan.conditional_mutual_information(j, i));
    }
  }
  // The correlated pair carries more information than the noise pair.
  EXPECT_GT(tan.conditional_mutual_information(0, 1),
            tan.conditional_mutual_information(0, 2));
}

TEST(Tan, ClassifiesPlantedSignal) {
  TanClassifier tan;
  tan.train(correlated_dataset(400, 4));
  EXPECT_TRUE(tan.classify({2, 2, 1}).abnormal);
  EXPECT_FALSE(tan.classify({0, 0, 1}).abnormal);
}

TEST(Tan, ScoreIsEquationOne) {
  // Classification::score must equal the prior log-odds plus the sum of
  // per-attribute impacts L_i (Eq. 1/2 of the paper).
  TanClassifier tan;
  tan.train(correlated_dataset(400, 5));
  const auto result = tan.classify({2, 2, 0});
  double total = std::log(tan.prior(true) / tan.prior(false));
  for (double impact : result.impacts) total += impact;
  EXPECT_NEAR(result.score, total, 1e-12);
  EXPECT_EQ(result.abnormal, result.score > 0.0);
}

TEST(Tan, ImpactsMatchLikelihoodRatios) {
  TanClassifier tan;
  tan.train(correlated_dataset(400, 6));
  const std::vector<std::size_t> row = {2, 2, 1};
  const auto result = tan.classify(row);
  for (std::size_t i = 0; i < row.size(); ++i) {
    const std::size_t p = tan.parents()[i];
    const std::size_t pv = p == TanClassifier::kNoParent ? 0 : row[p];
    const double expected = std::log(tan.likelihood(i, BinIndex{row[i]}, BinIndex{pv}, true) /
                                     tan.likelihood(i, BinIndex{row[i]}, BinIndex{pv}, false));
    EXPECT_NEAR(result.impacts[i], expected, 1e-12);
  }
}

TEST(Tan, AttributionRanksSignalFirst) {
  TanClassifier tan;
  tan.train(correlated_dataset(600, 7));
  const auto result = tan.classify({2, 2, 2});
  const auto order = Classifier::ranked_attributes(result);
  // The noise attribute must rank last.
  EXPECT_EQ(order.back(), 2u);
}

TEST(Tan, LikelihoodRowsAreDistributions) {
  TanClassifier tan;
  tan.train(correlated_dataset(300, 8));
  for (bool c : {false, true}) {
    for (std::size_t a = 0; a < 3; ++a) {
      for (std::size_t pv = 0; pv < 3; ++pv) {
        double total = 0.0;
        for (std::size_t v = 0; v < 3; ++v)
          total += tan.likelihood(a, BinIndex{v}, BinIndex{pv}, c);
        EXPECT_NEAR(total, 1.0, 1e-9);
      }
    }
  }
}

TEST(Tan, ExpectedClassificationMatchesDeltaInputs) {
  TanClassifier tan;
  tan.train(correlated_dataset(400, 9));
  const std::vector<std::size_t> row = {2, 2, 1};
  std::vector<Distribution> dists = {Distribution::delta(3, BinIndex{2}),
                                     Distribution::delta(3, BinIndex{2}),
                                     Distribution::delta(3, BinIndex{1})};
  const auto hard = tan.classify(row);
  const auto soft = tan.classify_expected(dists);
  EXPECT_NEAR(hard.score, soft.score, 1e-9);
}

TEST(Tan, SingleAttributeDegeneratesToNaiveBayes) {
  LabeledDataset data;
  data.alphabet = {2};
  for (int i = 0; i < 100; ++i) {
    const bool abnormal = i % 2 == 0;
    data.rows.push_back({abnormal ? 1u : 0u});
    data.abnormal.push_back(abnormal);
  }
  TanClassifier tan;
  tan.train(data);
  EXPECT_EQ(tan.parents()[0], TanClassifier::kNoParent);
  EXPECT_TRUE(tan.classify({1}).abnormal);
  EXPECT_FALSE(tan.classify({0}).abnormal);
}

TEST(Tan, AllNormalTrainingNeverAlarms) {
  LabeledDataset data;
  data.alphabet = {3, 3};
  Rng rng(10);
  for (int i = 0; i < 80; ++i) {
    data.rows.push_back(
        {static_cast<std::size_t>(rng.uniform_int(0, 2)),
         static_cast<std::size_t>(rng.uniform_int(0, 2))});
    data.abnormal.push_back(false);
  }
  TanClassifier tan;
  tan.train(data);
  for (std::size_t a = 0; a < 3; ++a)
    for (std::size_t b = 0; b < 3; ++b)
      EXPECT_FALSE(tan.classify({a, b}).abnormal);
}

TEST(Tan, MalformedTrainingRowsThrow) {
  // Caught before structure learning indexes the pair count tables.
  auto data = correlated_dataset(100, 12);
  data.rows[5][1] = 3;  // outside the 3-bin alphabet
  EXPECT_THROW(TanClassifier().train(data), CheckFailure);
  data = correlated_dataset(100, 12);
  data.rows[5].pop_back();
  EXPECT_THROW(TanClassifier().train(data), CheckFailure);
}

TEST(Tan, AlphabetBeyondSixteenBitColumnsThrows) {
  // The structure learner stores symbols in 16-bit columns; a larger
  // alphabet fails loudly, naming the attribute, before anything sized
  // by the alphabet is allocated.
  auto data = correlated_dataset(100, 13);
  data.alphabet[1] = 65537;
  try {
    TanClassifier().train(data);
    ADD_FAILURE() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("attribute 1 has alphabet 65537"),
              std::string::npos)
        << e.what();
  }
  data.alphabet[1] = 65536;  // the largest that fits
  EXPECT_NO_THROW(learn_chow_liu_tree(data, 1.0, /*class_conditional=*/true));
}

TEST(Tan, MismatchedRowSizeThrows) {
  TanClassifier tan;
  tan.train(correlated_dataset(100, 11));
  EXPECT_THROW(tan.classify({0}), CheckFailure);
}

// Property sweep: on datasets with a planted signal of varying strength,
// the structure stays a tree and classification accuracy on the training
// set is above chance.
class TanDatasetSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TanDatasetSweep, TreeAndTrainAccuracy) {
  const auto data = correlated_dataset(300, GetParam());
  TanClassifier tan;
  tan.train(data);
  expect_valid_tree(tan.parents());
  std::size_t correct = 0;
  for (std::size_t r = 0; r < data.rows.size(); ++r)
    if (tan.classify(data.rows[r]).abnormal == data.abnormal[r]) ++correct;
  EXPECT_GT(static_cast<double>(correct) /
                static_cast<double>(data.rows.size()),
            0.8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TanDatasetSweep,
                         ::testing::Values(21, 22, 23, 24, 25, 26, 27, 28));

// ---- Structure::kNaiveBayes: the empty tree is the naive Bayes baseline ----

/// Two attributes over 3 bins; attribute 0 is high iff abnormal,
/// attribute 1 is pure noise.
LabeledDataset planted_dataset(std::size_t n, std::uint64_t seed) {
  LabeledDataset data;
  data.alphabet = {3, 3};
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const bool abnormal = i % 3 == 0;
    const std::size_t a0 = abnormal ? 2 : (rng.chance(0.5) ? 0 : 1);
    const std::size_t a1 = static_cast<std::size_t>(rng.uniform_int(0, 2));
    data.rows.push_back({a0, a1});
    data.abnormal.push_back(abnormal);
  }
  return data;
}

TanClassifier naive_bayes(double alpha = 1.0) {
  return TanClassifier(alpha, TanClassifier::Structure::kNaiveBayes);
}

TEST(NaiveBayes, RejectsBadConstruction) {
  EXPECT_THROW(naive_bayes(0.0), CheckFailure);
}

TEST(NaiveBayes, TrainOnEmptyThrows) {
  auto nb = naive_bayes();
  EXPECT_THROW(nb.train(LabeledDataset{}), CheckFailure);
}

TEST(NaiveBayes, EveryAttributeHasOnlyTheClassParent) {
  auto nb = naive_bayes();
  nb.train(correlated_dataset(400, 2));
  // Even the copied attribute pair that TAN links stays unlinked.
  for (std::size_t p : nb.parents()) EXPECT_EQ(p, TanClassifier::kNoParent);
  EXPECT_THROW(nb.conditional_mutual_information(0, 1), CheckFailure);
}

TEST(NaiveBayes, ClassifiesPlantedSignal) {
  auto nb = naive_bayes();
  nb.train(planted_dataset(300, 1));
  EXPECT_TRUE(nb.classify({2, 1}).abnormal);
  EXPECT_FALSE(nb.classify({0, 1}).abnormal);
}

TEST(NaiveBayes, ScoreDecomposesIntoImpacts) {
  auto nb = naive_bayes();
  nb.train(planted_dataset(300, 2));
  const auto result = nb.classify({2, 0});
  double total = std::log(nb.prior(true) / nb.prior(false));
  for (double impact : result.impacts) total += impact;
  EXPECT_NEAR(result.score, total, 1e-12);
}

TEST(NaiveBayes, PlantedAttributeHasLargestImpact) {
  auto nb = naive_bayes();
  nb.train(planted_dataset(500, 3));
  const auto result = nb.classify({2, 2});
  const auto order = Classifier::ranked_attributes(result);
  EXPECT_EQ(order[0], 0u);
  EXPECT_GT(result.impacts[0], result.impacts[1]);
}

TEST(NaiveBayes, LikelihoodsAreDistributions) {
  auto nb = naive_bayes();
  nb.train(planted_dataset(200, 4));
  for (bool c : {false, true}) {
    for (std::size_t a = 0; a < 2; ++a) {
      double total = 0.0;
      for (std::size_t v = 0; v < 3; ++v)
        total += nb.likelihood(a, BinIndex{v}, BinIndex{0}, c);
      EXPECT_NEAR(total, 1.0, 1e-9);
    }
  }
}

TEST(NaiveBayes, PriorsSumToOne) {
  auto nb = naive_bayes();
  nb.train(planted_dataset(200, 5));
  EXPECT_NEAR(nb.prior(true) + nb.prior(false), 1.0, 1e-12);
}

TEST(NaiveBayes, ExpectedClassificationMatchesDeltaInputs) {
  auto nb = naive_bayes();
  nb.train(planted_dataset(300, 6));
  const std::vector<std::size_t> row = {2, 1};
  std::vector<Distribution> dists = {Distribution::delta(3, BinIndex{2}),
                                     Distribution::delta(3, BinIndex{1})};
  const auto hard = nb.classify(row);
  const auto soft = nb.classify_expected(dists);
  EXPECT_NEAR(hard.score, soft.score, 1e-9);
  EXPECT_EQ(hard.abnormal, soft.abnormal);
}

TEST(NaiveBayes, AllNormalTrainingNeverAlarms) {
  LabeledDataset data;
  data.alphabet = {3};
  for (int i = 0; i < 50; ++i) {
    data.rows.push_back({static_cast<std::size_t>(i % 3)});
    data.abnormal.push_back(false);
  }
  auto nb = naive_bayes();
  nb.train(data);
  for (std::size_t v = 0; v < 3; ++v)
    EXPECT_FALSE(nb.classify({v}).abnormal);
}

TEST(NaiveBayes, UntrainedQueriesThrow) {
  auto nb = naive_bayes();
  EXPECT_THROW(nb.classify({0}), CheckFailure);
  EXPECT_THROW(nb.prior(true), CheckFailure);
}

}  // namespace
}  // namespace prepare
