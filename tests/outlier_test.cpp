#include "models/outlier.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"

namespace prepare {
namespace {

/// Normal data: a0 in {0,1} correlated with a1; a2 independent noise.
LabeledDataset normal_population(std::size_t n, std::uint64_t seed) {
  LabeledDataset data;
  data.alphabet = {3, 3, 3};
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t a0 = rng.chance(0.5) ? 0 : 1;
    const std::size_t a1 = rng.chance(0.9) ? a0 : 1 - a0;
    const std::size_t a2 = static_cast<std::size_t>(rng.uniform_int(0, 2));
    data.rows.push_back({a0, a1, a2});
    data.abnormal.push_back(false);
  }
  return data;
}

TEST(Outlier, RejectsBadConstruction) {
  EXPECT_THROW(OutlierClassifier(0.0), CheckFailure);
  EXPECT_THROW(OutlierClassifier(1.5), CheckFailure);
  EXPECT_THROW(OutlierClassifier(0.99, 0.0), CheckFailure);
}

TEST(Outlier, MalformedTrainingRowsThrow) {
  auto data = normal_population(100, 12);
  data.rows[7][2] = 3;  // outside the 3-bin alphabet
  EXPECT_THROW(OutlierClassifier().train(data), CheckFailure);
  data = normal_population(100, 12);
  data.rows[7].pop_back();
  EXPECT_THROW(OutlierClassifier().train(data), CheckFailure);
}

TEST(Outlier, NormalStatesStayNormal) {
  OutlierClassifier model(0.995);
  const auto data = normal_population(500, 1);
  model.train(data);
  std::size_t alarms = 0;
  for (const auto& row : data.rows)
    if (model.classify(row).abnormal) ++alarms;
  // By construction at most ~0.5% of the training data exceeds the
  // threshold quantile.
  EXPECT_LE(alarms, data.rows.size() / 50);
}

TEST(Outlier, NeverSeenStateFlagged) {
  OutlierClassifier model(0.99);
  model.train(normal_population(500, 2));
  // Value 2 never occurs on a0/a1 in the normal population.
  EXPECT_TRUE(model.classify({2, 2, 1}).abnormal);
}

TEST(Outlier, BrokenCorrelationFlagged) {
  OutlierClassifier model(0.995);
  model.train(normal_population(1000, 3));
  // a0 and a1 disagree — each value is common, the combination is rare.
  const auto agree = model.classify({0, 0, 1});
  const auto disagree = model.classify({0, 1, 1});
  EXPECT_GT(disagree.score, agree.score);
}

TEST(Outlier, LabelsAreIgnored) {
  auto data = normal_population(400, 4);
  auto relabeled = data;
  for (std::size_t i = 0; i < relabeled.abnormal.size(); i += 3)
    relabeled.abnormal[i] = true;  // garbage labels
  OutlierClassifier a(0.99), b(0.99);
  a.train(data);
  b.train(relabeled);
  for (const auto& row :
       {std::vector<std::size_t>{0, 0, 1}, {2, 2, 2}, {1, 0, 0}})
    EXPECT_DOUBLE_EQ(a.classify(row).score, b.classify(row).score);
}

TEST(Outlier, ImpactsPinpointTheOddAttribute) {
  OutlierClassifier model(0.99);
  model.train(normal_population(800, 5));
  const auto cls = model.classify({0, 0, 2});  // all values common
  const auto odd = model.classify({2, 0, 2});  // a0 = 2 never seen
  const auto order = Classifier::ranked_attributes(odd);
  EXPECT_EQ(order[0], 0u);
  EXPECT_GT(odd.impacts[0], cls.impacts[0]);
}

TEST(Outlier, SurprisalDecomposes) {
  OutlierClassifier model(0.99);
  model.train(normal_population(300, 6));
  const std::vector<std::size_t> row = {0, 1, 2};
  const auto cls = model.classify(row);
  EXPECT_NEAR(cls.score, model.surprisal(row) - model.threshold(), 1e-12);
}

TEST(Outlier, ExpectedClassificationMatchesDeltaInputs) {
  OutlierClassifier model(0.99);
  model.train(normal_population(300, 7));
  const std::vector<std::size_t> row = {1, 1, 0};
  std::vector<Distribution> dists = {Distribution::delta(3, BinIndex{1}),
                                     Distribution::delta(3, BinIndex{1}),
                                     Distribution::delta(3, BinIndex{0})};
  EXPECT_NEAR(model.classify(row).score,
              model.classify_expected(dists).score, 1e-9);
}

TEST(Outlier, StructureIsATree) {
  OutlierClassifier model(0.99);
  model.train(normal_population(400, 8));
  const auto& parents = model.parents();
  std::size_t roots = 0;
  for (std::size_t p : parents)
    if (p == OutlierClassifier::kNoParent) ++roots;
  EXPECT_EQ(roots, 1u);
  // The correlated pair (a0, a1) should be adjacent in the tree.
  EXPECT_TRUE(parents[0] == 1 || parents[1] == 0);
}

// Threshold-quantile sweep: a stricter quantile never alarms more often.
class OutlierQuantileSweep : public ::testing::TestWithParam<double> {};

TEST_P(OutlierQuantileSweep, TrainingAlarmRateBounded) {
  OutlierClassifier model(GetParam());
  const auto data = normal_population(600, 9);
  model.train(data);
  std::size_t alarms = 0;
  for (const auto& row : data.rows)
    if (model.classify(row).abnormal) ++alarms;
  EXPECT_LE(static_cast<double>(alarms) /
                static_cast<double>(data.rows.size()),
            (1.0 - GetParam()) + 0.02);
}

INSTANTIATE_TEST_SUITE_P(Quantiles, OutlierQuantileSweep,
                         ::testing::Values(0.9, 0.95, 0.99, 0.999));

}  // namespace
}  // namespace prepare
