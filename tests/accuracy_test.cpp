#include "core/accuracy.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "core/experiment.h"

namespace prepare {
namespace {

class AccuracyTest : public ::testing::Test {
 protected:
  static const ScenarioResult& trace() {
    static const ScenarioResult result = [] {
      ScenarioConfig config;
      config.app = AppKind::kSystemS;
      config.fault = FaultKind::kMemoryLeak;
      config.scheme = Scheme::kNoIntervention;
      config.seed = 3;
      return run_scenario(config);
    }();
    return result;
  }

  static std::vector<std::string> vms() { return trace().store.vm_names(); }
};

TEST_F(AccuracyTest, CountsAreConsistent) {
  const auto result =
      evaluate_accuracy(trace().store, trace().slo, vms(), 25.0,
                        AccuracyConfig{});
  EXPECT_GT(result.tp + result.fn, 0u);
  EXPECT_GT(result.fp + result.tn, 0u);
  EXPECT_NEAR(result.a_t,
              static_cast<double>(result.tp) /
                  static_cast<double>(result.tp + result.fn),
              1e-12);
  EXPECT_NEAR(result.a_f,
              static_cast<double>(result.fp) /
                  static_cast<double>(result.fp + result.tn),
              1e-12);
}

TEST_F(AccuracyTest, DetectsTheSecondInjection) {
  const auto result =
      evaluate_accuracy(trace().store, trace().slo, vms(), 15.0,
                        AccuracyConfig{});
  EXPECT_GT(result.a_t, 0.6);
  EXPECT_LT(result.a_f, 0.5);
}

TEST_F(AccuracyTest, PerComponentBeatsMonolithic) {
  AccuracyConfig config;
  config.per_component = true;
  const auto per =
      evaluate_accuracy(trace().store, trace().slo, vms(), 15.0, config);
  config.per_component = false;
  const auto mono =
      evaluate_accuracy(trace().store, trace().slo, vms(), 15.0, config);
  EXPECT_GT(per.a_t, mono.a_t);
}

TEST_F(AccuracyTest, FilteringReducesFalseAlarms) {
  AccuracyConfig raw;
  raw.filter_k = 1;
  raw.filter_w = 1;
  AccuracyConfig filtered;
  filtered.filter_k = 3;
  filtered.filter_w = 4;
  const auto r = evaluate_accuracy(trace().store, trace().slo, vms(), 15.0,
                                   raw);
  const auto f = evaluate_accuracy(trace().store, trace().slo, vms(), 15.0,
                                   filtered);
  EXPECT_LE(f.a_f, r.a_f + 1e-9);
}

TEST_F(AccuracyTest, RejectsBadArguments) {
  EXPECT_THROW(
      evaluate_accuracy(trace().store, trace().slo, {}, 15.0,
                        AccuracyConfig{}),
      CheckFailure);
  EXPECT_THROW(
      evaluate_accuracy(trace().store, trace().slo, vms(), 0.0,
                        AccuracyConfig{}),
      CheckFailure);
}

TEST_F(AccuracyTest, UnalignedHistoriesRejected) {
  MetricStore store;
  AttributeVector v{};
  store.record("a", 0.0, v);
  store.record("a", 5.0, v);
  store.record("b", 0.0, v);
  SloLog slo;
  slo.record(0.0, 5.0, false, 0.0);
  EXPECT_THROW(
      evaluate_accuracy(store, slo, {"a", "b"}, 5.0, AccuracyConfig{}),
      CheckFailure);
  // Equal counts, but the second VM's samples from index 150 on are
  // `shift` seconds late.
  const auto shifted = [](double shift) {
    const MetricStore& full = trace().store;
    MetricStore out;
    for (std::size_t v = 0; v < 2; ++v) {
      const std::string& vm = full.vm_names()[v];
      for (std::size_t i = 0; i < full.sample_count(vm); ++i)
        out.record(vm,
                   full.sample_time(vm, i) + (v == 1 && i >= 150 ? shift : 0),
                   full.sample(vm, i));
    }
    return out;
  };
  const std::vector<std::string> all = vms();
  const std::vector<std::string> two(all.begin(), all.begin() + 2);
  EXPECT_NO_THROW(evaluate_accuracy(shifted(0.0), trace().slo, two, 15.0,
                                    AccuracyConfig{}));
  EXPECT_THROW(evaluate_accuracy(shifted(1.0), trace().slo, two, 15.0,
                                 AccuracyConfig{}),
               CheckFailure);
}

// Look-ahead sweep: accuracy stays defined and bounded at every horizon
// the paper evaluates (5..45 s).
class LookaheadSweep : public ::testing::TestWithParam<double> {};

TEST_P(LookaheadSweep, BoundedRates) {
  ScenarioConfig config;
  config.app = AppKind::kRubis;
  config.fault = FaultKind::kBottleneck;
  config.scheme = Scheme::kNoIntervention;
  config.seed = 4;
  static const ScenarioResult result = run_scenario(config);
  const auto acc = evaluate_accuracy(result.store, result.slo,
                                     result.store.vm_names(), GetParam(),
                                     AccuracyConfig{});
  EXPECT_GE(acc.a_t, 0.0);
  EXPECT_LE(acc.a_t, 1.0);
  EXPECT_GE(acc.a_f, 0.0);
  EXPECT_LE(acc.a_f, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Horizons, LookaheadSweep,
                         ::testing::Values(5.0, 15.0, 25.0, 35.0, 45.0));

}  // namespace
}  // namespace prepare
