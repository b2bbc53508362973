// Integration tests: the controllers driving the full simulated testbed
// through short fault scenarios.
#include "core/controller.h"

#include <string>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "obs/flight_recorder.h"

namespace prepare {
namespace {

ScenarioConfig base_config(Scheme scheme) {
  ScenarioConfig c;
  c.app = AppKind::kSystemS;
  c.fault = FaultKind::kMemoryLeak;
  c.scheme = scheme;
  c.seed = 11;
  c.prepare.prevention.mode = PreventionMode::kScalingOnly;
  return c;
}

TEST(Controllers, PrepareBeatsNoIntervention) {
  auto none = run_scenario(base_config(Scheme::kNoIntervention));
  auto prep = run_scenario(base_config(Scheme::kPrepare));
  EXPECT_GT(none.violation_time, 60.0);
  EXPECT_LT(prep.violation_time, none.violation_time * 0.5);
}

TEST(Controllers, ReactiveBeatsNoIntervention) {
  auto none = run_scenario(base_config(Scheme::kNoIntervention));
  auto reactive = run_scenario(base_config(Scheme::kReactive));
  EXPECT_LT(reactive.violation_time, none.violation_time * 0.7);
}

TEST(Controllers, PrepareActsOnTheFaultyVm) {
  auto result = run_scenario(base_config(Scheme::kPrepare));
  bool acted_on_faulty = false;
  for (const auto& e : result.events.events()) {
    if (e.kind == EventKind::kPrevention && e.subject == result.faulty_vm &&
        e.time >= 880.0)
      acted_on_faulty = true;
  }
  EXPECT_TRUE(acted_on_faulty);
}

TEST(Controllers, PrepareRaisesAlertsBeforeSecondViolation) {
  auto result = run_scenario(base_config(Scheme::kPrepare));
  // Find the first violation after the second injection start (900).
  double violation_start = 1e18;
  for (const auto& iv : result.slo.intervals())
    if (iv.start >= 880.0) {
      violation_start = iv.start;
      break;
    }
  double first_alert = 1e18;
  for (const auto& e : result.events.events())
    if (e.kind == EventKind::kAlert && e.subject == result.faulty_vm &&
        e.time >= 880.0) {
      first_alert = e.time;
      break;
    }
  ASSERT_LT(first_alert, 1e18);
  // With prevention the violation may never happen at all; if it does,
  // the alert must precede it.
  EXPECT_LT(first_alert, violation_start);
}

TEST(Controllers, ReactiveActsOnlyAfterViolation) {
  auto result = run_scenario(base_config(Scheme::kReactive));
  double first_violation = 1e18;
  for (const auto& iv : result.slo.intervals()) {
    first_violation = iv.start;
    break;
  }
  for (const auto& e : result.events.events()) {
    if (e.kind != EventKind::kPrevention) continue;
    EXPECT_GE(e.time, first_violation);
  }
}

TEST(Controllers, NoInterventionTakesNoActions) {
  auto result = run_scenario(base_config(Scheme::kNoIntervention));
  EXPECT_EQ(result.events.count_of(EventKind::kPrevention), 0u);
  EXPECT_EQ(result.events.count_of(EventKind::kCpuScale), 0u);
  EXPECT_EQ(result.events.count_of(EventKind::kMemScale), 0u);
  EXPECT_EQ(result.events.count_of(EventKind::kMigrationStart), 0u);
}

TEST(Controllers, MigrationModeMigratesFaultyVm) {
  auto config = base_config(Scheme::kPrepare);
  config.prepare.prevention.mode = PreventionMode::kMigrationOnly;
  auto result = run_scenario(config);
  bool migrated_faulty = false;
  for (const auto& e : result.events.events())
    if (e.kind == EventKind::kMigrationDone && e.subject == result.faulty_vm)
      migrated_faulty = true;
  EXPECT_TRUE(migrated_faulty);
}

TEST(Controllers, CpuHogHandledByBothSchemes) {
  auto config = base_config(Scheme::kReactive);
  config.fault = FaultKind::kCpuHog;
  auto reactive = run_scenario(config);
  config.scheme = Scheme::kPrepare;
  auto prep = run_scenario(config);
  config.scheme = Scheme::kNoIntervention;
  auto none = run_scenario(config);
  EXPECT_LT(reactive.violation_time, none.violation_time * 0.3);
  EXPECT_LE(prep.violation_time, reactive.violation_time * 1.5 + 10.0);
}

TEST(Controllers, BottleneckPreventedByScaling) {
  auto config = base_config(Scheme::kPrepare);
  config.fault = FaultKind::kBottleneck;
  auto prep = run_scenario(config);
  config.scheme = Scheme::kNoIntervention;
  auto none = run_scenario(config);
  EXPECT_LT(prep.violation_time, none.violation_time * 0.5);
}

TEST(Controllers, RubisScenariosWork) {
  auto config = base_config(Scheme::kPrepare);
  config.app = AppKind::kRubis;
  for (FaultKind fault :
       {FaultKind::kMemoryLeak, FaultKind::kCpuHog, FaultKind::kBottleneck}) {
    config.fault = fault;
    config.scheme = Scheme::kPrepare;
    auto prep = run_scenario(config);
    config.scheme = Scheme::kNoIntervention;
    auto none = run_scenario(config);
    EXPECT_LT(prep.violation_time, none.violation_time * 0.5)
        << fault_kind_name(fault);
  }
}

// Evidence captures open and close on the span tracer's episode hooks,
// so a PREPARE run with a recorder but no tracer could never emit a
// bundle: it fails at construction. The reactive baseline drives no
// recorder and ignores one.
TEST(Controllers, RecorderWithoutTracerFailsLoudly) {
  obs::FlightRecorder recorder;
  ScenarioConfig config = base_config(Scheme::kPrepare);
  config.run_end = 50.0;
  config.recorder = &recorder;
  try {
    run_scenario(config);
    ADD_FAILURE() << "a recorder without a tracer must CHECK-fail";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("span tracer"), std::string::npos)
        << e.what();
  }
  config.scheme = Scheme::kReactive;
  EXPECT_NO_THROW(run_scenario(config));
  EXPECT_EQ(recorder.bundles_emitted(), 0u);
}

TEST(Controllers, ContextValidationThrowsOnNulls) {
  ControllerContext ctx;  // all nulls
  EXPECT_THROW(NoInterventionManager{ctx}, CheckFailure);
}

}  // namespace
}  // namespace prepare
