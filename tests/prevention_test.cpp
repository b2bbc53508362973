#include "core/prevention.h"

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "monitor/attributes.h"
#include "sim/clock.h"
#include "sim/cluster.h"

namespace prepare {
namespace {

class PreventionTest : public ::testing::Test {
 protected:
  explicit PreventionTest(PreventionConfig config = PreventionConfig()) {
    host_ = cluster_.add_host("h1");
    spare_ = cluster_.add_host("spare");
    vm_ = cluster_.add_vm("vm", 1.0, 512.0, host_);
    hypervisor_ = std::make_unique<Hypervisor>(&clock_, &cluster_, &log_);
    actuator_ = std::make_unique<PreventionActuator>(
        hypervisor_.get(), &cluster_, &store_, &sinks_, config);
  }

  /// Appends a monitoring sample so validation windows have data.
  void record(double t, double value) {
    AttributeVector v{};
    for (std::size_t a = 0; a < kAttributeCount; ++a) v[a] = value;
    store_.record("vm", t, v);
  }

  Diagnosis::FaultyVm faulty(std::vector<Attribute> ranked) {
    Diagnosis::FaultyVm f;
    f.vm = "vm";
    f.score = 2.0;
    f.ranked = std::move(ranked);
    return f;
  }

  SimClock clock_;
  Cluster cluster_;
  EventLog log_;
  DecisionSinks sinks_{&log_, nullptr, nullptr};
  MetricStore store_;
  Host* host_ = nullptr;
  Host* spare_ = nullptr;
  Vm* vm_ = nullptr;
  std::unique_ptr<Hypervisor> hypervisor_;
  std::unique_ptr<PreventionActuator> actuator_;
};

class ScalingPreventionTest : public PreventionTest {
 protected:
  static PreventionConfig config() {
    PreventionConfig c;
    c.mode = PreventionMode::kScalingOnly;
    c.reclaim_enabled = false;
    return c;
  }
  ScalingPreventionTest() : PreventionTest(config()) {}
};

TEST_F(ScalingPreventionTest, MemoryMetricTriggersMemoryScaling) {
  record(0.0, 10.0);
  EXPECT_TRUE(actuator_->actuate(faulty({Attribute::kFreeMem}), 0.0));
  clock_.advance(Seconds{1.0});
  EXPECT_GT(vm_->mem_alloc(), 512.0);
  EXPECT_DOUBLE_EQ(vm_->cpu_alloc(), 1.0);
  EXPECT_EQ(log_.count_of(EventKind::kPrevention), 1u);
}

TEST_F(ScalingPreventionTest, CpuMetricTriggersCpuScaling) {
  record(0.0, 10.0);
  EXPECT_TRUE(actuator_->actuate(faulty({Attribute::kCpuUtil}), 0.0));
  clock_.advance(Seconds{1.0});
  EXPECT_GT(vm_->cpu_alloc(), 1.0);
}

TEST_F(ScalingPreventionTest, CompanionActionCoversOtherResourceKind) {
  record(0.0, 10.0);
  // CPU ranked first, memory second: both should scale in one shot.
  EXPECT_TRUE(actuator_->actuate(
      faulty({Attribute::kCpuUtil, Attribute::kFreeMem}), 0.0));
  clock_.advance(Seconds{1.0});
  EXPECT_GT(vm_->cpu_alloc(), 1.0);
  EXPECT_GT(vm_->mem_alloc(), 512.0);
}

TEST_F(ScalingPreventionTest, NonActionableMetricsSkipped) {
  record(0.0, 10.0);
  EXPECT_TRUE(actuator_->actuate(
      faulty({Attribute::kNetIn, Attribute::kFreeMem}), 0.0));
  clock_.advance(Seconds{1.0});
  EXPECT_GT(vm_->mem_alloc(), 512.0);
}

TEST_F(ScalingPreventionTest, NoActionableMetricNoAction) {
  record(0.0, 10.0);
  EXPECT_FALSE(actuator_->actuate(faulty({Attribute::kNetOut}), 0.0));
  EXPECT_EQ(actuator_->actions_fired(), 0u);
}

TEST_F(ScalingPreventionTest, ValidationOpenBlocksReactuation) {
  record(0.0, 10.0);
  EXPECT_TRUE(actuator_->actuate(faulty({Attribute::kFreeMem}), 0.0));
  EXPECT_TRUE(actuator_->validation_open("vm"));
  EXPECT_FALSE(actuator_->actuate(faulty({Attribute::kFreeMem}), 5.0));
}

TEST_F(ScalingPreventionTest, ValidationClearsWhenHealthy) {
  record(0.0, 10.0);
  actuator_->actuate(faulty({Attribute::kFreeMem}), 0.0);
  record(5.0, 10.0);
  record(25.0, 10.0);
  actuator_->on_sample(25.0, {});  // VM healthy -> validation success
  EXPECT_FALSE(actuator_->validation_open("vm"));
  EXPECT_EQ(actuator_->validations_failed(), 0u);
}

TEST_F(ScalingPreventionTest, FailedValidationTriesNextMetric) {
  record(0.0, 10.0);
  actuator_->actuate(
      faulty({Attribute::kFreeMem, Attribute::kDiskRead,
              Attribute::kCpuUtil}),
      0.0);
  const double mem_after_first = 512.0 * 2.0;
  clock_.advance(Seconds{1.0});
  EXPECT_DOUBLE_EQ(vm_->mem_alloc(), mem_after_first);
  // Still unhealthy after the validation delay: the actuator must fall
  // through disk_read (not actionable) to cpu_util.
  record(10.0, 10.0);
  record(21.0, 10.0);
  actuator_->on_sample(21.0, {"vm"});
  clock_.advance(Seconds{1.0});
  EXPECT_GT(actuator_->validations_failed(), 0u);
  EXPECT_GT(vm_->cpu_alloc(), 1.0);
}

TEST_F(ScalingPreventionTest, ExhaustedRankingClosesValidation) {
  record(0.0, 10.0);
  actuator_->actuate(faulty({Attribute::kFreeMem}), 0.0);
  record(10.0, 10.0);
  record(21.0, 10.0);
  actuator_->on_sample(21.0, {"vm"});
  EXPECT_FALSE(actuator_->validation_open("vm"));
  // A later alert may retry from the top (the leak kept growing).
  EXPECT_TRUE(actuator_->actuate(faulty({Attribute::kFreeMem}), 30.0));
}

TEST_F(ScalingPreventionTest, ScalingClampedByHostHeadroom) {
  // Fill the host so memory can only grow a little.
  cluster_.add_vm("neighbor", 0.5, 2800.0, host_);
  record(0.0, 10.0);
  EXPECT_TRUE(actuator_->actuate(faulty({Attribute::kFreeMem}), 0.0));
  clock_.advance(Seconds{1.0});
  EXPECT_LE(vm_->mem_alloc(), 512.0 + 3584.0);
  EXPECT_GT(vm_->mem_alloc(), 512.0);
}

class MigrationPreventionTest : public PreventionTest {
 protected:
  static PreventionConfig config() {
    PreventionConfig c;
    c.mode = PreventionMode::kMigrationOnly;
    c.reclaim_enabled = false;
    return c;
  }
  MigrationPreventionTest() : PreventionTest(config()) {}
};

TEST_F(MigrationPreventionTest, MigratesToSpareWithGrownAllocation) {
  record(0.0, 10.0);
  EXPECT_TRUE(actuator_->actuate(faulty({Attribute::kFreeMem}), 0.0));
  EXPECT_TRUE(vm_->migrating());
  clock_.advance(Seconds{30.0});
  EXPECT_EQ(cluster_.host_of(*vm_), spare_);
  EXPECT_GT(vm_->mem_alloc(), 512.0);
  EXPECT_GT(vm_->cpu_alloc(), 1.0);
}

TEST_F(MigrationPreventionTest, CooldownFallsBackToScaling) {
  record(0.0, 10.0);
  actuator_->actuate(faulty({Attribute::kFreeMem}), 0.0);
  clock_.advance(Seconds{30.0});
  // Close the open validation as healthy, then trigger again within the
  // migration cooldown: the actuator should scale on the current host.
  record(25.0, 10.0);
  actuator_->on_sample(25.0, {});
  const double mem_before = vm_->mem_alloc();
  EXPECT_TRUE(actuator_->actuate(faulty({Attribute::kFreeMem}), 40.0));
  clock_.advance(Seconds{1.0});
  EXPECT_EQ(cluster_.host_of(*vm_), spare_);  // no second migration
  EXPECT_GT(vm_->mem_alloc(), mem_before);
}

TEST_F(MigrationPreventionTest, NoTargetHostNoAction) {
  cluster_.add_vm("blocker", 1.7, 3000.0, spare_);
  record(0.0, 10.0);
  // Migration impossible and (in kMigrationOnly) scaling fallback still
  // applies on the local host.
  EXPECT_TRUE(actuator_->actuate(faulty({Attribute::kFreeMem}), 0.0));
  clock_.advance(Seconds{1.0});
  EXPECT_EQ(cluster_.host_of(*vm_), host_);
  EXPECT_GT(vm_->mem_alloc(), 512.0);
}

// A VM whose ranked metrics can never be acted on (network metrics
// cannot be scaled and the spare host is full) used to warn once per
// ranked metric per round. Each warning kind now fires once per VM, and
// again only after an action fired for it; the EventLog keeps one
// record per attempt.
TEST_F(PreventionTest, StuckVmWarnsOncePerKindUntilAnActionFires) {
  std::ostringstream captured;
  const LogLevel saved_level = Logger::level();
  Logger::set_level(LogLevel::kWarn);
  Logger::set_sink(&captured);
  const auto warnings = [&captured] {
    std::size_t n = 0;
    std::istringstream lines(captured.str());
    for (std::string line; std::getline(lines, line);)
      if (line.find("[warn] prevention") != std::string::npos) ++n;
    return n;
  };

  cluster_.add_vm("blocker", 1.7, 3000.0, spare_);
  record(0.0, 10.0);
  const auto stuck = faulty({Attribute::kNetIn, Attribute::kNetOut});
  for (double t : {0.0, 5.0, 10.0})
    EXPECT_FALSE(actuator_->actuate(stuck, t));
  const std::size_t stuck_warnings = warnings();
  // 2 skipped migrations and 1 exhausted ranking per round.
  const std::size_t stuck_records = log_.count_of(EventKind::kInfo);

  // A memory scaling fires, its validation closes healthy, and the VM
  // gets stuck again: both warnings are due once more.
  EXPECT_TRUE(actuator_->actuate(faulty({Attribute::kFreeMem}), 15.0));
  actuator_->on_sample(35.0, {});
  ASSERT_FALSE(actuator_->validation_open("vm"));
  EXPECT_FALSE(actuator_->actuate(stuck, 40.0));
  const std::size_t rearmed_warnings = warnings();

  Logger::set_sink(nullptr);
  Logger::set_level(saved_level);
  EXPECT_EQ(stuck_records, 9u);
  EXPECT_EQ(stuck_warnings, 2u) << captured.str();
  EXPECT_EQ(rearmed_warnings, 4u) << captured.str();
}

// The policy table: every mode x {cpu, memory, other} metric x scale /
// migrate feasibility, with the remedy chosen and the order in which the
// two attempts were consulted ("s" scale, "m" migrate). Recorded from
// the actuator's decision switch before the policy became one function.
TEST(PreventionPolicy, TableOfRemediesAndConsultationOrder) {
  using M = PreventionMode;
  using K = MetricKind;
  using R = Remedy;
  struct Row {
    M mode;
    K kind;
    bool scale_ok, migrate_ok;
    R remedy;
    const char* consulted;
  };
  const Row table[] = {
      {M::kScalingOnly, K::kCpu, false, false, R::kNone, "s"},
      {M::kScalingOnly, K::kCpu, false, true, R::kNone, "s"},
      {M::kScalingOnly, K::kCpu, true, false, R::kScale, "s"},
      {M::kScalingOnly, K::kCpu, true, true, R::kScale, "s"},
      {M::kScalingOnly, K::kMemory, false, false, R::kNone, "s"},
      {M::kScalingOnly, K::kMemory, false, true, R::kNone, "s"},
      {M::kScalingOnly, K::kMemory, true, false, R::kScale, "s"},
      {M::kScalingOnly, K::kMemory, true, true, R::kScale, "s"},
      {M::kScalingOnly, K::kOther, false, false, R::kNone, ""},
      {M::kScalingOnly, K::kOther, false, true, R::kNone, ""},
      {M::kScalingOnly, K::kOther, true, false, R::kNone, ""},
      {M::kScalingOnly, K::kOther, true, true, R::kNone, ""},
      {M::kMigrationOnly, K::kCpu, false, false, R::kNone, "ms"},
      {M::kMigrationOnly, K::kCpu, false, true, R::kMigrate, "m"},
      {M::kMigrationOnly, K::kCpu, true, false, R::kScale, "ms"},
      {M::kMigrationOnly, K::kCpu, true, true, R::kMigrate, "m"},
      {M::kMigrationOnly, K::kMemory, false, false, R::kNone, "ms"},
      {M::kMigrationOnly, K::kMemory, false, true, R::kMigrate, "m"},
      {M::kMigrationOnly, K::kMemory, true, false, R::kScale, "ms"},
      {M::kMigrationOnly, K::kMemory, true, true, R::kMigrate, "m"},
      {M::kMigrationOnly, K::kOther, false, false, R::kNone, "m"},
      {M::kMigrationOnly, K::kOther, false, true, R::kMigrate, "m"},
      {M::kMigrationOnly, K::kOther, true, false, R::kNone, "m"},
      {M::kMigrationOnly, K::kOther, true, true, R::kMigrate, "m"},
      {M::kScalingThenMigration, K::kCpu, false, false, R::kNone, "sm"},
      {M::kScalingThenMigration, K::kCpu, false, true, R::kMigrate, "sm"},
      {M::kScalingThenMigration, K::kCpu, true, false, R::kScale, "s"},
      {M::kScalingThenMigration, K::kCpu, true, true, R::kScale, "s"},
      {M::kScalingThenMigration, K::kMemory, false, false, R::kNone, "sm"},
      {M::kScalingThenMigration, K::kMemory, false, true, R::kMigrate, "sm"},
      {M::kScalingThenMigration, K::kMemory, true, false, R::kScale, "s"},
      {M::kScalingThenMigration, K::kMemory, true, true, R::kScale, "s"},
      {M::kScalingThenMigration, K::kOther, false, false, R::kNone, "m"},
      {M::kScalingThenMigration, K::kOther, false, true, R::kMigrate, "m"},
      {M::kScalingThenMigration, K::kOther, true, false, R::kNone, "m"},
      {M::kScalingThenMigration, K::kOther, true, true, R::kMigrate, "m"},
  };
  for (const auto phase : {PreventionPhase::kInitial, PreventionPhase::kFallback}) {
    for (const Row& row : table) {
      std::string consulted;
      const Remedy remedy = prevention_policy(
          row.mode, row.kind, phase,
          [&] {
            consulted += 's';
            return row.scale_ok;
          },
          [&] {
            consulted += 'm';
            return row.migrate_ok;
          });
      const auto where = ::testing::Message()
                         << "mode " << static_cast<int>(row.mode) << " kind "
                         << static_cast<int>(row.kind) << " scale "
                         << row.scale_ok << " migrate " << row.migrate_ok;
      EXPECT_EQ(remedy, row.remedy) << where;
      EXPECT_EQ(consulted, row.consulted) << where;
    }
  }
}

TEST(PreventionPolicy, CompanionIsAlwaysAScaling) {
  for (const auto mode :
       {PreventionMode::kScalingOnly, PreventionMode::kMigrationOnly,
        PreventionMode::kScalingThenMigration}) {
    for (const bool scale_ok : {false, true}) {
      std::string consulted;
      const Remedy remedy = prevention_policy(
          mode, MetricKind::kMemory, PreventionPhase::kCompanion,
          [&] {
            consulted += 's';
            return scale_ok;
          },
          [&] {
            consulted += 'm';
            return true;
          });
      EXPECT_EQ(remedy, scale_ok ? Remedy::kScale : Remedy::kNone);
      EXPECT_EQ(consulted, "s");
    }
  }
}

class ReclaimTest : public PreventionTest {
 protected:
  static PreventionConfig config() {
    PreventionConfig c;
    c.mode = PreventionMode::kScalingOnly;
    c.reclaim_enabled = true;
    c.reclaim_idle_s = 30.0;
    return c;
  }
  ReclaimTest() : PreventionTest(config()) {}
};

TEST_F(ReclaimTest, IdleOverProvisionedVmShrinksTowardBaseline) {
  vm_->set_cpu_alloc(1.8);
  vm_->set_mem_alloc(1024.0);
  // Sustained low utilization samples.
  for (double t = 0.0; t <= 60.0; t += 5.0) record(t, 10.0);
  actuator_->on_sample(60.0, {});
  clock_.advance(Seconds{1.0});
  EXPECT_LT(vm_->cpu_alloc(), 1.8);
  EXPECT_LT(vm_->mem_alloc(), 1024.0);
  // Repeated reclaim converges to the baseline, never below.
  for (double t = 65.0; t <= 600.0; t += 5.0) {
    record(t, 10.0);
    actuator_->on_sample(t, {});
    clock_.advance(Seconds{5.0});
  }
  EXPECT_DOUBLE_EQ(vm_->cpu_alloc(), 1.0);
  EXPECT_DOUBLE_EQ(vm_->mem_alloc(), 512.0);
}

TEST_F(ReclaimTest, BusyVmNotReclaimed) {
  vm_->set_cpu_alloc(1.8);
  for (double t = 0.0; t <= 60.0; t += 5.0) record(t, 90.0);  // hot
  actuator_->on_sample(60.0, {});
  clock_.advance(Seconds{1.0});
  EXPECT_DOUBLE_EQ(vm_->cpu_alloc(), 1.8);
}

TEST_F(ReclaimTest, UnhealthyVmNotReclaimed) {
  vm_->set_cpu_alloc(1.8);
  for (double t = 0.0; t <= 60.0; t += 5.0) record(t, 10.0);
  actuator_->on_sample(60.0, {"vm"});
  clock_.advance(Seconds{1.0});
  EXPECT_DOUBLE_EQ(vm_->cpu_alloc(), 1.8);
}

TEST_F(ReclaimTest, BaselineVmUntouched) {
  for (double t = 0.0; t <= 60.0; t += 5.0) record(t, 10.0);
  actuator_->on_sample(60.0, {});
  clock_.advance(Seconds{1.0});
  EXPECT_DOUBLE_EQ(vm_->cpu_alloc(), 1.0);
  EXPECT_DOUBLE_EQ(vm_->mem_alloc(), 512.0);
}

}  // namespace
}  // namespace prepare
