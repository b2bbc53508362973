#include "core/replay.h"

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/check.h"
#include "core/experiment.h"
#include "obs/flight_recorder.h"
#include "obs/span_tracer.h"

namespace prepare {
namespace {

const ScenarioResult& leak_trace() {
  static const ScenarioResult trace = [] {
    ScenarioConfig config;
    config.app = AppKind::kSystemS;
    config.fault = FaultKind::kMemoryLeak;
    config.scheme = Scheme::kNoIntervention;
    config.seed = 7;
    return run_scenario(config);
  }();
  return trace;
}

TEST(Replay, ConfirmsTheFaultyVmAroundTheSecondInjection) {
  ReplayConfig config;
  const auto report = replay_trace(leak_trace().store, leak_trace().slo,
                                   config);
  ASSERT_GT(report.confirmed_alerts, 0u);
  // The first confirmed alert must target the faulty VM, after the
  // second injection started and no later than shortly after the
  // violation begins.
  double violation2 = 1e18;
  for (const auto& iv : leak_trace().slo.intervals())
    if (iv.start > 880.0) {
      violation2 = iv.start;
      break;
    }
  const ReplayAlert* first = nullptr;
  for (const auto& alert : report.alerts)
    if (alert.confirmed) {
      first = &alert;
      break;
    }
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->vm, leak_trace().faulty_vm);
  EXPECT_GE(first->time, 900.0);
  EXPECT_LE(first->time, violation2 + 15.0);
}

TEST(Replay, AlertsCarryAttribution) {
  const auto report =
      replay_trace(leak_trace().store, leak_trace().slo, ReplayConfig{});
  for (const auto& alert : report.alerts) {
    if (!alert.confirmed) continue;
    EXPECT_FALSE(alert.top_metrics.empty());
  }
}

TEST(Replay, CountersConsistent) {
  const auto report =
      replay_trace(leak_trace().store, leak_trace().slo, ReplayConfig{});
  std::size_t confirmed = 0;
  double prev = -1.0;
  for (const auto& alert : report.alerts) {
    EXPECT_GE(alert.time, prev);  // chronological (ties across VMs ok)
    prev = alert.time;
    if (alert.confirmed) ++confirmed;
  }
  EXPECT_EQ(confirmed, report.confirmed_alerts);
  EXPECT_GE(report.raw_alerts, report.confirmed_alerts > 0 ? 1u : 0u);
}

TEST(Replay, SubsetOfVms) {
  const auto report =
      replay_trace(leak_trace().store, leak_trace().slo, ReplayConfig{},
                   {leak_trace().faulty_vm});
  for (const auto& alert : report.alerts)
    EXPECT_EQ(alert.vm, leak_trace().faulty_vm);
  EXPECT_GT(report.confirmed_alerts, 0u);
}

TEST(Replay, FaultFreeTraceNeverAlerts) {
  // A trace with no fault anywhere: training has no abnormal labels, so
  // the supervised models are suppressed and the replay must be silent.
  ScenarioConfig config;
  config.app = AppKind::kSystemS;  // steady source: no workload-induced
                                   // violations, unlike bursty RUBiS
  config.fault = FaultKind::kMemoryLeak;
  config.scheme = Scheme::kNoIntervention;
  config.seed = 8;
  config.fault1_start = 5000.0;  // neither injection ever happens
  config.fault2_start = 10000.0;
  config.run_end = 1200.0;
  const auto trace = run_scenario(config);
  EXPECT_DOUBLE_EQ(trace.slo.total_violation_time(), 0.0);
  const auto report = replay_trace(trace.store, trace.slo, ReplayConfig{});
  EXPECT_EQ(report.confirmed_alerts, 0u);
  EXPECT_EQ(report.raw_alerts, 0u);
  EXPECT_LT(report.first_confirmed, 0.0);
}

TEST(Replay, EmptyStoreThrows) {
  MetricStore store;
  SloLog slo;
  EXPECT_THROW(replay_trace(store, slo, ReplayConfig{}), CheckFailure);
}

// The leak trace's first two VMs, with `drop` samples cut from the end
// of one of them.
// The first two VMs of the leak trace, one of them `drop` samples short
// or, from sample `shift_from` on, with the second VM's timestamps
// shifted by `shift` seconds (equal counts, misaligned times).
MetricStore unaligned_store(bool shorten_first, std::size_t drop,
                            std::size_t shift_from = 0, double shift = 0.0) {
  const MetricStore& full = leak_trace().store;
  MetricStore store;
  for (std::size_t v = 0; v < 2; ++v) {
    const std::string& vm = full.vm_names()[v];
    std::size_t n = full.sample_count(vm);
    if ((v == 0) == shorten_first) n -= drop;
    for (std::size_t i = 0; i < n; ++i) {
      const double dt = v == 1 && i >= shift_from ? shift : 0.0;
      store.record(vm, full.sample_time(vm, i) + dt, full.sample(vm, i));
    }
  }
  return store;
}

std::string replay_failure(const MetricStore& store) {
  try {
    replay_trace(store, leak_trace().slo, ReplayConfig{});
  } catch (const CheckFailure& e) {
    return e.what();
  }
  return "";
}

TEST(Replay, ShorterFirstVmIsRejectedNotTruncated) {
  const auto store = unaligned_store(/*shorten_first=*/true, 3);
  const auto& vms = store.vm_names();
  const std::string what = replay_failure(store);
  EXPECT_NE(what.find("unaligned"), std::string::npos) << what;
  EXPECT_NE(what.find(vms[0]), std::string::npos) << what;
  EXPECT_NE(what.find(vms[1]), std::string::npos) << what;
  EXPECT_NE(what.find(std::to_string(store.sample_count(vms[0]))),
            std::string::npos)
      << what;
}

TEST(Replay, LongerFirstVmIsRejectedWithTheVmNames) {
  const auto store = unaligned_store(/*shorten_first=*/false, 3);
  const auto& vms = store.vm_names();
  const std::string what = replay_failure(store);
  EXPECT_NE(what.find("unaligned"), std::string::npos) << what;
  EXPECT_NE(what.find(vms[1]), std::string::npos) << what;
  EXPECT_NE(what.find(std::to_string(store.sample_count(vms[1]))),
            std::string::npos)
      << what;
}

TEST(Replay, ShiftedTimestampsAreRejectedAtTheFirstBadIndex) {
  const std::size_t from = 150;
  const auto store = unaligned_store(/*shorten_first=*/false, /*drop=*/0,
                                     from, /*shift=*/2.5);
  const auto& vms = store.vm_names();
  ASSERT_EQ(store.sample_count(vms[0]), store.sample_count(vms[1]));
  const std::string what = replay_failure(store);
  EXPECT_NE(what.find("unaligned"), std::string::npos) << what;
  EXPECT_NE(what.find(vms[0]), std::string::npos) << what;
  EXPECT_NE(what.find(vms[1]), std::string::npos) << what;
  EXPECT_NE(what.find("sample " + std::to_string(from) + " "),
            std::string::npos)
      << what;
  std::ostringstream times;
  times << "t=" << store.sample_time(vms[0], from) << ", of " << vms[1]
        << " at t=" << store.sample_time(vms[1], from);
  EXPECT_NE(what.find(times.str()), std::string::npos) << what;
}

// ------------------------------------------------ episode bundle replay

// Runs one faulted PREPARE scenario with a flight recorder attached and
// hands back the recorder's evidence. Serialized to JSONL for the
// determinism comparison; the bundles themselves for replay.
struct RecordedRun {
  obs::SpanTracer tracer;
  obs::FlightRecorder recorder;
  std::string evidence_jsonl;
};

void record_run(std::size_t num_threads, std::size_t seed,
                RecordedRun* out) {
  ScenarioConfig config;
  config.app = AppKind::kSystemS;
  config.fault = FaultKind::kMemoryLeak;
  config.scheme = Scheme::kPrepare;
  config.seed = seed;
  config.num_threads = num_threads;
  config.tracer = &out->tracer;
  config.recorder = &out->recorder;
  run_scenario(config);
  std::ostringstream os;
  out->recorder.write_evidence_jsonl(os, "replay-test");
  out->evidence_jsonl = os.str();
}

TEST(EpisodeReplay, EveryLiveBundleReplaysBitIdentically) {
  RecordedRun run;
  record_run(/*num_threads=*/1, /*seed=*/7, &run);
  ASSERT_GT(run.recorder.bundles_emitted(), 0u)
      << "the faulted run must capture at least one episode";
  for (const auto& bundle : run.recorder.bundles()) {
    const auto result = replay_episode(bundle);
    EXPECT_TRUE(result.ok)
        << bundle.trace_id << ": " << result.first_mismatch;
    EXPECT_GT(result.ticks_checked, 0u) << bundle.trace_id;
    EXPECT_EQ(result.score_mismatches, 0u) << bundle.trace_id;
    EXPECT_EQ(result.filter_mismatches, 0u) << bundle.trace_id;
    EXPECT_EQ(result.prevention_mismatches, 0u) << bundle.trace_id;
  }
}

TEST(EpisodeReplay, WhatIfUnderTheLivePolicyNeverDiverges) {
  RecordedRun run;
  record_run(/*num_threads=*/1, /*seed=*/7, &run);
  ASSERT_GT(run.recorder.bundles_emitted(), 0u);
  for (const auto& bundle : run.recorder.bundles()) {
    const auto same =
        what_if_policy(bundle, bundle.decision.prevention_mode);
    EXPECT_EQ(same.diverged, 0u)
        << bundle.trace_id << ": " << same.detail;
    EXPECT_EQ(same.compared, same.decisions.size());
  }
}

TEST(EpisodeReplay, WhatIfReportsConsistentDivergenceCounts) {
  RecordedRun run;
  record_run(/*num_threads=*/1, /*seed=*/7, &run);
  ASSERT_GT(run.recorder.bundles_emitted(), 0u);
  for (const auto& bundle : run.recorder.bundles()) {
    for (int policy = 0; policy <= 2; ++policy) {
      const auto result = what_if_policy(bundle, policy);
      EXPECT_EQ(result.policy, policy);
      std::size_t diverged = 0;
      for (const auto& [live, cf] : result.decisions)
        if (live != cf) ++diverged;
      EXPECT_EQ(result.diverged, diverged) << bundle.trace_id;
      EXPECT_EQ(result.diverged == 0, result.detail.empty())
          << bundle.trace_id << ": " << result.detail;
    }
  }
}

TEST(EpisodeReplay, BundlesAreByteIdenticalAcrossThreadCounts) {
  RecordedRun serial, fanned;
  record_run(/*num_threads=*/1, /*seed=*/7, &serial);
  record_run(/*num_threads=*/4, /*seed=*/7, &fanned);
  ASSERT_GT(serial.recorder.bundles_emitted(), 0u);
  EXPECT_EQ(serial.recorder.bundles_emitted(),
            fanned.recorder.bundles_emitted());
  EXPECT_EQ(serial.recorder.ticks_recorded(),
            fanned.recorder.ticks_recorded());
  EXPECT_EQ(serial.evidence_jsonl, fanned.evidence_jsonl);
}

TEST(EpisodeReplay, TamperedEvidenceIsCaughtNotRubberStamped) {
  RecordedRun run;
  record_run(/*num_threads=*/1, /*seed=*/7, &run);
  ASSERT_GT(run.recorder.bundles_emitted(), 0u);
  auto bundle = run.recorder.bundles()[0];
  ASSERT_FALSE(bundle.ticks.empty());
  // Flip one captured per-attribute contribution: the re-summed score
  // no longer matches the captured score bit-for-bit.
  ASSERT_TRUE(bundle.ticks[0].decomposable);
  ASSERT_FALSE(bundle.ticks[0].impacts.empty());
  bundle.ticks[0].impacts[0] += 0.125;
  const auto result = replay_episode(bundle);
  EXPECT_FALSE(result.ok);
  EXPECT_GT(result.score_mismatches, 0u);
  EXPECT_FALSE(result.first_mismatch.empty());
}

// A three-attribute bundle with one tick at t=10 whose impacts rank
// attributes 2, 1, 0, and a recorded diagnosis at that tick ranking
// {2, 0}. The diagnosis impacts coincide with the tick's on both ranked
// attributes, but the tick's own ranking puts attribute 1 second.
obs::EpisodeBundle diagnosis_bundle(bool tick_confirmed) {
  obs::EpisodeBundle bundle;
  bundle.trace_id = "vm-a#1";
  bundle.vm = "vm-a";
  bundle.layout.attributes = 3;
  bundle.layout.offsets = {0, 2, 4, 6};
  bundle.layout.attribute_names = {"a0", "a1", "a2"};
  // A 1-of-1 filter confirms exactly the raw alerts.
  bundle.decision.filter_k = 1;
  bundle.decision.filter_w = 1;
  obs::EvidenceTick tick;
  tick.t = 10.0;
  tick.valid = true;
  tick.impacts = {1.0, 2.0, 3.0};
  tick.decomposable = true;
  tick.prior_log_odds = tick_confirmed ? 0.0 : -10.0;
  tick.score = tick.prior_log_odds + 6.0;
  tick.abnormal = tick.score > 0.0;
  tick.raw_alert = tick.abnormal;
  tick.confirmed = tick.raw_alert;
  tick.mode_row = {0, 0, 0};
  tick.observed_row = {0, 0, 0};
  tick.dists = {1.0, 0.0, 1.0, 0.0, 1.0, 0.0};
  bundle.ticks.push_back(tick);
  bundle.diagnosis.valid = true;
  bundle.diagnosis.t = 10.0;
  bundle.diagnosis.ranked = {2, 0};
  bundle.diagnosis.impacts = {3.0, 1.0};
  return bundle;
}

TEST(EpisodeReplay, ReactiveDiagnosisIsNotRerankedFromAnUnconfirmedTick) {
  // The tick did not confirm, so the diagnosis came from the reactive
  // path's own classification: its ranking is not the tick's to check.
  const auto result =
      replay_episode(diagnosis_bundle(/*tick_confirmed=*/false));
  EXPECT_TRUE(result.diagnosis_checked);
  EXPECT_TRUE(result.diagnosis_ok) << result.first_mismatch;
  EXPECT_TRUE(result.ok) << result.first_mismatch;
}

TEST(EpisodeReplay, PredictiveDiagnosisIsRerankedFromItsConfirmingTick) {
  // The same ranking at a confirming tick contradicts the tick's
  // impacts and must be reported.
  const auto result =
      replay_episode(diagnosis_bundle(/*tick_confirmed=*/true));
  EXPECT_TRUE(result.diagnosis_checked);
  EXPECT_FALSE(result.diagnosis_ok);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.score_mismatches + result.filter_mismatches +
                result.alert_mismatches,
            0u)
      << result.first_mismatch;
}

}  // namespace
}  // namespace prepare
