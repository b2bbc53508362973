// Experiment harness reproducing the paper's evaluation methodology
// (Section III-A):
//
//  * two case-study systems (System S-like stream processing, RUBiS-like
//    3-tier web application), each component in its own VM on its own
//    host, plus spare hosts as migration targets;
//  * three fault types, injected twice per run — the model learns from
//    the first injection (automatic runtime labeling) and predicts the
//    second;
//  * three management schemes (without intervention / reactive /
//    PREPARE) compared by SLO violation time around the second
//    injection; each experiment repeated with different seeds for
//    mean +/- standard deviation.
#pragma once

#include <optional>
#include <cstdint>
#include <string>
#include <vector>

#include "core/controller.h"
#include "monitor/metric_store.h"
#include "monitor/slo_log.h"
#include "sim/event_log.h"

namespace prepare {

enum class AppKind { kSystemS, kRubis };
enum class FaultKind { kMemoryLeak, kCpuHog, kBottleneck };
enum class Scheme { kNoIntervention, kReactive, kPrepare };

const char* app_kind_name(AppKind a);
const char* fault_kind_name(FaultKind f);
const char* scheme_name(Scheme s);

struct ScenarioConfig {
  AppKind app = AppKind::kSystemS;
  FaultKind fault = FaultKind::kMemoryLeak;
  /// Fault type of the *second* injection. Defaults to `fault` (the
  /// paper's recurrent-anomaly setup); set differently to evaluate the
  /// unseen-anomaly case — a supervised model trained on the first fault
  /// type has never seen the second.
  std::optional<FaultKind> second_fault;
  Scheme scheme = Scheme::kPrepare;
  std::uint64_t seed = 1;

  /// Simulation resolution and monitoring cadence.
  double dt = 1.0;
  double sampling_interval_s = 5.0;
  double monitor_noise = 0.02;
  /// Memory attributes from the in-guest daemon (paper default) or
  /// inferred gray-box from paging signals (Section V alternative).
  bool graybox_memory = false;

  /// Timeline (paper: runs of 1200-1800 s, two ~300 s injections, model
  /// trained from the first and predicting the second).
  double fault1_start = 300.0;
  double fault2_start = 900.0;
  double fault_duration = 300.0;
  double train_time = 700.0;
  double run_end = 1350.0;

  /// Fault intensities. The hog is a CPU-bound program with several busy
  /// worker threads (it wants hog_cores full cores), like the paper's
  /// competing CPU-bound program / infinite-loop bug.
  double leak_rate_mb_s = 2.5;
  double hog_cores = 8.0;

  /// Controller configuration (prevention mode selects scaling
  /// vs. migration, i.e. Fig. 6/7 vs. Fig. 8/9).
  PrepareConfig prepare;

  std::size_t num_threads = 1;  ///< ControllerContext::num_threads

  /// Optional observability sinks (ControllerContext has what each
  /// is). Each must outlive the run, and each holds per-run state: pass
  /// a fresh tracer, introspector and recorder, and a reset() registry,
  /// per repeat. With no registry no instrumentation code runs at all.
  /// The run finishes the tracer, introspector and recorder at its end.
  obs::MetricsRegistry* metrics = nullptr;
  obs::SpanTracer* tracer = nullptr;
  obs::ModelIntrospect* introspect = nullptr;
  obs::FlightRecorder* recorder = nullptr;
};

struct ScenarioResult {
  /// SLO violation time within the measurement window around the second
  /// injection — the Fig. 6 / Fig. 8 metric.
  double violation_time = 0.0;
  double violation_time_total = 0.0;
  double measure_start = 0.0;
  double measure_end = 0.0;
  /// Work accounting for bench throughput rates: the run simulated
  /// `ticks` steps of `vm_count` VMs, i.e. vm_count * ticks VM-ticks.
  std::size_t vm_count = 0;
  std::size_t ticks = 0;
  std::string faulty_vm;  ///< ground truth
  SloLog slo;
  MetricStore store;
  EventLog events;
};

/// Runs one scenario end to end.
ScenarioResult run_scenario(const ScenarioConfig& config);

/// Runs `repeats` scenarios with seeds seed, seed+1, ... and aggregates
/// the violation times.
struct RepeatedResult {
  double mean = 0.0;
  double stddev = 0.0;
  /// Total simulated work across all repeats (sum of per-run
  /// vm_count * ticks), for bench VM-ticks/sec rates.
  std::size_t vm_ticks = 0;
  std::vector<double> runs;
};
RepeatedResult run_repeated(ScenarioConfig config, std::size_t repeats);

}  // namespace prepare
