// The paper's evaluation scenario, driven by the benchmark itself.
//
// run_scenario() (core/experiment.h) builds its testbed privately, so it
// cannot time train()/on_sample() from outside. run_driven() rebuilds
// the same testbed from the same ScenarioConfig and runs the same
// sim -> monitor -> controller loop with the benchmark's timers around
// the public calls; diff_with_library() proves the two agree (violation
// time and every EventLog record, bit for bit).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "core/experiment.h"
#include "core/replay.h"
#include "obs/flight_recorder.h"
#include "obs/model_introspect.h"
#include "obs/span_tracer.h"

namespace perfbench {

/// Controller timings, always taken (they are end-to-end metrics).
struct ControllerTiming {
  /// Wall time of each trained-round AnomalyManager::on_sample divided
  /// by the VMs that controller manages (µs).
  std::vector<double> round_us_per_vm;
  /// AnomalyManager::train wall time divided by the models trained (ms).
  std::vector<double> train_ms_per_vm;
  Busy on_sample;  ///< every on_sample call, trained or not
  Busy train;
  /// finish() of the attached tracer, introspector and recorder.
  Busy obs_finish;
  /// Stage-histogram seconds recorded while train() ran (subtracted
  /// from the in-round stage split).
  double stage_seconds_in_train = 0.0;
};

/// Runs manager.train(0, now) and, with `timing`, records its wall time
/// and its CPU time per model (`models` trained). Stage-histogram time
/// recorded meanwhile in `registry` (may be null) is noted so the
/// in-round split can leave it out.
void train_timed(prepare::AnomalyManager& manager, double now, double models,
                 const prepare::obs::MetricsRegistry* registry,
                 ControllerTiming* timing);

/// Runs manager.on_sample(now) and, with `timing`, records its wall time
/// and, for a trained round, its CPU time per managed VM.
void on_sample_timed(prepare::AnomalyManager& manager, double now,
                     double managed_vms, bool trained,
                     ControllerTiming* timing);

struct DrivenRun {
  prepare::ScenarioResult result;
  std::size_t raw_alerts = 0;
  std::size_t confirmed_alerts = 0;
  std::size_t actions = 0;
  std::size_t validations_failed = 0;
};

/// Runs one scenario. With `layers` (traced run) the simulation-side
/// calls are timed into layers->apps_step (Application::step, including
/// workload generation), faults_apply (FaultInjector::apply) and
/// monitor_sample (VmMonitor::sample + MetricStore::record, one call per
/// round). `layers` and `timing` may be null (untimed).
DrivenRun run_driven(const prepare::ScenarioConfig& config,
                     LayerFigures* layers, ControllerTiming* timing);

/// The operator's observability sinks for one controller, all feeding
/// one registry: span tracer, model introspection and flight recorder.
struct Sinks {
  explicit Sinks(prepare::obs::MetricsRegistry* registry)
      : tracer(registry), introspect(registry), recorder(registry) {}
  prepare::obs::SpanTracer tracer;
  prepare::obs::ModelIntrospect introspect;
  prepare::obs::FlightRecorder recorder;
};

/// What the end-of-run export and bundle replay produced.
struct ObsOutputs {
  std::size_t export_bytes = 0;
  std::size_t bundles = 0;
  std::size_t bundles_dropped = 0;
  std::size_t replayed = 0;
  std::size_t replay_failed = 0;
  /// Bundles whose only mismatch is a reactive-path diagnosis (see
  /// reactive_diagnosis_only in scenario.cpp); counted, not failed.
  std::size_t replay_reactive_diagnosis = 0;
  std::string first_replay_mismatch;
  Busy exported;
  Busy replay;
};

/// Writes the run as one JSONL trace (run header, events, spans,
/// introspection, evidence, metrics) into a counting discard stream,
/// then replays every flight-recorder bundle. The sinks must be
/// finished.
ObsOutputs export_and_replay(const std::string& run_id, double end,
                             const prepare::EventLog& events,
                             const std::vector<const Sinks*>& sinks,
                             const prepare::obs::MetricsRegistry& registry);

/// Adds the output check for `out`: every replayed bundle matches.
void check_replay(const ObsOutputs& out, Report* report);

/// Hash over the run's decisions: every EventLog record (alerts,
/// confirmations, preventions, validations, scalings, migrations) and
/// the violation time.
std::uint64_t decision_checksum(const prepare::EventLog& events,
                                double violation_time);

/// Empty when `driven` matches run_scenario(config) exactly; otherwise
/// a description of the first difference.
std::string diff_with_library(const prepare::ScenarioConfig& config,
                              const prepare::ScenarioResult& driven);

/// Sum of the in-round stage histograms (stage.*.seconds) of `registry`,
/// excluding monitor_sample, which runs outside on_sample.
double in_round_stage_seconds(const prepare::obs::MetricsRegistry& registry);

/// Figures of one stage.* histogram (zero when it was never recorded).
StageFigures stage_figures(const prepare::obs::MetricsRegistry& registry,
                           const char* stage);

/// Value of a registry counter (zero when it was never registered).
double counter_value(const prepare::obs::MetricsRegistry& registry,
                     const std::string& name);

}  // namespace perfbench
