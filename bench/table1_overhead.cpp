// Table I: PREPARE system overhead measurements.
//
// Microbenchmarks (google-benchmark) of every key module, mirroring the
// paper's table:
//
//   VM monitoring (13 attributes)             4.68 ms   (paper)
//   Simple Markov model training (600)        61.0 ms
//   2-dep. Markov model training (600)        135.1 ms
//   TAN model training (600)                  4.0 ms
//   Anomaly prediction                        1.3 ms
//   CPU resource scaling                      107 ms
//   Memory resource scaling                   116 ms
//   Live VM migration (512 MB)                8.56 s
//
// Absolute numbers will differ (2012 Xeon vs. today's hardware; our
// monitoring reads a simulated VM instead of libxenstat), but the
// *ordering* should hold: TAN training and prediction are cheap,
// 2-dependent Markov training costs ~2x simple Markov training, and the
// actuation latencies are properties of the virtualization platform —
// for those we report the calibrated latencies of the hypervisor model,
// which match the paper by construction.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <sstream>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "core/anomaly_predictor.h"
#include "core/experiment.h"
#include "obs/flight_recorder.h"
#include "obs/model_introspect.h"
#include "obs/span_tracer.h"
#include "obs/stage_profiler.h"
#include "models/markov.h"
#include "models/tan.h"
#include "monitor/vm_monitor.h"
#include "sim/clock.h"
#include "sim/cluster.h"
#include "sim/hypervisor.h"

namespace prepare {
namespace {

constexpr std::size_t kTrainingSamples = 600;
constexpr std::size_t kBins = 5;

/// 600 samples x 13 attributes of leak-shaped training data.
struct TrainingData {
  std::vector<std::vector<double>> rows;
  std::vector<bool> abnormal;
  std::vector<std::vector<std::size_t>> symbol_columns;  // per attribute
};

const TrainingData& training_data() {
  static const TrainingData data = [] {
    TrainingData out;
    Rng rng(17);
    for (std::size_t i = 0; i < kTrainingSamples; ++i) {
      const bool abnormal = i > 400 && i < 480;
      std::vector<double> row;
      for (std::size_t a = 0; a < kAttributeCount; ++a) {
        double base = 50.0 + 10.0 * static_cast<double>(a);
        if (abnormal) base *= 1.8;
        if (i > 340 && i <= 480) base += static_cast<double>(i - 340);
        row.push_back(base + rng.gaussian(0.0, 2.0));
      }
      out.rows.push_back(std::move(row));
      out.abnormal.push_back(abnormal);
    }
    out.symbol_columns.resize(kAttributeCount);
    for (std::size_t a = 0; a < kAttributeCount; ++a)
      for (std::size_t i = 0; i < kTrainingSamples; ++i)
        out.symbol_columns[a].push_back(
            static_cast<std::size_t>(out.rows[i][a]) % kBins);
    return out;
  }();
  return data;
}

void BM_VmMonitoring13Attributes(benchmark::State& state) {
  VmMonitor monitor(VmMonitorConfig{}, 1);
  Vm vm("vm", 1.0, 512.0);
  vm.begin_tick();
  vm.set_app_cpu_demand(0.4);
  vm.set_app_mem_demand(300.0);
  vm.set_net_in(100.0);
  vm.set_net_out(90.0);
  vm.finalize_tick();
  for (auto _ : state) {
    benchmark::DoNotOptimize(monitor.sample(vm));
  }
}
BENCHMARK(BM_VmMonitoring13Attributes);

void BM_SimpleMarkovTraining600(benchmark::State& state) {
  const auto& data = training_data();
  for (auto _ : state) {
    for (std::size_t a = 0; a < kAttributeCount; ++a) {
      MarkovModel chain(/*order=*/1, kBins);
      chain.train(data.symbol_columns[a]);
      benchmark::DoNotOptimize(chain);
    }
  }
}
BENCHMARK(BM_SimpleMarkovTraining600);

void BM_TwoDepMarkovTraining600(benchmark::State& state) {
  const auto& data = training_data();
  for (auto _ : state) {
    for (std::size_t a = 0; a < kAttributeCount; ++a) {
      MarkovModel chain(/*order=*/2, kBins);
      chain.train(data.symbol_columns[a]);
      benchmark::DoNotOptimize(chain);
    }
  }
}
BENCHMARK(BM_TwoDepMarkovTraining600);

void BM_TanTraining600(benchmark::State& state) {
  const auto& data = training_data();
  LabeledDataset dataset;
  dataset.alphabet.assign(kAttributeCount, kBins);
  for (std::size_t i = 0; i < kTrainingSamples; ++i) {
    std::vector<std::size_t> row;
    for (std::size_t a = 0; a < kAttributeCount; ++a)
      row.push_back(data.symbol_columns[a][i]);
    dataset.rows.push_back(std::move(row));
    dataset.abnormal.push_back(data.abnormal[i]);
  }
  for (auto _ : state) {
    TanClassifier tan;
    tan.train(dataset);
    benchmark::DoNotOptimize(tan);
  }
}
BENCHMARK(BM_TanTraining600);

/// The trace_accuracy workload's monolithic model: one TAN over 7 VMs x
/// 13 attributes = 91 attributes, trained on 141 rows, where the
/// Chow–Liu pair loop (4095 pairs) dominates. Every third attribute
/// follows the label; the rest are seeded noise.
void BM_MonolithicTanTraining(benchmark::State& state) {
  constexpr std::size_t kAttributes = 7 * kAttributeCount;
  constexpr std::size_t kRows = 141;
  Rng rng(23);
  LabeledDataset dataset;
  dataset.alphabet.assign(kAttributes, kBins);
  const auto top = static_cast<std::int64_t>(kBins) - 1;
  for (std::size_t i = 0; i < kRows; ++i) {
    const bool abnormal = rng.chance(0.2);
    std::vector<std::size_t> row;
    for (std::size_t a = 0; a < kAttributes; ++a)
      row.push_back(static_cast<std::size_t>(
          a % 3 == 0 && abnormal ? top : rng.uniform_int(0, top)));
    dataset.rows.push_back(std::move(row));
    dataset.abnormal.push_back(abnormal);
  }
  for (auto _ : state) {
    TanClassifier tan;
    tan.train(dataset);
    benchmark::DoNotOptimize(tan);
  }
}
BENCHMARK(BM_MonolithicTanTraining);

void BM_FullPredictorTraining600(benchmark::State& state) {
  const auto& data = training_data();
  std::vector<std::string> names;
  for (std::size_t a = 0; a < kAttributeCount; ++a)
    names.push_back(attribute_name(static_cast<Attribute>(a)));
  for (auto _ : state) {
    AnomalyPredictor predictor(names);
    predictor.train(data.rows, data.abnormal);
    benchmark::DoNotOptimize(predictor);
  }
}
BENCHMARK(BM_FullPredictorTraining600);

void BM_AnomalyPrediction(benchmark::State& state) {
  // One prediction = 13 attribute-value forecasts at the look-ahead
  // horizon + TAN classification + attribute attribution.
  const auto& data = training_data();
  std::vector<std::string> names;
  for (std::size_t a = 0; a < kAttributeCount; ++a)
    names.push_back(attribute_name(static_cast<Attribute>(a)));
  AnomalyPredictor predictor(names);
  predictor.train(data.rows, data.abnormal);
  for (auto _ : state) {
    const auto result = predictor.predict(TickIndex{6});
    benchmark::DoNotOptimize(
        Classifier::ranked_attributes(result.classification));
  }
}
BENCHMARK(BM_AnomalyPrediction);

/// Actuation latencies are platform properties: the benchmark measures
/// the control-plane call cost, and the modeled end-to-end latency
/// (which matches the paper's Table I by calibration) is reported as the
/// "modeled_latency_s" counter.
void BM_CpuScalingIssue(benchmark::State& state) {
  SimClock clock;
  Cluster cluster;
  EventLog log;
  Hypervisor hypervisor(&clock, &cluster, &log);
  Host* host = cluster.add_host("h");
  Vm* vm = cluster.add_vm("vm", 1.0, 512.0, host);
  double target = 1.1;
  for (auto _ : state) {
    hypervisor.scale_cpu(vm, target);
    clock.advance(Seconds{1.0});
    target = target > 1.4 ? 1.1 : target + 0.1;
  }
  state.counters["modeled_latency_s"] =
      hypervisor.config().cpu_scale_latency_s;
}
BENCHMARK(BM_CpuScalingIssue);

void BM_MemoryScalingIssue(benchmark::State& state) {
  SimClock clock;
  Cluster cluster;
  EventLog log;
  Hypervisor hypervisor(&clock, &cluster, &log);
  Host* host = cluster.add_host("h");
  Vm* vm = cluster.add_vm("vm", 1.0, 512.0, host);
  double target = 600.0;
  for (auto _ : state) {
    hypervisor.scale_memory(vm, target);
    clock.advance(Seconds{1.0});
    target = target > 1000.0 ? 600.0 : target + 64.0;
  }
  state.counters["modeled_latency_s"] =
      hypervisor.config().mem_scale_latency_s;
}
BENCHMARK(BM_MemoryScalingIssue);

void BM_LiveMigration512MB(benchmark::State& state) {
  SimClock clock;
  Cluster cluster;
  EventLog log;
  Hypervisor hypervisor(&clock, &cluster, &log);
  Host* a = cluster.add_host("a");
  Host* b = cluster.add_host("b");
  Vm* vm = cluster.add_vm("vm", 1.0, 512.0, a);
  Host* target = b;
  Host* source = a;
  for (auto _ : state) {
    hypervisor.migrate(vm, target);
    clock.advance(Seconds{hypervisor.migration_duration(512.0) + 1.0});
    std::swap(source, target);
  }
  state.counters["modeled_latency_s"] = hypervisor.migration_duration(512.0);
}
BENCHMARK(BM_LiveMigration512MB);

/// Wall time of one full default scenario (System S, memory leak,
/// PREPARE scheme). `registry` null = uninstrumented build path;
/// `with_spans` additionally attaches a fresh SpanTracer (the full
/// alert-lifecycle layer on top of the metrics instruments);
/// `with_introspect` additionally attaches a fresh ModelIntrospect
/// (per-horizon calibration + model-state probes + drift detection);
/// `with_recorder` additionally attaches a fresh FlightRecorder (the
/// per-VM decision-evidence ring + episode bundle capture).
double timed_scenario_run(obs::MetricsRegistry* registry, bool with_spans,
                          bool with_introspect, bool with_recorder,
                          bench::ThroughputMeter* meter) {
  ScenarioConfig config;
  config.seed = 11;
  config.metrics = registry;
  std::optional<obs::SpanTracer> tracer;
  if (with_spans) {
    tracer.emplace(registry);
    config.tracer = &*tracer;
  }
  std::optional<obs::ModelIntrospect> introspect;
  if (with_introspect) {
    introspect.emplace(registry);
    config.introspect = &*introspect;
  }
  std::optional<obs::FlightRecorder> recorder;
  if (with_recorder) {
    recorder.emplace(registry);
    config.recorder = &*recorder;
  }
  const auto start = std::chrono::steady_clock::now();
  const auto result = run_scenario(config);
  const auto end = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(result.violation_time);
  if (meter != nullptr) meter->add_vm_ticks(result.vm_count * result.ticks);
  return std::chrono::duration<double>(end - start).count();
}

/// End-to-end stage profile (the runtime complement of the
/// microbenchmarks above): runs the default scenario with the
/// StageProfiler attached and prints per-stage p50/p90/p99 — plus the
/// same scenario bare, with span tracing, with the model introspection
/// layer, and with the episode flight recorder on top, to measure what
/// each instrumentation layer costs. The acceptance bar is < 5%
/// overhead for the full stack (metrics + spans + introspection +
/// recorder) over bare.
void report_pipeline_stage_profile() {
  constexpr int kReps = 15;
  obs::MetricsRegistry registry;
  timed_scenario_run(nullptr, false, false, false, nullptr);  // warm-up
  // Min-of-reps: each variant's best observed wall time. The scenario
  // is deterministic, so the minimum is the run least disturbed by the
  // host (scheduler, frequency scaling) and the most comparable
  // estimator across variants; sums would fold every noise spike in.
  double bare = 1e9;
  double with_metrics = 1e9;
  double with_spans = 1e9;
  double with_introspect = 1e9;
  double with_recorder = 1e9;
  bench::ThroughputMeter meter;
  for (int r = 0; r < kReps; ++r) {
    bare = std::min(bare,
                    timed_scenario_run(nullptr, false, false, false, &meter));
    with_metrics = std::min(
        with_metrics, timed_scenario_run(&registry, false, false, false, &meter));
    with_spans = std::min(
        with_spans, timed_scenario_run(&registry, true, false, false, &meter));
    with_introspect = std::min(
        with_introspect, timed_scenario_run(&registry, true, true, false, &meter));
    with_recorder = std::min(
        with_recorder, timed_scenario_run(&registry, true, true, true, &meter));
  }
  std::printf("\n-- controller pipeline stage profile (%d scenario runs) --\n",
              kReps);
  std::ostringstream table;
  obs::write_stage_report(registry, table);
  std::fputs(table.str().c_str(), stdout);
  const auto overhead = [bare](double instrumented) {
    return bare <= 0.0 ? 0.0 : (instrumented - bare) / bare * 100.0;
  };
  std::printf(
      "scenario wall time (min of %d): %.3f s bare, %.3f s metrics (%+.2f%%), "
      "%.3f s metrics+spans (%+.2f%%), "
      "%.3f s metrics+spans+introspect (%+.2f%%), "
      "%.3f s metrics+spans+introspect+recorder (%+.2f%%)\n",
      kReps, bare, with_metrics, overhead(with_metrics), with_spans,
      overhead(with_spans), with_introspect, overhead(with_introspect),
      with_recorder, overhead(with_recorder));
  std::printf(
      "flight-recorder increment over metrics+spans+introspect: %+.2f%% "
      "(acceptance bar: < 5%% over bare for the full stack)\n",
      with_introspect <= 0.0
          ? 0.0
          : (with_recorder - with_introspect) / with_introspect * 100.0);
  meter.report("table1_overhead");
  const std::string json = bench::write_bench_json(
      "table1_overhead",
      {{"scenario_runs", static_cast<double>(kReps * 5)}}, meter, &registry);
  std::printf("-> %s\n", json.c_str());
}

}  // namespace
}  // namespace prepare

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  prepare::report_pipeline_stage_profile();
  return 0;
}
