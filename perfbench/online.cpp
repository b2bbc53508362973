// The two online workloads: the closed sim -> monitor -> controller loop
// on virtual time, timed from outside the library's public calls.
//
//  * paper_mix — the paper's evaluation grid, {System S, RUBiS} x
//    {memory leak, CPU hog, bottleneck}, PREPARE with scaling prevention
//    and no observability sinks. Chosen because it is the scenario the
//    paper and ROADMAP headline, and the per-VM Markov look-ahead
//    dominates its rounds. Its traced run adds passes with every
//    operator sink attached, so the obs layers are measured too.
//  * consolidated — six RUBiS-like applications (24 VMs) packed onto one
//    shared cluster with staggered recurring database leaks, each under
//    its own PREPARE controller with the full operator stack (metrics,
//    span tracer, model introspection, flight recorder, JSONL export and
//    replay of every bundle). Chosen because observability, prevention
//    escalation, migration placement against exhausted hosts and logging
//    do real work here, unlike on paper_mix. It is not in BENCHMARK.json:
//    at some seeds (e.g. 32) the simulator aborts when a migration lands
//    on a host that a pending scale-up has filled (README.md).
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/webapp/web_app.h"
#include "bench.h"
#include "core/controller.h"
#include "faults/injector.h"
#include "monitor/vm_monitor.h"
#include "scenario.h"
#include "sim/clock.h"
#include "sim/cluster.h"
#include "sim/hypervisor.h"
#include "workload/nasa_trace.h"

namespace perfbench {

using namespace prepare;

namespace {

/// Set-up is repeated this often per run; setup_s is the median.
constexpr int kSetupRepeats = 3;
/// Seeded replicas of each paper grid cell per pass: 48 scenarios, so a
/// pass holds 6240 trained rounds and mixes enough seeds that the round
/// percentiles repeat between seeds.
constexpr std::size_t kPaperReplicas = 8;

std::vector<ScenarioConfig> paper_pool(std::uint64_t seed) {
  std::vector<ScenarioConfig> pool;
  for (std::size_t r = 0; r < kPaperReplicas; ++r)
    for (AppKind app : {AppKind::kSystemS, AppKind::kRubis})
      for (FaultKind fault : {FaultKind::kMemoryLeak, FaultKind::kCpuHog,
                              FaultKind::kBottleneck}) {
        ScenarioConfig c;
        c.app = app;
        c.fault = fault;
        c.scheme = Scheme::kPrepare;
        c.prepare.prevention.mode = PreventionMode::kScalingOnly;
        c.seed = seed * 1000 + pool.size();
        pool.push_back(c);
      }
  return pool;
}

/// Totals of one pass kind of a traced run.
struct KindTotals {
  ControllerTiming timing;
  double cpu_s = 0.0;
  double vm_ticks = 0.0;
  std::size_t passes = 0;

  double rate() const { return vm_ticks / cpu_s; }
  double on_sample_per_pass() const {
    return timing.on_sample.seconds / static_cast<double>(passes);
  }
};

/// End-of-run obs work summed over a traced run's sink passes; the
/// first sink pass also sets the per-pass counts in `layers`.
struct ObsTotals {
  Busy finish;
  Busy exported;
  Busy replay;
  std::size_t reactive_diagnosis = 0;

  void add(const ObsOutputs& out, bool first_pass, LayerFigures* layers) {
    exported.seconds += out.exported.seconds;
    replay.seconds += out.replay.seconds;
    replay.calls += out.replay.calls;
    if (!first_pass) return;
    layers->export_bytes += static_cast<double>(out.export_bytes);
    layers->bundles += static_cast<double>(out.bundles);
    layers->bundles_dropped += static_cast<double>(out.bundles_dropped);
    reactive_diagnosis += out.replay_reactive_diagnosis;
  }
};

/// Fills the traced run's per-layer metrics and the detail figures the
/// online workloads share. `registry` holds only the traced passes'
/// stage records, `traced` their controller timings.
void finish_traced(const obs::MetricsRegistry& registry,
                   const ControllerTiming& traced, const ObsTotals& obs,
                   double obs_round_overhead_ratio, LayerFigures* layers,
                   Report* report) {
  layers->train = traced.train;
  layers->on_sample = traced.on_sample;
  layers->discretize = stage_figures(registry, obs::kStageDiscretize);
  layers->markov_lookahead =
      stage_figures(registry, obs::kStageMarkovLookahead);
  layers->tan_classify = stage_figures(registry, obs::kStageTanClassify);
  layers->alarm_filter = stage_figures(registry, obs::kStageAlarmFilter);
  const double in_round =
      in_round_stage_seconds(registry) - traced.stage_seconds_in_train;
  layers->unattributed_s = traced.on_sample.seconds - in_round;
  // Stage timers nest inside on_sample, so they can never cover more
  // than it; a negative remainder means stages overlap or leak out.
  report->check(layers->unattributed_s >= -1e-6,
                "in-round stages exceed core.on_sample.busy_s");
  layers->replay_calls = static_cast<double>(obs.replay.calls);
  emit_layer_metrics(*layers, report);

  add_stage_detail("core.cause_inference",
                   stage_figures(registry, obs::kStageCauseInference), report);
  add_stage_detail("core.prevention",
                   stage_figures(registry, obs::kStagePrevention), report);
  report->add_detail(
      "models.markov_lookahead.share_of_on_sample",
      layers->markov_lookahead.busy_s / layers->on_sample.seconds, "ratio");
  report->add_detail("obs.round_overhead_ratio", obs_round_overhead_ratio,
                     "ratio");
  report->add_detail("obs.finish.busy_s", obs.finish.seconds, "s");
  report->add_detail("obs.export.busy_s", obs.exported.seconds, "s");
  report->add_detail("core.replay.busy_s", obs.replay.seconds, "s");
  report->add_detail("core.replay.reactive_diagnosis_mismatches",
                     static_cast<double>(obs.reactive_diagnosis), "count");
}

// ---------------------------------------------------------------- consolidated

constexpr std::size_t kApps = 6;
constexpr double kConsolidatedEnd = 1350.0;
constexpr double kConsolidatedTrain = 700.0;
constexpr double kConsolidatedMeasureStart = 850.0;
/// Consolidated runs per measured pass: two give each pass more than
/// 1000 trained rounds, enough for its own p99.
constexpr std::size_t kConsolidatedRunsPerPass = 2;

struct AppInstance {
  std::vector<Vm*> vms;
  std::unique_ptr<NasaTraceWorkload> workload;
  std::unique_ptr<WebApp> app;
  FaultInjector injector;
  MetricStore store;
  SloLog slo;
  std::unique_ptr<Sinks> sinks;
  std::unique_ptr<PrepareController> controller;
  bool trained = false;
};

struct ConsolidatedRun {
  double violation_mean = 0.0;
  std::uint64_t checksum = 0;
  std::size_t vm_ticks = 0;
  std::size_t raw_alerts = 0;
  std::size_t confirmed_alerts = 0;
  std::size_t actions = 0;
  std::size_t validations_failed = 0;
  double lead_time_p50_s = 0.0;
  Busy finish;
  ObsOutputs obs;
};

/// One consolidated run. With `with_sinks` every application gets the
/// full operator stack, recording into `registry` (or a run-local
/// registry when null); without, nothing is attached.
ConsolidatedRun run_consolidated_once(std::uint64_t seed, bool with_sinks,
                                      obs::MetricsRegistry* registry,
                                      LayerFigures* layers,
                                      ControllerTiming* timing) {
  std::optional<obs::MetricsRegistry> local;
  if (with_sinks && registry == nullptr) registry = &local.emplace();
  if (!with_sinks) registry = nullptr;

  SimClock clock;
  Cluster cluster;
  EventLog events;
  cluster.set_metrics(registry);
  events.set_metrics(registry);
  Hypervisor hypervisor(&clock, &cluster, &events);
  VmMonitor monitor(VmMonitorConfig{}, seed);

  // Two web-app VMs per host (4 VMs x K apps over 2K hosts) + one spare:
  // the cluster is nearly full, so migrations often find no host.
  std::vector<std::unique_ptr<AppInstance>> apps;
  std::size_t host_index = 0;
  Host* current_host = nullptr;
  std::size_t on_host = 0;
  auto next_host_slot = [&]() {
    if (current_host == nullptr || on_host == 2) {
      current_host = cluster.add_host("host" + std::to_string(++host_index),
                                      HostCapacity{4.0, 8192.0, 0.2, 512.0});
      on_host = 0;
    }
    ++on_host;
    return current_host;
  };
  static const char* const kRoles[] = {"web", "app1", "app2", "db"};
  for (std::size_t a = 0; a < kApps; ++a) {
    auto instance = std::make_unique<AppInstance>();
    for (std::size_t r = 0; r < 4; ++r)
      instance->vms.push_back(cluster.add_vm(
          "a" + std::to_string(a) + "-" + kRoles[r], 1.0,
          r == 3 ? 1024.0 : 768.0, next_host_slot()));
    NasaTraceConfig trace;
    trace.base_rate = 60.0;
    instance->workload =
        std::make_unique<NasaTraceWorkload>(trace, seed * 100 + a);
    instance->app =
        std::make_unique<WebApp>(instance->vms, instance->workload.get());
    // Two leaks in each application's database, staggered across apps.
    const double offset = static_cast<double>(a) * 20.0;
    instance->injector.add(std::make_unique<MemoryLeakFault>(
        instance->vms[3], 300.0 + offset, 300.0, 2.5));
    instance->injector.add(std::make_unique<MemoryLeakFault>(
        instance->vms[3], 900.0 + offset, 300.0, 2.5));
    ControllerContext ctx{instance->app.get(), &cluster, &hypervisor,
                          &instance->store, &instance->slo, &events};
    if (with_sinks) {
      // The tracer watches one application's SLO, so each app gets its
      // own sinks; they share the registry.
      instance->sinks = std::make_unique<Sinks>(registry);
      ctx.metrics = registry;
      ctx.tracer = &instance->sinks->tracer;
      ctx.introspect = &instance->sinks->introspect;
      ctx.recorder = &instance->sinks->recorder;
    }
    instance->controller = std::make_unique<PrepareController>(ctx);
    apps.push_back(std::move(instance));
  }
  cluster.add_host("spare1", HostCapacity{4.0, 8192.0, 0.2, 512.0});

  Busy* apps_step = layers != nullptr ? &layers->apps_step : nullptr;
  Busy* faults_apply = layers != nullptr ? &layers->faults_apply : nullptr;
  Busy* monitor_sample = layers != nullptr ? &layers->monitor_sample : nullptr;
  ConsolidatedRun run;
  std::size_t ticks = 0;
  for (std::size_t tick = 0; clock.now() < kConsolidatedEnd; ++tick, ++ticks) {
    const double now = clock.now();
    for (auto& instance : apps) {
      for (Vm* vm : instance->vms) vm->begin_tick();
      timed(faults_apply, [&] { instance->injector.apply(now, 1.0); });
      timed(apps_step, [&] { instance->app->step(now, 1.0); });
      instance->slo.record(now, 1.0, instance->app->slo_violated(),
                           instance->app->slo_metric());
    }
    if (tick % 5 == 0) {
      for (auto& instance : apps) {
        timed(monitor_sample, [&] {
          for (Vm* vm : instance->vms)
            instance->store.record(vm->name(), now, monitor.sample(*vm));
        });
        if (!instance->trained && now >= kConsolidatedTrain) {
          train_timed(*instance->controller, now, 4.0, registry, timing);
          instance->trained = true;
        }
        on_sample_timed(*instance->controller, now, 4.0, instance->trained,
                        timing);
      }
    }
    clock.advance(Seconds{1.0});
  }
  run.vm_ticks = 4 * kApps * ticks;

  double violation = 0.0;
  for (auto& instance : apps) {
    violation += instance->slo.violation_time(kConsolidatedMeasureStart,
                                              kConsolidatedEnd);
    run.raw_alerts += instance->controller->raw_alerts();
    run.confirmed_alerts += instance->controller->confirmed_alerts();
    run.actions += instance->controller->actuator().actions_fired();
    run.validations_failed +=
        instance->controller->actuator().validations_failed();
  }
  run.violation_mean = violation / static_cast<double>(kApps);
  run.checksum = decision_checksum(events, run.violation_mean);
  if (!with_sinks) return run;

  const double end = clock.now();
  std::vector<const Sinks*> sinks;
  timed(&run.finish, [&] {
    for (auto& instance : apps) {
      instance->sinks->tracer.finish(end);
      instance->sinks->introspect.finish(end);
      instance->sinks->recorder.finish();
      sinks.push_back(instance->sinks.get());
    }
  });
  run.obs = export_and_replay("consolidated-" + std::to_string(seed), end,
                              events, sinks, *registry);
  const auto lead = registry->histograms().find("alert.lead_time.seconds");
  if (lead != registry->histograms().end())
    run.lead_time_p50_s = lead->second.quantile(0.5);
  return run;
}

void check_consolidated(const ConsolidatedRun& run,
                        const ConsolidatedRun& reference, Report* report) {
  report->check(run.checksum == reference.checksum,
                "consolidated decisions differ from the set-up run");
  if (run.obs.replayed > 0) check_replay(run.obs, report);
}

}  // namespace

Report run_paper_mix(const Options& options) {
  Report report;
  const auto pool = paper_pool(options.seed);
  report.set_config("scenarios", std::to_string(pool.size()));
  report.set_config("grid", "system_s,rubis x memory_leak,cpu_hog,bottleneck");
  report.set_config("scheme", "prepare, scaling prevention, no obs sinks");
  report.set_config("run_end_s", "1350");
  report.set_config("num_threads", "1");

  // Set-up: build every scenario of the pool and run it once, untimed
  // (allocator and caches warm); the first repetition is the reference
  // every measured run must reproduce.
  ReferenceKernel kernel;
  std::vector<DrivenRun> reference;
  SetupTimes setup;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    double cpu = 0.0;
    HostSpeed speed;
    for (const auto& config : pool) {
      const double start = cpu_seconds();
      DrivenRun run = run_driven(config, nullptr, nullptr);
      const double took = cpu_seconds() - start;
      cpu += took;
      speed.follow(&kernel, took);
      if (rep == 0) reference.push_back(std::move(run));
    }
    setup.add(cpu, speed);
  }
  std::vector<std::uint64_t> expected;
  double violation = 0.0;
  Checksum all;
  for (const auto& ref : reference) {
    expected.push_back(
        decision_checksum(ref.result.events, ref.result.violation_time));
    violation += ref.result.violation_time;
    all.u64(expected.back());
  }
  violation /= static_cast<double>(reference.size());
  report.checksum = all.value();

  auto check_run = [&](std::size_t i, const DrivenRun& run) {
    report.check(decision_checksum(run.result.events,
                                   run.result.violation_time) == expected[i],
                 "paper_mix scenario " + std::to_string(i) +
                     " decisions differ from the set-up run");
  };

  if (!options.trace) {
    PassMedians passes;
    const auto start = Clock::now();
    while (passes.passes() == 0 || seconds_since(start) < options.seconds) {
      PassTiming pass;
      ControllerTiming timing;
      for (std::size_t i = 0; i < pool.size(); ++i) {
        const double t0 = cpu_seconds();
        const DrivenRun run = run_driven(pool[i], nullptr, &timing);
        const double took = cpu_seconds() - t0;
        pass.cpu_s += took;
        pass.speed.follow(&kernel, took);
        pass.vm_ticks +=
            static_cast<double>(run.result.vm_count * run.result.ticks);
        pass.evaluations += 1.0;
        check_run(i, run);
      }
      pass.round_us_per_vm = std::move(timing.round_us_per_vm);
      pass.train_ms_per_vm = std::move(timing.train_ms_per_vm);
      passes.add(pass);
    }
    add_end_to_end_metrics(passes, setup, &report);
    report.add_detail("violation_s", violation, "s");
  } else {
    // Pass kinds rotate: traced (registry for the stage histograms plus
    // the simulation-side timers), untraced, and with every operator sink
    // attached (then exported and replayed). Traced vs untraced gives
    // trace.overhead_ratio, sinks vs untraced obs.round_overhead_ratio.
    obs::MetricsRegistry registry;
    LayerFigures layers;
    KindTotals kinds[3];
    ObsTotals obs_totals;
    const auto start = Clock::now();
    for (std::size_t pass = 0;
         pass < 3 || seconds_since(start) < options.seconds; ++pass) {
      const std::size_t kind = pass % 3;
      const std::size_t log_before = log_lines();
      for (std::size_t i = 0; i < pool.size(); ++i) {
        ScenarioConfig config = pool[i];
        std::optional<obs::MetricsRegistry> sink_registry;
        std::optional<Sinks> sinks;
        if (kind == 0) config.metrics = &registry;
        if (kind == 2) {
          config.metrics = &sink_registry.emplace();
          sinks.emplace(config.metrics);
          config.tracer = &sinks->tracer;
          config.introspect = &sinks->introspect;
          config.recorder = &sinks->recorder;
        }
        const double t0 = cpu_seconds();
        const DrivenRun run = run_driven(config, kind == 0 ? &layers : nullptr,
                                         &kinds[kind].timing);
        std::optional<ObsOutputs> out;
        if (kind == 2)
          out = export_and_replay("paper_mix-" + std::to_string(config.seed),
                                  config.run_end, run.result.events, {&*sinks},
                                  *sink_registry);
        kinds[kind].cpu_s += cpu_seconds() - t0;
        kinds[kind].vm_ticks +=
            static_cast<double>(run.result.vm_count * run.result.ticks);
        check_run(i, run);
        if (out) {
          check_replay(*out, &report);
          obs_totals.add(*out, pass == 2, &layers);
        }
        if (pass == 0) {
          layers.alerts_raw += static_cast<double>(run.raw_alerts);
          layers.alerts_confirmed += static_cast<double>(run.confirmed_alerts);
          layers.prevention_actions += static_cast<double>(run.actions);
          layers.validations_failed +=
              static_cast<double>(run.validations_failed);
        }
      }
      ++kinds[kind].passes;
      if (pass == 0) {
        layers.migrations_skipped =
            counter_value(registry, "prevention.migrations_skipped_total");
        layers.events_dropped = counter_value(registry, "events.dropped_total");
        layers.log_lines = static_cast<double>(log_lines() - log_before);
      }
    }
    obs_totals.finish = kinds[2].timing.obs_finish;
    layers.trace_overhead_ratio = kinds[1].rate() / kinds[0].rate();
    finish_traced(registry, kinds[0].timing, obs_totals,
                  kinds[2].on_sample_per_pass() / kinds[1].on_sample_per_pass(),
                  &layers, &report);
  }

  for (std::size_t i = 0; i < pool.size(); ++i) {
    const std::string diff = diff_with_library(pool[i], reference[i].result);
    report.check(diff.empty(), "paper_mix scenario " + std::to_string(i) +
                                   " differs from run_scenario: " + diff);
  }
  return report;
}

Report run_consolidated(const Options& options) {
  Report report;
  report.set_config("apps", std::to_string(kApps));
  report.set_config("vms", std::to_string(4 * kApps));
  report.set_config("faults", "two database leaks per app, staggered 20 s");
  report.set_config("sinks",
                    "metrics,span_tracer,model_introspect,flight_recorder,"
                    "jsonl_export,replay");
  report.set_config("run_end_s", "1350");
  report.set_config("num_threads", "1");

  ReferenceKernel kernel;
  std::optional<ConsolidatedRun> reference;
  SetupTimes setup;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const double start = cpu_seconds();
    ConsolidatedRun run =
        run_consolidated_once(options.seed, true, nullptr, nullptr, nullptr);
    const double took = cpu_seconds() - start;
    HostSpeed speed;
    speed.follow(&kernel, took);
    setup.add(took, speed);
    if (!reference) reference = std::move(run);
  }
  report.checksum = reference->checksum;
  check_consolidated(*reference, *reference, &report);

  if (!options.trace) {
    PassMedians passes;
    const auto start = Clock::now();
    while (passes.passes() == 0 || seconds_since(start) < options.seconds) {
      PassTiming pass;
      ControllerTiming timing;
      for (std::size_t i = 0; i < kConsolidatedRunsPerPass; ++i) {
        const double t0 = cpu_seconds();
        const ConsolidatedRun run =
            run_consolidated_once(options.seed, true, nullptr, nullptr, &timing);
        const double took = cpu_seconds() - t0;
        pass.cpu_s += took;
        pass.speed.follow(&kernel, took);
        pass.vm_ticks += static_cast<double>(run.vm_ticks);
        pass.evaluations += 1.0;
        check_consolidated(run, *reference, &report);
      }
      pass.round_us_per_vm = std::move(timing.round_us_per_vm);
      pass.train_ms_per_vm = std::move(timing.train_ms_per_vm);
      passes.add(pass);
    }
    add_end_to_end_metrics(passes, setup, &report);
    report.add_detail("violation_s", reference->violation_mean, "s");
    report.add_detail("lead_time_p50_s", reference->lead_time_p50_s, "s");
  } else {
    // Pass kinds rotate: traced with sinks (registry shared across traced
    // passes, simulation-side timers on), untraced with sinks, and
    // sink-free, which must make the same decisions.
    obs::MetricsRegistry registry;
    LayerFigures layers;
    KindTotals kinds[3];
    ObsTotals obs_totals;
    const auto start = Clock::now();
    for (std::size_t pass = 0;
         pass < 3 || seconds_since(start) < options.seconds; ++pass) {
      const std::size_t kind = pass % 3;
      const std::size_t log_before = log_lines();
      const double t0 = cpu_seconds();
      const ConsolidatedRun run = run_consolidated_once(
          options.seed, kind != 2, kind == 0 ? &registry : nullptr,
          kind == 0 ? &layers : nullptr, &kinds[kind].timing);
      kinds[kind].cpu_s += cpu_seconds() - t0;
      kinds[kind].vm_ticks += static_cast<double>(run.vm_ticks);
      ++kinds[kind].passes;
      check_consolidated(run, *reference, &report);
      if (kind != 0) continue;
      obs_totals.finish.seconds += run.finish.seconds;
      obs_totals.add(run.obs, pass == 0, &layers);
      if (pass == 0) {
        layers.alerts_raw = static_cast<double>(run.raw_alerts);
        layers.alerts_confirmed = static_cast<double>(run.confirmed_alerts);
        layers.prevention_actions = static_cast<double>(run.actions);
        layers.validations_failed = static_cast<double>(run.validations_failed);
        layers.migrations_skipped =
            counter_value(registry, "prevention.migrations_skipped_total");
        layers.events_dropped = counter_value(registry, "events.dropped_total");
        layers.log_lines = static_cast<double>(log_lines() - log_before);
      }
    }
    layers.trace_overhead_ratio = kinds[1].rate() / kinds[0].rate();
    finish_traced(registry, kinds[0].timing, obs_totals,
                  kinds[1].on_sample_per_pass() / kinds[2].on_sample_per_pass(),
                  &layers, &report);
  }
  return report;
}

}  // namespace perfbench
