#include "scenario.h"

#include <cmath>
#include <memory>
#include <sstream>

#include "apps/stream/stream_app.h"
#include "apps/webapp/web_app.h"
#include "common/rng.h"
#include "faults/injector.h"
#include "monitor/vm_monitor.h"
#include "obs/stage_profiler.h"
#include "obs/trace_export.h"
#include "sim/clock.h"
#include "sim/cluster.h"
#include "sim/hypervisor.h"
#include "workload/nasa_trace.h"
#include "workload/patterns.h"

namespace perfbench {

using namespace prepare;

namespace {

// The testbed below mirrors build_testbed() in core/experiment.cpp
// constant for constant; diff_with_library() fails the run if the two
// ever drift apart.
constexpr double kStreamBaseRate = 25000.0;
constexpr double kWebBaseRate = 60.0;
constexpr double kStreamRampSlope = 320.0;
constexpr double kStreamRampCap = 118000.0;
constexpr double kWebRampSlope = 0.42;
constexpr double kWebRampCap = 185.0;

struct Testbed {
  SimClock clock;
  Cluster cluster;
  EventLog events;
  std::unique_ptr<Hypervisor> hypervisor;
  std::unique_ptr<CompositeWorkload> workload;
  std::unique_ptr<Application> app;
  FaultInjector injector;
  std::string faulty_vm;
};

void add_ramps_if_bottleneck(CompositeWorkload* w, const ScenarioConfig& c,
                             double slope, double cap) {
  if (c.fault == FaultKind::kBottleneck)
    w->add(std::make_unique<RampWorkload>(0.0, slope, c.fault1_start,
                                          c.fault1_start + c.fault_duration,
                                          cap));
  if (c.second_fault.value_or(c.fault) == FaultKind::kBottleneck)
    w->add(std::make_unique<RampWorkload>(0.0, slope, c.fault2_start,
                                          c.fault2_start + c.fault_duration,
                                          cap));
}

std::unique_ptr<Testbed> build_testbed(const ScenarioConfig& config) {
  auto bed = std::make_unique<Testbed>();
  bed->cluster.set_metrics(config.metrics);
  bed->events.set_metrics(config.metrics);
  Rng rng(config.seed);

  const bool stream = config.app == AppKind::kSystemS;
  const std::size_t app_vms = stream ? 7 : 4;
  static const char* const kWebNames[] = {"vm-web", "vm-app1", "vm-app2",
                                          "vm-db"};
  std::vector<Vm*> vms;
  for (std::size_t i = 0; i < app_vms; ++i) {
    Host* host = bed->cluster.add_host("host" + std::to_string(i + 1));
    const std::string vm_name =
        stream ? "vm-pe" + std::to_string(i + 1) : kWebNames[i];
    const double mem = stream ? 512.0 : (i == 3 ? 1024.0 : 768.0);
    vms.push_back(bed->cluster.add_vm(vm_name, 1.0, mem, host));
  }
  bed->cluster.add_host("spare1");
  bed->cluster.add_host("spare2");
  bed->hypervisor = std::make_unique<Hypervisor>(&bed->clock, &bed->cluster,
                                                 &bed->events);

  bed->workload = std::make_unique<CompositeWorkload>();
  if (stream) {
    bed->workload->add(std::make_unique<ConstantWorkload>(kStreamBaseRate));
    bed->workload->add(std::make_unique<SineWorkload>(0.0, 700.0, 240.0));
    add_ramps_if_bottleneck(bed->workload.get(), config, kStreamRampSlope,
                            kStreamRampCap);
    bed->app = std::make_unique<StreamApp>(vms, bed->workload.get());
  } else {
    NasaTraceConfig trace;
    trace.base_rate = kWebBaseRate;
    bed->workload->add(std::make_unique<NasaTraceWorkload>(trace, config.seed));
    add_ramps_if_bottleneck(bed->workload.get(), config, kWebRampSlope,
                            kWebRampCap);
    bed->app = std::make_unique<WebApp>(vms, bed->workload.get());
  }

  Vm* target = nullptr;
  if (stream) {
    target = config.fault == FaultKind::kBottleneck
                 ? vms[5]
                 : vms[static_cast<std::size_t>(rng.uniform_int(1, 4))];
  } else {
    target = vms[3];
  }
  bed->faulty_vm = target->name();
  auto add_fault = [&](FaultKind kind, double start) {
    switch (kind) {
      case FaultKind::kMemoryLeak:
        bed->injector.add(std::make_unique<MemoryLeakFault>(
            target, start, config.fault_duration, config.leak_rate_mb_s));
        break;
      case FaultKind::kCpuHog:
        bed->injector.add(std::make_unique<CpuHogFault>(
            target, start, config.fault_duration, config.hog_cores));
        break;
      case FaultKind::kBottleneck:
        bed->injector.add(std::make_unique<BottleneckFault>(
            target, start, config.fault_duration));
        break;
    }
  };
  add_fault(config.fault, config.fault1_start);
  add_fault(config.second_fault.value_or(config.fault), config.fault2_start);
  return bed;
}

/// The six stages that run inside on_sample, in pipeline order
/// (monitor_sample runs outside it).
constexpr const char* kInRoundStages[] = {
    obs::kStageDiscretize,     obs::kStageMarkovLookahead,
    obs::kStageTanClassify,    obs::kStageAlarmFilter,
    obs::kStageCauseInference, obs::kStagePrevention};

/// True when `result`'s only mismatch is the diagnosis ranking and that
/// diagnosis was made on a round whose tick did not confirm an alert,
/// i.e. by the controller's reactive path from classify_current().
/// replay_episode() documents that reactive diagnoses are not
/// re-derivable from the captured predictions, but it still re-ranks the
/// predictive tick whenever the recorded impacts happen to coincide with
/// it, and then reports a false mismatch. Such bundles are counted;
/// any other mismatch fails the run.
bool reactive_diagnosis_only(const obs::EpisodeBundle& bundle,
                             const EpisodeReplayResult& result) {
  if (result.diagnosis_ok || result.score_mismatches != 0 ||
      result.abnormal_mismatches != 0 || result.mode_mismatches != 0 ||
      result.alert_mismatches != 0 || result.filter_mismatches != 0 ||
      result.prevention_mismatches != 0)
    return false;
  for (const auto& tick : bundle.ticks)
    if (tick.t == bundle.diagnosis.t) return !tick.confirmed;
  return false;
}

}  // namespace

ObsOutputs export_and_replay(const std::string& run_id, double end,
                             const EventLog& events,
                             const std::vector<const Sinks*>& sinks,
                             const obs::MetricsRegistry& registry) {
  ObsOutputs out;
  timed(&out.exported, [&] {
    CountingBuf sink;
    std::ostream os(&sink);
    obs::RunInfo info;
    info.run_id = run_id;
    info.sim_time_end = end;
    obs::write_run_header(os, info);
    events.to_jsonl(os, run_id);
    for (const Sinks* s : sinks) {
      s->tracer.write_spans_jsonl(os, run_id);
      s->introspect.write_introspection_jsonl(os, run_id);
      s->recorder.write_evidence_jsonl(os, run_id);
    }
    obs::write_metrics_jsonl(os, registry, run_id, end);
    os.flush();
    out.export_bytes = sink.bytes();
  });
  for (const Sinks* s : sinks) {
    out.bundles += s->recorder.bundles_emitted();
    out.bundles_dropped += s->recorder.dropped_total();
    for (const auto& bundle : s->recorder.bundles()) {
      EpisodeReplayResult replayed;
      timed(&out.replay, [&] { replayed = replay_episode(bundle); });
      ++out.replayed;
      if (replayed.ok) continue;
      if (reactive_diagnosis_only(bundle, replayed)) {
        ++out.replay_reactive_diagnosis;
        continue;
      }
      ++out.replay_failed;
      if (out.first_replay_mismatch.empty())
        out.first_replay_mismatch =
            bundle.trace_id + ": " + replayed.first_mismatch;
    }
  }
  return out;
}

void check_replay(const ObsOutputs& out, Report* report) {
  report->check(out.replay_failed == 0,
                "bundle replay diverged: " + out.first_replay_mismatch);
}

StageFigures stage_figures(const obs::MetricsRegistry& registry,
                           const char* stage) {
  StageFigures out;
  const auto it = registry.histograms().find(obs::stage_metric_name(stage));
  if (it == registry.histograms().end()) return out;
  const obs::Histogram& h = it->second;
  out.calls = static_cast<double>(h.count());
  out.busy_s = h.sum();
  out.p50_us = h.quantile(0.5) * 1e6;
  out.p99_us = h.quantile(0.99) * 1e6;
  return out;
}

double counter_value(const obs::MetricsRegistry& registry,
                     const std::string& name) {
  const auto it = registry.counters().find(name);
  return it == registry.counters().end() ? 0.0 : it->second.value();
}

double in_round_stage_seconds(const obs::MetricsRegistry& registry) {
  double total = 0.0;
  for (const char* stage : kInRoundStages) {
    const auto it = registry.histograms().find(obs::stage_metric_name(stage));
    if (it != registry.histograms().end()) total += it->second.sum();
  }
  return total;
}

void train_timed(AnomalyManager& manager, double now, double models,
                 const obs::MetricsRegistry* registry,
                 ControllerTiming* timing) {
  if (timing == nullptr) {
    manager.train(0.0, now);
    return;
  }
  const double stage_before =
      registry != nullptr ? in_round_stage_seconds(*registry) : 0.0;
  const auto start = Clock::now();
  const double cpu_start = cpu_seconds();
  manager.train(0.0, now);
  const double cpu_took = cpu_seconds() - cpu_start;
  timing->train.seconds += seconds_since(start);
  ++timing->train.calls;
  timing->train_ms_per_vm.push_back(cpu_took * 1e3 / models);
  if (registry != nullptr)
    timing->stage_seconds_in_train +=
        in_round_stage_seconds(*registry) - stage_before;
}

void on_sample_timed(AnomalyManager& manager, double now, double managed_vms,
                     bool trained, ControllerTiming* timing) {
  if (timing == nullptr) {
    manager.on_sample(now);
    return;
  }
  const auto start = Clock::now();
  const double cpu_start = cpu_seconds();
  manager.on_sample(now);
  const double cpu_took = cpu_seconds() - cpu_start;
  timing->on_sample.seconds += seconds_since(start);
  ++timing->on_sample.calls;
  if (trained) timing->round_us_per_vm.push_back(cpu_took * 1e6 / managed_vms);
}

DrivenRun run_driven(const ScenarioConfig& config, LayerFigures* layers,
                     ControllerTiming* timing) {
  const auto sample_every = static_cast<std::size_t>(
      std::round(config.sampling_interval_s / config.dt));
  auto bed = build_testbed(config);
  DrivenRun run;
  ScenarioResult& result = run.result;
  result.faulty_vm = bed->faulty_vm;

  VmMonitorConfig mcfg;
  mcfg.noise = config.monitor_noise *
               std::sqrt(5.0 / config.sampling_interval_s);
  if (config.graybox_memory)
    mcfg.memory_source = MemorySource::kGrayboxInference;
  VmMonitor monitor(mcfg, config.seed + 1000);

  ControllerContext ctx;
  ctx.app = bed->app.get();
  ctx.cluster = &bed->cluster;
  ctx.hypervisor = bed->hypervisor.get();
  ctx.store = &result.store;
  ctx.slo = &result.slo;
  ctx.log = &bed->events;
  ctx.metrics = config.metrics;
  ctx.tracer = config.tracer;
  ctx.introspect = config.introspect;
  ctx.recorder = config.recorder;
  ctx.num_threads = config.num_threads;

  PrepareConfig pcfg = config.prepare;
  pcfg.sampling_interval_s = config.sampling_interval_s;

  std::unique_ptr<AnomalyManager> manager;
  PrepareController* prepare_controller = nullptr;
  switch (config.scheme) {
    case Scheme::kNoIntervention:
      manager = std::make_unique<NoInterventionManager>(ctx);
      break;
    case Scheme::kReactive:
      manager = std::make_unique<ReactiveController>(ctx, pcfg);
      break;
    case Scheme::kPrepare: {
      auto controller = std::make_unique<PrepareController>(ctx, pcfg);
      prepare_controller = controller.get();
      manager = std::move(controller);
      break;
    }
  }

  const auto vms = bed->app->vms();
  const double managed_vms = static_cast<double>(vms.size());
  Busy* apps_step = layers != nullptr ? &layers->apps_step : nullptr;
  Busy* faults_apply = layers != nullptr ? &layers->faults_apply : nullptr;
  Busy* monitor_sample = layers != nullptr ? &layers->monitor_sample : nullptr;
  bool trained = false;
  std::size_t tick = 0;
  while (bed->clock.now() + 1e-9 < config.run_end) {
    const double now = bed->clock.now();
    for (Vm* vm : vms) vm->begin_tick();
    timed(faults_apply, [&] { bed->injector.apply(now, config.dt); });
    timed(apps_step, [&] { bed->app->step(now, config.dt); });
    result.slo.record(now, config.dt, bed->app->slo_violated(),
                      bed->app->slo_metric());

    if (tick % sample_every == 0) {
      timed(monitor_sample, [&] {
        for (Vm* vm : vms)
          result.store.record(vm->name(), now, monitor.sample(*vm));
      });
      if (!trained && now >= config.train_time) {
        train_timed(*manager, now, managed_vms, config.metrics, timing);
        trained = true;
      }
      on_sample_timed(*manager, now, managed_vms, trained, timing);
    }
    bed->clock.advance(Seconds{config.dt});
    ++tick;
  }
  result.vm_count = vms.size();
  result.ticks = tick;
  timed(timing != nullptr && config.tracer != nullptr ? &timing->obs_finish
                                                      : nullptr,
        [&] {
          if (config.tracer != nullptr) config.tracer->finish(bed->clock.now());
          if (config.introspect != nullptr)
            config.introspect->finish(bed->clock.now());
          if (config.recorder != nullptr) config.recorder->finish();
        });

  result.measure_start = std::min(config.fault2_start - 30.0, config.run_end);
  result.measure_end = config.run_end;
  result.violation_time =
      result.slo.violation_time(result.measure_start, result.measure_end);
  result.violation_time_total = result.slo.total_violation_time();
  result.events = bed->events;
  if (prepare_controller != nullptr) {
    run.raw_alerts = prepare_controller->raw_alerts();
    run.confirmed_alerts = prepare_controller->confirmed_alerts();
    run.actions = prepare_controller->actuator().actions_fired();
    run.validations_failed = prepare_controller->actuator().validations_failed();
  }
  return run;
}

std::uint64_t decision_checksum(const EventLog& events, double violation_time) {
  Checksum sum;
  for (const Event& e : events.events()) {
    sum.f64(e.time);
    sum.u64(static_cast<std::uint64_t>(e.kind));
    sum.str(e.subject);
    sum.str(e.detail);
  }
  sum.f64(violation_time);
  return sum.value();
}

std::string diff_with_library(const ScenarioConfig& config,
                              const ScenarioResult& driven) {
  const ScenarioResult reference = run_scenario(config);
  std::ostringstream why;
  why.precision(17);
  if (reference.violation_time != driven.violation_time) {
    why << "violation_time " << driven.violation_time << " vs run_scenario "
        << reference.violation_time;
    return why.str();
  }
  if (reference.ticks != driven.ticks || reference.vm_count != driven.vm_count)
    return "tick or VM count differs from run_scenario";
  if (reference.store.vm_names() != driven.store.vm_names())
    return "monitored VM set differs from run_scenario";
  for (const auto& vm : driven.store.vm_names()) {
    const std::size_t n = driven.store.sample_count(vm);
    if (reference.store.sample_count(vm) != n)
      return "sample count of " + vm + " differs from run_scenario";
    for (std::size_t i = 0; i < n; ++i)
      if (reference.store.sample(vm, i) != driven.store.sample(vm, i) ||
          reference.store.sample_time(vm, i) != driven.store.sample_time(vm, i))
        return "monitoring sample " + std::to_string(i) + " of " + vm +
               " differs from run_scenario";
  }
  const auto& a = driven.events.events();
  const auto& b = reference.events.events();
  if (a.size() != b.size()) {
    why << a.size() << " events vs run_scenario " << b.size();
    return why.str();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].time != b[i].time || a[i].kind != b[i].kind ||
        a[i].subject != b[i].subject || a[i].detail != b[i].detail) {
      why << "event " << i << " differs: " << event_kind_name(a[i].kind) << " "
          << a[i].subject << " @" << a[i].time << " vs "
          << event_kind_name(b[i].kind) << " " << b[i].subject << " @"
          << b[i].time;
      return why.str();
    }
  }
  return "";
}

}  // namespace perfbench
