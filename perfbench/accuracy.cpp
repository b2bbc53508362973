// trace_accuracy — the offline method of the paper's Figs. 10-12.
//
// Set-up records no-intervention traces of the six paper scenarios; the
// measured loop then evaluates prediction accuracy on them, per
// component and monolithic (one model over all VMs' attributes), at
// look-aheads of 5-45 s. Chosen because model training (discretizer
// fit, Markov counts, TAN structure learning) is about half of the work
// here, against about 5% on paper_mix, so a training change shows here.
// The look-ahead is only 1-9 steps deep, but it is still most of the
// other half.
//
// Each evaluation drives AnomalyPredictor/AlarmFilter directly, in
// evaluate_accuracy()'s order, so training and replay rounds can be
// timed from outside; every run checks that the result equals
// evaluate_accuracy() on every evaluation.
#include <cmath>
#include <iterator>
#include <string>
#include <vector>

#include "bench.h"
#include "core/accuracy.h"
#include "core/alarm_filter.h"
#include "core/anomaly_predictor.h"
#include "obs/stage_profiler.h"
#include "scenario.h"

namespace perfbench {

using namespace prepare;

namespace {

/// Recording the traces takes a fraction of a second, so set-up is
/// repeated for a steady median.
constexpr int kSetupRepeats = 5;
/// Seeded replicas of each paper scenario: 108 traces. Replica r is
/// evaluated at look-ahead kLookaheads[r % 9] only, so each scenario
/// meets every look-ahead twice and a pass holds 216 evaluations. Many
/// traces with one look-ahead each, rather than few traces with all of
/// them, keeps the figures from hanging on the content of a handful of
/// traces, that is, on the seed.
constexpr std::size_t kTraceReplicas = 18;
constexpr double kLookaheads[] = {5, 10, 15, 20, 25, 30, 35, 40, 45};

struct Trace {
  ScenarioConfig config;
  ScenarioResult result;
  std::vector<std::string> vms;
};

struct Evaluation {
  std::size_t trace = 0;
  double lookahead = 0.0;
  bool per_component = true;
};

std::vector<ScenarioConfig> trace_configs(std::uint64_t seed) {
  std::vector<ScenarioConfig> configs;
  for (std::size_t r = 0; r < kTraceReplicas; ++r)
    for (AppKind app : {AppKind::kSystemS, AppKind::kRubis})
      for (FaultKind fault : {FaultKind::kMemoryLeak, FaultKind::kCpuHog,
                              FaultKind::kBottleneck}) {
        ScenarioConfig c;
        c.app = app;
        c.fault = fault;
        c.scheme = Scheme::kNoIntervention;
        c.seed = seed * 1000 + configs.size();
        configs.push_back(c);
      }
  return configs;
}

/// Timers of the traced run; the untraced run passes null.
struct ModelTimers {
  explicit ModelTimers(obs::MetricsRegistry* registry)
      : registry(registry),
        profiler(registry),
        alarm_filter(profiler.stage(obs::kStageAlarmFilter)) {}
  obs::MetricsRegistry* registry;
  obs::StageProfiler profiler;
  obs::Histogram* alarm_filter;
  std::vector<double> train_us;       ///< per-component AnomalyPredictor::train
  std::vector<double> train_mono_ms;  ///< monolithic AnomalyPredictor::train
  Busy observe;
  Busy predict;
  std::vector<double> predict_us;
};

struct EvalOutcome {
  AccuracyResult counts;
  std::size_t raw_alerts = 0;
  std::size_t confirmed = 0;
};

/// evaluate_accuracy() with the paper's defaults (AccuracyConfig{}),
/// re-driven step by step through the public predictor API.
EvalOutcome evaluate_driven(const Trace& trace, const Evaluation& eval,
                            ControllerTiming* timing, ModelTimers* timers) {
  const AccuracyConfig config;
  const MetricStore& store = trace.result.store;
  const SloLog& slo = trace.result.slo;
  const auto& vms = trace.vms;
  const auto steps = static_cast<std::size_t>(std::max(
      1.0, std::round(eval.lookahead / config.sampling_interval_s)));
  const std::size_t total = store.sample_count(vms[0]);
  const std::size_t models = eval.per_component ? vms.size() : 1;
  const double per_vm = static_cast<double>(vms.size());

  auto feature_names = [&](std::size_t model) {
    std::vector<std::string> names;
    for (std::size_t v = 0; v < vms.size(); ++v) {
      if (eval.per_component && v != model) continue;
      for (std::size_t a = 0; a < kAttributeCount; ++a)
        names.push_back(vms[v] + "." +
                        attribute_name(static_cast<Attribute>(a)));
    }
    return names;
  };
  auto row_for = [&](std::size_t model, std::size_t index) {
    std::vector<double> row;
    if (eval.per_component) {
      const auto v = store.sample(vms[model], index);
      row.assign(v.begin(), v.end());
    } else {
      for (const auto& vm : vms) {
        const auto v = store.sample(vm, index);
        row.insert(row.end(), v.begin(), v.end());
      }
    }
    return row;
  };
  Busy* observe_busy = timers != nullptr ? &timers->observe : nullptr;

  const auto train_start = Clock::now();
  const double train_cpu_start = cpu_seconds();
  const double stage_before =
      timers != nullptr ? in_round_stage_seconds(*timers->registry)
                        : 0.0;
  std::vector<AnomalyPredictor> predictors;
  predictors.reserve(models);
  for (std::size_t m = 0; m < models; ++m) {
    predictors.emplace_back(feature_names(m), config.predictor);
    if (timers != nullptr) predictors.back().set_profiler(&timers->profiler);
  }
  for (std::size_t m = 0; m < models; ++m) {
    std::vector<std::vector<double>> rows;
    std::vector<bool> abnormal;
    for (std::size_t i = 0; i < total; ++i) {
      const double t = store.sample_time(vms[0], i);
      if (t > config.train_end) break;
      rows.push_back(row_for(m, i));
      abnormal.push_back(slo.violated_at(t));
    }
    const auto t0 = Clock::now();
    predictors[m].train(rows, abnormal);
    if (timers != nullptr) {
      const double took = seconds_since(t0);
      if (eval.per_component)
        timers->train_us.push_back(took * 1e6);
      else
        timers->train_mono_ms.push_back(took * 1e3);
    }
  }
  const double train_cpu = cpu_seconds() - train_cpu_start;
  const double train_took = seconds_since(train_start);
  if (timing != nullptr) {
    timing->train.seconds += train_took;
    ++timing->train.calls;
    if (eval.per_component)
      timing->train_ms_per_vm.push_back(train_cpu * 1e3 / per_vm);
  }
  if (timers != nullptr && timing != nullptr)
    timing->stage_seconds_in_train +=
        in_round_stage_seconds(*timers->registry) - stage_before;

  EvalOutcome out;
  AccuracyResult& result = out.counts;
  AlarmFilter filter(config.filter_k, config.filter_w);
  for (std::size_t i = 0; i < total; ++i) {
    const double t = store.sample_time(vms[0], i);
    if (t <= config.train_end) continue;
    const auto round_start = Clock::now();
    const double round_cpu_start = cpu_seconds();
    for (std::size_t m = 0; m < models; ++m)
      timed(observe_busy, [&] { predictors[m].observe(row_for(m, i)); });
    bool scored = false;
    const bool stop = t >= config.test_start && i + steps >= total;
    if (t >= config.test_start && !stop) {
      bool raw_alert = false;
      for (std::size_t m = 0; m < models; ++m) {
        if (!predictors[m].ready()) continue;
        if (config.require_discriminative && !predictors[m].discriminative())
          continue;
        const auto t0 = Clock::now();
        const Classification cls =
            predictors[m].predict(TickIndex{steps}).classification;
        if (timers != nullptr) {
          const double took = seconds_since(t0);
          timers->predict.seconds += took;
          ++timers->predict.calls;
          timers->predict_us.push_back(took * 1e6);
        }
        double top = 0.0;
        for (double impact : cls.impacts) top = std::max(top, impact);
        if (cls.abnormal && top >= config.alert_min_top_impact) {
          raw_alert = true;
          break;
        }
      }
      bool predicted;
      {
        obs::ScopedTimer timer(timers != nullptr ? timers->alarm_filter
                                                 : nullptr);
        predicted = filter.push(raw_alert);
      }
      const bool truth = slo.violated_at(store.sample_time(vms[0], i + steps));
      out.raw_alerts += raw_alert ? 1 : 0;
      out.confirmed += predicted ? 1 : 0;
      if (truth && predicted) ++result.tp;
      else if (truth && !predicted) ++result.fn;
      else if (!truth && predicted) ++result.fp;
      else ++result.tn;
      scored = true;
    }
    const double round_cpu = cpu_seconds() - round_cpu_start;
    const double took = seconds_since(round_start);
    if (timing != nullptr) {
      timing->on_sample.seconds += took;
      ++timing->on_sample.calls;
      if (scored && eval.per_component)
        timing->round_us_per_vm.push_back(round_cpu * 1e6 / per_vm);
    }
    if (stop) break;
  }
  if (result.tp + result.fn > 0)
    result.a_t = static_cast<double>(result.tp) /
                 static_cast<double>(result.tp + result.fn);
  if (result.fp + result.tn > 0)
    result.a_f = static_cast<double>(result.fp) /
                 static_cast<double>(result.fp + result.tn);
  return out;
}

bool same_counts(const AccuracyResult& a, const AccuracyResult& b) {
  return a.tp == b.tp && a.fn == b.fn && a.fp == b.fp && a.tn == b.tn;
}

std::string describe(const Trace& trace, const Evaluation& eval) {
  return std::string(app_kind_name(trace.config.app)) + "/" +
         fault_kind_name(trace.config.fault) + " lookahead " +
         std::to_string(static_cast<int>(eval.lookahead)) + " s " +
         (eval.per_component ? "per-component" : "monolithic");
}

}  // namespace

Report run_trace_accuracy(const Options& options) {
  Report report;
  const auto configs = trace_configs(options.seed);
  report.set_config("traces", std::to_string(configs.size()));
  report.set_config("grid", "system_s,rubis x memory_leak,cpu_hog,bottleneck");
  report.set_config("lookaheads_s", "5,10,15,20,25,30,35,40,45");
  report.set_config("lookaheads_per_trace", "1 (replica r: lookaheads_s[r % 9])");
  report.set_config("models", "per_component,monolithic");
  report.set_config("run_end_s", "1350");
  report.set_config("num_threads", "1");

  // Set-up: record the no-intervention traces (repeated; setup_s is
  // the median). The traced run times the simulation layers here.
  LayerFigures layers;
  ReferenceKernel kernel;
  std::vector<Trace> traces;
  SetupTimes setup;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    double cpu = 0.0;
    HostSpeed speed;
    for (const auto& config : configs) {
      const double start = cpu_seconds();
      DrivenRun run =
          run_driven(config, options.trace ? &layers : nullptr, nullptr);
      const double took = cpu_seconds() - start;
      cpu += took;
      speed.follow(&kernel, took);
      if (rep == 0)
        traces.push_back({config, std::move(run.result), {}});
    }
    setup.add(cpu, speed);
  }
  Checksum all;
  double violation = 0.0;
  for (auto& trace : traces) {
    trace.vms = trace.result.store.vm_names();
    all.u64(decision_checksum(trace.result.events, trace.result.violation_time));
    violation += trace.result.violation_time;
    const std::string diff = diff_with_library(trace.config, trace.result);
    report.check(diff.empty(), "trace differs from run_scenario: " + diff);
  }
  violation /= static_cast<double>(traces.size());

  std::vector<Evaluation> pool;
  for (std::size_t t = 0; t < traces.size(); ++t) {
    const std::size_t replica = t / (traces.size() / kTraceReplicas);
    const double lookahead = kLookaheads[replica % std::size(kLookaheads)];
    for (bool per_component : {true, false})
      pool.push_back({t, lookahead, per_component});
  }

  std::vector<AccuracyResult> first;
  auto check_eval = [&](std::size_t i, const EvalOutcome& out) {
    if (first.size() == i) first.push_back(out.counts);
    report.check(same_counts(out.counts, first[i]),
                 "evaluation differs between passes: " +
                     describe(traces[pool[i].trace], pool[i]));
  };
  auto vm_ticks_of = [&](const Evaluation& eval) {
    const auto& r = traces[eval.trace].result;
    return static_cast<double>(r.vm_count * r.ticks);
  };

  if (!options.trace) {
    PassMedians passes;
    const auto start = Clock::now();
    while (passes.passes() == 0 || seconds_since(start) < options.seconds) {
      PassTiming pass;
      ControllerTiming timing;
      for (std::size_t i = 0; i < pool.size(); ++i) {
        const double t0 = cpu_seconds();
        const EvalOutcome out =
            evaluate_driven(traces[pool[i].trace], pool[i], &timing, nullptr);
        const double took = cpu_seconds() - t0;
        pass.cpu_s += took;
        pass.speed.follow(&kernel, took);
        pass.vm_ticks += vm_ticks_of(pool[i]);
        pass.evaluations += 1.0;
        check_eval(i, out);
      }
      pass.round_us_per_vm = std::move(timing.round_us_per_vm);
      pass.train_ms_per_vm = std::move(timing.train_ms_per_vm);
      passes.add(pass);
    }
    add_end_to_end_metrics(passes, setup, &report);
    report.add_detail("violation_s", violation, "s");
  } else {
    obs::MetricsRegistry registry;
    ModelTimers timers(&registry);
    ControllerTiming traced, untraced;
    double cpu[2] = {0.0, 0.0}, evals[2] = {0.0, 0.0};
    const auto start = Clock::now();
    for (std::size_t pass = 0; pass < 2 || seconds_since(start) < options.seconds;
         ++pass) {
      const bool is_traced = pass % 2 == 0;
      const std::size_t log_before = log_lines();
      for (std::size_t i = 0; i < pool.size(); ++i) {
        const double t0 = cpu_seconds();
        const EvalOutcome out =
            evaluate_driven(traces[pool[i].trace], pool[i],
                            is_traced ? &traced : &untraced,
                            is_traced ? &timers : nullptr);
        cpu[is_traced] += cpu_seconds() - t0;
        evals[is_traced] += 1.0;
        check_eval(i, out);
        if (pass == 0) {
          layers.alerts_raw += static_cast<double>(out.raw_alerts);
          layers.alerts_confirmed += static_cast<double>(out.confirmed);
        }
      }
      if (pass == 0) layers.log_lines = static_cast<double>(log_lines() - log_before);
    }
    layers.train = traced.train;
    layers.on_sample = traced.on_sample;
    layers.discretize = stage_figures(registry, obs::kStageDiscretize);
    layers.markov_lookahead = stage_figures(registry, obs::kStageMarkovLookahead);
    layers.tan_classify = stage_figures(registry, obs::kStageTanClassify);
    layers.alarm_filter = stage_figures(registry, obs::kStageAlarmFilter);
    layers.unattributed_s =
        traced.on_sample.seconds -
        (in_round_stage_seconds(registry) - traced.stage_seconds_in_train);
    report.check(layers.unattributed_s >= -1e-6,
                 "in-round stages exceed core.on_sample.busy_s");
    layers.trace_overhead_ratio = (evals[0] / cpu[0]) / (evals[1] / cpu[1]);
    emit_layer_metrics(layers, &report);

    StageFigures train;
    train.calls = static_cast<double>(timers.train_us.size());
    for (double us : timers.train_us) train.busy_s += us * 1e-6;
    train.p50_us = median(timers.train_us);
    report.add_detail("models.train.calls", train.calls, "count");
    report.add_detail("models.train.busy_s", train.busy_s, "s");
    report.add_detail("models.train.p50_us", train.p50_us, "us");
    report.add_detail("models.train_mono.p50_ms", median(timers.train_mono_ms),
                      "ms");
    report.add_detail("models.observe.busy_s", timers.observe.seconds, "s");
    report.add_detail("models.predict.calls",
                      static_cast<double>(timers.predict.calls), "count");
    report.add_detail("models.predict.busy_s", timers.predict.seconds, "s");
    report.add_detail("models.predict.p50_us", median(timers.predict_us), "us");
    report.add_detail("core.train.share_of_run", traced.train.seconds / cpu[1],
                      "ratio");
  }

  // evaluate_accuracy() itself must give the same tp/fn/fp/tn as the
  // driven loop on every evaluation.
  double tpr_sum = 0.0, fpr_sum = 0.0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const Trace& trace = traces[pool[i].trace];
    AccuracyConfig config;
    config.per_component = pool[i].per_component;
    const AccuracyResult lib = evaluate_accuracy(
        trace.result.store, trace.result.slo, trace.vms, pool[i].lookahead,
        config);
    report.check(same_counts(lib, first[i]),
                 "driven loop differs from evaluate_accuracy: " +
                     describe(trace, pool[i]));
    tpr_sum += lib.a_t;
    fpr_sum += lib.a_f;
    all.u64(lib.tp);
    all.u64(lib.fn);
    all.u64(lib.fp);
    all.u64(lib.tn);
  }
  report.checksum = all.value();
  if (!options.trace) {
    report.add_detail("accuracy_tpr", tpr_sum / static_cast<double>(pool.size()),
                      "ratio");
    report.add_detail("accuracy_fpr", fpr_sum / static_cast<double>(pool.size()),
                      "ratio");
  }
  return report;
}

}  // namespace perfbench
