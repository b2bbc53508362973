#include "core/controller.h"

#include <set>
#include <utility>

#include "common/check.h"

namespace prepare {

AnomalyManager::AnomalyManager(ControllerContext ctx)
    : ctx_(ctx), sinks_(ctx.log, ctx.metrics, ctx.tracer) {
  PREPARE_CHECK(ctx.app != nullptr);
  PREPARE_CHECK(ctx.cluster != nullptr);
  PREPARE_CHECK(ctx.hypervisor != nullptr);
  PREPARE_CHECK(ctx.store != nullptr);
  PREPARE_CHECK(ctx.slo != nullptr);
  PREPARE_CHECK(ctx.log != nullptr);
}

std::vector<std::string> AnomalyManager::vm_names() const {
  std::vector<std::string> names;
  for (const Vm* vm : ctx_.app->vms()) names.push_back(vm->name());
  return names;
}

// ---------------------------------------------------------- intervening

InterveningManager::InterveningManager(ControllerContext ctx,
                                       PrepareConfig config)
    : AnomalyManager(ctx),
      config_(config),
      inference_(vm_names(), config.inference),
      actuator_(ctx.hypervisor, ctx.cluster, ctx.store, &sinks_,
                config.prevention),
      profiler_(ctx.metrics) {
  const auto names = attribute_names();
  for (const auto& vm : vm_names()) {
    auto [it, inserted] =
        predictors_.emplace(vm, AnomalyPredictor(names, config_.predictor));
    if (inserted && profiler_.enabled()) it->second.set_profiler(&profiler_);
  }
  stage_cause_inference_ = profiler_.stage(obs::kStageCauseInference);
  stage_prevention_ = profiler_.stage(obs::kStagePrevention);
}

std::vector<std::string> InterveningManager::train_predictors(double t0,
                                                              double t1) {
  std::vector<std::vector<double>> rows;
  std::vector<bool> abnormal;
  std::vector<std::string> trained;
  for (auto& [vm, predictor] : predictors_) {
    Labeler::label_rows(*ctx_.store, *ctx_.slo, vm, t0, t1, &rows, &abnormal);
    if (rows.empty()) continue;
    predictor.train(rows, abnormal);
    trained.push_back(vm);
  }
  trained_ = true;
  return trained;
}

void InterveningManager::observe_round(double now) {
  for (const auto& vm : vm_names()) {
    const auto samples = ctx_.store->last_samples(vm, 1);
    if (samples.empty()) continue;
    {
      obs::ScopedTimer timer(stage_cause_inference_);
      inference_.observe(vm, now, samples.back());
    }
    if (!trained_) continue;
    auto it = predictors_.find(vm);
    if (it != predictors_.end() && it->second.trained())
      it->second.observe(
          std::vector<double>(samples.back().begin(), samples.back().end()));
  }
  // Episode bookkeeping before this round's alerts open new episodes: a
  // confirmation in the same round as the violation onset has zero lead
  // and must not count as a prediction.
  if (trained_) sinks_.round(now, ctx_.slo->currently_violated());
}

std::map<std::string, Classification> InterveningManager::diagnose_violation(
    double now, std::set<std::string>* unhealthy) {
  std::map<std::string, Classification> diagnosed;
  Classification best;
  std::string best_vm;
  for (const auto& [vm, predictor] : predictors_) {
    if (!predictor.trained()) continue;
    const auto cls = predictor.classify_current();
    if (cls.abnormal) unhealthy->insert(vm);
    if (passes_alert_gate(cls.abnormal, cls.impacts,
                          config_.alert_min_top_impact)) {
      diagnosed.emplace(vm, cls);
    } else if (!actuator_.validation_open(vm) &&
               (best_vm.empty() || cls.score > best.score)) {
      best = cls;
      best_vm = vm;
    }
  }
  if (diagnosed.empty() && !best_vm.empty()) diagnosed.emplace(best_vm, best);
  for (const auto& [vm, cls] : diagnosed) {
    unhealthy->insert(vm);
    sinks_.emit(
        {.kind = DecisionKind::kReactiveDiagnosis, .t = now, .vm = &vm});
  }
  return diagnosed;
}

void InterveningManager::validate_and_act(
    double now, const std::set<std::string>& unhealthy,
    const std::map<std::string, Classification>& alerting,
    bool workload_check) {
  {
    obs::ScopedTimer timer(stage_prevention_);
    actuator_.on_sample(now, unhealthy);
  }
  if (alerting.empty()) return;
  Diagnosis diagnosis;
  {
    obs::ScopedTimer timer(stage_cause_inference_);
    diagnosis = inference_.diagnose(alerting);
    if (workload_check)
      diagnosis.workload_change = inference_.workload_change_suspected(now);
  }
  if (diagnosis.workload_change) {
    sinks_.emit({.kind = DecisionKind::kWorkloadChange, .t = now,
                 .diagnosis = &diagnosis});
  } else {
    for (const auto& faulty : diagnosis.faulty)
      sinks_.emit(
          {.kind = DecisionKind::kCauseInferred, .t = now, .faulty = &faulty});
  }
  {
    obs::ScopedTimer timer(stage_prevention_);
    for (const auto& faulty : diagnosis.faulty) actuator_.actuate(faulty, now);
  }
}

// ---------------------------------------------------------------- PREPARE

PrepareController::PrepareController(ControllerContext ctx,
                                     PrepareConfig config)
    : InterveningManager(ctx, config),
      lookahead_steps_(
          lookahead_steps(config.lookahead_s, config.sampling_interval_s)),
      pool_(ctx.num_threads > 1 ? std::make_unique<ThreadPool>(ctx.num_threads)
                                : nullptr) {
  if (ctx.introspect != nullptr) {
    ctx.introspect->set_horizon(lookahead_steps_.value(),
                                config_.sampling_interval_s);
    ctx.introspect->set_attribute_names(attribute_names());
  }
  sinks_.declare({DecisionKind::kRawAlert, DecisionKind::kConfirmed,
                  DecisionKind::kReactiveFallback});
  sinks_.attach_recorder(
      ctx.recorder,
      {.filter_k = config_.filter_k,
       .filter_w = config_.filter_w,
       .alert_min_top_impact = config_.alert_min_top_impact,
       .prevention_mode = static_cast<int>(config_.prevention.mode),
       .companion_scaling = config_.prevention.companion_scaling,
       .lookahead_s = config_.lookahead_s,
       .sampling_interval_s = config_.sampling_interval_s});
  for (auto& [vm, predictor] : predictors_) {
    if (ctx.introspect != nullptr) predictor.set_introspect(ctx.introspect);
    filters_.emplace(vm, AlarmFilter(config_.filter_k, config_.filter_w));
  }
  stage_alarm_filter_ = profiler_.stage(obs::kStageAlarmFilter);
}

void PrepareController::train(double t0, double t1) {
  const auto trained_vms = train_predictors(t0, t1);
  for (const auto& vm : trained_vms) {
    AnomalyPredictor& predictor = predictors_.at(vm);
    // The VM's evidence geometry: the flattened-distribution layout
    // depends on the trained discretizer alphabets (quantile binning
    // merges ties), so it is known only after train(). Capture is
    // predictor-side: each fan-out worker fills only its own
    // Result::evidence slot.
    obs::EvidenceLayout layout;
    layout.attributes = predictor.feature_names().size();
    layout.offsets.assign(layout.attributes + 1, 0);
    for (std::size_t a = 0; a < layout.attributes; ++a)
      layout.offsets[a + 1] =
          layout.offsets[a] + predictor.attribute_alphabet(a);
    layout.attribute_names = predictor.feature_names();
    layout.horizon_steps = lookahead_steps_.value();
    if (sinks_.register_evidence(vm, layout))
      predictor.set_evidence_capture(true);
  }
  sinks_.emit({.kind = DecisionKind::kTrained, .t = t1, .t0 = t0,
               .trained = &trained_vms, .models = &predictors_});
}

void PrepareController::on_sample(double now) {
  // 1. Feed the newest samples into the predictors' Markov contexts and
  //    the workload-change detectors.
  observe_round(now);
  if (!trained_) return;

  // Calibration round: resolve the pending horizon predictions whose
  // target round is this one against the realized SLO state (the same
  // outcome definition the Labeler uses for training labels), then open
  // this round's slot for the probabilities recorded below.
  if (ctx_.introspect != nullptr)
    ctx_.introspect->begin_round(now, ctx_.slo->currently_violated());

  // 2. Per-VM prediction and false-alarm filtering. The models are
  //    independent per VM (paper Section III) and predict() only reads
  //    predictor state, so the Markov look-ahead + TAN classification
  //    fan out across the worker pool; the only shared state they touch
  //    is the thread-safe obs:: instruments. The fan-out stage draws no
  //    randomness — a future stochastic stage must fork one Rng stream
  //    per VM (Rng::fork) before fanning out, never share an engine.
  //    Alerts, filter pushes, and log records are then applied serially
  //    below in deterministic (map) VM order, so a parallel run is
  //    bit-identical to a sequential one.
  auto& active = active_;
  auto& results = results_;
  active.clear();
  active.reserve(predictors_.size());
  for (const auto& [vm, predictor] : predictors_)
    if (predictor.ready() && predictor.discriminative())
      active.emplace_back(&vm, &predictor);
  // Reused across rounds; predict_into() overwrites every slot it is
  // handed, so stale entries never leak into this round.
  results.resize(active.size());
  // The calibration-stride decision is made here, on the driver, so the
  // worker-side predict never reads the driver-confined introspector;
  // unsampled rounds keep the bare (single final distribution)
  // prediction cost.
  const bool horizon_due =
      ctx_.introspect != nullptr && ctx_.introspect->calibration_due();
  // The fan-out body: implicitly PREPARE_HOT (the analyzer roots its
  // no-allocation proof at every parallel_for worker lambda) and the
  // root of the confinement rule — nothing here may reach the
  // driver-confined tracer/introspector/EventLog/Application.
  const auto predict_one = [&](std::size_t i) {
    active[i].second->predict_into(lookahead_steps_, horizon_due,
                                   &results[i]);
  };
  if (pool_ != nullptr) {
    pool_->parallel_for(active.size(), predict_one);
  } else {
    for (std::size_t i = 0; i < active.size(); ++i) predict_one(i);
  }

  std::map<std::string, Classification> confirmed;
  std::set<std::string> unhealthy;
  for (std::size_t i = 0; i < active.size(); ++i) {
    const std::string& vm = *active[i].first;
    const auto& result = results[i];
    // Fold this VM's predicted probability path into the calibration
    // tracker — serial section, map (VM) order, so the fold sequence is
    // independent of the fan-out's thread count.
    if (ctx_.introspect != nullptr && !result.horizon_probs.empty())
      ctx_.introspect->record_horizon_probs(result.horizon_probs);
    const bool raw = passes_alert_gate(result.classification.abnormal,
                                       result.classification.impacts,
                                       config_.alert_min_top_impact);
    if (raw)
      sinks_.emit({.kind = DecisionKind::kRawAlert, .t = now, .vm = &vm});
    bool vm_confirmed;
    {
      obs::ScopedTimer timer(stage_alarm_filter_);
      vm_confirmed = filters_.at(vm).push(raw);
    }
    if (vm_confirmed) {
      confirmed.emplace(vm, result.classification);
      unhealthy.insert(vm);
      sinks_.emit({.kind = DecisionKind::kConfirmed, .t = now, .vm = &vm});
    }
    // Evidence after the filter verdict so the frame carries raw +
    // confirmed. The raw alert above already opened any new episode, so
    // an opening tick lands in the capture, not just the ring. Serial
    // section, map (VM) order: bundles are byte-identical across
    // --threads. Only a VM registered with a recorder captures evidence.
    if (result.evidence.valid) {
      obs::EvidenceFrame frame;
      frame.t = now;
      frame.abnormal = result.classification.abnormal;
      frame.raw_alert = raw;
      frame.confirmed = vm_confirmed;
      frame.score = result.classification.score;
      frame.prior_log_odds = result.evidence.prior_log_odds;
      frame.decomposable = result.evidence.decomposable;
      frame.raw = result.evidence.raw.data();
      frame.observed_row = result.evidence.observed_row.data();
      frame.mode_row = result.evidence.mode_row.data();
      frame.impacts = result.classification.impacts.data();
      frame.dists = result.evidence.dists.data();
      frame.horizon_probs = result.horizon_probs.empty()
                                ? nullptr
                                : result.horizon_probs.data();
      frame.horizon_len = result.horizon_probs.size();
      sinks_.record_evidence(vm, frame);
    }
  }

  // Model-state probes on the introspector's round cadence: sweep every
  // trained predictor's transition rows and CPTs in map (VM) order —
  // serial, driver thread, a handful of rounds apart so the sweep cost
  // stays inside the overhead bar.
  if (ctx_.introspect != nullptr && ctx_.introspect->probe_due()) {
    ctx_.introspect->begin_probe(now);
    for (const auto& [vm, predictor] : predictors_)
      if (predictor.trained()) predictor.report_model_state();
    ctx_.introspect->end_probe();
  }

  // 3. Reactive fallback: the SLO is already violated — diagnose from
  //    the current samples too, in case prediction missed (or confirmed
  //    only a bystander VM).
  std::map<std::string, Classification> reactive;
  if (ctx_.slo->currently_violated()) {
    sinks_.emit({.kind = DecisionKind::kReactiveFallback, .t = now});
    reactive = diagnose_violation(now, &unhealthy);
  }

  // 4. Validation of earlier preventions, then cause inference and
  //    actuation over the union of confirmed predictions and reactive
  //    diagnoses.
  std::map<std::string, Classification> alerting = confirmed;
  alerting.insert(reactive.begin(), reactive.end());
  validate_and_act(now, unhealthy, alerting, /*workload_check=*/true);
}

// ---------------------------------------------------------------- reactive

void ReactiveController::train(double t0, double t1) {
  train_predictors(t0, t1);
}

void ReactiveController::on_sample(double now) {
  observe_round(now);
  if (!trained_) return;

  std::map<std::string, Classification> alerting;
  std::set<std::string> unhealthy;
  if (ctx_.slo->currently_violated())
    alerting = diagnose_violation(now, &unhealthy);
  validate_and_act(now, unhealthy, alerting, /*workload_check=*/false);
}

}  // namespace prepare
