#include "core/controller.h"

#include <set>
#include <utility>

#include "common/check.h"
#include "common/logging.h"

namespace prepare {

AnomalyManager::AnomalyManager(ControllerContext ctx) : ctx_(ctx) {
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

std::vector<std::string> AnomalyManager::train_predictors(
    PredictorMap* predictors, double t0, double t1) const {
  std::vector<std::vector<double>> rows;
  std::vector<bool> abnormal;
  std::vector<std::string> trained;
  for (auto& [vm, predictor] : *predictors) {
    Labeler::label_rows(*ctx_.store, *ctx_.slo, vm, t0, t1, &rows, &abnormal);
    if (rows.empty()) continue;
    predictor.train(rows, abnormal);
    trained.push_back(vm);
  }
  return trained;
}

void AnomalyManager::observe_round(double now, bool trained,
                                   CauseInference* inference,
                                   obs::Histogram* stage,
                                   PredictorMap* predictors) const {
  for (const auto& vm : vm_names()) {
    const auto samples = ctx_.store->last_samples(vm, 1);
    if (samples.empty()) continue;
    {
      obs::ScopedTimer timer(stage);
      inference->observe(vm, now, samples.back());
    }
    if (!trained) continue;
    auto it = predictors->find(vm);
    if (it != predictors->end() && it->second.trained())
      it->second.observe(
          std::vector<double>(samples.back().begin(), samples.back().end()));
  }
  // Episode bookkeeping: SLO edge detection (lead times / misses) and
  // stale-episode expiry, before this round's alerts open new episodes
  // — a confirmation in the same round as the violation onset has zero
  // lead and must not count as a prediction.
  if (trained && ctx_.tracer != nullptr) {
    ctx_.tracer->observe_slo(now, ctx_.slo->currently_violated());
    ctx_.tracer->tick(now);
  }
}

std::map<std::string, Classification> AnomalyManager::diagnose_violation(
    double now, const PredictorMap& predictors,
    const PreventionActuator& actuator, double min_top_impact,
    std::set<std::string>* unhealthy) const {
  std::map<std::string, Classification> diagnosed;
  Classification best;
  std::string best_vm;
  for (const auto& [vm, predictor] : predictors) {
    if (!predictor.trained()) continue;
    const auto cls = predictor.classify_current();
    if (cls.abnormal) unhealthy->insert(vm);
    if (passes_alert_gate(cls.abnormal, cls.impacts, min_top_impact)) {
      diagnosed.emplace(vm, cls);
    } else if (!actuator.validation_open(vm) &&
               (best_vm.empty() || cls.score > best.score)) {
      best = cls;
      best_vm = vm;
    }
  }
  if (diagnosed.empty() && !best_vm.empty()) diagnosed.emplace(best_vm, best);
  for (const auto& [vm, cls] : diagnosed) {
    unhealthy->insert(vm);
    if (ctx_.tracer != nullptr) ctx_.tracer->reactive_alert(vm, now);
  }
  return diagnosed;
}

// ---------------------------------------------------------------- PREPARE

PrepareController::PrepareController(ControllerContext ctx,
                                     PrepareConfig config)
    : AnomalyManager(ctx),
      config_(config),
      lookahead_steps_(
          lookahead_steps(config.lookahead_s, config.sampling_interval_s)),
      inference_(vm_names(), config.inference),
      actuator_(ctx.hypervisor, ctx.cluster, ctx.store, ctx.log,
                config.prevention, ctx.metrics, ctx.tracer, ctx.recorder),
      profiler_(ctx.metrics),
      pool_(ctx.num_threads > 1 ? std::make_unique<ThreadPool>(ctx.num_threads)
                                : nullptr) {
  const auto names = attribute_names();
  if (ctx.introspect != nullptr) {
    ctx.introspect->set_horizon(lookahead_steps_.value(),
                                config_.sampling_interval_s);
    ctx.introspect->set_attribute_names(names);
  }
  if (ctx.recorder != nullptr) {
    obs::DecisionConfig decision;
    decision.filter_k = config_.filter_k;
    decision.filter_w = config_.filter_w;
    decision.alert_min_top_impact = config_.alert_min_top_impact;
    decision.prevention_mode = static_cast<int>(config_.prevention.mode);
    decision.companion_scaling = config_.prevention.companion_scaling;
    decision.lookahead_s = config_.lookahead_s;
    decision.sampling_interval_s = config_.sampling_interval_s;
    ctx.recorder->set_decision_config(decision);
    // The tracer owns the episode lifecycle; captures open and close
    // through its hooks.
    if (ctx.tracer != nullptr) ctx.tracer->set_recorder(ctx.recorder);
  }
  for (const auto& vm : vm_names()) {
    auto [it, inserted] =
        predictors_.emplace(vm, AnomalyPredictor(names, config_.predictor));
    if (inserted && profiler_.enabled()) it->second.set_profiler(&profiler_);
    if (inserted && ctx.introspect != nullptr)
      it->second.set_introspect(ctx.introspect);
    filters_.emplace(vm, AlarmFilter(config_.filter_k, config_.filter_w));
  }
  stage_alarm_filter_ = profiler_.stage(obs::kStageAlarmFilter);
  stage_cause_inference_ = profiler_.stage(obs::kStageCauseInference);
  stage_prevention_ = profiler_.stage(obs::kStagePrevention);
  raw_alerts_counter_ = obs::counter(ctx.metrics, "controller.raw_alerts_total");
  confirmed_alerts_counter_ =
      obs::counter(ctx.metrics, "controller.confirmed_alerts_total");
  reactive_fallbacks_counter_ =
      obs::counter(ctx.metrics, "controller.reactive_fallbacks_total");
}

void PrepareController::train(double t0, double t1) {
  const auto trained_vms = train_predictors(&predictors_, t0, t1);
  std::size_t discriminative_models = 0;
  for (const auto& vm : trained_vms) {
    AnomalyPredictor& predictor = predictors_.at(vm);
    // Register the VM's evidence geometry with the flight recorder: the
    // flattened-distribution layout depends on the trained discretizer
    // alphabets (quantile binning merges ties), so this must happen
    // after train(). Capture is predictor-side: each fan-out worker
    // fills only its own Result::evidence slot.
    if (ctx_.recorder != nullptr &&
        recorder_slots_.count(vm) == 0) {
      obs::EvidenceLayout layout;
      layout.attributes = predictor.feature_names().size();
      layout.offsets.assign(layout.attributes + 1, 0);
      for (std::size_t a = 0; a < layout.attributes; ++a)
        layout.offsets[a + 1] =
            layout.offsets[a] + predictor.attribute_alphabet(a);
      layout.attribute_names = predictor.feature_names();
      layout.horizon_steps = lookahead_steps_.value();
      recorder_slots_.emplace(vm, ctx_.recorder->register_vm(vm, layout));
      predictor.set_evidence_capture(true);
    }
    if (predictor.discriminative()) {
      ++discriminative_models;
    } else {
      PREPARE_INFO("prepare") << "model for " << vm
                              << " is not discriminative (train TPR "
                              << predictor.train_tpr()
                              << "): its alerts are suppressed";
    }
  }
  trained_ = true;
  PREPARE_INFO("prepare") << "trained " << trained_vms.size()
                          << " per-VM models over [" << t0 << ", " << t1
                          << "], " << discriminative_models
                          << " discriminative";
  ctx_.log->record(t1, EventKind::kInfo, "prepare",
                   "per-VM prediction models trained");
}

void PrepareController::on_sample(double now) {
  // 1. Feed the newest samples into the predictors' Markov contexts and
  //    the workload-change detectors.
  observe_round(now, trained_, &inference_, stage_cause_inference_,
                &predictors_);
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
    if (raw) {
      ++raw_alerts_;
      obs::inc(raw_alerts_counter_);
      ctx_.log->record(now, EventKind::kAlert, vm, "predicted anomaly");
      if (ctx_.tracer != nullptr) ctx_.tracer->raw_alert(vm, now);
    }
    bool vm_confirmed;
    {
      obs::ScopedTimer timer(stage_alarm_filter_);
      vm_confirmed = filters_.at(vm).push(raw);
    }
    if (vm_confirmed) {
      ++confirmed_alerts_;
      obs::inc(confirmed_alerts_counter_);
      confirmed.emplace(vm, result.classification);
      unhealthy.insert(vm);
      PREPARE_INFO("prepare") << "confirmed predicted anomaly on " << vm
                              << " at t=" << now;
      ctx_.log->record(now, EventKind::kAlertConfirmed, vm,
                       "k-of-W confirmed");
      if (ctx_.tracer != nullptr) ctx_.tracer->confirmed(vm, now);
    }
    // Feed the flight recorder after the filter verdict so the frame
    // carries raw + confirmed. The tracer's raw_alert above already
    // opened any new episode, so an opening tick lands in the capture,
    // not just the ring. Serial section, map (VM) order: bundles are
    // byte-identical across --threads.
    if (ctx_.recorder != nullptr && result.evidence.valid) {
      const auto slot = recorder_slots_.find(vm);
      if (slot != recorder_slots_.end()) {
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
        ctx_.recorder->record_tick(slot->second, frame);
      }
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
    ++reactive_fallbacks_;
    obs::inc(reactive_fallbacks_counter_);
    PREPARE_INFO("prepare") << "SLO violated at t=" << now
                            << ": entering reactive fallback diagnosis";
    reactive = diagnose_violation(now, predictors_, actuator_,
                                  config_.alert_min_top_impact, &unhealthy);
  }

  // 4. Validation of earlier preventions.
  {
    obs::ScopedTimer timer(stage_prevention_);
    actuator_.on_sample(now, unhealthy);
  }

  // 5. Cause inference + actuation over the union of confirmed
  //    predictions and reactive diagnoses.
  std::map<std::string, Classification> alerting = confirmed;
  alerting.insert(reactive.begin(), reactive.end());
  if (alerting.empty()) return;
  Diagnosis diagnosis;
  {
    obs::ScopedTimer timer(stage_cause_inference_);
    diagnosis = inference_.diagnose(alerting);
    diagnosis.workload_change = inference_.workload_change_suspected(now);
  }
  if (diagnosis.workload_change) {
    PREPARE_INFO("prepare") << "change points on all components at t=" << now
                            << ": workload change suspected";
    ctx_.log->record(now, EventKind::kInfo, "prepare",
                     "change points on all components: workload change "
                     "suspected");
  }
  if (ctx_.tracer != nullptr) {
    if (diagnosis.workload_change) {
      // Not a VM fault: the episodes are dropped from the trace. The
      // actuation below still runs unchanged — suppression is an
      // observability decision, not a behavior change.
      for (const auto& faulty : diagnosis.faulty)
        ctx_.tracer->workload_change_suppressed(faulty.vm, now);
    } else {
      for (const auto& faulty : diagnosis.faulty) {
        ctx_.tracer->cause_inferred(faulty.vm, now, cause_attribution(faulty));
        // Full attribution ranking into the open capture (cold path:
        // at most one diagnosis per episode is kept).
        if (ctx_.recorder != nullptr) {
          std::vector<std::size_t> ranked(faulty.ranked.size());
          for (std::size_t r = 0; r < ranked.size(); ++r)
            ranked[r] = static_cast<std::size_t>(faulty.ranked[r]);
          ctx_.recorder->record_diagnosis(faulty.vm, now, ranked.data(),
                                          faulty.impacts.data(),
                                          ranked.size());
        }
      }
    }
  }
  {
    obs::ScopedTimer timer(stage_prevention_);
    for (const auto& faulty : diagnosis.faulty) actuator_.actuate(faulty, now);
  }
}

// ---------------------------------------------------------------- reactive

ReactiveController::ReactiveController(ControllerContext ctx,
                                       PrepareConfig config)
    : AnomalyManager(ctx),
      config_(config),
      inference_(vm_names(), config.inference),
      actuator_(ctx.hypervisor, ctx.cluster, ctx.store, ctx.log,
                config.prevention, ctx.metrics, ctx.tracer),
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

void ReactiveController::train(double t0, double t1) {
  train_predictors(&predictors_, t0, t1);
  trained_ = true;
}

void ReactiveController::on_sample(double now) {
  observe_round(now, trained_, &inference_, stage_cause_inference_,
                &predictors_);
  if (!trained_) return;

  std::map<std::string, Classification> alerting;
  std::set<std::string> unhealthy;
  if (ctx_.slo->currently_violated())
    alerting = diagnose_violation(now, predictors_, actuator_,
                                  config_.alert_min_top_impact, &unhealthy);

  {
    obs::ScopedTimer timer(stage_prevention_);
    actuator_.on_sample(now, unhealthy);
  }
  if (alerting.empty()) return;
  Diagnosis diagnosis;
  {
    obs::ScopedTimer timer(stage_cause_inference_);
    diagnosis = inference_.diagnose(alerting);
  }
  if (ctx_.tracer != nullptr)
    for (const auto& faulty : diagnosis.faulty)
      ctx_.tracer->cause_inferred(faulty.vm, now, cause_attribution(faulty));
  {
    obs::ScopedTimer timer(stage_prevention_);
    for (const auto& faulty : diagnosis.faulty) actuator_.actuate(faulty, now);
  }
}

}  // namespace prepare
