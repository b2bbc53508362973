#include "core/decision_sinks.h"

#include <utility>

#include "common/check.h"
#include "common/logging.h"

namespace prepare {

namespace {

/// The counter of each kind, in DecisionKind order (null: uncounted).
constexpr std::array<const char*, kDecisionKinds> kCounterNames = {
    "controller.raw_alerts_total", "controller.confirmed_alerts_total",
    "controller.reactive_fallbacks_total", nullptr, nullptr, nullptr,
    nullptr, "prevention.actions_total",
    "prevention.migrations_skipped_total", nullptr, nullptr,
    "prevention.validations_failed_total", nullptr,
    "prevention.reclaims_total", nullptr};

}  // namespace

DecisionSinks::DecisionSinks(EventLog* log, obs::MetricsRegistry* metrics,
                             obs::SpanTracer* tracer)
    : log_(log), metrics_(metrics), tracer_(tracer) {}

void DecisionSinks::declare(std::initializer_list<DecisionKind> kinds) {
  for (const DecisionKind kind : kinds) {
    const auto k = static_cast<std::size_t>(kind);
    if (kCounterNames[k] != nullptr)
      counters_[k] = obs::counter(metrics_, kCounterNames[k]);
  }
}

void DecisionSinks::attach_recorder(obs::FlightRecorder* recorder,
                                    const obs::DecisionConfig& decision) {
  if (recorder == nullptr) return;
  PREPARE_CHECK_MSG(tracer_ != nullptr,
                    "a flight recorder needs a span tracer: its captures "
                    "open and close on the tracer's episode hooks");
  recorder->set_decision_config(decision);
  tracer_->set_recorder(recorder);
  recorder_ = recorder;
}

bool DecisionSinks::register_evidence(const std::string& vm,
                                      const obs::EvidenceLayout& layout) {
  if (recorder_ == nullptr) return false;
  if (evidence_slots_.count(vm) == 0)
    evidence_slots_.emplace(vm, recorder_->register_vm(vm, layout));
  return true;
}

void DecisionSinks::record_evidence(const std::string& vm,
                                    const obs::EvidenceFrame& f) {
  const auto slot = evidence_slots_.find(vm);
  if (slot != evidence_slots_.end()) recorder_->record_tick(slot->second, f);
}

void DecisionSinks::round(double now, bool slo_violated) {
  if (tracer_ == nullptr) return;
  tracer_->observe_slo(now, slo_violated);
  tracer_->tick(now);
}

void DecisionSinks::record(double t, EventKind kind,
                           const std::string& subject, std::string detail) {
  if (log_ != nullptr) log_->record(t, kind, subject, std::move(detail));
}

bool DecisionSinks::first_warning(const std::string& vm, DecisionKind kind) {
  return log_ != nullptr && warned_[vm].insert(kind).second;
}

void DecisionSinks::emit(const DecisionEvent& e) {
  const auto k = static_cast<std::size_t>(e.kind);
  ++tally_[k];
  obs::inc(counters_[k]);
  switch (e.kind) {
    case DecisionKind::kRawAlert:
      record(e.t, EventKind::kAlert, *e.vm, "predicted anomaly");
      if (tracer_ != nullptr) tracer_->raw_alert(*e.vm, e.t);
      break;
    case DecisionKind::kConfirmed:
      if (log_ != nullptr)
        PREPARE_INFO("prepare") << "confirmed predicted anomaly on " << *e.vm
                                << " at t=" << e.t;
      record(e.t, EventKind::kAlertConfirmed, *e.vm, "k-of-W confirmed");
      if (tracer_ != nullptr) tracer_->confirmed(*e.vm, e.t);
      break;
    case DecisionKind::kReactiveFallback:
      if (log_ != nullptr)
        PREPARE_INFO("prepare") << "SLO violated at t=" << e.t
                                << ": entering reactive fallback diagnosis";
      break;
    case DecisionKind::kReactiveDiagnosis:
      if (tracer_ != nullptr) tracer_->reactive_alert(*e.vm, e.t);
      break;
    case DecisionKind::kWorkloadChange:
      if (log_ != nullptr)
        PREPARE_INFO("prepare") << "change points on all components at t="
                                << e.t << ": workload change suspected";
      record(e.t, EventKind::kInfo, "prepare",
             "change points on all components: workload change suspected");
      // Not a VM fault: the episodes leave the trace, but the actuation
      // still runs unchanged.
      if (tracer_ != nullptr)
        for (const auto& faulty : e.diagnosis->faulty)
          tracer_->workload_change_suppressed(faulty.vm, e.t);
      break;
    case DecisionKind::kCauseInferred:
      if (tracer_ != nullptr)
        tracer_->cause_inferred(e.faulty->vm, e.t,
                                cause_attribution(*e.faulty));
      // The full ranking goes into the open capture (cold path: at most
      // one diagnosis per episode is kept).
      if (recorder_ != nullptr) {
        std::vector<std::size_t> ranked(e.faulty->ranked.size());
        for (std::size_t r = 0; r < ranked.size(); ++r)
          ranked[r] = static_cast<std::size_t>(e.faulty->ranked[r]);
        recorder_->record_diagnosis(e.faulty->vm, e.t, ranked.data(),
                                    e.faulty->impacts.data(), ranked.size());
      }
      break;
    case DecisionKind::kAttempt:
      if (recorder_ != nullptr) recorder_->record_prevention(*e.vm, *e.attempt);
      break;
    case DecisionKind::kActionFired:
      record(e.t, EventKind::kPrevention, *e.vm, *e.action);
      if (tracer_ != nullptr) tracer_->prevention_issued(*e.vm, e.t, *e.action);
      warned_.erase(*e.vm);
      break;
    case DecisionKind::kMigrationSkipped:
      record(e.t, EventKind::kInfo, *e.vm,
             "migration skipped: no host with desired resources");
      if (first_warning(*e.vm, e.kind))
        PREPARE_WARN("prevention")
            << "migration of " << *e.vm << " at t=" << e.t
            << " skipped: no host fits cpu=" << e.cpu << " mem=" << e.mem
            << " (not repeated for this VM until an action fires)";
      break;
    case DecisionKind::kNoApplicableAction:
      record(e.t, EventKind::kInfo, *e.vm, "no applicable prevention action");
      if (first_warning(*e.vm, e.kind))
        PREPARE_WARN("prevention")
            << "no applicable action for " << *e.vm << " at t=" << e.t
            << " (every ranked metric exhausted; not repeated for this VM "
               "until an action fires)";
      if (tracer_ != nullptr)
        tracer_->escalated(*e.vm, e.t, "no applicable prevention action");
      break;
    case DecisionKind::kValidated:
      record(e.t, EventKind::kValidation, *e.vm,
             "prevention effective: alerts cleared");
      if (tracer_ != nullptr) tracer_->validated(*e.vm, e.t);
      break;
    case DecisionKind::kValidationFailed:
      if (log_ != nullptr)
        PREPARE_INFO("prevention")
            << *e.vm << " still unhealthy at t=" << e.t << " after acting on "
            << attribute_name(e.metric) << "; trying next ranked metric";
      record(e.t, EventKind::kValidation, *e.vm,
             "still unhealthy after acting on " + attribute_name(e.metric) +
                 (e.responded ? " (metric responded)"
                              : " (no metric response)"));
      break;
    case DecisionKind::kRankingExhausted:
      if (tracer_ != nullptr)
        tracer_->escalated(*e.vm, e.t, "ranking exhausted");
      break;
    case DecisionKind::kReclaim:
      record(e.t, EventKind::kInfo, *e.vm,
             e.metric == Attribute::kCpuUtil
                 ? "elastic reclaim: cpu scaled down"
                 : "elastic reclaim: memory scaled down");
      break;
    case DecisionKind::kTrained: {
      std::size_t discriminative = 0;
      for (const auto& vm : *e.trained) {
        const AnomalyPredictor& model = e.models->at(vm);
        if (model.discriminative()) {
          ++discriminative;
        } else if (log_ != nullptr) {
          PREPARE_INFO("prepare") << "model for " << vm
                                  << " is not discriminative (train TPR "
                                  << model.train_tpr()
                                  << "): its alerts are suppressed";
        }
      }
      if (log_ != nullptr)
        PREPARE_INFO("prepare") << "trained " << e.trained->size()
                                << " per-VM models over [" << e.t0 << ", "
                                << e.t << "], " << discriminative
                                << " discriminative";
      record(e.t, EventKind::kInfo, "prepare",
             "per-VM prediction models trained");
      break;
    }
  }
}

}  // namespace prepare
