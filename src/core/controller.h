// Anomaly management controllers.
//
//  * PrepareController — the full paper pipeline: per-VM online anomaly
//    prediction, k-of-W false-alarm filtering, cause inference, and
//    predictive prevention actuation, with a reactive fallback when the
//    predictor misses (Section II-D) and online prevention validation.
//  * ReactiveController — the paper's "reactive intervention" baseline:
//    identical cause-inference and actuation modules, but everything is
//    triggered only after an SLO violation has been detected.
//  * NoInterventionManager — the "without intervention" baseline.
//
// Controllers are driven by the experiment loop: once per sampling
// interval, after the monitor has appended fresh samples to the
// MetricStore, on_sample(now) runs one management round.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "apps/application.h"
#include "common/thread_pool.h"
#include "core/alarm_filter.h"
#include "core/anomaly_predictor.h"
#include "core/cause_inference.h"
#include "core/decision_sinks.h"
#include "core/prevention.h"
#include "monitor/labeler.h"
#include "monitor/metric_store.h"
#include "monitor/slo_log.h"
#include "obs/flight_recorder.h"
#include "obs/model_introspect.h"
#include "obs/span_tracer.h"
#include "obs/stage_profiler.h"
#include "sim/cluster.h"
#include "sim/event_log.h"
#include "sim/hypervisor.h"

namespace prepare {

/// Wiring shared by every controller: the black-box view of the system
/// and the observability sinks. The sinks are optional and must outlive
/// the controller; decisions reach them through the controller's
/// DecisionSinks (core/decision_sinks.h), and all of them are driven
/// only from the serial sections of a round (DESIGN.md section 10).
struct ControllerContext {
  Application* app = nullptr;
  Cluster* cluster = nullptr;
  Hypervisor* hypervisor = nullptr;
  const MetricStore* store = nullptr;
  const SloLog* slo = nullptr;
  EventLog* log = nullptr;
  /// Counters and the stage.* histograms.
  obs::MetricsRegistry* metrics = nullptr;
  /// Alert-lifecycle spans.
  obs::SpanTracer* tracer = nullptr;
  /// Prediction calibration, model-state probes and drift detection;
  /// only the PrepareController drives it.
  obs::ModelIntrospect* introspect = nullptr;
  /// Episode evidence bundles; only the PrepareController drives it,
  /// and it needs `tracer` (construction CHECK-fails without one).
  obs::FlightRecorder* recorder = nullptr;
  /// Worker threads for the per-VM prediction fan-out. 1 (default) runs
  /// sequentially with no pool; results are bit-identical either way
  /// because alerts are applied serially in VM order.
  std::size_t num_threads = 1;
};

/// Full PREPARE configuration (paper defaults).
struct PrepareConfig {
  PredictorConfig predictor;
  double sampling_interval_s = 5.0;
  /// Alert horizon. The paper's controller predicts over a long
  /// look-ahead window ("e.g., 120 seconds", Section II-A) so that a
  /// gradually degrading attribute is forecast deep into the anomaly
  /// region well before the SLO trips.
  double lookahead_s = 120.0;
  std::size_t filter_k = 3;   ///< k-of-W false-alarm filter
  std::size_t filter_w = 4;
  /// Attribution-confidence gate: a per-VM alert is only raised when the
  /// top-ranked metric's impact strength L_i reaches this value. A VM
  /// whose metrics carry no real evidence (score hovering at the class
  /// prior) cannot be pinpointed — and PREPARE cannot choose a prevention
  /// action without a pinpointed metric.
  double alert_min_top_impact = 0.5;
  PreventionConfig prevention;
  CauseInference::Config inference;
};

class AnomalyManager {
 public:
  explicit AnomalyManager(ControllerContext ctx);
  virtual ~AnomalyManager() = default;

  /// One management round; `now` is the sampling timestamp.
  virtual void on_sample(double now) = 0;

  /// Trains internal models from the labeled history in [t0, t1].
  virtual void train(double /*t0*/, double /*t1*/) {}

  virtual std::string name() const = 0;

 protected:
  std::vector<std::string> vm_names() const;

  ControllerContext ctx_;
  DecisionSinks sinks_;
};

class NoInterventionManager : public AnomalyManager {
 public:
  using AnomalyManager::AnomalyManager;
  void on_sample(double) override {}
  std::string name() const override { return "without-intervention"; }
};

/// What the two intervening schemes share: one predictor per VM, cause
/// inference, the prevention actuator, and the steps of a round around
/// them.
class InterveningManager : public AnomalyManager {
 public:
  InterveningManager(ControllerContext ctx,
                     PrepareConfig config = PrepareConfig());

  const PreventionActuator& actuator() const { return actuator_; }

 protected:
  /// Trains every VM's predictor on its labeled history over [t0, t1];
  /// VMs without history stay untrained. Returns the trained VMs in map
  /// order.
  std::vector<std::string> train_predictors(double t0, double t1);
  /// One round's observations: every VM's newest sample goes into the
  /// workload-change detectors and, once trained, into its trained
  /// predictor's Markov context, and the SLO state into the spine.
  void observe_round(double now);
  /// The diagnosis once the SLO is violated: every trained VM that
  /// classifies abnormal with attribution evidence (top L_i at least
  /// alert_min_top_impact); if none qualifies, the single
  /// highest-scoring trained VM with no open validation (the paper
  /// always intervenes once a violation is detected). Every VM that
  /// still classifies abnormal joins `unhealthy` — otherwise a drifting
  /// pick would bogusly mark earlier preventions as effective
  /// mid-violation — and so does every diagnosed VM.
  std::map<std::string, Classification> diagnose_violation(
      double now, std::set<std::string>* unhealthy);
  /// Validates earlier preventions against `unhealthy`, then diagnoses
  /// `alerting` (asking whether the workload changed when
  /// `workload_check`), reports the diagnosis and acts on it.
  void validate_and_act(double now, const std::set<std::string>& unhealthy,
                        const std::map<std::string, Classification>& alerting,
                        bool workload_check);

  PrepareConfig config_;
  bool trained_ = false;
  std::map<std::string, AnomalyPredictor> predictors_;
  CauseInference inference_;
  PreventionActuator actuator_;
  obs::StageProfiler profiler_;
  // Stage timers (null = uninstrumented).
  obs::Histogram* stage_cause_inference_ = nullptr;
  obs::Histogram* stage_prevention_ = nullptr;
};

class PrepareController : public InterveningManager {
 public:
  PrepareController(ControllerContext ctx,
                    PrepareConfig config = PrepareConfig());

  void train(double t0, double t1) override;
  void on_sample(double now) override;
  std::string name() const override { return "prepare"; }

  // Counters for experiments / tests.
  std::size_t raw_alerts() const {
    return sinks_.count(DecisionKind::kRawAlert);
  }
  std::size_t confirmed_alerts() const {
    return sinks_.count(DecisionKind::kConfirmed);
  }

 private:
  TickIndex lookahead_steps_;
  std::map<std::string, AlarmFilter> filters_;
  /// Workers for the per-VM fan-out; null when num_threads <= 1.
  std::unique_ptr<ThreadPool> pool_;
  /// Per-round fan-out state, kept across rounds so the steady state
  /// allocates nothing: the ready-and-discriminative predictors of this
  /// round and one reused Result slot per entry (predict_into refills
  /// slots in place). Driver-owned; workers only touch disjoint slots.
  std::vector<std::pair<const std::string*, const AnomalyPredictor*>>
      active_;
  std::vector<AnomalyPredictor::Result> results_;
  obs::Histogram* stage_alarm_filter_ = nullptr;
};

class ReactiveController : public InterveningManager {
 public:
  using InterveningManager::InterveningManager;

  void train(double t0, double t1) override;
  void on_sample(double now) override;
  std::string name() const override { return "reactive"; }
};

}  // namespace prepare
