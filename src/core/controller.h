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

/// Wiring shared by every controller: the black-box view of the system.
struct ControllerContext {
  Application* app = nullptr;
  Cluster* cluster = nullptr;
  Hypervisor* hypervisor = nullptr;
  const MetricStore* store = nullptr;
  const SloLog* slo = nullptr;
  EventLog* log = nullptr;
  /// Optional observability registry: when set, the controller times
  /// every pipeline stage into stage.* histograms and counts alerts /
  /// fallbacks / preventions (must outlive the controller).
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional alert-lifecycle span tracer (must outlive the
  /// controller). The controller drives it only from the serial
  /// sections of a management round — never from the per-VM prediction
  /// fan-out — so it needs no locking and a parallel run produces a
  /// bit-identical span set (DESIGN.md section 10).
  obs::SpanTracer* tracer = nullptr;
  /// Optional model-introspection layer (must outlive the controller):
  /// per-horizon prediction calibration, model-state probes, and drift
  /// detection. Same confinement contract as the tracer — the per-VM
  /// fan-out only fills Result::horizon_probs in its own result slot;
  /// every introspector call happens in the serial sections, in
  /// deterministic VM order. Only the PrepareController drives it (the
  /// reactive baseline has no look-ahead to calibrate).
  obs::ModelIntrospect* introspect = nullptr;
  /// Optional episode flight recorder (must outlive the controller).
  /// Same confinement contract again: the controller registers every
  /// trained VM, feeds one EvidenceFrame per (VM, round) from the
  /// serial results loop in map (VM) order, and forwards the diagnosis
  /// ranking; the actuator (which the controller hands the recorder to)
  /// adds one PreventionEvidence per action attempt. Episode captures
  /// open/close via the SpanTracer's lifecycle hooks, so the recorder
  /// is inert unless `tracer` is also set. Only the PrepareController
  /// drives it (the reactive baseline has no prediction evidence).
  obs::FlightRecorder* recorder = nullptr;
  /// Worker threads for the per-VM prediction fan-out (PREPARE keeps
  /// one independent model per VM, so the Markov look-ahead + TAN
  /// classification parallelize across VMs). 1 (default) runs fully
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
  using PredictorMap = std::map<std::string, AnomalyPredictor>;

  std::vector<std::string> vm_names() const;

  /// Trains every VM's predictor on its labeled history over [t0, t1];
  /// VMs without history stay untrained. Returns the trained VMs in map
  /// order.
  std::vector<std::string> train_predictors(PredictorMap* predictors,
                                            double t0, double t1) const;
  /// One round's observations: every VM's newest sample goes into the
  /// workload-change detectors (timed into `stage`) and, once `trained`,
  /// into its trained predictor's Markov context, and the SLO state
  /// into the span tracer.
  void observe_round(double now, bool trained, CauseInference* inference,
                     obs::Histogram* stage, PredictorMap* predictors) const;
  /// The diagnosis once the SLO is violated: every trained VM that
  /// classifies abnormal with attribution evidence (top L_i at least
  /// `min_top_impact`); if none qualifies, the single highest-scoring
  /// trained VM with no open validation (the paper always intervenes
  /// once a violation is detected). Every VM that still classifies
  /// abnormal joins `unhealthy` — otherwise a drifting pick would
  /// bogusly mark earlier preventions as effective mid-violation — and
  /// so does every diagnosed VM. Opens a reactive span per diagnosed VM.
  std::map<std::string, Classification> diagnose_violation(
      double now, const PredictorMap& predictors,
      const PreventionActuator& actuator, double min_top_impact,
      std::set<std::string>* unhealthy) const;

  ControllerContext ctx_;
};

class NoInterventionManager : public AnomalyManager {
 public:
  using AnomalyManager::AnomalyManager;
  void on_sample(double) override {}
  std::string name() const override { return "without-intervention"; }
};

class PrepareController : public AnomalyManager {
 public:
  PrepareController(ControllerContext ctx,
                    PrepareConfig config = PrepareConfig());

  void train(double t0, double t1) override;
  void on_sample(double now) override;
  std::string name() const override { return "prepare"; }

  bool trained() const { return trained_; }
  const PrepareConfig& config() const { return config_; }
  const PreventionActuator& actuator() const { return actuator_; }
  const CauseInference& inference() const { return inference_; }

  // Counters for experiments / tests.
  std::size_t raw_alerts() const { return raw_alerts_; }
  std::size_t confirmed_alerts() const { return confirmed_alerts_; }
  std::size_t reactive_fallbacks() const { return reactive_fallbacks_; }

 private:
  PrepareConfig config_;
  TickIndex lookahead_steps_;
  bool trained_ = false;

  PredictorMap predictors_;
  std::map<std::string, AlarmFilter> filters_;
  /// Flight-recorder slot per registered VM (filled in train() when
  /// ctx.recorder is set; the per-VM evidence layout depends on the
  /// trained discretizer alphabets).
  std::map<std::string, std::size_t> recorder_slots_;
  CauseInference inference_;
  PreventionActuator actuator_;
  obs::StageProfiler profiler_;
  /// Workers for the per-VM fan-out; null when num_threads <= 1.
  std::unique_ptr<ThreadPool> pool_;
  /// Per-round fan-out state, kept across rounds so the steady state
  /// allocates nothing: the ready-and-discriminative predictors of this
  /// round and one reused Result slot per entry (predict_into refills
  /// slots in place). Driver-owned; workers only touch disjoint slots.
  std::vector<std::pair<const std::string*, const AnomalyPredictor*>>
      active_;
  std::vector<AnomalyPredictor::Result> results_;

  std::size_t raw_alerts_ = 0;
  std::size_t confirmed_alerts_ = 0;
  std::size_t reactive_fallbacks_ = 0;

  // Observability handles (null = uninstrumented).
  obs::Histogram* stage_alarm_filter_ = nullptr;
  obs::Histogram* stage_cause_inference_ = nullptr;
  obs::Histogram* stage_prevention_ = nullptr;
  obs::Counter* raw_alerts_counter_ = nullptr;
  obs::Counter* confirmed_alerts_counter_ = nullptr;
  obs::Counter* reactive_fallbacks_counter_ = nullptr;
};

class ReactiveController : public AnomalyManager {
 public:
  ReactiveController(ControllerContext ctx,
                     PrepareConfig config = PrepareConfig());

  void train(double t0, double t1) override;
  void on_sample(double now) override;
  std::string name() const override { return "reactive"; }

  bool trained() const { return trained_; }
  const PreventionActuator& actuator() const { return actuator_; }

 private:
  PrepareConfig config_;
  bool trained_ = false;
  PredictorMap predictors_;
  CauseInference inference_;
  PreventionActuator actuator_;
  obs::StageProfiler profiler_;
  obs::Histogram* stage_cause_inference_ = nullptr;
  obs::Histogram* stage_prevention_ = nullptr;
};

}  // namespace prepare
