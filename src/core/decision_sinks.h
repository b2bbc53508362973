// The decision-event spine. Each step of PREPARE's loop (predict,
// k-of-W confirm, diagnose, prevent, validate and fall back; paper
// Section II-D) is a decision. The controllers, the actuator and the
// offline trace replay report each decision once, as a DecisionEvent.
// DecisionSinks::emit fans it out to every attached sink. It is the only
// code in src/core/ that writes EventLog records, the controller.* and
// prevention.* counters, SpanTracer lifecycle calls and FlightRecorder
// decision evidence (tools/check_invariants.py rule R9), so one decision
// reads the same in every channel. It also keeps the one tally per kind
// behind the controllers' and actuator's counter accessors.
//
// Decisions and the sinks each reaches. A counter is
// controller.<name>_total for the first three kinds and
// prevention.<name>_total for the rest; * marks an INFO log line, ** a
// WARN line given once per VM until an action fires on it.
//
//   kind                   EventLog        counter            tracer/recorder
//   kRawAlert              alert           raw_alerts         raw_alert
//   kConfirmed *           alert_confirmed confirmed_alerts   confirmed
//   kReactiveFallback *    -               reactive_fallbacks -
//   kReactiveDiagnosis     -               -                  reactive_alert
//   kWorkloadChange *      info            -                  workload_change_
//                                                             suppressed/VM
//   kCauseInferred         -               -                  cause_inferred,
//                                                             record_diagnosis
//   kAttempt               -               -                  record_prevention
//   kActionFired           prevention      actions            prevention_issued
//   kMigrationSkipped **   info            migrations_skipped -
//   kNoApplicableAction ** info            -                  escalated
//   kValidated             validation      -                  validated
//   kValidationFailed *    validation      validations_failed -
//   kRankingExhausted      -               -                  escalated
//   kReclaim               info            reclaims           -
//   kTrained *             info            -                  -
//
// Every sink is optional; a sink set without an event log (offline
// replay) writes no log lines either. The recorder also takes each
// round's per-VM evidence frame (record_evidence), and round() feeds the
// tracer the SLO state and expires stale episodes.
//
// Driver-confined like the sinks it feeds: emit only from the serial
// sections of a round, never from the per-VM fan-out, so the fan-out
// order (and every export) is the same for any --threads.
#pragma once

#include <array>
#include <cstddef>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/analyze_annotations.h"
#include "core/anomaly_predictor.h"
#include "core/cause_inference.h"
#include "monitor/attributes.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span_tracer.h"
#include "sim/event_log.h"

namespace prepare {

enum class DecisionKind {
  kRawAlert, kConfirmed, kReactiveFallback, kReactiveDiagnosis,
  kWorkloadChange, kCauseInferred, kAttempt, kActionFired,
  kMigrationSkipped, kNoApplicableAction, kValidated, kValidationFailed,
  kRankingExhausted, kReclaim, kTrained,
};
inline constexpr std::size_t kDecisionKinds =
    static_cast<std::size_t>(DecisionKind::kTrained) + 1;

/// One decision. Each kind reads `t` plus the fields named for it.
struct DecisionEvent {
  DecisionKind kind{};
  double t = 0.0;
  const std::string* vm = nullptr;  ///< null for the round-level kinds
  const std::string* action = nullptr;               ///< kActionFired
  const Diagnosis::FaultyVm* faulty = nullptr;       ///< kCauseInferred
  const Diagnosis* diagnosis = nullptr;              ///< kWorkloadChange
  const obs::PreventionEvidence* attempt = nullptr;  ///< kAttempt
  /// kValidationFailed: the acted metric, and whether it responded;
  /// kReclaim: kCpuUtil or kMemUtil, the idle resource scaled down.
  Attribute metric{};
  bool responded = false;
  double cpu = 0.0, mem = 0.0;  ///< kMigrationSkipped: the unfit landing
  /// kTrained: the VMs trained over [t0, t], and their models.
  double t0 = 0.0;
  const std::vector<std::string>* trained = nullptr;
  const std::map<std::string, AnomalyPredictor>* models = nullptr;
};

class PREPARE_DRIVER_CONFINED DecisionSinks {
 public:
  /// Every sink may be null; each must outlive the spine.
  DecisionSinks(EventLog* log, obs::MetricsRegistry* metrics,
                obs::SpanTracer* tracer);

  /// Registers the counters of `kinds` up front, so a run exports every
  /// counter of the decisions its reporter can take, fired or not.
  void declare(std::initializer_list<DecisionKind> kinds);
  /// Attaches the flight recorder (no-op for null): snapshots the
  /// decision parameters its bundles carry and hands it to the tracer,
  /// whose episode hooks open and close its captures. CHECK-fails
  /// without a tracer, since such a recorder could never emit a bundle.
  void attach_recorder(obs::FlightRecorder* recorder,
                       const obs::DecisionConfig& decision);
  /// Registers a trained VM's evidence ring once; returns whether the
  /// VM's evidence is captured (false without a recorder).
  bool register_evidence(const std::string& vm,
                         const obs::EvidenceLayout& layout);
  /// One round's evidence for a registered VM.
  void record_evidence(const std::string& vm, const obs::EvidenceFrame& f);

  /// Start of a trained round: the SLO state (lead times and misses),
  /// then stale-episode expiry.
  void round(double now, bool slo_violated);
  void emit(const DecisionEvent& e);

  /// Decisions of `kind` emitted so far.
  std::size_t count(DecisionKind kind) const {
    return tally_[static_cast<std::size_t>(kind)];
  }

 private:
  void record(double t, EventKind kind, const std::string& subject,
              std::string detail);
  /// Whether `kind` has not yet warned for `vm` (and marks it warned).
  bool first_warning(const std::string& vm, DecisionKind kind);

  EventLog* log_;
  obs::MetricsRegistry* metrics_;
  obs::SpanTracer* tracer_;
  obs::FlightRecorder* recorder_ = nullptr;
  std::map<std::string, std::size_t> evidence_slots_;
  std::array<std::size_t, kDecisionKinds> tally_{};
  std::array<obs::Counter*, kDecisionKinds> counters_{};
  /// Warning kinds already emitted per VM, until an action fires on it.
  std::map<std::string, std::set<DecisionKind>> warned_;
};

}  // namespace prepare
