// Offline trace replay: "what would PREPARE have said on this trace?"
//
// Two replay granularities:
//
//  * replay_trace — runs the full per-VM prediction pipeline (train on
//    the labeled prefix, then predict + k-of-W filter sample by sample)
//    over a *recorded* run — e.g. one exported with monitor/trace_io.h —
//    and returns the alert/diagnosis timeline, without a live cluster to
//    actuate on. Useful for post-mortems and for tuning the predictor
//    against archived production traces.
//
//  * replay_episode — deterministic counterfactual re-execution of one
//    flight-recorder episode bundle (obs/flight_recorder.h): re-derives
//    every decision in predict -> classify -> filter -> prevention from
//    the captured evidence alone and verifies each is *bit-identical*
//    to what the live controller did. what_if_policy re-derives the
//    prevention decisions under an overridden PreventionMode, answering
//    "would PREPARE have migrated instead?" without re-running the
//    simulation.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "core/anomaly_predictor.h"
#include "monitor/attributes.h"
#include "monitor/metric_store.h"
#include "monitor/slo_log.h"
#include "obs/flight_recorder.h"
#include "obs/span_tracer.h"

namespace prepare {

struct ReplayConfig {
  PredictorConfig predictor;
  double sampling_interval_s = 5.0;
  double lookahead_s = 120.0;
  std::size_t filter_k = 3;
  std::size_t filter_w = 4;
  double alert_min_top_impact = 0.5;
  /// Samples up to this time train the models (with SLO-log labels);
  /// everything after is replayed.
  double train_end = 700.0;
  /// Optional alert-lifecycle tracer (must outlive the call). Replay
  /// has no actuator, so episodes only reach raw_alert / confirmed /
  /// cause_inferred before replay_trace() closes them at the end of the
  /// trace — still enough for post-mortem lead-time analysis.
  obs::SpanTracer* tracer = nullptr;
};

struct ReplayAlert {
  double time = 0.0;
  std::string vm;
  bool confirmed = false;  ///< passed the k-of-W filter
  double score = 0.0;      ///< classifier log-odds at the horizon
  /// Up to three top-attributed metrics (positive impacts only).
  std::vector<Attribute> top_metrics;
};

struct ReplayReport {
  std::vector<ReplayAlert> alerts;  ///< raw alerts, chronological
  std::size_t raw_alerts = 0;
  std::size_t confirmed_alerts = 0;
  /// Time of the first *confirmed* alert, or a negative value if none.
  double first_confirmed = -1.0;
};

/// Replays the trace; `vm_names` defaults to every VM in the store.
ReplayReport replay_trace(const MetricStore& store, const SloLog& slo,
                          const ReplayConfig& config,
                          std::vector<std::string> vm_names = {});

// ------------------------------------------------ episode bundle replay

/// Outcome of re-executing one episode bundle. `ok` means every
/// re-derivable decision matched the live run exactly:
///
///  * score: prior log-odds + sum of per-attribute L_i, summed
///    left-to-right exactly as TanClassifier does under either
///    structure (Eq. 1) — compared bitwise.
///    Skipped when the bundle's classifier is not decomposable.
///  * abnormal: score > 0, against the captured flag.
///  * mode rows: argmax of each captured per-attribute predicted
///    distribution, against the captured mode bin.
///  * raw alert: abnormal && max L_i >= alert_min_top_impact.
///  * confirmed: a fresh k-of-W AlarmFilter seeded from the captured
///    pre-context (FlightRecorder checks pre_context_ticks >= W, so the
///    window is fully determined from the filter-warm tick onward).
///  * diagnosis: the ranking is the positive-impact prefix of the
///    stable impact sort (Classifier::ranked_attributes order); it is
///    re-ranked from the captured impacts only when the diagnosis tick
///    is a confirming one (reactive diagnoses use other impacts).
///  * prevention: each attempt's applied action re-derived from the
///    policy mode + the captured feasibility flags.
struct EpisodeReplayResult {
  bool ok = false;
  std::size_t ticks_checked = 0;
  std::size_t score_mismatches = 0;
  std::size_t abnormal_mismatches = 0;
  std::size_t mode_mismatches = 0;
  std::size_t alert_mismatches = 0;
  std::size_t filter_mismatches = 0;
  bool diagnosis_checked = false;
  bool diagnosis_ok = true;
  std::size_t preventions_checked = 0;
  std::size_t prevention_mismatches = 0;
  /// Human-readable description of the first mismatch (empty when ok).
  std::string first_mismatch;
};

/// Re-executes one flight-recorder bundle and verifies bit-identity.
EpisodeReplayResult replay_episode(const obs::EpisodeBundle& bundle);

/// Counterfactual: the bundle's prevention decisions re-derived under
/// `policy` (PreventionMode as int, core/prevention.h order).
struct WhatIfResult {
  int policy = 0;
  std::size_t compared = 0;  ///< initial/fallback attempts re-derived
  std::size_t diverged = 0;
  /// (live applied, counterfactual applied) per compared attempt,
  /// 0 none / 1 scale / 2 migrate.
  std::vector<std::pair<int, int>> decisions;
  /// Human-readable first divergence (empty when none).
  std::string detail;
};

WhatIfResult what_if_policy(const obs::EpisodeBundle& bundle, int policy);

}  // namespace prepare
