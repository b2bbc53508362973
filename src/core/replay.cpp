#include "core/replay.h"

#include <map>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/units.h"
#include "core/alarm_filter.h"
#include "core/cause_inference.h"
#include "core/decision_sinks.h"
#include "core/prevention.h"
#include "monitor/labeler.h"

namespace prepare {

namespace {

const char* applied_name(int applied) {
  switch (static_cast<Remedy>(applied)) {
    case Remedy::kScale:
      return "scale";
    case Remedy::kMigrate:
      return "migrate";
    default:
      return "none";
  }
}

/// The live prevention policy re-run on one captured attempt under
/// `mode`, with the feasibility flags the live run consulted (or probed).
int replayed_remedy(const obs::PreventionEvidence& p, int mode) {
  return static_cast<int>(prevention_policy(
      static_cast<PreventionMode>(mode),
      static_cast<MetricKind>(p.metric_kind),
      static_cast<PreventionPhase>(p.phase),
      [&] { return p.scale_possible; }, [&] { return p.migrate_possible; }));
}

std::string attr_label(const obs::EpisodeBundle& bundle, std::size_t a) {
  if (a < bundle.layout.attribute_names.size())
    return bundle.layout.attribute_names[a];
  std::ostringstream os;
  os << "attr" << a;
  return os.str();
}

}  // namespace

ReplayReport replay_trace(const MetricStore& store, const SloLog& slo,
                          const ReplayConfig& config,
                          std::vector<std::string> vm_names) {
  if (vm_names.empty()) vm_names = store.vm_names();
  PREPARE_CHECK_MSG(!vm_names.empty(), "trace has no VMs");
  const std::size_t total = store.aligned_sample_count(vm_names);
  const TickIndex steps =
      lookahead_steps(config.lookahead_s, config.sampling_interval_s);

  // Train one model per VM on the labeled prefix.
  std::map<std::string, AnomalyPredictor> predictors;
  std::map<std::string, AlarmFilter> filters;
  std::vector<std::vector<double>> rows;
  std::vector<bool> abnormal;
  for (const auto& vm : vm_names) {
    AnomalyPredictor predictor(attribute_names(), config.predictor);
    Labeler::label_rows(store, slo, vm, 0.0, config.train_end, &rows,
                        &abnormal);
    PREPARE_CHECK_MSG(!rows.empty(), "no training samples for " + vm);
    predictor.train(rows, abnormal);
    predictors.emplace(vm, std::move(predictor));
    filters.emplace(vm, AlarmFilter(config.filter_k, config.filter_w));
  }

  // Replay. No event log, counters or actuator: only the tracer (if
  // any) sees the decisions.
  DecisionSinks sinks(nullptr, nullptr, config.tracer);
  ReplayReport report;
  double last_time = config.train_end;
  for (std::size_t i = 0; i < total; ++i) {
    const double t = store.sample_time(vm_names[0], i);
    if (t <= config.train_end) continue;
    last_time = t;
    sinks.round(t, slo.violated_at(t));
    for (const auto& vm : vm_names) {
      auto& predictor = predictors.at(vm);
      const auto values = store.sample(vm, i);
      predictor.observe(std::vector<double>(values.begin(), values.end()));
      if (!predictor.ready() || !predictor.discriminative()) continue;
      const auto cls = predictor.predict(steps).classification;
      const bool raw = passes_alert_gate(cls.abnormal, cls.impacts,
                                         config.alert_min_top_impact);
      const bool confirmed = filters.at(vm).push(raw);
      if (!raw && !confirmed) continue;
      const auto faulty = attribute_fault(vm, cls, 3);
      ReplayAlert alert;
      alert.time = t;
      alert.vm = vm;
      alert.confirmed = confirmed;
      alert.score = cls.score;
      alert.top_metrics = faulty.ranked;
      if (raw)
        sinks.emit({.kind = DecisionKind::kRawAlert, .t = t, .vm = &vm});
      if (confirmed) {
        if (report.first_confirmed < 0.0) report.first_confirmed = t;
        sinks.emit({.kind = DecisionKind::kConfirmed, .t = t, .vm = &vm});
        sinks.emit(
            {.kind = DecisionKind::kCauseInferred, .t = t, .faulty = &faulty});
      }
      report.alerts.push_back(std::move(alert));
    }
  }
  report.raw_alerts = sinks.count(DecisionKind::kRawAlert);
  report.confirmed_alerts = sinks.count(DecisionKind::kConfirmed);
  if (config.tracer != nullptr) config.tracer->finish(last_time);
  return report;
}

// ------------------------------------------------ episode bundle replay

EpisodeReplayResult replay_episode(const obs::EpisodeBundle& bundle) {
  EpisodeReplayResult res;
  const auto note = [&res](const std::string& msg) {
    if (res.first_mismatch.empty()) res.first_mismatch = msg;
  };
  const std::size_t n = bundle.layout.attributes;
  PREPARE_CHECK(bundle.layout.offsets.size() == n + 1);

  // When the bundle carries fewer pre-context ticks than the filter
  // window, the ring was not yet clipped (pre_context_ticks >= W is
  // enforced at capture time), i.e. the capture holds the VM's *entire*
  // push history and the replayed filter is exact from the first tick.
  // Otherwise the window is only fully determined once W seeds are in.
  const bool full_history = bundle.pre_ticks < bundle.decision.filter_w;
  AlarmFilter filter(bundle.decision.filter_k, bundle.decision.filter_w);
  std::size_t pushes = 0;

  for (std::size_t s = 0; s < bundle.ticks.size(); ++s) {
    const auto& tick = bundle.ticks[s];
    ++res.ticks_checked;

    // Classifier score: Eq. 1 re-summed left-to-right, exactly as
    // TanClassifier accumulates it under either structure —
    // floating-point addition is not associative, so the order is part
    // of the contract.
    if (tick.decomposable) {
      LogOdds score{tick.prior_log_odds};
      for (std::size_t i = 0; i < n; ++i) score += tick.impacts[i];
      if (static_cast<double>(score) != tick.score) {
        ++res.score_mismatches;
        std::ostringstream os;
        os << "tick " << s << " (t=" << tick.t << "): replayed score "
           << static_cast<double>(score) << " != recorded " << tick.score;
        note(os.str());
      }
    }

    // Anomaly verdict: score strictly above even prior+evidence odds.
    if ((tick.score > 0.0) != tick.abnormal) {
      ++res.abnormal_mismatches;
      std::ostringstream os;
      os << "tick " << s << " (t=" << tick.t
         << "): abnormal flag inconsistent with score " << tick.score;
      note(os.str());
    }

    // Markov look-ahead modes: argmax (first maximum, like
    // Distribution::mode) of each captured per-attribute distribution.
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t lo = bundle.layout.offsets[i];
      const std::size_t hi = bundle.layout.offsets[i + 1];
      std::size_t best = 0;
      for (std::size_t b = 1; b < hi - lo; ++b)
        if (tick.dists[lo + b] > tick.dists[lo + best]) best = b;
      if (best != tick.mode_row[i]) {
        ++res.mode_mismatches;
        std::ostringstream os;
        os << "tick " << s << " (t=" << tick.t << "): "
           << attr_label(bundle, i) << " mode bin " << best
           << " != recorded " << tick.mode_row[i];
        note(os.str());
      }
    }

    // Raw alert gate: abnormal + attribution confidence.
    const bool raw =
        passes_alert_gate(tick.abnormal, {tick.impacts.data(), n},
                          bundle.decision.alert_min_top_impact);
    if (raw != tick.raw_alert) {
      ++res.alert_mismatches;
      std::ostringstream os;
      os << "tick " << s << " (t=" << tick.t << "): replayed raw alert "
         << raw << " != recorded " << tick.raw_alert;
      note(os.str());
    }

    // k-of-W confirmation, seeded from the recorded raw flags so a raw
    // mismatch above doesn't cascade into every later filter check.
    const bool confirmed = filter.push(tick.raw_alert);
    ++pushes;
    if ((full_history || pushes >= bundle.decision.filter_w) &&
        confirmed != tick.confirmed) {
      ++res.filter_mismatches;
      std::ostringstream os;
      os << "tick " << s << " (t=" << tick.t << "): replayed confirmed "
         << confirmed << " != recorded " << tick.confirmed;
      note(os.str());
    }
  }

  // Diagnosis: the recorded ranking must be the positive-impact prefix
  // of the stable impact sort. When the episode's confirming tick is in
  // the capture (predictive episodes), re-rank its impacts and compare.
  // A tick that did not confirm was diagnosed by the reactive path from
  // a separate classify_current call, whose impacts can coincide with
  // the tick's on the ranked attributes yet rank the rest differently,
  // so it is not re-ranked.
  if (bundle.diagnosis.valid) {
    res.diagnosis_checked = true;
    const auto& d = bundle.diagnosis;
    for (std::size_t r = 0; r < d.ranked.size() && res.diagnosis_ok; ++r) {
      if (d.impacts[r] <= 0.0 ||
          (r > 0 && d.impacts[r] > d.impacts[r - 1])) {
        res.diagnosis_ok = false;
        note("diagnosis ranking not a positive non-increasing prefix");
      }
    }
    const obs::EvidenceTick* at = nullptr;
    for (const auto& tick : bundle.ticks)
      if (tick.t == d.t && tick.confirmed) {
        at = &tick;
        break;
      }
    bool impacts_match = at != nullptr;
    for (std::size_t r = 0; impacts_match && r < d.ranked.size(); ++r)
      impacts_match = d.ranked[r] < n && d.impacts[r] == at->impacts[d.ranked[r]];
    if (impacts_match) {
      const auto order = Classifier::attribution_ranking(
          {at->impacts.data(), n}, d.ranked.size());
      for (std::size_t r = 0; r < d.ranked.size() && res.diagnosis_ok; ++r) {
        if (r >= order.size() || order[r] != d.ranked[r]) {
          res.diagnosis_ok = false;
          std::ostringstream os;
          os << "diagnosis rank " << r << ": replayed "
             << (r < order.size() ? attr_label(bundle, order[r]) : "none")
             << " != recorded " << attr_label(bundle, d.ranked[r]);
          note(os.str());
        }
      }
    }
  }

  // Prevention: re-derive each attempt's action from the policy mode
  // and the feasibility flags the live run consulted.
  for (const auto& p : bundle.preventions) {
    ++res.preventions_checked;
    const int applied = replayed_remedy(p, bundle.decision.prevention_mode);
    if (applied != p.applied) {
      ++res.prevention_mismatches;
      std::ostringstream os;
      os << "prevention at t=" << p.t << " on "
         << attr_label(bundle, p.attribute) << ": replayed "
         << applied_name(applied) << " != recorded "
         << applied_name(p.applied);
      note(os.str());
    }
  }

  res.ok = res.score_mismatches == 0 && res.abnormal_mismatches == 0 &&
           res.mode_mismatches == 0 && res.alert_mismatches == 0 &&
           res.filter_mismatches == 0 && res.diagnosis_ok &&
           res.prevention_mismatches == 0;
  return res;
}

WhatIfResult what_if_policy(const obs::EpisodeBundle& bundle, int policy) {
  WhatIfResult res;
  res.policy = policy;
  for (const auto& p : bundle.preventions) {
    // Companion scalings are policy-independent; only the initial
    // ranked walk and validation fallbacks consult the mode.
    if (static_cast<PreventionPhase>(p.phase) == PreventionPhase::kCompanion)
      continue;
    const int cf = replayed_remedy(p, policy);
    ++res.compared;
    res.decisions.emplace_back(p.applied, cf);
    if (cf != p.applied) {
      ++res.diverged;
      if (res.detail.empty()) {
        std::ostringstream os;
        os << "t=" << p.t << " " << attr_label(bundle, p.attribute)
           << ": " << applied_name(p.applied) << " -> "
           << applied_name(cf);
        res.detail = os.str();
      }
    }
  }
  return res;
}

}  // namespace prepare
