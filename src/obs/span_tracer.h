// Alert-lifecycle span tracing: causal episodes through the pipeline.
//
// Counters say *how many* alerts fired; spans say what happened to each.
// Every alert episode gets a deterministic trace id, and each pipeline
// transition becomes a child span of the previous one:
//
//   raw_alert -> confirmed -> cause_inferred -> prevention_issued
//                                   |                  | (fallback loop)
//                                   v                  v
//                       validated / escalated / expired   (terminal)
//
// Spans carry flat attributes and are exported as schema-v2 `span`
// records; an online outcome ledger folds every closed episode into the
// alert.outcome.* counters, the alert.lead_time.seconds histogram and
// the precision / recall / effectiveness gauges (DESIGN.md section 9).
//
// Threading contract: PREPARE_DRIVER_CONFINED (DESIGN.md section 10).
// Its lifecycle calls come only from core's decision spine
// (core/decision_sinks.h), in the serial sections of a round, so a
// parallel run produces a bit-identical span set. The metrics it
// publishes go through the thread-safe obs:: instruments.
#pragma once

#include <cstddef>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/analyze_annotations.h"
#include "obs/metrics.h"

namespace prepare {
namespace obs {

class FlightRecorder;

/// Pipeline transitions of an alert episode. The last three are
/// terminal: an episode holds exactly one terminal span, as its final
/// span.
enum class SpanStage {
  kRawAlert,
  kConfirmed,
  kCauseInferred,
  kPreventionIssued,
  kValidated,
  kEscalated,
  kExpired,
};

const char* span_stage_name(SpanStage stage);
bool span_stage_terminal(SpanStage stage);

/// Ledger bucket an episode folds into when it closes.
enum class EpisodeOutcome {
  kPrevented,    ///< prevention validated effective
  kFalseAlarm,   ///< episode died without ever being acted on
  kEscalated,    ///< prevention exhausted its options, still unhealthy
  kExpired,      ///< run ended with the episode still open
};

const char* episode_outcome_name(EpisodeOutcome outcome);

/// One flat key/value span attribute (string or number).
struct SpanAttr {
  std::string key;
  std::string text;
  double number = 0.0;
  bool numeric = false;

  static SpanAttr str(std::string key, std::string value) {
    SpanAttr a;
    a.key = std::move(key);
    a.text = std::move(value);
    return a;
  }
  static SpanAttr num(std::string key, double value) {
    SpanAttr a;
    a.key = std::move(key);
    a.number = value;
    a.numeric = true;
    return a;
  }
};

/// One span: a stage of an episode over [t_start, t_end] in sim time.
struct Span {
  std::string span_id;
  std::string parent_id;  ///< empty at the episode root
  SpanStage stage = SpanStage::kRawAlert;
  double t_start = 0.0;
  double t_end = 0.0;
  std::vector<SpanAttr> attrs;
};

/// One alert episode: a causal chain of spans for one VM.
struct Episode {
  std::string trace_id;  ///< deterministic: "<vm>#<per-VM sequence>"
  std::string vm;
  std::vector<Span> spans;
  bool closed = false;
  bool suppressed = false;  ///< workload change: excluded from export
  EpisodeOutcome outcome = EpisodeOutcome::kExpired;  ///< valid when closed
};

struct SpanTracerConfig {
  /// An episode that never confirmed expires (-> false alarm) after
  /// this much sim time without a fresh raw alert. Pick a few multiples
  /// of the alarm-filter window (W * sampling interval) so a burst that
  /// fails k-of-W confirmation ages out rather than lingering.
  double raw_expiry_s = 60.0;
  /// A confirmed episode with no activity (re-alerts, actions,
  /// validation verdicts) for this long expires.
  double idle_expiry_s = 180.0;
  /// Capacity guard: episodes beyond this are dropped (and counted in
  /// alert.episodes_dropped_total) instead of growing without bound.
  std::size_t max_episodes = 8192;
};

class PREPARE_DRIVER_CONFINED SpanTracer {
 public:
  /// `metrics` (optional) receives the outcome ledger; it must outlive
  /// the tracer.
  explicit SpanTracer(MetricsRegistry* metrics = nullptr,
                      SpanTracerConfig config = SpanTracerConfig());

  /// Attaches the episode flight recorder (obs/flight_recorder.h): the
  /// tracer owns the episode lifecycle, so it is the single place that
  /// tells the recorder when to start a capture (episode open), flush
  /// it into a bundle (episode close), or discard it (workload-change
  /// suppression). Must outlive the tracer; nullptr detaches.
  void set_recorder(FlightRecorder* recorder) { recorder_ = recorder; }

  // ---- lifecycle events (driver thread only) ----

  /// A raw predicted alert on `vm`: opens an episode if none is open,
  /// otherwise refreshes the open one.
  void raw_alert(const std::string& vm, double now);
  /// A reactive (post-violation) diagnosis alert: like raw_alert but
  /// the episode is tagged source=reactive.
  void reactive_alert(const std::string& vm, double now);
  /// k-of-W confirmation. First confirmation transitions the episode;
  /// re-confirmations while the episode is already past `confirmed`
  /// (e.g. during an open prevention validation) only refresh it and
  /// bump its re_alerts attribute.
  void confirmed(const std::string& vm, double now);
  /// Cause inference pinpointed `vm`; `top_metrics` are the
  /// highest-ranked (attribute name, impact strength L_i) pairs.
  void cause_inferred(
      const std::string& vm, double now,
      const std::vector<std::pair<std::string, double>>& top_metrics);
  /// A prevention action fired (initial, companion, or validation
  /// fallback — each is one more span in the chain).
  void prevention_issued(const std::string& vm, double now,
                         const std::string& action);
  /// Prevention validated effective: terminal, outcome `prevented`.
  void validated(const std::string& vm, double now);
  /// Prevention options exhausted while still unhealthy: terminal,
  /// outcome `escalated`.
  void escalated(const std::string& vm, double now,
                 const std::string& reason);
  /// Cause inference called the anomaly a workload change: the episode
  /// is not a VM fault, so it is dropped entirely (no spans exported,
  /// no outcome folded; counted in alert.suppressed_total).
  void workload_change_suppressed(const std::string& vm, double now);

  /// Feeds the SLO state once per management round. On the rising edge
  /// of a violation the tracer records lead times (violation start -
  /// confirmation time) for open confirmed episodes, or counts a
  /// `missed` outcome when nothing was predicted.
  void observe_slo(double now, bool violated);
  /// Expires stale episodes; call once per management round.
  void tick(double now);
  /// Closes every still-open episode as `expired` (run end) and
  /// publishes the final ledger gauges.
  void finish(double now);

  // ---- introspection / export (quiescent: after the run) ----

  bool episode_open(const std::string& vm) const;

  /// Every non-suppressed episode, in open order (closed and open).
  /// The returned reference is invalidated by further lifecycle calls.
  std::vector<const Episode*> episodes() const;

  struct Ledger {
    std::size_t prevented = 0;
    std::size_t false_alarm = 0;
    std::size_t missed = 0;
    std::size_t escalated = 0;
    std::size_t expired = 0;
    std::size_t suppressed = 0;
    /// SLO violation onsets that had a confirmed episode open.
    std::size_t predicted_violations = 0;
    std::size_t lead_time_samples = 0;
  };
  const Ledger& ledger() const { return ledger_; }

  const SpanTracerConfig& config() const { return config_; }

  /// Writes one `span` record per span of every non-suppressed episode
  /// (schema v2, see obs/trace_export.h), in episode-open order.
  void write_spans_jsonl(std::ostream& os, const std::string& run_id) const;

 private:
  struct OpenState {
    std::size_t index = 0;  ///< into episodes_
    double last_activity = 0.0;
    double last_raw = 0.0;
    double confirmed_at = -1.0;
    double lead_time_s = -1.0;
    std::size_t raw_alerts = 0;
    std::size_t re_alerts = 0;
    bool has_confirmed = false;
    bool has_cause = false;
    bool has_prevention = false;
  };

  /// Opens an episode rooted at a raw_alert span; returns null (and
  /// counts the drop) when the capacity guard rejects it.
  OpenState* open_episode(const std::string& vm, double now,
                          const char* source);
  /// Closes the current span at `now` and appends a child span.
  Span& push_span(Episode* episode, SpanStage stage, double now);
  void close_episode(const std::string& vm, OpenState* state,
                     SpanStage terminal, double now,
                     const std::string& reason, EpisodeOutcome outcome);
  void fold_outcome(EpisodeOutcome outcome);
  void update_gauges();

  SpanTracerConfig config_;
  FlightRecorder* recorder_ = nullptr;  ///< not owned; may be null
  std::vector<Episode> episodes_;
  std::map<std::string, OpenState> open_;       ///< by VM
  std::map<std::string, std::size_t> next_seq_; ///< per-VM trace sequence
  Ledger ledger_;
  bool slo_violated_ = false;
  bool warned_dropped_ = false;

  // Outcome ledger instruments (null = uninstrumented).
  Counter* prevented_counter_ = nullptr;
  Counter* false_alarm_counter_ = nullptr;
  Counter* missed_counter_ = nullptr;
  Counter* escalated_counter_ = nullptr;
  Counter* expired_counter_ = nullptr;
  Counter* suppressed_counter_ = nullptr;
  Counter* episodes_counter_ = nullptr;
  Counter* dropped_counter_ = nullptr;
  Histogram* lead_time_hist_ = nullptr;
  Gauge* precision_gauge_ = nullptr;
  Gauge* recall_gauge_ = nullptr;
  Gauge* effectiveness_gauge_ = nullptr;
};

}  // namespace obs
}  // namespace prepare
