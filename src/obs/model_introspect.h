// Model-introspection layer: prediction calibration, per-horizon
// accuracy, and drift observability.
//
// The stage profiler and span tracer see the pipeline from the outside;
// ModelIntrospect says *why* a prediction was confident, miscalibrated
// or stale, with three instruments (DESIGN.md section 9 details each):
// per-horizon-step calibration of the predicted anomaly probability
// against the realized SLO state (Brier, log-loss, reliability bins);
// model-state probes on a round cadence (Markov row entropy and
// occupancy, TAN CPT support and log-odds spread, discretizer bins);
// and a drift detector (recent vs. lifetime calibration, bin-occupancy
// shift) publishing model.drift.* gauges and schema-v3 records.
//
// Threading contract: PREPARE_DRIVER_CONFINED, like the SpanTracer.
// The per-VM fan-out computes per-horizon probabilities into its own
// result slots; the controller folds them in here only from the serial
// section, in VM order, so every export is bit-identical for any
// --threads. No wall clock enters: cadences are round counters,
// timestamps are sim time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/analyze_annotations.h"
#include "obs/metrics.h"

namespace prepare {
namespace obs {

struct IntrospectConfig {
  /// Fixed-bin reliability histogram resolution: predicted-probability
  /// bucket b covers [b/bins, (b+1)/bins) (the last bucket includes 1).
  std::size_t reliability_bins = 10;
  /// Drift window: the last this-many rounds *with resolved predictions*
  /// form the "recent" calibration sample.
  std::size_t drift_window_rounds = 48;
  /// Evaluate drift every this-many management rounds.
  std::size_t drift_eval_period_rounds = 24;
  /// Skip drift evaluations until this many predictions have resolved
  /// (a near-empty baseline makes every ratio meaningless).
  std::size_t drift_min_samples = 64;
  /// Calibration drift triggers when the recent-window mean Brier
  /// exceeds baseline * (1 + rel_threshold) + abs_floor. The absolute
  /// floor keeps a near-perfect baseline (Brier ~ 0) from turning fp
  /// noise into a trigger.
  double drift_brier_rel_threshold = 0.5;
  double drift_brier_abs_floor = 0.02;
  /// Occupancy drift triggers when some attribute's total-variation
  /// distance between baseline and recent bin occupancy exceeds this.
  double occupancy_shift_threshold = 0.25;
  /// Recent-window length (symbols per attribute, pooled across VMs)
  /// for the occupancy comparison.
  std::size_t occupancy_window = 512;
  /// Sample the model-state probes (row entropy, CPT support) every
  /// this-many management rounds.
  std::size_t probe_period_rounds = 12;
  /// Compute the fully scored per-step horizon path every this-many
  /// management rounds (1 = every round). The scored path costs extra
  /// per-step marginalizations plus k classifier evaluations per VM —
  /// roughly 20-25% on top of a bare prediction round — so the default
  /// stride amortizes it below the <5% end-to-end overhead bar while
  /// every horizon step still accumulates calibration samples at the
  /// same (strided) rate (8 divides the default 24-step horizon, so the
  /// resolution schedule stays aligned with it). Deterministic: keyed
  /// off the round counter, decided on the driver thread before the
  /// per-VM fan-out.
  std::size_t calibration_stride = 8;
  /// Capacity guard: model_drift records beyond this are dropped (and
  /// counted in model.drift.records_dropped_total).
  std::size_t max_drift_records = 4096;
  /// Log-loss clamp: predicted probabilities are clamped into
  /// [eps, 1-eps] before the log so a hard 0/1 miss stays finite.
  double logloss_epsilon = 1e-9;
};

class PREPARE_DRIVER_CONFINED ModelIntrospect {
 public:
  /// `metrics` (optional) receives the model.* instrument families; it
  /// must outlive the introspector.
  explicit ModelIntrospect(MetricsRegistry* metrics = nullptr,
                           IntrospectConfig config = IntrospectConfig());

  // ---- wiring (driver thread, before the first round) ----

  /// Look-ahead depth k (sampling intervals) and the interval length —
  /// one calibration accumulator per horizon step 1..k. Must be called
  /// before the first begin_round(); calling again resets calibration
  /// state (a retrained controller starts a fresh ledger).
  void set_horizon(std::size_t steps, double sampling_interval_s);
  /// Attribute names for per-attribute gauges and drift attribution.
  void set_attribute_names(std::vector<std::string> names);

  // ---- train-time feeds ----

  /// Adds one attribute's training-time bin occupancy (discretizer fit
  /// counts) into the occupancy-drift baseline. Pooled across VMs:
  /// call once per (VM, attribute).
  void add_baseline_occupancy(std::size_t attribute,
                              const std::vector<double>& bin_counts);
  /// Discretizer geometry gauges for one attribute: effective bin count
  /// and the fraction of bins the training data actually occupied.
  void record_discretizer(std::size_t attribute, std::size_t bins,
                          double fit_occupied_ratio);

  // ---- per-round calibration (driver thread, serial sections only) ----

  /// Starts a management round at sim time `now`. Resolves every pending
  /// prediction whose target round is this one against `slo_violated`
  /// (the realized outcome — consistent with the Labeler: a sample is
  /// abnormal iff the SLO is violated at its timestamp), then opens this
  /// round's prediction slot. Runs a drift evaluation on cadence.
  void begin_round(double now, bool slo_violated);
  /// Whether the round opened by the last begin_round() is a sampled
  /// calibration round (every `calibration_stride`-th round). The
  /// controller resolves this once on the driver thread and only then
  /// asks the predictors for the (more expensive) scored horizon path;
  /// rounds in between keep the bare prediction cost. Unsampled rounds
  /// leave their ring slot empty, which later resolutions skip.
  bool calibration_due() const;
  /// Appends one VM's predicted anomaly-probability path for the round
  /// opened by the last begin_round(): probs[h-1] is the probability at
  /// horizon step h; size must equal the configured horizon. Call in
  /// deterministic VM order.
  void record_horizon_probs(const std::vector<double>& probs);

  /// Feeds one runtime discretized symbol into the recent-occupancy
  /// window of `attribute` (pooled across VMs).
  void observe_symbol(std::size_t attribute, std::size_t symbol);

  // ---- model-state probes (round cadence) ----

  /// Whether the probe cadence is due this round; the controller guards
  /// the (mildly expensive) model sweeps with this.
  bool probe_due() const;
  void begin_probe(double now);
  /// One attribute of one VM's value predictor: mean/max smoothed-row
  /// entropy (nats, over rows with observed transitions) and the
  /// fraction of transition rows ever observed.
  void probe_markov(std::size_t attribute, double entropy_mean,
                    double entropy_max, double occupancy_ratio);
  /// One VM's classifier: minimum CPT cell support (raw smoothed count
  /// evidence) and the spread (max - min) of the per-attribute log-odds
  /// impact table.
  void probe_classifier(double cpt_support_min, double log_odds_spread);
  /// Publishes the pooled probe gauges.
  void end_probe();

  // ---- end of run ----

  /// Final drift evaluation + per-horizon gauge publication. Pending
  /// predictions whose target round lies past the run end are
  /// discarded (their outcome never realized).
  void finish(double now);

  // ---- introspection / export (quiescent: after the run) ----

  /// Per-horizon calibration accumulators (index 0 = horizon step 1).
  struct HorizonStats {
    std::uint64_t n = 0;     ///< resolved predictions
    std::uint64_t hits = 0;  ///< realized-abnormal outcomes
    double p_sum = 0.0;      ///< sum of predicted probabilities
    double brier_sum = 0.0;
    double logloss_sum = 0.0;
    std::vector<std::uint64_t> bin_n;     ///< reliability bucket counts
    std::vector<std::uint64_t> bin_hits;  ///< per-bucket realized hits
  };
  const std::vector<HorizonStats>& horizon_stats() const { return horizons_; }

  /// One drift evaluation outcome, exported as a flat `model_drift`
  /// JSONL record.
  struct DriftRecord {
    double t = 0.0;
    std::string kind;  ///< "calibration" | "occupancy"
    bool triggered = false;
    std::string attribute;  ///< top-drifting attribute (occupancy kind)
    /// Flat numeric fields (baseline/recent/delta, window sizes, ...).
    std::vector<std::pair<std::string, double>> values;
  };
  const std::vector<DriftRecord>& drift_records() const { return drift_; }

  std::size_t rounds() const { return round_; }
  std::uint64_t resolved_samples() const { return total_n_; }
  std::size_t horizon_steps() const { return horizon_steps_; }
  const IntrospectConfig& config() const { return config_; }

  /// Writes the schema-v3 introspection records: one `calibration`
  /// record per horizon step with resolved samples, then every
  /// `model_drift` record, in evaluation order.
  void write_introspection_jsonl(std::ostream& os,
                                 const std::string& run_id) const;
  /// Human-readable calibration + drift summary (--obs-summary).
  void write_summary(std::ostream& os) const;

 private:
  struct RoundWindowEntry {
    double brier_sum = 0.0;
    double logloss_sum = 0.0;
    std::uint64_t n = 0;
  };
  struct OccupancyState {
    std::vector<double> baseline;       ///< training-time bin counts
    std::vector<double> recent_counts;  ///< counts over the recent window
    /// Fixed-capacity circular window of the last `occupancy_window`
    /// symbols: grows once to capacity, then overwrites in place. This
    /// path runs per VM x attribute x tick, so it must stay
    /// allocation-free in steady state (deque chunk churn here showed
    /// up in the end-to-end overhead bar).
    std::vector<std::uint32_t> recent_ring;
    std::size_t recent_head = 0;  ///< next overwrite position once full
    std::size_t recent_size = 0;
  };

  void fold(std::size_t horizon_index, double p, bool hit,
            RoundWindowEntry* entry);
  void evaluate_drift(double now);
  void push_drift_record(DriftRecord record);
  void publish_pooled_gauges();
  /// Total-variation distance between two (unnormalized) count vectors.
  static double tv_distance(const std::vector<double>& a,
                            const std::vector<double>& b);

  IntrospectConfig config_;
  MetricsRegistry* metrics_ = nullptr;

  // Horizon geometry.
  std::size_t horizon_steps_ = 0;
  double sampling_interval_s_ = 0.0;
  std::vector<std::string> attribute_names_;

  // Pending predictions: ring of `horizon_steps_` slots. Slot r % k
  // holds round r's flat probability paths (k values per recorded VM,
  // concatenated in record order); it resolves once per subsequent
  // round until round r + k, then is recycled.
  std::vector<std::vector<double>> ring_;
  std::vector<std::size_t> ring_round_;  ///< kNoRound = slot empty
  static constexpr std::size_t kNoRound = static_cast<std::size_t>(-1);
  std::size_t round_ = 0;  ///< management rounds seen (begin_round calls)
  bool round_open_ = false;
  double last_round_time_ = 0.0;

  // Lifetime + per-horizon calibration accumulators.
  std::vector<HorizonStats> horizons_;
  std::uint64_t total_n_ = 0;
  std::uint64_t total_hits_ = 0;
  double total_brier_sum_ = 0.0;
  double total_logloss_sum_ = 0.0;

  // Drift state.
  std::deque<RoundWindowEntry> window_;  ///< rounds with resolutions
  std::vector<OccupancyState> occupancy_;
  std::vector<DriftRecord> drift_;
  bool warned_dropped_ = false;
  double finish_time_ = 0.0;
  bool finished_ = false;

  // Probe accumulators (valid between begin_probe/end_probe).
  struct ProbeAccum {
    double entropy_sum = 0.0;
    double entropy_max = 0.0;
    double occupancy_sum = 0.0;
    std::size_t samples = 0;
  };
  std::vector<ProbeAccum> probe_markov_;
  double probe_cpt_support_min_ = 0.0;
  double probe_log_odds_spread_max_ = 0.0;
  std::size_t probe_classifiers_ = 0;
  double probe_time_ = 0.0;

  // Instruments (null = uninstrumented).
  Gauge* brier_gauge_ = nullptr;
  Gauge* logloss_gauge_ = nullptr;
  Counter* samples_counter_ = nullptr;
  Counter* hits_counter_ = nullptr;
  std::vector<Counter*> bin_n_counters_;
  std::vector<Counter*> bin_hits_counters_;
  Gauge* drift_brier_baseline_ = nullptr;
  Gauge* drift_brier_recent_ = nullptr;
  Gauge* drift_brier_delta_ = nullptr;
  Gauge* drift_logloss_baseline_ = nullptr;
  Gauge* drift_logloss_recent_ = nullptr;
  Gauge* drift_logloss_delta_ = nullptr;
  Gauge* drift_occupancy_max_ = nullptr;
  Gauge* drift_occupancy_mean_ = nullptr;
  Gauge* drift_triggered_ = nullptr;
  Counter* drift_evaluations_ = nullptr;
  Counter* drift_triggers_ = nullptr;
  Counter* drift_dropped_ = nullptr;
  Gauge* markov_entropy_mean_ = nullptr;
  Gauge* markov_entropy_max_ = nullptr;
  Gauge* markov_occupancy_ = nullptr;
  Gauge* tan_support_min_ = nullptr;
  Gauge* tan_spread_ = nullptr;
  Counter* probes_counter_ = nullptr;
};

}  // namespace obs
}  // namespace prepare
