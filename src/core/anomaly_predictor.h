// Online anomaly predictor: attribute-value prediction + multi-variant
// anomaly classification (paper Section II-B).
//
// One instance models one *component* (normally one VM with its 13
// attributes; the "monolithic" baseline of Fig. 10 feeds the concatenated
// attributes of every VM into a single instance). The predictor keeps one
// Markov value predictor over discretized values with a lane per feature;
// prediction at a look-ahead of k sampling intervals pushes each feature
// k steps forward and classifies the resulting joint (independent)
// distribution with the TAN (or naive Bayes) classifier.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/analyze_annotations.h"
#include "models/classifier.h"
#include "models/discretizer.h"
#include "models/markov.h"
#include "obs/model_introspect.h"
#include "obs/stage_profiler.h"

namespace prepare {

/// kOutlier is the Section V extension: an unsupervised tree-structured
/// density model that flags never-seen states, enabling prediction of
/// anomaly types absent from the training data (at reduced specificity).
enum class ClassifierKind { kNaiveBayes, kTan, kOutlier };

struct PredictorConfig {
  /// Discretization grid per feature. Keep coarse: runs provide a few
  /// hundred training samples and the 2-dependent model has bins^2
  /// transition rows (the paper's Fig. 2 example uses 3 states).
  /// Quantile bins merge ties, so the effective alphabet per feature can
  /// be smaller.
  std::size_t bins = 5;
  DiscretizerKind discretizer = DiscretizerKind::kEqualWidth;
  /// Add never-trained-on guard bins beyond the training range (pairs
  /// with the kOutlier classifier: out-of-range values become maximally
  /// surprising instead of blending into the edge bins).
  bool guard_bins = false;
  /// Fit discretizer ranges on normal-labeled samples only: anomaly-era
  /// extremes (a saturated CPU, a zeroed free-memory) then clamp into
  /// the edge bins instead of stretching the grid so far that the whole
  /// healthy-to-degrading trajectory collapses into one bin.
  bool fit_on_normal = true;
  /// Context length of the per-feature Markov value predictors: 2 is
  /// the paper's 2-dependent model, 1 the simple chain of the Fig. 11
  /// baseline. Higher orders need alphabet^order rows of data.
  std::size_t markov_order = 2;
  ClassifierKind classifier = ClassifierKind::kTan;
  double classifier_alpha = 0.5;       ///< Laplace smoothing (CPTs)
  double markov_alpha = 0.05;          ///< Laplace smoothing (transitions)
  /// Decision quantile and calibration headroom for the unsupervised
  /// outlier classifier.
  double outlier_quantile = 0.995;
  double outlier_threshold_margin = 1.25;
  /// Keep updating Markov transition counts from runtime observations
  /// (the paper's periodic model update).
  bool online_learning = true;
  /// Minimum true-positive rate on the model's own training data for the
  /// model to count as discriminative. A component whose metrics look
  /// the same in both classes (e.g. a PE upstream of the faulty one)
  /// cannot be pinpointed — its score just hovers at the class prior and
  /// only emits noise.
  double min_train_tpr = 0.5;
  /// How predicted value distributions are classified:
  ///  * mode (default): classify the single most likely future
  ///    assignment — sharp, keeps correlated attributes consistent, and
  ///    yields the longest alert lead time;
  ///  * expectation: average each attribute's impact over its predicted
  ///    distribution (the TAN pins the parent at its mode); softer and
  ///    kept for the ablation bench.
  bool classify_mode = true;
};

class AnomalyPredictor {
 public:
  AnomalyPredictor(std::vector<std::string> feature_names,
                   PredictorConfig config = PredictorConfig());

  /// Trains discretizers, value predictors and the classifier from
  /// labeled feature rows. Rows must align with `abnormal`.
  void train(const std::vector<std::vector<double>>& rows,
             const std::vector<bool>& abnormal);
  bool trained() const { return trained_; }

  /// Feeds one runtime sample (advances every feature's Markov context).
  /// Only valid after train().
  void observe(const std::vector<double>& row);

  struct Result {
    Classification classification;
    /// Expected feature values at the prediction horizon (bin-center
    /// expectations) — the "informative" part of the alert.
    std::vector<double> predicted_values;
    /// Predicted anomaly probability per horizon step 1..steps
    /// (sigmoid of the mode-row classifier score at each step). Only
    /// filled when an introspector is attached — the controller folds
    /// it into the calibration tracker from its serial section.
    std::vector<double> horizon_probs;

    /// Decision evidence for the flight recorder
    /// (obs/flight_recorder.h): everything the downstream
    /// alert/diagnosis/prevention decisions were computed from, so a
    /// closed episode can be re-executed bit-identically offline. Only
    /// filled when evidence capture is enabled (set_evidence_capture);
    /// the fill is a plain copy of predictor scratch, so enabling it
    /// never changes a classification.
    struct Evidence {
      bool valid = false;
      /// Raw (pre-discretization) values of the latest observe() row.
      std::vector<double> raw;
      /// Discretized current row (the Markov contexts' last symbols).
      std::vector<std::size_t> observed_row;
      /// Per-attribute mode of the final-step predicted distribution —
      /// the row the mode-path classification scored.
      std::vector<std::size_t> mode_row;
      /// Final-step predicted distributions, flattened attribute-major:
      /// attribute i occupies [offsets[i], offsets[i+1]) where the
      /// offsets come from AnomalyPredictor::attribute_alphabet().
      std::vector<double> dists;
      /// Class-prior log-odds term the impact sum starts from; only
      /// meaningful when `decomposable` (Bayesian backends).
      double prior_log_odds = 0.0;
      bool decomposable = false;
    };
    Evidence evidence;
  };

  /// Classifies the state `steps` sampling intervals ahead. With an
  /// introspector attached this also fills Result::horizon_probs (the
  /// scored per-step horizon path).
  Result predict(TickIndex steps) const;
  /// predict() with the horizon-path decision made by the caller: the
  /// controller resolves ModelIntrospect::calibration_due() once per
  /// round on the driver thread and passes it here, so the (more
  /// expensive) scored path runs only on sampled calibration rounds and
  /// the worker-side predict never touches the driver-confined
  /// introspector. `with_horizon` is ignored when no introspector is
  /// attached.
  Result predict(TickIndex steps, bool with_horizon) const;
  /// The steady-state prediction path: same result as predict(steps,
  /// with_horizon), written into `out` (non-null) so the controller's
  /// per-VM fan-out reuses one Result slot per VM instead of allocating
  /// fresh vectors every round. PREPARE_HOT: the analyzer proves this
  /// transitively allocation-, lock- and IO-free (the value-returning
  /// predict() overloads above are thin cold wrappers).
  PREPARE_HOT void predict_into(TickIndex steps, bool with_horizon,
                                Result* out) const;

  /// Classifies the most recently observed sample (used by the reactive
  /// path and for diagnosis once an anomaly has already manifested).
  Classification classify_current() const;

  /// Whether enough runtime samples have been observed to predict.
  bool ready() const;

  /// Whether the trained classifier separates the training classes (see
  /// PredictorConfig::min_train_tpr). Always true when the training data
  /// had no abnormal samples to separate.
  bool discriminative() const { return discriminative_; }
  /// True-positive rate of the classifier on its own training data.
  double train_tpr() const { return train_tpr_; }

  const std::vector<std::string>& feature_names() const { return names_; }
  const PredictorConfig& config() const { return config_; }
  const Classifier& classifier() const;

  /// Effective alphabet (bin count) of feature `i` after training —
  /// quantile discretization merges ties, so this can be smaller than
  /// PredictorConfig::bins and differs per (VM, attribute). The flight
  /// recorder sizes its evidence rings from these.
  std::size_t attribute_alphabet(std::size_t i) const;

  /// Enables decision-evidence capture: observe() keeps the raw row and
  /// predict_into() fills Result::evidence (a scratch copy — the
  /// classification itself is unchanged). Off by default: the evidence
  /// copy is only paid when a flight recorder is attached.
  void set_evidence_capture(bool capture) { capture_evidence_ = capture; }

  /// Attaches per-stage wall-time instrumentation (discretize, Markov
  /// look-ahead, TAN classify). The profiler must outlive the
  /// predictor; nullptr detaches (the default: zero overhead).
  void set_profiler(obs::StageProfiler* profiler);

  /// Attaches the model-introspection layer. With an introspector
  /// attached, train() feeds the discretizer bin-occupancy baselines,
  /// observe() feeds runtime symbols into the occupancy drift window,
  /// and predict() fills Result::horizon_probs for the calibration
  /// tracker. The introspector must outlive the predictor; nullptr
  /// detaches. predict() itself never calls into the introspector — it
  /// runs inside the parallel per-VM fan-out, and the introspector is
  /// driver-thread-confined.
  void set_introspect(obs::ModelIntrospect* introspect);

  /// Sweeps every Markov lane's transition rows and the
  /// classifier's CPTs into the attached introspector's probe
  /// accumulators. Driver thread only, between begin_probe() and
  /// end_probe(); no-op when nothing is attached or not yet trained.
  void report_model_state() const;

 private:
  /// predict_into() variant taken when an introspector is attached: one
  /// full horizon path per feature instead of a single final
  /// distribution. The final-step path elements are bit-identical to
  /// the plain variant's output, so the classification (and thus every
  /// alert) is unchanged.
  void predict_with_horizon_into(TickIndex steps, Result* out) const;
  /// Copies the decision evidence of the prediction just computed
  /// (scratch_dists_ must hold the final-step distributions) into
  /// out->evidence. Hot like its callers: pure copies into
  /// capacity-steady storage.
  void capture_evidence_into(Result* out) const;

  std::vector<std::string> names_;
  PredictorConfig config_;
  bool trained_ = false;

  std::vector<Discretizer> discretizers_;
  /// One lane per feature; empty until train().
  std::optional<MarkovModel> markov_;
  std::unique_ptr<Classifier> classifier_;
  std::vector<std::size_t> last_row_;
  /// Raw values of the latest observe() row; only maintained when
  /// evidence capture is on (the discretized row suffices otherwise).
  std::vector<double> last_raw_row_;
  bool capture_evidence_ = false;
  /// Flattened-evidence layout: offsets_[i] is where feature i's
  /// final-step distribution starts in Result::Evidence::dists
  /// (offsets_[n] = total length). Built by train().
  std::vector<std::size_t> evidence_offsets_;
  bool has_observation_ = false;
  bool discriminative_ = true;
  bool supervised_without_abnormal_ = false;
  double train_tpr_ = 0.0;

  // Stage wall-time histograms (null = uninstrumented).
  obs::Histogram* stage_discretize_ = nullptr;
  obs::Histogram* stage_lookahead_ = nullptr;
  obs::Histogram* stage_classify_ = nullptr;

  // Model-introspection sink (null = uninstrumented).
  obs::ModelIntrospect* introspect_ = nullptr;

  // Per-predict transient buffers, reused across ticks so the steady
  // state allocates nothing. Safe despite `mutable`: a predictor is
  // confined to its VM's worker thread (the parallel driver shards by
  // VM), matching the thread-safety story of the scratch buffers inside
  // the Markov model itself.
  mutable std::vector<Distribution> scratch_dists_;
  mutable std::vector<std::size_t> scratch_row_;
  /// Step-major per-step marginal modes (scratch_modes_[s * nf + i] is
  /// feature i's mode at horizon step s + 1), filled by one
  /// feature-major sweep over scratch_paths_.
  mutable std::vector<std::size_t> scratch_modes_;
  /// Per-feature full horizon paths (scratch_paths_[i][s] is feature
  /// i's distribution at step s+1); only used when an introspector is
  /// attached.
  mutable std::vector<std::vector<Distribution>> scratch_paths_;
};

}  // namespace prepare
