#include "core/anomaly_predictor.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "models/outlier.h"
#include "models/tan.h"

namespace prepare {

AnomalyPredictor::AnomalyPredictor(std::vector<std::string> feature_names,
                                   PredictorConfig config)
    : names_(std::move(feature_names)), config_(config) {
  PREPARE_CHECK_MSG(!names_.empty(), "predictor needs at least one feature");
  PREPARE_CHECK(config_.bins >= 2);
  PREPARE_CHECK(config_.markov_order >= 1);
}

void AnomalyPredictor::train(const std::vector<std::vector<double>>& rows,
                             const std::vector<bool>& abnormal) {
  PREPARE_CHECK_MSG(!rows.empty(), "empty training set");
  PREPARE_CHECK(rows.size() == abnormal.size());
  const std::size_t n = names_.size();

  // Fit one discretizer per feature. With fit_on_normal the bin range
  // comes from normal-labeled samples only (anomaly extremes clamp to
  // the edge bins); the full columns still train the value predictors.
  discretizers_.assign(
      n, Discretizer(config_.bins, config_.discretizer, 0.05,
                     config_.guard_bins));
  std::vector<std::vector<double>> columns(n);
  std::vector<std::vector<double>> fit_columns(n);
  for (std::size_t i = 0; i < n; ++i) {
    columns[i].reserve(rows.size());
    fit_columns[i].reserve(rows.size());
  }
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const auto& row = rows[r];
    PREPARE_CHECK(row.size() == n);
    for (std::size_t i = 0; i < n; ++i) {
      columns[i].push_back(row[i]);
      if (!config_.fit_on_normal || !abnormal[r])
        fit_columns[i].push_back(row[i]);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (fit_columns[i].empty()) fit_columns[i] = columns[i];
    discretizers_[i].fit(fit_columns[i]);
  }
  if (introspect_ != nullptr) {
    // Training-time bin occupancy is the drift detector's baseline; the
    // discretizer-geometry gauges expose how much of each grid the
    // training data actually used.
    for (std::size_t i = 0; i < n; ++i) {
      const std::vector<double>& fit_counts = discretizers_[i].fit_counts();
      introspect_->add_baseline_occupancy(i, fit_counts);
      double occupied = 0.0;
      for (double c : fit_counts)
        if (c > 0.0) occupied += 1.0;
      introspect_->record_discretizer(
          i, discretizers_[i].bins(),
          occupied / static_cast<double>(fit_counts.size()));
    }
  }

  // Train the value predictor, one lane per feature, on the discretized
  // sequences. Alphabets are per-feature: quantile discretization merges
  // ties.
  std::vector<std::size_t> alphabets(n);
  std::vector<std::vector<std::size_t>> sequences(n);
  for (std::size_t i = 0; i < n; ++i) {
    alphabets[i] = discretizers_[i].bins();
    sequences[i] = discretizers_[i].discretize(columns[i]);
  }
  markov_.emplace(config_.markov_order, alphabets, config_.markov_alpha);
  markov_->train(sequences);

  // Train the classifier on the same symbols, as rows + labels.
  LabeledDataset data;
  data.alphabet = alphabets;
  data.rows.assign(rows.size(), std::vector<std::size_t>(n));
  for (std::size_t r = 0; r < rows.size(); ++r)
    for (std::size_t i = 0; i < n; ++i) data.rows[r][i] = sequences[i][r];
  data.abnormal.assign(abnormal.begin(), abnormal.end());
  switch (config_.classifier) {
    case ClassifierKind::kNaiveBayes:
      classifier_ = std::make_unique<TanClassifier>(
          config_.classifier_alpha, TanClassifier::Structure::kNaiveBayes);
      break;
    case ClassifierKind::kOutlier:
      classifier_ = std::make_unique<OutlierClassifier>(
          config_.outlier_quantile, config_.classifier_alpha,
          config_.outlier_threshold_margin);
      break;
    case ClassifierKind::kTan:
      classifier_ =
          std::make_unique<TanClassifier>(config_.classifier_alpha);
      break;
  }
  classifier_->train(data);

  // A supervised classifier that never saw an abnormal sample cannot
  // claim one: with an empty abnormal class, Laplace smoothing turns the
  // abnormal likelihood into a uniform distribution and the classifier
  // silently degenerates into an outlier detector. Suppress its alarms —
  // this IS the paper's "recurrent anomalies only" limitation; use
  // ClassifierKind::kOutlier for deliberate unsupervised detection.
  supervised_without_abnormal_ =
      config_.classifier != ClassifierKind::kOutlier &&
      std::find(abnormal.begin(), abnormal.end(), true) == abnormal.end();

  // Discriminativeness: how much of its own abnormal training data does
  // the classifier recover? A model that cannot separate the classes it
  // was trained on has nothing to say about the future either.
  std::size_t ab_total = 0, ab_hit = 0;
  for (std::size_t r = 0; r < data.rows.size(); ++r) {
    if (!data.abnormal[r]) continue;
    ++ab_total;
    if (classifier_->classify(data.rows[r]).abnormal) ++ab_hit;
  }
  train_tpr_ = ab_total == 0
                   ? 1.0
                   : static_cast<double>(ab_hit) /
                         static_cast<double>(ab_total);
  discriminative_ = train_tpr_ >= config_.min_train_tpr;

  // Training ends with predictors contextualized at the end of the
  // training sequence; runtime observe() calls take over from there.
  last_row_ = data.rows.back();
  has_observation_ = true;
  trained_ = true;

  // Pre-size the per-predict scratch that only depends on the feature
  // count, so the hot predict path never grows it (the analyzer proves
  // predict_into allocation-free; see analyze_annotations.h).
  scratch_dists_.resize(n);
  scratch_row_.resize(n);
  scratch_paths_.resize(n);

  // Flattened-evidence layout for the flight recorder: per-feature
  // effective alphabets are only known after discretizer fitting.
  evidence_offsets_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i)
    evidence_offsets_[i + 1] = evidence_offsets_[i] + discretizers_[i].bins();
}

std::size_t AnomalyPredictor::attribute_alphabet(std::size_t i) const {
  PREPARE_CHECK(trained_);
  PREPARE_CHECK(i < discretizers_.size());
  return discretizers_[i].bins();
}

void AnomalyPredictor::set_profiler(obs::StageProfiler* profiler) {
  stage_discretize_ =
      profiler == nullptr ? nullptr : profiler->stage(obs::kStageDiscretize);
  stage_lookahead_ = profiler == nullptr
                         ? nullptr
                         : profiler->stage(obs::kStageMarkovLookahead);
  stage_classify_ =
      profiler == nullptr ? nullptr : profiler->stage(obs::kStageTanClassify);
}

void AnomalyPredictor::set_introspect(obs::ModelIntrospect* introspect) {
  introspect_ = introspect;
}

void AnomalyPredictor::report_model_state() const {
  if (introspect_ == nullptr || !trained_) return;
  for (std::size_t i = 0; i < markov_->lanes(); ++i) {
    const MarkovModel::RowStats stats = markov_->row_stats(i);
    const double occupied = static_cast<double>(stats.occupied_rows);
    introspect_->probe_markov(
        i,
        stats.occupied_rows == 0 ? 0.0 : stats.entropy_sum / occupied,
        stats.entropy_max,
        occupied / static_cast<double>(stats.rows));
  }
  const Classifier::CptStats cpt = classifier_->cpt_stats();
  introspect_->probe_classifier(cpt.support_min, cpt.log_odds_spread);
}

void AnomalyPredictor::observe(const std::vector<double>& row) {
  PREPARE_CHECK_MSG(trained_, "observe() before train()");
  PREPARE_CHECK(row.size() == names_.size());
  obs::ScopedTimer timer(stage_discretize_);
  last_row_.resize(row.size());
  if (capture_evidence_) last_raw_row_ = row;
  for (std::size_t i = 0; i < row.size(); ++i)
    last_row_[i] = discretizers_[i].discretize(row[i]);
  markov_->observe(last_row_, config_.online_learning);
  if (introspect_ != nullptr) {
    // observe() runs in the controller's serial per-VM loop (driver
    // thread), so feeding the driver-confined introspector here is safe.
    for (std::size_t i = 0; i < last_row_.size(); ++i)
      introspect_->observe_symbol(i, last_row_[i]);
  }
  has_observation_ = true;
}

bool AnomalyPredictor::ready() const {
  return trained_ && has_observation_ && markov_->ready();
}

AnomalyPredictor::Result AnomalyPredictor::predict(TickIndex steps) const {
  return predict(steps, /*with_horizon=*/true);
}

AnomalyPredictor::Result AnomalyPredictor::predict(TickIndex steps,
                                                   bool with_horizon) const {
  // Cold wrapper: tests and one-shot callers get a fresh Result; the
  // controller's per-round fan-out calls predict_into() with a reused
  // slot instead.
  Result out;
  predict_into(steps, with_horizon, &out);
  return out;
}

void AnomalyPredictor::predict_into(TickIndex steps, bool with_horizon,
                                    Result* out) const {
  PREPARE_CHECK_MSG(ready(), "predict() before the model is ready");
  PREPARE_CHECK(steps.value() >= 1);
  PREPARE_CHECK(out != nullptr);
  if (introspect_ != nullptr && with_horizon) {
    predict_with_horizon_into(steps, out);
    return;
  }
  // A reused Result may carry probabilities from an earlier calibration
  // round; this path does not fill them.
  out->horizon_probs.clear();
  // Scratch vectors are pre-sized by train() (feature count is fixed).
  auto& dists = scratch_dists_;
  {
    obs::ScopedTimer timer(stage_lookahead_);
    markov_->predict_into(steps, dists);
  }

  obs::ScopedTimer classify_timer(stage_classify_);
  if (config_.classify_mode) {
    auto& row = scratch_row_;
    for (std::size_t i = 0; i < dists.size(); ++i) row[i] = dists[i].mode();
    classifier_->classify_into(row, &out->classification);
  } else {
    classifier_->classify_expected_into(dists, &out->classification);
  }
  classify_timer.stop();
  if (supervised_without_abnormal_) out->classification.abnormal = false;
  // prepare-analyze: allow(hot-alloc): capacity-steady reused Result
  out->predicted_values.resize(dists.size());
  for (std::size_t i = 0; i < dists.size(); ++i)
    out->predicted_values[i] =
        dists[i].expectation(discretizers_[i].centers());
  out->evidence.valid = false;
  if (capture_evidence_) capture_evidence_into(out);
}

void AnomalyPredictor::predict_with_horizon_into(TickIndex steps,
                                                 Result* out) const {
  auto& paths = scratch_paths_;
  {
    obs::ScopedTimer timer(stage_lookahead_);
    markov_->predict_path_into(steps, paths);
  }

  const std::size_t k = steps.value();
  const std::size_t nf = paths.size();
  obs::ScopedTimer classify_timer(stage_classify_);
  auto& row = scratch_row_;
  // One feature-major sweep extracts every per-step mode into a flat
  // step-major table: each path's distributions are read sequentially
  // (they were allocated together), instead of chasing all 13 paths
  // once per step below.
  auto& modes = scratch_modes_;
  // prepare-analyze: allow(hot-alloc): capacity-steady — horizon fixed
  modes.resize(k * nf);
  for (std::size_t i = 0; i < nf; ++i) {
    const std::vector<Distribution>& path = paths[i];
    for (std::size_t s = 0; s < k; ++s) modes[s * nf + i] = path[s].mode();
  }
  if (config_.classify_mode) {
    for (std::size_t i = 0; i < nf; ++i) row[i] = modes[(k - 1) * nf + i];
    classifier_->classify_into(row, &out->classification);
  } else {
    auto& dists = scratch_dists_;
    for (std::size_t i = 0; i < nf; ++i) dists[i] = paths[i][k - 1];
    classifier_->classify_expected_into(dists, &out->classification);
  }
  // Calibration probabilities: sigmoid of the mode-row log-odds score at
  // every horizon step. Always mode-row scoring — even under
  // classify_expected — so the per-horizon numbers compare one fixed
  // scoring rule across backends and horizons.
  // prepare-analyze: allow(hot-alloc): capacity-steady — horizon fixed
  out->horizon_probs.resize(k);
  for (std::size_t s = 0; s < k; ++s) {
    std::copy(modes.begin() + static_cast<std::ptrdiff_t>(s * nf),
              modes.begin() + static_cast<std::ptrdiff_t>((s + 1) * nf),
              row.begin());
    const double score = classifier_->score(row).value();
    const double p = 1.0 / (1.0 + std::exp(-score));
    PREPARE_DCHECK(std::isfinite(p) && p >= 0.0 && p <= 1.0)
        << "degenerate anomaly probability " << p << " at horizon step "
        << s + 1;
    out->horizon_probs[s] = p;
  }
  classify_timer.stop();
  if (supervised_without_abnormal_) out->classification.abnormal = false;
  // prepare-analyze: allow(hot-alloc): capacity-steady reused Result
  out->predicted_values.resize(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i)
    out->predicted_values[i] =
        paths[i][k - 1].expectation(discretizers_[i].centers());
  out->evidence.valid = false;
  if (capture_evidence_) {
    // capture_evidence_into reads the final-step distributions from
    // scratch_dists_; under classify_mode this path never copied them
    // there, so mirror the expected-mode arm's copy (capacity-steady:
    // per-feature alphabets are fixed after train()).
    if (config_.classify_mode) {
      auto& dists = scratch_dists_;
      for (std::size_t i = 0; i < nf; ++i) dists[i] = paths[i][k - 1];
    }
    capture_evidence_into(out);
  }
}

void AnomalyPredictor::capture_evidence_into(Result* out) const {
  const std::size_t n = names_.size();
  auto& ev = out->evidence;
  ev.valid = true;
  // prepare-analyze: allow(hot-alloc): capacity-steady reused Result
  ev.raw.resize(n);
  // prepare-analyze: allow(hot-alloc): capacity-steady reused Result
  ev.observed_row.resize(n);
  // prepare-analyze: allow(hot-alloc): capacity-steady reused Result
  ev.mode_row.resize(n);
  // prepare-analyze: allow(hot-alloc): capacity-steady reused Result
  ev.dists.resize(evidence_offsets_.back());
  PREPARE_DCHECK(last_raw_row_.size() == n)
      << "evidence capture needs observe() after set_evidence_capture";
  std::copy(last_raw_row_.begin(), last_raw_row_.end(), ev.raw.begin());
  std::copy(last_row_.begin(), last_row_.end(), ev.observed_row.begin());
  for (std::size_t i = 0; i < n; ++i) {
    const Distribution& d = scratch_dists_[i];
    PREPARE_DCHECK(d.size() == evidence_offsets_[i + 1] - evidence_offsets_[i]);
    std::copy(d.probabilities().begin(), d.probabilities().end(),
              ev.dists.begin() +
                  static_cast<std::ptrdiff_t>(evidence_offsets_[i]));
    ev.mode_row[i] = d.mode();
  }
  ev.prior_log_odds = classifier_->prior_log_odds().value();
  ev.decomposable = classifier_->score_decomposable();
}

Classification AnomalyPredictor::classify_current() const {
  PREPARE_CHECK_MSG(trained_ && has_observation_,
                    "classify_current() needs a trained model and a sample");
  obs::ScopedTimer timer(stage_classify_);
  Classification cls = classifier_->classify(last_row_);
  if (supervised_without_abnormal_) cls.abnormal = false;
  return cls;
}

const Classifier& AnomalyPredictor::classifier() const {
  PREPARE_CHECK(trained_);
  return *classifier_;
}

}  // namespace prepare
