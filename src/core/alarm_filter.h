// False-alarm filter: k-of-W majority voting (paper Section II-C).
//
// "PREPARE triggers prevention actions only after receiving at least k
// alerts in the recent W predictions." Real anomaly symptoms persist;
// most false alarms are transient resource spikes, so requiring k of the
// last W raw predictions to agree filters them at the cost of a small
// confirmation delay (Fig. 12 sweeps k).
#pragma once

#include <cstddef>
#include <span>

#include "timeseries/sliding_window.h"

namespace prepare {

/// The raw-alert gate in front of the filter: the prediction is abnormal
/// and its top-ranked metric carries attribution evidence,
/// max(0, max L_i) >= min_top_impact. PREPARE cannot choose a prevention
/// without a pinpointed metric, so an abnormal score alone is no alert.
bool passes_alert_gate(bool abnormal, std::span<const double> impacts,
                       double min_top_impact);

class AlarmFilter {
 public:
  /// Paper defaults: k = 3 alerts within the last W = 4 predictions.
  explicit AlarmFilter(std::size_t k = 3, std::size_t w = 4);

  /// Feeds one raw prediction; returns whether the alarm is confirmed
  /// (>= k alerts among the last W raw predictions, including this one).
  bool push(bool alert);

  /// Confirmation state as of the last push.
  bool confirmed() const { return confirmed_; }

  std::size_t k() const { return k_; }
  std::size_t w() const { return window_.capacity(); }

  void reset();

 private:
  std::size_t k_;
  SlidingWindow<bool> window_;
  bool confirmed_ = false;
};

}  // namespace prepare
