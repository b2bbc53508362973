#include "core/alarm_filter.h"

#include <algorithm>

#include "common/check.h"

namespace prepare {

bool passes_alert_gate(bool abnormal, std::span<const double> impacts,
                       double min_top_impact) {
  double top = 0.0;
  for (double impact : impacts) top = std::max(top, impact);
  return abnormal && top >= min_top_impact;
}

AlarmFilter::AlarmFilter(std::size_t k, std::size_t w)
    : k_(k), window_(w) {
  PREPARE_CHECK_GE(k, std::size_t{1}) << "need at least one alert to confirm";
  PREPARE_CHECK_LE(k, w) << "k must not exceed the window size W";
}

bool AlarmFilter::push(bool alert) {
  window_.push(alert);
  // Window-index invariants: the window never grows past W, and the
  // alert count it reports can never exceed the entries it holds.
  PREPARE_DCHECK_LE(window_.size(), window_.capacity())
      << "sliding window overran its capacity";
  const std::size_t alerts = window_.count_if([](bool a) { return a; });
  PREPARE_DCHECK_LE(alerts, window_.size()) << "alert count exceeds window";
  confirmed_ = alerts >= k_;
  return confirmed_;
}

void AlarmFilter::reset() {
  window_.clear();
  confirmed_ = false;
}

}  // namespace prepare
