#include "workload/trace_workload.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/csv.h"

namespace prepare {

TraceWorkload::TraceWorkload(std::vector<Point> points, double rate_scale)
    : points_(std::move(points)), rate_scale_(rate_scale) {
  PREPARE_CHECK_MSG(!points_.empty(), "trace workload needs points");
  PREPARE_CHECK(rate_scale > 0.0);
  for (std::size_t i = 0; i < points_.size(); ++i) {
    PREPARE_CHECK(points_[i].rate >= 0.0);
    if (i > 0)
      PREPARE_CHECK_MSG(points_[i].time > points_[i - 1].time,
                        "trace times must be strictly increasing");
  }
}

TraceWorkload TraceWorkload::from_csv(const std::string& path,
                                      double rate_scale) {
  CsvReader csv(path);
  const std::size_t time_col = csv.column("time_s");
  const std::size_t rate_col = csv.column("rate");
  std::vector<Point> points;
  std::vector<std::string> fields;
  while (csv.next(&fields))
    points.push_back(
        {csv.number(fields, time_col), csv.number(fields, rate_col)});
  return TraceWorkload(std::move(points), rate_scale);
}

double TraceWorkload::rate(double t) const {
  // Wrap long runs around the trace span (a zero-span single-point trace
  // is constant).
  if (points_.size() == 1) return points_[0].rate * rate_scale_;
  const double span_t = points_.back().time;
  double wrapped = t;
  if (span_t > 0.0 && t > span_t)
    wrapped = std::fmod(t, span_t);
  if (wrapped <= points_.front().time)
    return points_.front().rate * rate_scale_;

  const auto upper = std::upper_bound(
      points_.begin(), points_.end(), wrapped,
      [](double tq, const Point& p) { return tq < p.time; });
  if (upper == points_.end()) return points_.back().rate * rate_scale_;
  const auto lower = std::prev(upper);
  const double frac =
      (wrapped - lower->time) / (upper->time - lower->time);
  return (lower->rate + frac * (upper->rate - lower->rate)) * rate_scale_;
}

}  // namespace prepare
