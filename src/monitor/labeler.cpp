#include "monitor/labeler.h"

#include <limits>

namespace prepare {

std::vector<LabeledSample> Labeler::label(const MetricStore& store,
                                          const SloLog& slo,
                                          const std::string& vm_name,
                                          double t0, double t1) {
  std::vector<LabeledSample> out;
  const std::size_t n = store.sample_count(vm_name);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = store.sample_time(vm_name, i);
    if (t < t0 || t > t1) continue;
    out.push_back({t, store.sample(vm_name, i), slo.violated_at(t)});
  }
  return out;
}

void Labeler::label_rows(const MetricStore& store, const SloLog& slo,
                         const std::string& vm_name, double t0, double t1,
                         std::vector<std::vector<double>>* rows,
                         std::vector<bool>* abnormal) {
  rows->clear();
  abnormal->clear();
  for (const auto& s : label(store, slo, vm_name, t0, t1)) {
    rows->emplace_back(s.values.begin(), s.values.end());
    abnormal->push_back(s.abnormal);
  }
}

std::vector<LabeledSample> Labeler::label_all(const MetricStore& store,
                                              const SloLog& slo,
                                              const std::string& vm_name) {
  return label(store, slo, vm_name, -std::numeric_limits<double>::infinity(),
               std::numeric_limits<double>::infinity());
}

}  // namespace prepare
