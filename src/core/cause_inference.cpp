#include "core/cause_inference.h"

#include <algorithm>

#include "common/check.h"

namespace prepare {

CauseInference::CauseInference(std::vector<std::string> vm_names,
                               Config config)
    : config_(config), vm_names_(std::move(vm_names)) {
  PREPARE_CHECK(!vm_names_.empty());
  PREPARE_CHECK(config_.workload_change_fraction > 0.0 &&
                config_.workload_change_fraction <= 1.0);
  for (const auto& name : vm_names_) {
    detectors_.emplace(name, CusumDetector(config_.cusum));
    last_change_time_.emplace(name, -1.0);
  }
}

void CauseInference::observe(const std::string& vm_name, double now,
                             const AttributeVector& values) {
  auto it = detectors_.find(vm_name);
  PREPARE_CHECK_MSG(it != detectors_.end(), "unknown VM: " + vm_name);
  if (it->second.update(get(values, Attribute::kNetIn))) {
    last_change_time_[vm_name] = now;
    it->second.rearm();
  }
}

bool CauseInference::workload_change_suspected(double now) const {
  std::size_t recent = 0;
  for (const auto& name : vm_names_) {
    const double t = last_change_time_.at(name);
    if (t >= 0.0 && now - t <= config_.recent_window_s) ++recent;
  }
  return static_cast<double>(recent) >=
         config_.workload_change_fraction *
             static_cast<double>(vm_names_.size());
}

Diagnosis::FaultyVm attribute_fault(const std::string& vm,
                                    const Classification& cls,
                                    std::size_t limit) {
  Diagnosis::FaultyVm faulty;
  faulty.vm = vm;
  faulty.score = cls.score;
  for (std::size_t a : Classifier::attribution_ranking(cls.impacts, limit)) {
    faulty.ranked.push_back(static_cast<Attribute>(a));
    faulty.impacts.push_back(cls.impacts[a]);
  }
  return faulty;
}

std::vector<std::pair<std::string, double>> cause_attribution(
    const Diagnosis::FaultyVm& faulty) {
  std::vector<std::pair<std::string, double>> top;
  for (std::size_t i = 0; i < std::min<std::size_t>(3, faulty.ranked.size());
       ++i)
    top.emplace_back(attribute_name(faulty.ranked[i]), faulty.impacts[i]);
  return top;
}

Diagnosis CauseInference::diagnose(
    const std::map<std::string, Classification>& alerting) const {
  Diagnosis out;
  for (const auto& [vm, cls] : alerting)
    out.faulty.push_back(attribute_fault(vm, cls, config_.top_attributes));
  std::stable_sort(out.faulty.begin(), out.faulty.end(),
                   [](const Diagnosis::FaultyVm& a,
                      const Diagnosis::FaultyVm& b) {
                     return a.score > b.score;
                   });
  return out;
}

}  // namespace prepare
