#include "monitor/metric_store.h"

#include <algorithm>

#include "common/check.h"

namespace prepare {

void MetricStore::record(const std::string& vm_name, double time,
                         const AttributeVector& values) {
  auto it = histories_.find(vm_name);
  if (it == histories_.end()) {
    it = histories_.emplace(vm_name, VmHistory{}).first;
    vm_names_.push_back(vm_name);
  }
  for (std::size_t a = 0; a < kAttributeCount; ++a)
    it->second.series[a].append(time, values[a]);
}

const MetricStore::VmHistory& MetricStore::history_of(
    const std::string& vm_name) const {
  auto it = histories_.find(vm_name);
  PREPARE_CHECK_MSG(it != histories_.end(), "unknown VM: " + vm_name);
  return it->second;
}

std::size_t MetricStore::sample_count(const std::string& vm_name) const {
  auto it = histories_.find(vm_name);
  if (it == histories_.end()) return 0;
  return it->second.series[0].size();
}

std::size_t MetricStore::aligned_sample_count(
    const std::vector<std::string>& vm_names) const {
  PREPARE_CHECK(!vm_names.empty());
  const std::size_t total = sample_count(vm_names[0]);
  for (const auto& vm : vm_names) {
    const std::size_t n = sample_count(vm);
    PREPARE_CHECK(n == total)
        << "unaligned sample histories: " << vm_names[0] << " has " << total
        << " samples, " << vm << " has " << n;
    for (std::size_t i = 0; i < total; ++i) {
      const double t0 = sample_time(vm_names[0], i);
      const double t = sample_time(vm, i);
      PREPARE_CHECK(t == t0)
          << "unaligned sample histories: sample " << i << " of "
          << vm_names[0] << " is at t=" << t0 << ", of " << vm << " at t="
          << t;
    }
  }
  return total;
}

const TimeSeries& MetricStore::series(const std::string& vm_name,
                                      Attribute a) const {
  return history_of(vm_name).series[static_cast<std::size_t>(a)];
}

AttributeVector MetricStore::sample(const std::string& vm_name,
                                    std::size_t i) const {
  const VmHistory& h = history_of(vm_name);
  AttributeVector v{};
  for (std::size_t a = 0; a < kAttributeCount; ++a) v[a] = h.series[a].at(i).value;
  return v;
}

double MetricStore::sample_time(const std::string& vm_name,
                                std::size_t i) const {
  return history_of(vm_name).series[0].at(i).time;
}

std::vector<AttributeVector> MetricStore::last_samples(
    const std::string& vm_name, std::size_t n) const {
  const std::size_t total = sample_count(vm_name);
  const std::size_t take = std::min(n, total);
  std::vector<AttributeVector> out;
  out.reserve(take);
  for (std::size_t i = total - take; i < total; ++i)
    out.push_back(sample(vm_name, i));
  return out;
}

void MetricStore::clear() {
  histories_.clear();
  vm_names_.clear();
}

}  // namespace prepare
