// Per-VM, per-attribute metric history.
//
// The store is what the anomaly predictor trains on and what the
// prevention validator's look-back / look-ahead windows read from.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "monitor/attributes.h"
#include "timeseries/timeseries.h"

namespace prepare {

class MetricStore {
 public:
  /// Appends one monitoring sample for a VM.
  void record(const std::string& vm_name, double time,
              const AttributeVector& values);

  /// Number of samples stored for a VM (0 if unknown).
  std::size_t sample_count(const std::string& vm_name) const;

  /// The common sample count of `vm_names` (non-empty), whose histories
  /// an offline replay steps through index by index. Throws
  /// CheckFailure naming both VMs when two differ in count (with both
  /// counts) or in the time of any sample (with the first such index
  /// and both times).
  std::size_t aligned_sample_count(
      const std::vector<std::string>& vm_names) const;

  /// All VM names seen so far, in first-seen order.
  const std::vector<std::string>& vm_names() const { return vm_names_; }

  /// Series for one attribute of one VM; throws if the VM is unknown.
  const TimeSeries& series(const std::string& vm_name, Attribute a) const;

  /// Sample i of a VM as a full attribute vector (plus its timestamp).
  AttributeVector sample(const std::string& vm_name, std::size_t i) const;
  double sample_time(const std::string& vm_name, std::size_t i) const;

  /// The latest `n` samples of a VM, oldest first.
  std::vector<AttributeVector> last_samples(const std::string& vm_name,
                                            std::size_t n) const;

  void clear();

 private:
  struct VmHistory {
    std::array<TimeSeries, kAttributeCount> series;
  };

  const VmHistory& history_of(const std::string& vm_name) const;

  std::map<std::string, VmHistory> histories_;
  std::vector<std::string> vm_names_;
};

}  // namespace prepare
