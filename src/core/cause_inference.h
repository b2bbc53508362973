// Online anomaly cause inference (paper Section II-C).
//
// Answers, once an alarm is confirmed: (1) which VMs are faulty — the
// ones whose per-VM prediction models raise the alert — and (2) which
// system metrics on those VMs are most related — the TAN attribution
// ranking. Also distinguishes a workload change from an internal fault:
// change points appearing on (nearly) every component at about the same
// time indicate an external workload change [13].
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "models/classifier.h"
#include "monitor/attributes.h"
#include "timeseries/changepoint.h"

namespace prepare {

struct Diagnosis {
  struct FaultyVm {
    std::string vm;
    double score = 0.0;               ///< classifier log-odds
    std::vector<Attribute> ranked;    ///< metrics, most relevant first
    std::vector<double> impacts;      ///< L_i per ranked metric (parallel)
  };
  std::vector<FaultyVm> faulty;       ///< sorted by score, descending
  bool workload_change = false;
};

/// One VM's attribution from its classification: the metrics of
/// Classifier::attribution_ranking (at most `limit`) with their L_i.
Diagnosis::FaultyVm attribute_fault(const std::string& vm,
                                    const Classification& cls,
                                    std::size_t limit);

/// (metric name, L_i) of the top three ranked metrics: the attribution a
/// cause_inferred span carries.
std::vector<std::pair<std::string, double>> cause_attribution(
    const Diagnosis::FaultyVm& faulty);

struct CauseInferenceConfig {
  /// How many top-ranked metrics to keep per faulty VM. Wide enough that
  /// a memory root cause is not crowded out of the list by the several
  /// CPU-flavoured symptom metrics (cpu_util, load1, load5, run_queue).
  std::size_t top_attributes = 6;
  /// Fraction of components that must show a recent change point to
  /// call the anomaly a workload change (paper: "all the application
  /// components"; a tolerance makes this robust to one noisy monitor).
  double workload_change_fraction = 1.0;
  /// A change point is "recent" within this many seconds.
  double recent_window_s = 60.0;
  CusumConfig cusum;
};

class CauseInference {
 public:
  using Config = CauseInferenceConfig;

  explicit CauseInference(std::vector<std::string> vm_names,
                          Config config = Config());

  /// Feeds one monitoring sample (workload-sensitive attribute streams
  /// drive the per-VM change-point detectors).
  void observe(const std::string& vm_name, double now,
               const AttributeVector& values);

  /// Builds the diagnosis from the per-VM classification results of the
  /// models that raised (confirmed) alerts.
  Diagnosis diagnose(
      const std::map<std::string, Classification>& alerting) const;

  /// Whether a workload change is suspected at `now`.
  bool workload_change_suspected(double now) const;

  const Config& config() const { return config_; }

 private:
  Config config_;
  std::vector<std::string> vm_names_;
  /// Per-VM change detector over the workload-sensitive attribute
  /// (network input reflects offered load on every component).
  std::map<std::string, CusumDetector> detectors_;
  std::map<std::string, double> last_change_time_;
};

}  // namespace prepare
