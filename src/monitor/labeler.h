// Automatic runtime data labeling (paper Section II-B):
//
//   "PREPARE supports automatic runtime data labeling by matching the
//    timestamps of system-level metric measurements and SLO violation
//    logs."
//
// A measurement sample is labeled abnormal iff the application's SLO was
// violated at the sample's timestamp. The labeler turns a MetricStore +
// SloLog pair into per-VM labeled datasets for training the classifiers.
#pragma once

#include <string>
#include <vector>

#include "monitor/attributes.h"
#include "monitor/metric_store.h"
#include "monitor/slo_log.h"

namespace prepare {

struct LabeledSample {
  double time = 0.0;
  AttributeVector values{};
  bool abnormal = false;
};

class Labeler {
 public:
  /// Labels every sample of `vm_name` in [t0, t1] against the SLO log.
  static std::vector<LabeledSample> label(const MetricStore& store,
                                          const SloLog& slo,
                                          const std::string& vm_name,
                                          double t0, double t1);

  /// label() as the parallel feature rows and labels that
  /// AnomalyPredictor::train takes; overwrites `rows` and `abnormal`.
  static void label_rows(const MetricStore& store, const SloLog& slo,
                         const std::string& vm_name, double t0, double t1,
                         std::vector<std::vector<double>>* rows,
                         std::vector<bool>* abnormal);

  /// Labels the full history of `vm_name`.
  static std::vector<LabeledSample> label_all(const MetricStore& store,
                                              const SloLog& slo,
                                              const std::string& vm_name);
};

}  // namespace prepare
