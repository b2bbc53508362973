// Ablation: TAN vs. naive Bayes as the anomaly classifier.
//
// The paper adopts TAN over its earlier naive Bayes classifier [10]
// because NB "cannot provide the metric attribution information
// accurately" (Section II-B). This bench measures both halves of that
// claim on recorded traces:
//  * classification accuracy (A_T / A_F at a 30 s look-ahead), and
//  * attribution quality — how often the top-ranked metric on the
//    ground-truth faulty VM is of the fault's resource kind (memory
//    metrics for a leak, CPU metrics for a hog).
#include <cstdio>

#include "accuracy_util.h"
#include "core/anomaly_predictor.h"
#include "monitor/labeler.h"

using namespace prepare;
using namespace prepare::bench;

namespace {

bool is_memory_metric(Attribute a) {
  return a == Attribute::kFreeMem || a == Attribute::kMemUtil ||
         a == Attribute::kPageFaults;
}
bool is_cpu_metric(Attribute a) {
  return a == Attribute::kCpuUtil || a == Attribute::kCpuResidual ||
         a == Attribute::kLoad1 || a == Attribute::kLoad5 ||
         a == Attribute::kRunQueue || a == Attribute::kCtxSwitches;
}

/// Fraction of in-violation samples where a metric of the fault's
/// resource kind appears among the top-3 attributed metrics on the
/// faulty VM — the ranking the actuator actually consumes. (At full
/// thrash the saturated-CPU *symptom* legitimately ranks first; what
/// matters is whether the memory root cause makes the actionable list.)
double attribution_hit_rate(const ScenarioResult& trace,
                            FaultKind fault, ClassifierKind classifier) {
  std::vector<std::string> names;
  for (std::size_t a = 0; a < kAttributeCount; ++a)
    names.push_back(attribute_name(static_cast<Attribute>(a)));
  PredictorConfig config;
  config.classifier = classifier;
  AnomalyPredictor predictor(names, config);
  std::vector<std::vector<double>> rows;
  std::vector<bool> abnormal;
  for (const auto& s :
       Labeler::label(trace.store, trace.slo, trace.faulty_vm, 0, 700)) {
    rows.emplace_back(s.values.begin(), s.values.end());
    abnormal.push_back(s.abnormal);
  }
  predictor.train(rows, abnormal);

  std::size_t checked = 0, hits = 0;
  const std::size_t total = trace.store.sample_count(trace.faulty_vm);
  for (std::size_t i = 0; i < total; ++i) {
    const double t = trace.store.sample_time(trace.faulty_vm, i);
    if (t <= 700.0) continue;
    const auto v = trace.store.sample(trace.faulty_vm, i);
    predictor.observe(std::vector<double>(v.begin(), v.end()));
    if (!trace.slo.violated_at(t)) continue;
    const auto cls = predictor.classify_current();
    ++checked;
    for (std::size_t a : Classifier::attribution_ranking(cls.impacts, 3)) {
      const auto attr = static_cast<Attribute>(a);
      if (fault == FaultKind::kMemoryLeak ? is_memory_metric(attr)
                                          : is_cpu_metric(attr)) {
        ++hits;
        break;
      }
    }
  }
  return checked > 0 ? static_cast<double>(hits) /
                           static_cast<double>(checked)
                     : 0.0;
}

}  // namespace

int main() {
  std::printf("ablation: TAN vs naive Bayes\n\n");
  CsvWriter csv(csv_path("abl_tan_vs_nb"),
                {"app", "fault", "classifier", "at_pct", "af_pct",
                 "attribution_hit_pct"});
  struct Case {
    AppKind app;
    FaultKind fault;
  };
  const Case cases[] = {
      {AppKind::kSystemS, FaultKind::kMemoryLeak},
      {AppKind::kRubis, FaultKind::kMemoryLeak},
      {AppKind::kRubis, FaultKind::kCpuHog},
  };
  std::printf("%-10s %-12s %-12s %7s %7s %18s\n", "app", "fault",
              "classifier", "A_T", "A_F", "attribution-hit");
  for (const Case& c : cases) {
    const auto trace = record_trace(c.app, c.fault);
    for (ClassifierKind kind :
         {ClassifierKind::kTan, ClassifierKind::kNaiveBayes}) {
      AccuracyConfig acc;
      acc.predictor.classifier = kind;
      const auto result = evaluate_accuracy(
          trace.store, trace.slo, trace.store.vm_names(), 30.0, acc);
      const double hit = attribution_hit_rate(trace, c.fault, kind);
      const char* name =
          kind == ClassifierKind::kTan ? "TAN" : "naive-bayes";
      std::printf("%-10s %-12s %-12s %6.1f%% %6.1f%% %17.1f%%\n",
                  app_kind_name(c.app), fault_kind_name(c.fault), name,
                  result.a_t * 100.0, result.a_f * 100.0, hit * 100.0);
      csv.row(std::vector<std::string>{
          app_kind_name(c.app), fault_kind_name(c.fault), name,
          format_number(result.a_t * 100.0),
          format_number(result.a_f * 100.0), format_number(hit * 100.0)});
    }
  }
  std::printf("\n(expected: comparable classification accuracy, but TAN "
              "attribution pinpoints\n the fault's resource kind more "
              "often — the reason the paper adopts TAN)\n");
  global_meter.report("abl_tan_vs_nb");
  std::printf("-> %s\n", csv_path("abl_tan_vs_nb").c_str());
  return 0;
}
