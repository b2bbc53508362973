// Structured trace export: metric snapshots as JSONL.
//
// One JSON object per line, schema version kObsSchemaVersion, validated
// offline by tools/check_obs_schema.py. A full run trace is composed of
//
//   1. one `run` header record (write_run_header),
//   2. the event log (EventLog::to_jsonl, sim layer),
//   3. metric + histogram snapshot records (write_metrics_jsonl).
//
// Record shapes (flat key/value only):
//
//   {"record":"run","schema":1,"run_id":ID,"sim_time_end":T,<labels...>}
//   {"record":"event","run_id":ID,"t":T,"kind":K,"subject":S,"detail":D}
//   {"record":"metric","run_id":ID,"t":T,"name":N,"type":"counter"|
//    "gauge","value":V}
//   {"record":"histogram","run_id":ID,"t":T,"name":N,"count":C,"sum":S,
//    "min":m,"max":M,"p50":…,"p90":…,"p99":…}
//
// Later versions add record families and leave earlier records
// unchanged: v2 `span` (obs/span_tracer.h), v3 `calibration` and
// `model_drift` (obs/model_introspect.h), v4 `episode_evidence`
// (obs/flight_recorder.h), emitted in that order between the event and
// metric sections. DESIGN.md section 9 gives each record's shape;
// tools/check_obs_schema.py validates all four versions.
#pragma once

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace prepare {
namespace obs {

inline constexpr int kObsSchemaVersion = 4;

/// Run identity and context for the header record. `labels` are extra
/// string fields merged into the header (app, fault, scheme, seed, …);
/// label keys must not collide with the fixed header fields.
struct RunInfo {
  std::string run_id;
  double sim_time_end = 0.0;
  std::vector<std::pair<std::string, std::string>> labels;
};

void write_run_header(std::ostream& os, const RunInfo& info);

/// Snapshots every counter, gauge, and histogram in the registry as one
/// record per metric, stamped with `sim_time`.
void write_metrics_jsonl(std::ostream& os, const MetricsRegistry& registry,
                         const std::string& run_id, double sim_time);

}  // namespace obs
}  // namespace prepare
