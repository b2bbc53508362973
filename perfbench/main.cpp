// PREPARE benchmark entry point.
//
//   prepare_perfbench --workload paper_mix|consolidated|trace_accuracy
//                     --seed N --seconds S --trace 0|1
//                     [--expect-checksum HEX]
//
// Prints a context line (config fingerprint, build, host), a detail line
// (workload-specific figures, decision checksum, failed checks) and, as
// the last line, the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of
// the traced run (--trace 1). Exits non-zero when any output check
// fails. perfbench/run.py builds this binary and runs it.
#include <sys/resource.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.h"
#include "common/logging.h"
#include "obs/json.h"

namespace perfbench {

namespace {

CountingBuf g_log_buf;
std::ostream g_log_stream(&g_log_buf);

/// One line per workload: why it is in the benchmark.
const char* workload_why(const std::string& workload) {
  if (workload == "paper_mix")
    return "the paper's headline grid; per-VM Markov look-ahead dominates "
           "each round, simulation and monitoring are small, no obs sinks";
  if (workload == "consolidated")
    return "24 VMs on a nearly full shared cluster with the full operator "
           "stack; obs, escalation, failed migration placement and logging "
           "do real work";
  if (workload == "trace_accuracy")
    return "offline Figs. 10-12 method; model training is a large share and "
           "look-ahead is only 1-9 steps, so training changes show here";
  return nullptr;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto value = line.substr(colon + 1);
        value.erase(0, value.find_first_not_of(' '));
        return value;
      }
    }
  return "unknown";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  return "\"" + prepare::obs::json_escape(s) + "\"";
}

std::string metrics_object(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_str(metrics[i].name) + ": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": " +
           json_str(metrics[i].unit) + "}";
  }
  return out + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: prepare_perfbench --workload "
               "paper_mix|consolidated|trace_accuracy --seed N --seconds S "
               "--trace 0|1 [--expect-checksum HEX]\n");
  return 2;
}

}  // namespace

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::size_t log_lines() { return g_log_buf.lines(); }

void add_stage_detail(const std::string& name, const StageFigures& stage,
                      Report* report) {
  report->add_detail(name + ".calls", stage.calls, "count");
  report->add_detail(name + ".busy_s", stage.busy_s, "s");
  report->add_detail(name + ".p50_us", stage.p50_us, "us");
  report->add_detail(name + ".p99_us", stage.p99_us, "us");
}

void add_end_to_end_metrics(const PassMedians& passes,
                            const SetupTimes& setup, Report* report) {
  report->add("vm_ticks_per_s", passes.vm_ticks_rate(), "VM-ticks/s");
  report->add("evals_per_s", passes.evals_rate(), "1/s");
  report->add("round_p50_us_per_vm", passes.round_p50(), "us");
  report->add("round_p99_us_per_vm", passes.round_p99(), "us");
  report->add("train_p50_ms_per_vm", passes.train_p50(), "ms");
  report->add("setup_s", setup.scaled_median(), "s");
  report->add_detail("passes", static_cast<double>(passes.passes()), "count");
  report->add_detail("rounds_per_pass",
                     static_cast<double>(passes.rounds_per_pass()), "count");
  report->add_detail("measured_cpu_s", passes.cpu_s(), "s");
  // The host's speed against the nominal one (1.25 = 25% slower) and
  // figures before scaling.
  report->add_detail("host_slowdown", 1.0 / passes.scale(), "ratio");
  report->add_detail("raw.vm_ticks_per_s", passes.raw_vm_ticks_rate(),
                     "VM-ticks/s");
  report->add_detail("raw.round_p50_us_per_vm", passes.raw_round_p50(), "us");
  report->add_detail("raw.setup_s", setup.raw_median(), "s");
  // Each pass's p99 needs at least ten samples beyond it.
  report->check(passes.rounds_per_pass() >= 1000,
                "fewer than 1000 round samples in a pass");
}

void emit_layer_metrics(const LayerFigures& l, Report* report) {
  auto stage = [&](const std::string& name, const StageFigures& s) {
    report->add(name + ".calls", s.calls, "count");
    report->add(name + ".busy_s", s.busy_s, "s");
    report->add(name + ".p50_us", s.p50_us, "us");
    report->add(name + ".p99_us", s.p99_us, "us");
  };
  report->add("apps.step.busy_s", l.apps_step.seconds, "s");
  report->add("faults.apply.busy_s", l.faults_apply.seconds, "s");
  report->add("monitor.sample.calls", static_cast<double>(l.monitor_sample.calls),
              "count");
  report->add("monitor.sample.busy_s", l.monitor_sample.seconds, "s");
  report->add("core.train.calls", static_cast<double>(l.train.calls), "count");
  report->add("core.train.busy_s", l.train.seconds, "s");
  report->add("core.on_sample.calls", static_cast<double>(l.on_sample.calls),
              "count");
  report->add("core.on_sample.busy_s", l.on_sample.seconds, "s");
  stage("models.discretize", l.discretize);
  stage("models.markov_lookahead", l.markov_lookahead);
  stage("models.tan_classify", l.tan_classify);
  stage("core.alarm_filter", l.alarm_filter);
  report->add("core.unattributed_s", l.unattributed_s, "s");
  report->add("core.alerts.raw", l.alerts_raw, "count");
  report->add("core.alerts.confirm_ratio",
              l.alerts_raw > 0.0 ? l.alerts_confirmed / l.alerts_raw : 0.0,
              "ratio");
  report->add("core.prevention.actions", l.prevention_actions, "count");
  report->add("core.prevention.validation_fail_ratio",
              l.prevention_actions > 0.0
                  ? l.validations_failed / l.prevention_actions
                  : 0.0,
              "ratio");
  report->add("sim.migrations_skipped", l.migrations_skipped, "count");
  report->add("sim.events_dropped", l.events_dropped, "count");
  report->add("common.log_lines", l.log_lines, "count");
  report->add("obs.export.bytes", l.export_bytes, "bytes");
  report->add("obs.bundles", l.bundles, "count");
  report->add("obs.bundles_dropped", l.bundles_dropped, "count");
  report->add("core.replay.calls", l.replay_calls, "count");
  report->add("trace.overhead_ratio", l.trace_overhead_ratio, "ratio");
}

int main_impl(int argc, char** argv) {
  Options options;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = workload_why(value) != nullptr;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && options.seconds > 0;
    } else if (arg == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (arg == "--expect-checksum") {
      options.expect_checksum = value;
    } else {
      return usage();
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    return usage();

#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  std::fprintf(stderr,
               "prepare_perfbench: refusing to report from an unoptimised or "
               "assertion-enabled build (build type '%s')\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif

  // Library log records are formatted as usual but land in a counting
  // sink; the run pays for formatting, not for a terminal.
  prepare::Logger::set_level(prepare::LogLevel::kWarn);
  prepare::Logger::set_sink(&g_log_stream);

  std::ostringstream context;
  context << "{\"context\": {\"workload\": " << json_str(options.workload)
          << ", \"why\": " << json_str(workload_why(options.workload))
          << ", \"seed\": " << options.seed
          << ", \"seconds\": " << number(options.seconds)
          << ", \"trace\": " << (options.trace ? 1 : 0)
          << ", \"build_type\": " << json_str(PERFBENCH_BUILD_TYPE)
          << ", \"compiler\": " << json_str(__VERSION__)
          << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
          << ", \"cpu_model\": " << json_str(cpu_model()) << "}}";
  std::printf("%s\n", context.str().c_str());
  std::fflush(stdout);

  Report report;
  if (options.workload == "paper_mix")
    report = run_paper_mix(options);
  else if (options.workload == "consolidated")
    report = run_consolidated(options);
  else
    report = run_trace_accuracy(options);
  if (!options.trace) report.add("peak_rss_mb", peak_rss_mb(), "MB");
  if (!options.expect_checksum.empty())
    report.check(hex64(report.checksum) == options.expect_checksum,
                 "decision checksum " + hex64(report.checksum) +
                     " differs from the recorded " + options.expect_checksum);

  // The fingerprint covers everything that defines the measured work, so
  // results with different configs are never compared.
  Checksum fingerprint;
  fingerprint.str(options.workload);
  fingerprint.u64(options.seed);
  fingerprint.f64(options.seconds);
  fingerprint.u64(options.trace ? 1 : 0);
  std::string config = "{";
  for (const auto& [key, value] : report.config) {
    fingerprint.str(key);
    fingerprint.str(value);
    config += (config.size() > 1 ? ", " : "") + json_str(key) + ": " +
              json_str(value);
  }
  config += "}";
  std::string failures = "[";
  for (std::size_t i = 0; i < report.failures.size(); ++i)
    failures += (i > 0 ? ", " : "") + json_str(report.failures[i]);
  failures += "]";
  std::printf(
      "{\"detail\": {\"fingerprint\": \"%s\", \"config\": %s, "
      "\"checksum\": \"%s\", \"failures\": %s, \"metrics\": %s}}\n",
      hex64(fingerprint.value()).c_str(), config.c_str(),
      hex64(report.checksum).c_str(), failures.c_str(),
      metrics_object(report.detail).c_str());
  for (const auto& failure : report.failures)
    std::fprintf(stderr, "prepare_perfbench: check failed: %s\n",
                 failure.c_str());

  const bool correct = report.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", report.attempted, report.failed,
              metrics_object(report.metrics).c_str());
  std::fflush(stdout);
  prepare::Logger::set_sink(&std::cerr);
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::main_impl(argc, argv); }
