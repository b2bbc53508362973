// Shared plumbing of the PREPARE benchmark (perfbench/): options, the
// report every workload fills, timing reductions, per-layer busy
// accounting, a decision checksum and a counting discard stream.
//
// The benchmark drives the library's public calls from outside and
// times them here; nothing in src/ is instrumented for it.
#pragma once

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "reference.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU time of the calling thread (s). The end-to-end timings use it:
/// the benchmark is single-threaded and never blocks, so on an idle host
/// it equals wall time, and on a shared host it leaves out the time
/// other tenants hold the core. Per-layer busy times stay on
/// steady_clock, the clock of the library's stage histograms.
inline double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// --trace 1: the traced run that reports per-layer metrics.
  bool trace = false;
  /// Recorded decision checksum to match (empty: not the recorded seed).
  std::string expect_checksum;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main(): the metrics of the final
/// result line, workload-specific figures for the detail line, the
/// config fingerprint fields, and the output-check tally.
struct Report {
  std::vector<Metric> metrics;
  /// Figures that only this workload measures (printed on the detail
  /// line; the result line carries only metrics every workload has).
  std::vector<Metric> detail;
  std::vector<std::pair<std::string, std::string>> config;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::uint64_t checksum = 0;
  std::vector<std::string> failures;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void add_detail(std::string name, double value, std::string unit) {
    detail.push_back({std::move(name), value, std::move(unit)});
  }
  void set_config(std::string key, std::string value) {
    config.emplace_back(std::move(key), std::move(value));
  }
  /// One output check: counts as an attempted operation, and as a
  /// failed one when `ok` is false.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 20) failures.push_back(what);
    }
  }
};

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// End-to-end timings of one pass over a workload's inputs, with the
/// reference work interleaved with it.
struct PassTiming {
  double cpu_s = 0.0;
  double vm_ticks = 0.0;
  double evaluations = 0.0;
  std::vector<double> round_us_per_vm;
  std::vector<double> train_ms_per_vm;
  HostSpeed speed;
};

/// Reduces a run's passes to its end-to-end timing metrics: each pass's
/// figures are scaled to the nominal host by the reference work of that
/// pass, and each metric is the median over the passes. Every pass is a
/// full pass over the same inputs, so every pass measures the same work.
/// The unscaled medians are kept for the detail line.
class PassMedians {
 public:
  void add(const PassTiming& pass) {
    const double scale = pass.speed.scale();
    rounds_ = passes() == 0 ? pass.round_us_per_vm.size()
                            : std::min(rounds_, pass.round_us_per_vm.size());
    cpu_s_ += pass.cpu_s;
    scale_.push_back(scale);
    raw_vm_ticks_rate_.push_back(pass.vm_ticks / pass.cpu_s);
    vm_ticks_rate_.push_back(pass.vm_ticks / (pass.cpu_s * scale));
    evals_rate_.push_back(pass.evaluations / (pass.cpu_s * scale));
    const double p50 = quantile(pass.round_us_per_vm, 0.5);
    raw_round_p50_.push_back(p50);
    round_p50_.push_back(p50 * scale);
    round_p99_.push_back(quantile(pass.round_us_per_vm, 0.99) * scale);
    train_p50_.push_back(median(pass.train_ms_per_vm) * scale);
  }
  std::size_t passes() const { return scale_.size(); }
  /// Fewest round samples in any pass (each pass's p99 needs >= 1000).
  std::size_t rounds_per_pass() const { return rounds_; }
  double cpu_s() const { return cpu_s_; }
  double scale() const { return median(scale_); }
  double raw_vm_ticks_rate() const { return median(raw_vm_ticks_rate_); }
  double raw_round_p50() const { return median(raw_round_p50_); }
  double vm_ticks_rate() const { return median(vm_ticks_rate_); }
  double evals_rate() const { return median(evals_rate_); }
  double round_p50() const { return median(round_p50_); }
  double round_p99() const { return median(round_p99_); }
  double train_p50() const { return median(train_p50_); }

 private:
  std::size_t rounds_ = 0;
  double cpu_s_ = 0.0;
  std::vector<double> scale_;
  std::vector<double> raw_vm_ticks_rate_;
  std::vector<double> raw_round_p50_;
  std::vector<double> vm_ticks_rate_;
  std::vector<double> evals_rate_;
  std::vector<double> round_p50_;
  std::vector<double> round_p99_;
  std::vector<double> train_p50_;
};

/// Set-up repetitions, each scaled by the reference work run alongside
/// it; setup_s is their median.
class SetupTimes {
 public:
  void add(double cpu_s, const HostSpeed& speed) {
    raw_.push_back(cpu_s);
    scaled_.push_back(cpu_s * speed.scale());
  }
  double scaled_median() const { return median(scaled_); }
  double raw_median() const { return median(raw_); }

 private:
  std::vector<double> raw_;
  std::vector<double> scaled_;
};

/// Adds the timing metrics every workload reports with --trace 0 and
/// the pass bookkeeping behind them.
void add_end_to_end_metrics(const PassMedians& passes,
                            const SetupTimes& setup, Report* report);

/// Busy time and call count of one layer, timed from outside its public
/// call. A null Busy* disables timing (the untraced end-to-end path).
struct Busy {
  std::size_t calls = 0;
  double seconds = 0.0;
};

template <typename F>
inline void timed(Busy* busy, F&& fn) {
  if (busy == nullptr) {
    fn();
    return;
  }
  const auto start = Clock::now();
  fn();
  busy->seconds += seconds_since(start);
  ++busy->calls;
}

/// One timed stage: call count, busy seconds and per-call percentiles.
struct StageFigures {
  double calls = 0.0;
  double busy_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// The per-layer figures of a traced run that every workload measures.
/// emit_layer_metrics() turns them into the result line's metrics, so
/// every workload prints the same names (BENCHMARK.json "per_layer").
struct LayerFigures {
  Busy apps_step;
  Busy faults_apply;
  Busy monitor_sample;
  Busy train;
  Busy on_sample;
  StageFigures discretize;
  StageFigures markov_lookahead;
  StageFigures tan_classify;
  StageFigures alarm_filter;
  /// on_sample busy time that no in-round stage covers.
  double unattributed_s = 0.0;
  // Counts over one pass of the workload's inputs.
  double alerts_raw = 0.0;
  double alerts_confirmed = 0.0;
  double prevention_actions = 0.0;
  double validations_failed = 0.0;
  double migrations_skipped = 0.0;
  double events_dropped = 0.0;
  double log_lines = 0.0;
  double export_bytes = 0.0;
  double bundles = 0.0;
  double bundles_dropped = 0.0;
  double replay_calls = 0.0;
  /// Untraced over traced work rate (1.1 = tracing costs 10%).
  double trace_overhead_ratio = 0.0;
};

void emit_layer_metrics(const LayerFigures& layers, Report* report);
void add_stage_detail(const std::string& name, const StageFigures& stage,
                      Report* report);

/// FNV-1a over the bytes the decision checksum covers.
class Checksum {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ULL;
    }
  }
  void str(const std::string& s) {
    bytes(s.data(), s.size());
    u64(s.size());
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

std::string hex64(std::uint64_t v);

/// Stream buffer that discards what it is given and counts bytes and
/// newline-terminated lines: the log sink (the run pays for message
/// formatting, not for a terminal) and the JSONL export target.
class CountingBuf : public std::streambuf {
 public:
  std::size_t lines() const { return lines_; }
  std::size_t bytes() const { return bytes_; }

 protected:
  int_type overflow(int_type c) override {
    if (traits_type::eq_int_type(c, traits_type::eof()))
      return traits_type::not_eof(c);
    ++bytes_;
    if (traits_type::to_char_type(c) == '\n') ++lines_;
    return c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    bytes_ += static_cast<std::size_t>(n);
    lines_ += static_cast<std::size_t>(std::count(s, s + n, '\n'));
    return n;
  }

 private:
  std::size_t lines_ = 0;
  std::size_t bytes_ = 0;
};

/// Lines written through the process log sink so far (common.log_lines).
std::size_t log_lines();

Report run_paper_mix(const Options& options);
Report run_consolidated(const Options& options);
Report run_trace_accuracy(const Options& options);

}  // namespace perfbench
