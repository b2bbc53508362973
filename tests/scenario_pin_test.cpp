// Exact pin of whole management runs under the reactive baseline and
// under PREPARE.
//
// Each constant is an FNV-1a digest (or IEEE-754 bit pattern) of one
// seeded run_scenario(): every EventLog record (time bits, kind, subject,
// detail) in order, the event count, violation_time and
// violation_time_total, and — for the traced runs — the span tracer's
// JSONL export. They were recorded before the two controllers' copies of
// the SLO-violated diagnosis, the per-round observe loop and the train
// loop were merged into shared AnomalyManager helpers, and pin that
// merge (and any later controller refactor) to the same decisions.
//
// The full-stack rows attach every sink at once (registry, span tracer,
// introspector, flight recorder) and also pin the evidence and
// introspection JSONL exports and every counter, gauge and sim-time
// histogram (name plus value bits; the wall-time stage.* histograms are
// left out). They were recorded before the decision reporting moved
// into one DecisionSinks fan-out, and pin that move.
#include <bit>
#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/model_introspect.h"
#include "obs/span_tracer.h"

namespace prepare {
namespace {

struct ScenarioPin {
  const char* name;
  AppKind app;
  FaultKind fault;
  Scheme scheme;
  std::uint64_t seed;
  bool traced;
  bool full_stack = false;  ///< registry + introspector + recorder too
};

struct Pinned {
  std::uint64_t events;
  std::size_t event_count;
  std::uint64_t violation_time;
  std::uint64_t violation_time_total;
  std::uint64_t spans;  ///< 0 for untraced runs
  /// Full-stack rows only (0 otherwise).
  std::uint64_t evidence = 0;
  std::uint64_t introspection = 0;
  std::uint64_t metrics = 0;
};

struct PinnedRun {
  ScenarioPin scenario;
  Pinned want;
};

// The trailing comments read violation_time / violation_time_total.
const PinnedRun kRuns[] = {
    {{"systems_leak_reactive", AppKind::kSystemS,
      FaultKind::kMemoryLeak, Scheme::kReactive, 1, false},
     {0x8ea8ba50048cc749, 68, 0x4010000000000000,
      0x4066e00000000000, 0x0000000000000000}},  // 4 s / 183 s
    {{"systems_leak_prepare", AppKind::kSystemS,
      FaultKind::kMemoryLeak, Scheme::kPrepare, 1, false},
     {0x41761501b78d1ab4, 19, 0x0000000000000000,
      0x4066600000000000, 0x0000000000000000}},  // 0 s / 179 s
    {{"rubis_hog_reactive", AppKind::kRubis,
      FaultKind::kCpuHog, Scheme::kReactive, 2, false},
     {0x6924fc6bdc978268, 73, 0x4045800000000000,
      0x4076200000000000, 0x0000000000000000}},  // 43 s / 354 s
    {{"rubis_hog_prepare", AppKind::kRubis,
      FaultKind::kCpuHog, Scheme::kPrepare, 2, false},
     {0x4b670e9a13536a3c, 519, 0x403d000000000000,
      0x4075400000000000, 0x0000000000000000}},  // 29 s / 340 s
    // Both RUBiS leak runs reach the "no VM qualifies" branch of the
    // violation diagnosis and act on the single highest-scoring VM.
    {{"rubis_leak_reactive", AppKind::kRubis,
      FaultKind::kMemoryLeak, Scheme::kReactive, 3, false},
     {0x954cc73a7adde555, 11, 0x4014000000000000,
      0x4067c00000000000, 0x0000000000000000}},  // 5 s / 190 s
    {{"rubis_leak_prepare", AppKind::kRubis,
      FaultKind::kMemoryLeak, Scheme::kPrepare, 2, false},
     {0x6534a00d17ebb75d, 1017, 0x402e000000000000,
      0x406ca00000000000, 0x0000000000000000}},  // 15 s / 229 s
    {{"systems_bottleneck_reactive_traced", AppKind::kSystemS,
      FaultKind::kBottleneck, Scheme::kReactive, 3, true},
     {0xc7d09bbdfc548b99, 81, 0x4014000000000000,
      0x405ec00000000000, 0x12899f9664aa7159}},  // 5 s / 123 s
    {{"systems_bottleneck_prepare_traced", AppKind::kSystemS,
      FaultKind::kBottleneck, Scheme::kPrepare, 3, true},
     {0x8b008d19aecbadff, 1151, 0x0000000000000000,
      0x405d800000000000, 0xd51994ba181d8b58}},  // 0 s / 118 s
    {{"rubis_leak_prepare_full_stack", AppKind::kRubis,
      FaultKind::kMemoryLeak, Scheme::kPrepare, 2, true, true},
     {0x6534a00d17ebb75d, 1017, 0x402e000000000000, 0x406ca00000000000,
      0x6109e7d99c63b507, 0x607683e06d818024, 0x868f42850f89aa38,
      0x483ab7841d7fb662}},  // 15 s / 229 s
    // The reactive baseline drives no introspector or recorder: its
    // evidence and introspection exports are empty.
    {{"rubis_hog_reactive_full_stack", AppKind::kRubis,
      FaultKind::kCpuHog, Scheme::kReactive, 3, true, true},
     {0x5403b733a79633b5, 144, 0x4052c00000000000, 0x4078300000000000,
      0xa9d38cb17c713c7e, 0xa8c7f832281a39c5, 0xa8c7f832281a39c5,
      0x66eabe95ee58f83c}},  // 75 s / 387 s
};

/// FNV-1a over bytes.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 0x100000001b3ULL;
  }
  void word(std::uint64_t w) { bytes(&w, sizeof w); }
  void str(const std::string& s) {
    word(s.size());
    bytes(s.data(), s.size());
  }
};

Pinned run_pinned(const ScenarioPin& sp) {
  ScenarioConfig config;
  config.app = sp.app;
  config.fault = sp.fault;
  config.scheme = sp.scheme;
  config.seed = sp.seed;
  obs::MetricsRegistry registry;
  obs::SpanTracer tracer(sp.full_stack ? &registry : nullptr);
  obs::ModelIntrospect introspect(&registry);
  obs::FlightRecorder recorder(&registry);
  if (sp.traced) config.tracer = &tracer;
  if (sp.full_stack) {
    config.metrics = &registry;
    config.introspect = &introspect;
    config.recorder = &recorder;
  }
  const ScenarioResult r = run_scenario(config);
  Pinned got{};
  Digest events;
  for (const Event& e : r.events.events()) {
    events.word(std::bit_cast<std::uint64_t>(e.time));
    events.word(static_cast<std::uint64_t>(e.kind));
    events.str(e.subject);
    events.str(e.detail);
  }
  got.events = events.h;
  got.event_count = r.events.events().size();
  got.violation_time = std::bit_cast<std::uint64_t>(r.violation_time);
  got.violation_time_total =
      std::bit_cast<std::uint64_t>(r.violation_time_total);
  if (sp.traced) {
    std::ostringstream os;
    tracer.write_spans_jsonl(os, "pin");
    Digest spans;
    spans.str(os.str());
    got.spans = spans.h;
  }
  if (sp.full_stack) {
    std::ostringstream evidence, introspection;
    recorder.write_evidence_jsonl(evidence, "pin");
    introspect.write_introspection_jsonl(introspection, "pin");
    Digest d;
    d.str(evidence.str());
    got.evidence = d.h;
    d = Digest{};
    d.str(introspection.str());
    got.introspection = d.h;
    d = Digest{};
    for (const auto& [name, counter] : registry.counters()) {
      d.str(name);
      d.word(std::bit_cast<std::uint64_t>(counter.value()));
    }
    for (const auto& [name, gauge] : registry.gauges()) {
      d.str(name);
      d.word(std::bit_cast<std::uint64_t>(gauge.value()));
    }
    for (const auto& [name, hist] : registry.histograms()) {
      if (name.rfind("stage.", 0) == 0) continue;
      d.str(name);
      d.word(hist.count());
      d.word(std::bit_cast<std::uint64_t>(hist.sum()));
    }
    got.metrics = d.h;
  }
  return got;
}

// Keeps the 80-byte parameter dump out of the test listing.
void PrintTo(const PinnedRun& run, std::ostream* os) {
  *os << run.scenario.name;
}

class ScenarioPinTest : public ::testing::TestWithParam<PinnedRun> {};

TEST_P(ScenarioPinTest, RunMatchesPinnedDigests) {
  const PinnedRun& run = GetParam();
  const Pinned got = run_pinned(run.scenario);
  EXPECT_EQ(got.event_count, run.want.event_count);
  EXPECT_EQ(got.events, run.want.events);
  EXPECT_EQ(got.violation_time, run.want.violation_time);
  EXPECT_EQ(got.violation_time_total, run.want.violation_time_total);
  EXPECT_EQ(got.spans, run.want.spans);
  EXPECT_EQ(got.evidence, run.want.evidence);
  EXPECT_EQ(got.introspection, run.want.introspection);
  EXPECT_EQ(got.metrics, run.want.metrics);
}

INSTANTIATE_TEST_SUITE_P(
    Runs, ScenarioPinTest, ::testing::ValuesIn(kRuns),
    [](const ::testing::TestParamInfo<PinnedRun>& info) {
      return std::string(info.param.scenario.name);
    });

}  // namespace
}  // namespace prepare
