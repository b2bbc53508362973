// Runtime allocation check for the steady-state prediction path.
//
// This binary replaces the global operator new/delete with counting
// versions and asserts that warm AnomalyPredictor::predict_into calls
// allocate nothing: the plain look-ahead, the scored horizon path taken
// with an introspector attached, and decision-evidence capture; and that
// warm FlightRecorder::record_tick calls allocate nothing, into the ring
// alone and into an open episode capture. It is the runtime twin of
// tools/prepare_analyze.py's hot-path allocation proof, which needs
// libclang; this one runs with any compiler. No stage
// profiler is attached: a histogram's bucket vector may still grow the
// first time a slow call lands in a new bucket (the instruments'
// documented one-time exception in obs/metrics.cpp).
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/anomaly_predictor.h"
#include "obs/flight_recorder.h"
#include "obs/model_introspect.h"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

namespace {
// Kept out of line: once GCC inlines a replacement delete into a caller,
// it sees free() applied to an operator-new pointer and warns
// -Wmismatched-new-delete, though both sides here are malloc/free.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}

namespace prepare {
namespace {

constexpr std::size_t kFeatures = 13;  // one VM's attribute count
constexpr TickIndex kHorizon{24};      // the paper's 2-minute look-ahead
constexpr int kWarm = 3;
constexpr int kCalls = 50;

std::vector<std::string> feature_names() {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < kFeatures; ++i)
    names.push_back("attr" + std::to_string(i));
  return names;
}

/// A seeded trace whose later third is labeled abnormal and drifts
/// upward, so the classifier has both classes to learn.
std::vector<std::vector<double>> trace_rows(std::size_t n,
                                            std::vector<bool>* abnormal) {
  Rng rng(17);
  std::vector<std::vector<double>> rows;
  for (std::size_t t = 0; t < n; ++t) {
    const bool bad = t >= 2 * n / 3;
    std::vector<double> row(kFeatures);
    for (std::size_t i = 0; i < kFeatures; ++i)
      row[i] = 10.0 * static_cast<double>(i + 1) +
               (bad ? 4.0 * static_cast<double>(t - 2 * n / 3) : 0.0) +
               rng.gaussian(0.0, 2.0);
    rows.push_back(std::move(row));
    if (abnormal != nullptr) abnormal->push_back(bad);
  }
  return rows;
}

/// Trains a predictor, streams a few runtime samples through observe(),
/// then returns the allocations made by kCalls predict_into calls into
/// one reused Result after kWarm warm-up calls.
std::size_t steady_state_allocations(AnomalyPredictor* p, bool with_horizon) {
  std::vector<bool> abnormal;
  const auto rows = trace_rows(240, &abnormal);
  p->train(rows, abnormal);
  for (const auto& row : trace_rows(12, nullptr)) p->observe(row);
  AnomalyPredictor::Result result;
  for (int i = 0; i < kWarm; ++i)
    p->predict_into(kHorizon, with_horizon, &result);
  const std::size_t before = g_allocations.load();
  for (int i = 0; i < kCalls; ++i)
    p->predict_into(kHorizon, with_horizon, &result);
  return g_allocations.load() - before;
}

TEST(AllocFree, CounterSeesAllocations) {
  const std::size_t before = g_allocations.load();
  auto* probe = new std::vector<double>(8);
  EXPECT_GT(g_allocations.load(), before);
  delete probe;
}

TEST(AllocFree, PlainPredictIntoAllocatesNothing) {
  AnomalyPredictor p(feature_names());
  EXPECT_EQ(steady_state_allocations(&p, /*with_horizon=*/false), 0u);
}

TEST(AllocFree, HorizonPathAllocatesNothing) {
  obs::ModelIntrospect introspect;
  AnomalyPredictor p(feature_names());
  p.set_introspect(&introspect);
  EXPECT_EQ(steady_state_allocations(&p, /*with_horizon=*/true), 0u);
}

TEST(AllocFree, EvidenceCaptureAllocatesNothing) {
  obs::ModelIntrospect introspect;
  AnomalyPredictor p(feature_names());
  p.set_evidence_capture(true);
  p.set_introspect(&introspect);
  EXPECT_EQ(steady_state_allocations(&p, /*with_horizon=*/false), 0u);
  EXPECT_EQ(steady_state_allocations(&p, /*with_horizon=*/true), 0u);
}

/// One VM's evidence: kFeatures attributes of 5 bins each and the
/// paper's look-ahead of horizon slots, every value a distinct number.
struct EvidenceBuffers {
  static constexpr std::size_t kBins = 5;
  std::vector<double> raw, impacts, dists, horizon;
  std::vector<std::size_t> observed, modes;

  EvidenceBuffers()
      : raw(kFeatures, 1.0),
        impacts(kFeatures, 0.25),
        dists(kFeatures * kBins, 0.2),
        horizon(kHorizon.value(), 0.5),
        observed(kFeatures, 1),
        modes(kFeatures, 2) {}

  obs::EvidenceLayout layout() const {
    obs::EvidenceLayout layout;
    layout.attributes = kFeatures;
    for (std::size_t a = 0; a <= kFeatures; ++a)
      layout.offsets.push_back(a * kBins);
    layout.attribute_names = feature_names();
    layout.horizon_steps = kHorizon.value();
    return layout;
  }

  obs::EvidenceFrame frame(double t) const {
    obs::EvidenceFrame f;
    f.t = t;
    f.abnormal = true;
    f.raw_alert = true;
    f.score = 1.5;
    f.decomposable = true;
    f.raw = raw.data();
    f.observed_row = observed.data();
    f.mode_row = modes.data();
    f.impacts = impacts.data();
    f.dists = dists.data();
    f.horizon_probs = horizon.data();
    f.horizon_len = horizon.size();
    return f;
  }
};

/// Allocations made by `calls` record_tick calls after kWarm warm-up
/// ones, starting at sim time `t0` (one tick per 5 s).
std::size_t record_allocations(obs::FlightRecorder* recorder,
                               std::size_t slot, const EvidenceBuffers& ev,
                               double t0, int calls) {
  for (int i = 0; i < kWarm; ++i)
    recorder->record_tick(slot, ev.frame(t0 + 5.0 * i));
  const std::size_t before = g_allocations.load();
  for (int i = kWarm; i < kWarm + calls; ++i)
    recorder->record_tick(slot, ev.frame(t0 + 5.0 * i));
  return g_allocations.load() - before;
}

TEST(AllocFree, RecordTickIntoTheRingAllocatesNothing) {
  obs::FlightRecorder recorder;
  const EvidenceBuffers ev;
  const std::size_t slot = recorder.register_vm("vm", ev.layout());
  // Several times round the ring.
  const int calls = static_cast<int>(3 * recorder.config().ring_ticks);
  EXPECT_EQ(record_allocations(&recorder, slot, ev, 0.0, calls), 0u);
  EXPECT_EQ(recorder.ticks_recorded(), static_cast<std::size_t>(kWarm + calls));
}

TEST(AllocFree, RecordTickIntoAnOpenCaptureAllocatesNothing) {
  obs::FlightRecorder recorder;
  const EvidenceBuffers ev;
  const std::size_t slot = recorder.register_vm("vm", ev.layout());
  record_allocations(&recorder, slot, ev, 0.0, kCalls);
  recorder.episode_opened("vm", "vm#1", 500.0);
  // Past max_bundle_ticks, so the truncation path is covered too.
  const int calls = static_cast<int>(recorder.config().max_bundle_ticks);
  EXPECT_EQ(record_allocations(&recorder, slot, ev, 505.0, calls), 0u);
  EXPECT_GT(recorder.truncated_ticks_total(), 0u);
}

}  // namespace
}  // namespace prepare
