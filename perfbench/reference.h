// Host-speed reference of the PREPARE benchmark.
//
// The benchmark runs on a shared host whose speed drifts by tens of
// percent over minutes, and thread CPU time does not leave that drift
// out: other tenants share the cores and caches. Every measured pass
// therefore interleaves slices of a fixed reference kernel with its work
// items, and the end-to-end timings are scaled to a nominal host on
// which one reference unit takes kReferenceUnitS. The kernel shares no
// code with src/, so a change to the program moves the scaled figures
// exactly as it moves the raw ones; only the host's drift cancels. The
// raw figures stay on the detail line.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// CPU seconds of one reference unit on the nominal host. The scaled
/// timings read as raw timings on a host this fast.
constexpr double kReferenceUnitS = 10e-6;
/// Reference work run after each timed work item, as a share of the
/// item's measured time.
constexpr double kReferenceShare = 0.1;

/// Fixed work shaped like the library's hottest loop: one unit is a
/// 24-step look-ahead of a 2-dependent Markov chain over 8 symbols, on
/// one of 64 fixed chains. A frozen copy of the algorithm, not a call
/// into src/, so it stays the same work whatever the program does. Work
/// of this shape slows with the host as the program does; a generic
/// mix of arithmetic, table reads and sorting tracked only about half
/// of the program's drift.
class ReferenceKernel {
 public:
  ReferenceKernel();
  /// Runs `units` units of work and returns their thread CPU seconds.
  double run(std::size_t units);

 private:
  std::vector<double> probs_;
  std::vector<double> state_, next_, out_;
  std::uint64_t rng_;
  double sink_ = 0.0;
};

/// Reference work measured alongside some timed work.
struct HostSpeed {
  double reference_s = 0.0;
  double units = 0.0;

  /// Runs reference work worth kReferenceShare of `work_s`.
  void follow(ReferenceKernel* kernel, double work_s) {
    const auto n = static_cast<std::size_t>(
        std::ceil(work_s * kReferenceShare / kReferenceUnitS));
    reference_s += kernel->run(n);
    units += static_cast<double>(n);
  }
  /// Nominal over measured reference time: multiply a raw time by it to
  /// get the time on the nominal host (1.0 when nothing was measured).
  double scale() const {
    return reference_s > 0.0 ? kReferenceUnitS * units / reference_s : 1.0;
  }
};

}  // namespace perfbench
