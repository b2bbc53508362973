#include "reference.h"

#include <algorithm>

#include "bench.h"

namespace perfbench {

namespace {

constexpr std::size_t kChains = 64;
constexpr std::size_t kSymbols = 8;
constexpr std::size_t kPairs = kSymbols * kSymbols;
constexpr std::size_t kSteps = 24;

std::uint64_t xorshift(std::uint64_t* s) {
  *s ^= *s << 13;
  *s ^= *s >> 7;
  *s ^= *s << 17;
  return *s;
}

}  // namespace

ReferenceKernel::ReferenceKernel()
    : probs_(kChains * kPairs * kSymbols),
      state_(kPairs),
      next_(kPairs),
      out_(kSymbols),
      rng_(0x9E3779B97F4A7C15ULL) {
  // Smoothed transition rows, as the library trains them: a few likely
  // successors, the rest small but non-zero.
  for (std::size_t row = 0; row < kChains * kPairs; ++row) {
    double* p = &probs_[row * kSymbols];
    double sum = 0.0;
    for (std::size_t c = 0; c < kSymbols; ++c) {
      p[c] = xorshift(&rng_) % 4 == 0
                 ? static_cast<double>(xorshift(&rng_) % 1000) + 1.0
                 : 0.01;
      sum += p[c];
    }
    for (std::size_t c = 0; c < kSymbols; ++c) p[c] /= sum;
  }
}

double ReferenceKernel::run(std::size_t units) {
  const double start = cpu_seconds();
  double acc = 0.0;
  for (std::size_t u = 0; u < units; ++u) {
    const double* probs = &probs_[(xorshift(&rng_) % kChains) * kPairs * kSymbols];
    std::fill(state_.begin(), state_.end(), 0.0);
    state_[xorshift(&rng_) % kPairs] = 1.0;
    for (std::size_t step = 0; step < kSteps; ++step) {
      std::fill(next_.begin(), next_.end(), 0.0);
      for (std::size_t a = 0; a < kSymbols; ++a)
        for (std::size_t b = 0; b < kSymbols; ++b) {
          const double mass = state_[a * kSymbols + b];
          if (mass <= 0.0) continue;
          const double* row = probs + (a * kSymbols + b) * kSymbols;
          double* dst = &next_[b * kSymbols];
          for (std::size_t c = 0; c < kSymbols; ++c) dst[c] += mass * row[c];
        }
      std::swap(state_, next_);
    }
    std::fill(out_.begin(), out_.end(), 0.0);
    for (std::size_t a = 0; a < kSymbols; ++a)
      for (std::size_t b = 0; b < kSymbols; ++b)
        out_[b] += state_[a * kSymbols + b];
    acc += out_[u % kSymbols];
  }
  sink_ += acc;  // keeps the work observable
  return cpu_seconds() - start;
}

}  // namespace perfbench
