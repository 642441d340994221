#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "common/thread_pool.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

// Best of many short passes: on a shared host some pass lands in a quiet
// moment, and the peak is what a roofline is drawn against.
constexpr int kPasses = 20;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

double triad_gbps() {
  constexpr std::int64_t kElems = std::int64_t{2} << 20;  // 16 MiB per array
  std::vector<double> a(kElems, 0.0), b(kElems, 1.0), c(kElems, 2.0);
  const double scalar = 3.0;
  const std::int64_t grain = kElems / (4 * swat::num_threads());
  double best = 0.0;
  for (int pass = 0; pass < kPasses; ++pass) {
    const Clock::time_point t0 = Clock::now();
    swat::parallel_for(0, kElems, grain, [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) a[i] = b[i] + scalar * c[i];
    });
    const double s = seconds_since(t0);
    best = std::max(best, 24.0 * static_cast<double>(kElems) / s * 1e-9);
  }
  volatile double sink = a[kElems / 2];
  (void)sink;
  return best;
}

double fma_gflops() {
  constexpr int kLanes = 64;  // independent chains: covers latency x ports
  constexpr std::int64_t kIters = 4'000'000;
  const int threads = swat::num_threads();
  volatile float m_in = 0.9999999f;
  volatile float c_in = 1e-7f;
  const float m = m_in;
  const float c = c_in;
  double best = 0.0;
  std::vector<float> sums(static_cast<std::size_t>(threads), 0.0f);
  for (int pass = 0; pass < kPasses; ++pass) {
    const Clock::time_point t0 = Clock::now();
    swat::parallel_for(0, threads, 1, [&](std::int64_t t0i, std::int64_t t1i) {
      for (std::int64_t t = t0i; t < t1i; ++t) {
        float acc[kLanes];
        for (int j = 0; j < kLanes; ++j) acc[j] = static_cast<float>(j);
        for (std::int64_t it = 0; it < kIters; ++it) {
          for (int j = 0; j < kLanes; ++j) acc[j] = acc[j] * m + c;
        }
        float s = 0.0f;
        for (int j = 0; j < kLanes; ++j) s += acc[j];
        sums[static_cast<std::size_t>(t)] = s;
      }
    });
    const double s = seconds_since(t0);
    const double flops = 2.0 * kLanes * static_cast<double>(kIters) * threads;
    best = std::max(best, flops / s * 1e-9);
  }
  volatile float sink = sums[0];
  (void)sink;
  return best;
}

}  // namespace perfbench
