// Self-tests of the benchmark harness: the tail-percentile rule, per-seed
// request determinism, the bitwise output hash, closed-loop latency under
// client and server stalls, and span self-time subtraction. Build with the benchmark (perfbench/CMakeLists.txt)
// and run `ctest --test-dir <build>` or the perfbench_selftest binary.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "harness.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                     \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,       \
                   __LINE__, #cond);                                    \
      ++failures;                                                       \
    }                                                                   \
  } while (0)

using perfbench::Clock;

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void tail_rule() {
  // 1000 samples: the 11th largest, read at p99.0, has exactly 10 above it.
  const perfbench::Tail big = perfbench::tail_latency(one_to(1000));
  CHECK(big.value == 990.0);
  CHECK(std::abs(big.percentile - 99.0) < 1e-9);
  CHECK(big.samples == 1000);

  const perfbench::Tail hundred = perfbench::tail_latency(one_to(100));
  CHECK(hundred.value == 90.0);
  CHECK(std::abs(hundred.percentile - 90.0) < 1e-9);

  // 22 samples: index 11 is just above the median index, p54.5.
  const perfbench::Tail small = perfbench::tail_latency(one_to(22));
  CHECK(small.value == 12.0);
  CHECK(std::abs(small.percentile - 100.0 * 12.0 / 22.0) < 1e-9);

  // Too few samples for ten beyond anything above the median: the median.
  const perfbench::Tail tiny = perfbench::tail_latency(one_to(15));
  CHECK(tiny.value == 8.0);
  CHECK(tiny.percentile == 50.0);
  CHECK(perfbench::tail_latency({}).samples == 0);
}

void request_determinism() {
  const perfbench::RequestClass cls{16, 128, 1.5};
  bool same = true, differs = false;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const perfbench::Arrival a = perfbench::closed_loop_request(7, i, cls);
    const perfbench::Arrival b = perfbench::closed_loop_request(7, i, cls);
    const perfbench::Arrival c = perfbench::closed_loop_request(8, i, cls);
    same = same && a.tokens == b.tokens && a.input_seed == b.input_seed;
    differs = differs || a.tokens != c.tokens || a.input_seed != c.input_seed;
    CHECK(a.tokens >= cls.min_tokens && a.tokens <= cls.max_tokens);
    CHECK(i == 0 || a.input_seed != perfbench::closed_loop_request(7, i - 1, cls).input_seed);
  }
  CHECK(same);
  CHECK(differs);

  const std::uint64_t seed = perfbench::closed_loop_request(7, 0, cls).input_seed;
  const swat::MatrixF x = perfbench::make_input(seed, 4, 8);
  CHECK(x == perfbench::make_input(seed, 4, 8));
  CHECK(!(x == perfbench::make_input(seed + 1, 4, 8)));
  for (const float v : x.flat()) CHECK(std::abs(v) < 1.7321f);
}

void output_hash_is_bitwise() {
  const swat::MatrixF x = perfbench::make_input(11, 4, 8);
  swat::MatrixF y = x;
  CHECK(perfbench::output_hash(x) == perfbench::output_hash(y));
  std::uint32_t bits = 0;
  std::memcpy(&bits, &y.flat()[5], sizeof bits);
  bits ^= 1u;  // one ulp
  std::memcpy(&y.flat()[5], &bits, sizeof bits);
  CHECK(perfbench::output_hash(x) != perfbench::output_hash(y));
  swat::MatrixF z = x;
  z.reshape(8, 4);  // same bytes, another shape
  CHECK(perfbench::output_hash(x) != perfbench::output_hash(z));
}

void latency_under_stalls() {
  // Two clients for 0.3 s against a server that takes 20 ms per reply.
  // Building request 1 stalls its client for 200 ms: latency starts at
  // submit, so that stall is not charged, while the server's 20 ms is.
  constexpr double kServiceS = 0.02;
  const auto run = perfbench::run_closed_loop(
      Clock::now(), 0.3, 2,
      [](std::uint64_t i) {
        if (i == 1) std::this_thread::sleep_for(std::chrono::milliseconds(200));
        swat::InferenceRequest req;
        req.id = i;
        return req;
      },
      [](swat::InferenceRequest&& req) {
        return std::async(std::launch::async, [id = req.id] {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          swat::RequestResult r;
          r.id = id;
          return r;
        });
      },
      [](std::uint64_t, perfbench::Outcome&) {});
  CHECK(run.seconds >= 0.3);
  CHECK(run.outcomes.size() >= 8);  // ~15 from one client, 2 from the other
  for (std::size_t i = 0; i < run.outcomes.size(); ++i) {
    const perfbench::Outcome& o = run.outcomes[i];
    CHECK(o.served);
    CHECK(o.result.id == i);  // request i sits at index i
    CHECK(o.latency_s() >= kServiceS * 0.95);
    CHECK(o.submit_end_s >= o.submit_s && o.resolved_s >= o.submit_end_s);
  }
  CHECK(run.outcomes.size() > 1 && run.outcomes[1].submit_s >= 0.19);
  CHECK(run.outcomes.size() > 1 && run.outcomes[1].latency_s() < 0.19);
}

void span_self_time() {
  const Clock::time_point t0 = Clock::now();
  const auto at = [&](int ms) { return t0 + std::chrono::milliseconds(ms); };
  perfbench::Tracer tracer(t0);
  const std::uint64_t parent = tracer.reserve_id();
  const std::uint64_t c1 = tracer.record("child1", at(1), at(4), parent, 1, 0);
  tracer.record("grandchild", at(2), at(3), c1, 1, 0);
  tracer.record("child2", at(5), at(9), parent, 1, 0);
  tracer.record("parent", at(0), at(10), 0, 1, 0, -1, parent);
  tracer.record("other_root", at(0), at(2), 0, 2, 0);
  const std::vector<perfbench::Span> spans = tracer.spans();
  const std::vector<double> self = perfbench::self_seconds(spans);
  CHECK(spans.size() == 5);
  const double expect[] = {0.002, 0.001, 0.004, 0.003, 0.002};
  for (std::size_t i = 0; i < spans.size(); ++i) {
    CHECK(std::abs(self[i] - expect[i]) < 1e-9);
  }
  CHECK(tracer.recording_seconds() >= 0.0);
}

}  // namespace

int main() {
  tail_rule();
  request_determinism();
  output_hash_is_bitwise();
  latency_under_stalls();
  span_self_time();
  if (failures == 0) std::printf("perfbench self-tests passed\n");
  return failures == 0 ? 0 : 1;
}
