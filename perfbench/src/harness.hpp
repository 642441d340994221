// Client-side primitives of the serving benchmark: seeded requests and
// inputs, latency statistics, the closed-loop clients, and an in-memory span
// recorder that writes Chrome trace-event JSON.
//
// Everything here is independent of which workload runs, so the self-tests
// (tests/selftest.cpp) exercise exactly the code the benchmark measures with.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <span>
#include <vector>

#include "runtime/server.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------ statistics ----

/// Linearly interpolated quantile `q` in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);

/// A tail latency with the percentile it was read at and its sample count.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< in percent, e.g. 99.5
  std::size_t samples = 0;
};

/// The highest percentile that still has at least `beyond` samples above it:
/// in the ascending sample x[0..n), x[n - beyond - 1], read at percentile
/// 100 * (n - beyond) / n. Small samples never report a "tail" below the
/// median: when n - beyond - 1 falls below the median index, the median is
/// reported at percentile 50.
Tail tail_latency(std::vector<double> values, std::size_t beyond = 10);

// ------------------------------------------------------------------ load ----

/// The kind of request a workload sends.
struct RequestClass {
  std::int64_t min_tokens = 1;  ///< lengths are uniform in [min, max]
  std::int64_t max_tokens = 1;
  double limit_s = 0.0;  ///< latency limit goodput and SLO are judged by
};

/// One request of a workload. `input_seed` names its (distinct) input.
struct Arrival {
  std::int64_t tokens = 0;
  std::uint64_t input_seed = 0;
};

/// SplitMix64 finalizer: derives independent streams from one seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// Request `index` of a closed loop: its length and input are pure
/// functions of the seed and the index, whichever client sends it.
Arrival closed_loop_request(std::uint64_t seed, std::uint64_t index,
                            const RequestClass& cls);

/// The token embeddings of one request: `rows` x `cols` values uniform in
/// [-sqrt(3), sqrt(3)) (unit variance), a pure function of `input_seed`.
swat::MatrixF make_input(std::uint64_t input_seed, std::int64_t rows,
                         std::int64_t cols);

/// 64-bit FNV-1a hash of a matrix's shape and bytes: two outputs hash equal
/// when they are bit-identical (up to a 2^-64 collision), so a served output
/// can be checked against the oracle after the window without keeping it.
std::uint64_t output_hash(const swat::MatrixF& m);

// ------------------------------------------------------- load generation ----

/// What the client saw of one request. Times are seconds from the window
/// start on the steady clock.
struct Outcome {
  double submit_s = 0.0;      ///< submit() called (the input was built)
  double submit_end_s = 0.0;  ///< submit() returned
  double resolved_s = 0.0;    ///< the client saw the ticket resolved
  bool served = false;          ///< false: shed, deadline-shed or failed
  swat::RequestResult result;  ///< valid when served
  bool output_ok = true;  ///< cleared by a ResolveFn whose output check failed
  std::uint64_t output_hash = 0;  ///< set by a ResolveFn that keeps one

  /// Send time to resolution: the latency a closed-loop user sees.
  double latency_s() const { return resolved_s - submit_s; }
};

/// Reads a resolved ticket into `outcome`: served with its result, or
/// rejected (the server ledgers why).
void resolve_ticket(swat::Server::Ticket& ticket, Outcome& outcome);

/// Builds request `index` (off the timed path: latency starts at submit).
using PrepareFn = std::function<swat::InferenceRequest(std::uint64_t index)>;
using SubmitFn = std::function<swat::Server::Ticket(swat::InferenceRequest&&)>;
/// Called on the client's thread once request `index` resolved.
using ResolveFn = std::function<void(std::uint64_t index, Outcome& outcome)>;

/// The outcomes of a closed-loop window, request i at index i.
struct ClosedLoopRun {
  std::vector<Outcome> outcomes;
  double seconds = 0.0;  ///< from `start` until the last client's last reply
};

/// Closed loop: `clients` threads each take the next request index from one
/// shared counter, build it, submit it and wait for the reply before taking
/// another, until `seconds` after `start`. Every request taken is finished,
/// so the indices run 0..n-1. An exception thrown by a callback is rethrown
/// here after every client stopped.
ClosedLoopRun run_closed_loop(Clock::time_point start, double seconds,
                              std::size_t clients, const PrepareFn& prepare,
                              const SubmitFn& submit,
                              const ResolveFn& on_resolved);

/// Peak resident set size of this process so far (VmHWM), in MiB; 0 where
/// /proc is unavailable.
double peak_rss_mib();

/// CPU time the hypervisor has taken from this machine's CPUs since boot
/// (the steal column of /proc/stat), in seconds; 0 where unavailable. On a
/// shared virtual machine this is what makes one run slower than the next.
double host_steal_seconds();

// ---------------------------------------------------------------- tracing ---

/// One timed call. Spans of one request (or one replayed batch) share
/// `group`; `parent` is 0 for a root.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t group = 0;
  int lane = 0;  ///< trace-viewer row: 0 client requests, 1 batch replay
  std::int64_t start_ns = 0;  ///< from the tracer's epoch
  std::int64_t end_ns = 0;
  std::int64_t batch_index = -1;

  double seconds() const { return 1e-9 * static_cast<double>(end_ns - start_ns); }
};

/// Self time of every span: its duration minus the summed durations of its
/// direct children. Children of a replayed call are separate calls made
/// after it, so they are subtracted by duration, not by interval overlap.
std::vector<double> self_seconds(std::span<const Span> spans);

/// Thread-safe in-memory span recorder. Recording cost is accumulated so the
/// benchmark can report what tracing itself took.
class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch = Clock::now()) : epoch_(epoch) {}

  /// A fresh span id, for a parent recorded after its children.
  std::uint64_t reserve_id();
  /// Record a finished span; returns its id (`id` 0 allocates one).
  std::uint64_t record(const char* name, Clock::time_point start,
                       Clock::time_point end, std::uint64_t parent,
                       std::uint64_t group, int lane,
                       std::int64_t batch_index = -1, std::uint64_t id = 0);

  std::vector<Span> spans() const;
  /// Seconds spent inside record() so far.
  double recording_seconds() const;
  /// Chrome trace-event JSON ("X" complete events, microseconds), loadable
  /// by Perfetto and chrome://tracing.
  void write_chrome_trace(std::ostream& os) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
  std::int64_t recording_ns_ = 0;
};

}  // namespace perfbench
