#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <fstream>
#include <numeric>
#include <ostream>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <unistd.h>
#include <utility>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

Tail tail_latency(std::vector<double> values, std::size_t beyond) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const std::size_t median_index = (n - 1) / 2;
  if (n > beyond && n - beyond - 1 > median_index) {
    tail.value = values[n - beyond - 1];
    tail.percentile =
        100.0 * static_cast<double>(n - beyond) / static_cast<double>(n);
  } else {
    tail.value = quantile(std::move(values), 0.5);
    tail.percentile = 50.0;
  }
  return tail;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

// Stream tags for mix_seed, so no two draws of one seed share a stream.
constexpr std::uint64_t kLengthStream = 3;
constexpr std::uint64_t kInputStream = 1ULL << 32;

}  // namespace

Arrival closed_loop_request(std::uint64_t seed, std::uint64_t index,
                            const RequestClass& cls) {
  std::mt19937_64 rng(mix_seed(seed, kLengthStream + kInputStream + index));
  Arrival a;
  a.tokens = std::uniform_int_distribution<std::int64_t>(cls.min_tokens,
                                                         cls.max_tokens)(rng);
  a.input_seed = mix_seed(seed, kInputStream + index);
  return a;
}

swat::MatrixF make_input(std::uint64_t input_seed, std::int64_t rows,
                         std::int64_t cols) {
  swat::MatrixF m(rows, cols);
  // Bounded values keep every scaled attention logit far inside the fused
  // kernel's exp range (attention/fused.hpp), so no request can fail on
  // its input.
  constexpr double kHalfWidth = 1.7320508075688772;  // sqrt(3): unit variance
  std::uint64_t state = input_seed;
  for (float& x : m.flat()) {
    state += 0x9e3779b97f4a7c15ULL;
    const std::uint64_t bits = mix_seed(state, 0) >> 11;  // 53 random bits
    const double u = static_cast<double>(bits) * 0x1.0p-53;
    x = static_cast<float>((2.0 * u - 1.0) * kHalfWidth);
  }
  return m;
}

std::uint64_t output_hash(const swat::MatrixF& m) {
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&](const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * kPrime;
  };
  const std::int64_t shape[2] = {m.rows(), m.cols()};
  mix(shape, sizeof shape);
  mix(m.data(), sizeof(float) * static_cast<std::size_t>(m.size()));
  return h;
}

void resolve_ticket(swat::Server::Ticket& ticket, Outcome& o) {
  try {
    o.result = ticket.get();
    o.served = true;
  } catch (const std::exception&) {
    o.served = false;
  }
}

ClosedLoopRun run_closed_loop(Clock::time_point start, double seconds,
                              std::size_t clients, const PrepareFn& prepare,
                              const SubmitFn& submit,
                              const ResolveFn& on_resolved) {
  const auto since_start = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  std::atomic<std::uint64_t> next{0};
  std::vector<std::vector<std::pair<std::uint64_t, Outcome>>> done(clients);
  std::vector<std::exception_ptr> errors(clients);
  const auto client = [&](std::size_t c) {
    try {
      while (since_start() < seconds) {
        const std::uint64_t i = next++;
        swat::InferenceRequest request = prepare(i);
        Outcome o;
        o.submit_s = since_start();
        swat::Server::Ticket ticket = submit(std::move(request));
        o.submit_end_s = since_start();
        ticket.wait();
        o.resolved_s = since_start();
        resolve_ticket(ticket, o);
        on_resolved(i, o);
        done[c].emplace_back(i, std::move(o));
      }
    } catch (...) {
      errors[c] = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) threads.emplace_back(client, c);
  for (std::thread& t : threads) t.join();

  ClosedLoopRun run;
  run.seconds = since_start();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  run.outcomes.resize(next.load());
  for (auto& mine : done) {
    for (auto& [i, o] : mine) run.outcomes[i] = std::move(o);
  }
  return run;
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(4096, '\n');
  }
  return 0.0;
}

double host_steal_seconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double field[8] = {};
  if (!(stat >> cpu) || cpu != "cpu") return 0.0;
  for (double& f : field) stat >> f;
  const long ticks = sysconf(_SC_CLK_TCK);
  return stat && ticks > 0 ? field[7] / static_cast<double>(ticks) : 0.0;
}

std::vector<double> self_seconds(std::span<const Span> spans) {
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].seconds();
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const auto it = index_of.find(s.parent);
    if (it != index_of.end()) self[it->second] -= s.seconds();
  }
  return self;
}

std::uint64_t Tracer::reserve_id() {
  std::lock_guard lock(mutex_);
  return next_id_++;
}

std::uint64_t Tracer::record(const char* name, Clock::time_point start,
                             Clock::time_point end, std::uint64_t parent,
                             std::uint64_t group, int lane,
                             std::int64_t batch_index, std::uint64_t id) {
  const Clock::time_point t0 = Clock::now();
  const auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  };
  Span s;
  s.name = name;
  s.parent = parent;
  s.group = group;
  s.lane = lane;
  s.start_ns = ns(start);
  s.end_ns = ns(end);
  s.batch_index = batch_index;
  std::lock_guard lock(mutex_);
  s.id = id != 0 ? id : next_id_++;
  spans_.push_back(s);
  recording_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - t0)
                       .count();
  return s.id;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

double Tracer::recording_seconds() const {
  std::lock_guard lock(mutex_);
  return 1e-9 * static_cast<double>(recording_ns_);
}

void Tracer::write_chrome_trace(std::ostream& os) const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = self_seconds(all);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    os << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
       << s.lane << ",\"ts\":" << 1e-3 * static_cast<double>(s.start_ns)
       << ",\"dur\":" << 1e-3 * static_cast<double>(s.end_ns - s.start_ns)
       << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"group\":" << s.group << ",\"batch_index\":" << s.batch_index
       << ",\"self_us\":" << 1e6 * self[i] << "}}"
       << (i + 1 < all.size() ? ",\n" : "\n");
  }
  os << "]}\n";
}

}  // namespace perfbench
