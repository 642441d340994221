// The serving benchmark: fixed, seeded workloads against swat::Server,
// measured from the client side. See perfbench/README.md for the workloads,
// the metrics and which layer metric should move which end-to-end metric.
//
// Usage:
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <chrome-trace.json>]
//
// --trace 0 measures the end-to-end metrics. --trace 1 runs the same
// workload with client-side spans recorded, replays a sample of the batches
// the server formed through the public layer entry points, and reports the
// per-layer metrics. Either way the last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"}, and the exit code is
// non-zero when an output, a ledger or the traced replay's accounting is
// wrong.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "attention/fused.hpp"
#include "common/thread_pool.hpp"
#include "harness.hpp"
#include "probes.hpp"
#include "runtime/server.hpp"

namespace {

using perfbench::Arrival;
using perfbench::Clock;
using perfbench::Outcome;
using perfbench::RequestClass;
using swat::Priority;

/// Kernel threads unless SWAT_THREADS says otherwise. Half of a 4-core
/// host: the client and scheduler threads get cores of their own, and a
/// fork-join over fewer virtual CPUs loses less to hypervisor steal
/// (measured: a 4-thread pool lost up to 60% of its throughput to steal
/// where a 2-thread pool lost 15-35%).
constexpr int kMaxThreads = 2;
/// Server constructions timed per run; setup_s is their median.
constexpr int kSetupReps = 3;
/// One served output in this many, chosen by a seeded hash of its index,
/// is checked bit-identical to the solo Encoder::forward oracle (workloads
/// with verify_all check every output).
constexpr std::uint64_t kVerifyOneIn = 16;
/// The traced replay's self-time accounting must close within this share,
/// or the run fails: summed EncoderLayer calls against Engine::run, and
/// pack + Engine::run + unpack against BatchExecutor::execute. Parent and
/// children are separate calls, so the residual is timing noise plus any
/// work the children miss. The worst residual seen on a 4-vCPU virtual
/// machine with 0-20% hypervisor steal was 0.19 (long_doc, two replayed
/// batches); the rest is margin for steal bursts (see README).
constexpr double kSelfTimeTolerance = 0.35;

/// Every request is interactive (the server's default class): neither
/// workload exercises class priority.
constexpr Priority kPriority = Priority::kInteractive;

/// A closed loop: `clients` clients that each send the next request when
/// the reply to the previous one arrived.
struct Workload {
  std::string name;
  std::size_t clients = 1;
  /// Check every served output against the oracle, not a seeded sample.
  bool verify_all = false;
  RequestClass requests;
  swat::ServerOptions options;
};

/// The one model every workload serves, so a change to any layer shows in
/// all of them.
swat::model::EncoderConfig model_config() {
  swat::model::EncoderConfig cfg;
  cfg.d_model = 256;
  cfg.num_heads = 4;
  cfg.ffn_mult = 4;
  cfg.layers = 4;
  cfg.backend = swat::model::AttentionBackend::kFusedStreaming;
  cfg.swat = swat::SwatConfig();
  cfg.swat.head_dim = 64;
  cfg.swat.window_cores = 512;  // the paper's Longformer window
  cfg.weight_seed = 20240623;
  cfg.pack_dtype = swat::Dtype::kFp32;
  cfg.stream_dtype = swat::Dtype::kFp32;
  return cfg;
}

std::optional<Workload> find_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "long_doc") {
    // One client that waits for each reply: the fused attention kernel and
    // full-width GEMMs do the work; the scheduler sees one request at a time.
    w.verify_all = true;
    w.requests = {4096, 4096, 5.0};
    return w;
  }
  if (name == "short_batch") {
    // Eight clients sending short requests: submit, batch formation,
    // pack/unpack and small-GEMM efficiency carry the cost; attention is
    // clipped by the sequence length. A closed loop slows with the host
    // instead of queueing without bound, so its figures stay comparable on
    // a virtual machine whose CPU time the hypervisor takes at random.
    w.clients = 8;
    w.requests = {16, 128, 1.5};
    w.options.batching.max_batch_requests = 8;
    w.options.batching.bucket_width = 128;  // one length bucket: batches fill
    return w;
  }
  return std::nullopt;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) { return perfbench::quantile(std::move(v), 0.5); }

swat::InferenceRequest make_request(const Arrival& a, std::int64_t d_model,
                                    std::uint64_t id) {
  swat::InferenceRequest req;
  req.id = id;
  req.input = perfbench::make_input(a.input_seed, a.tokens, d_model);
  req.priority = kPriority;
  return req;
}

// ---------------------------------------------------------------- set-up ----

/// Runs one request at the shortest length of every plan shape class
/// (ceil(rows / bucket_width)) the workload's batches can need, so every
/// plan is compiled before the window.
void warm_up(swat::Server& server, const Workload& w, std::int64_t d_model) {
  const swat::BatchingOptions& b = w.options.batching;
  const RequestClass& cls = w.requests;
  // A closed loop never has more requests in flight than clients.
  const std::int64_t members = std::min<std::int64_t>(
      b.max_batch_requests, static_cast<std::int64_t>(w.clients));
  const std::int64_t max_rows =
      std::min(b.max_batch_tokens, members * cls.max_tokens);
  const auto shape = [&](std::int64_t rows) {
    return (rows + b.bucket_width - 1) / b.bucket_width;
  };
  const std::int64_t lo = shape(cls.min_tokens), hi = shape(max_rows);
  std::uint64_t id = 1ULL << 62;
  for (std::int64_t c = lo; c <= hi; ++c) {
    const std::int64_t len = std::max<std::int64_t>(1, (c - 1) * b.bucket_width + 1);
    swat::InferenceRequest req;
    req.id = id++;
    req.input = perfbench::make_input(id, len, d_model);
    req.priority = kPriority;
    server.submit(std::move(req)).get();
  }
  server.drain();
  const auto want = static_cast<std::size_t>(hi - lo + 1);
  if (server.plan_count() != want) {
    throw std::runtime_error("warm-up compiled " +
                             std::to_string(server.plan_count()) + " of " +
                             std::to_string(want) + " plan shape classes");
  }
}

/// kSetupReps timed constructions + warm-ups; keeps the last server.
std::unique_ptr<swat::Server> set_up(const Workload& w,
                                     const swat::model::EncoderConfig& cfg,
                                     double& setup_s) {
  std::vector<double> times;
  std::unique_ptr<swat::Server> server;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    server.reset();
    const Clock::time_point t0 = Clock::now();
    server = std::make_unique<swat::Server>(cfg, w.options);
    warm_up(*server, w, cfg.d_model);
    times.push_back(seconds_between(t0, Clock::now()));
  }
  setup_s = median(times);
  return server;
}

// ---------------------------------------------------------------- window ----

struct Window {
  std::vector<Arrival> arrivals;  ///< one per attempted request
  std::vector<Outcome> outcomes;  ///< parallel to arrivals
  double seconds = 0.0;           ///< the measured window
  swat::ServerStats before;
  swat::ServerStats after;
  double tracing_s = 0.0;  ///< time spent recording client spans
  double steal_frac = 0.0;  ///< CPU time the hypervisor took, share of all CPUs
};

/// Client spans of one resolved request, anchored at submit() return (the
/// server stamps admission inside submit): children tile send -> resolved.
/// Outcome times are seconds from `start`, the window start.
void record_request_spans(perfbench::Tracer& tracer, Clock::time_point start,
                          std::uint64_t index, const Outcome& o) {
  const auto at = [&](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };
  const std::uint64_t group = index + 1;
  const std::int64_t batch = o.served ? o.result.counters.batch_index : -1;
  const std::uint64_t root = tracer.reserve_id();
  tracer.record("submit", at(o.submit_s), at(o.submit_end_s),
                root, group, 0, batch);
  double resolve_from = o.submit_end_s;
  if (o.served) {
    const double qd = o.result.counters.queue_delay.value;
    const double ta = o.result.counters.turnaround.value;
    tracer.record("server.queue_delay", at(o.submit_end_s),
                  at(o.submit_end_s + qd), root, group, 0, batch);
    tracer.record("server.service", at(o.submit_end_s + qd),
                  at(o.submit_end_s + ta), root, group, 0, batch);
    resolve_from = std::min(o.submit_end_s + ta, o.resolved_s);
  }
  tracer.record("resolve", at(resolve_from), at(o.resolved_s),
                root, group, 0, batch);
  tracer.record("request", at(o.submit_s), at(o.resolved_s), 0,
                group, 0, batch, root);
}

/// Whether request `index`'s output joins the seeded oracle sample
/// (about one request in kVerifyOneIn).
bool sampled(std::uint64_t seed, std::uint64_t index) {
  return perfbench::mix_seed(seed ^ 0x5eedULL, index) % kVerifyOneIn == 0;
}

/// The served-output gate every response passes: right shape, all finite.
/// A sampled output is reduced to its hash for the oracle check after the
/// window; no output is kept, so the memory the client holds stays constant.
void inspect(const Arrival& a, bool sample, std::int64_t d_model, Outcome& o) {
  if (!o.served) return;
  const swat::MatrixF& out = o.result.output;
  bool ok = out.rows() == a.tokens && out.cols() == d_model;
  for (const float x : out.flat()) ok = ok && std::isfinite(x);
  o.output_ok = ok;
  if (sample) o.output_hash = perfbench::output_hash(out);
  o.result.output = swat::MatrixF();
}

Window run_window(swat::Server& server, const Workload& w,
                  const swat::model::EncoderConfig& cfg, std::uint64_t seed,
                  double seconds, perfbench::Tracer* tracer) {
  const std::int64_t d_model = cfg.d_model;
  const RequestClass& cls = w.requests;
  Window win;

  server.drain();
  win.before = server.stats();
  const double steal0 = perfbench::host_steal_seconds();
  const Clock::time_point start = Clock::now();
  // Request i's length and input come from the seed and i, whichever client
  // sends it.
  perfbench::ClosedLoopRun run = perfbench::run_closed_loop(
      start, seconds, w.clients,
      [&](std::uint64_t i) {
        return make_request(perfbench::closed_loop_request(seed, i, cls),
                            d_model, i);
      },
      [&](swat::InferenceRequest&& req) { return server.submit(std::move(req)); },
      [&](std::uint64_t i, Outcome& o) {
        inspect(perfbench::closed_loop_request(seed, i, cls),
                w.verify_all || sampled(seed, i), d_model, o);
        if (tracer) record_request_spans(*tracer, start, i, o);
      });
  win.seconds = run.seconds;
  win.outcomes = std::move(run.outcomes);
  for (std::uint64_t i = 0; i < win.outcomes.size(); ++i) {
    win.arrivals.push_back(perfbench::closed_loop_request(seed, i, cls));
  }
  server.drain();
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  win.steal_frac = (perfbench::host_steal_seconds() - steal0) /
                   (cpus * seconds_between(start, Clock::now()));
  std::printf("# hypervisor steal during the window: %.1f%% of %u CPUs\n",
              100.0 * win.steal_frac, cpus);
  win.after = server.stats();
  if (tracer) win.tracing_s = tracer->recording_seconds();
  return win;
}

// ---------------------------------------------------------------- checks ----

struct Verdict {
  bool correct = true;
  std::int64_t failed = 0;  ///< requests failed by the server (not shed)
  std::vector<std::string> problems;

  void fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
};

/// Per-class ledger identity after the drain, and the window's deltas
/// against what the client saw.
void check_ledgers(const Window& win, Verdict& v) {
  for (std::size_t p = 0; p < swat::kPriorityClasses; ++p) {
    const swat::ClassStats& a = win.after.per_class[p];
    const swat::ClassStats& b = win.before.per_class[p];
    const char* name = swat::to_string(static_cast<Priority>(p));
    if (a.submitted != a.served + a.shed + a.deadline_shed + a.failed) {
      v.fail(std::string("ledger does not balance for ") + name);
    }
    std::int64_t attempted = 0, served = 0;
    if (kPriority == static_cast<Priority>(p)) {
      for (const Outcome& o : win.outcomes) {
        ++attempted;
        served += o.served ? 1 : 0;
      }
    }
    if (a.submitted - b.submitted != attempted || a.served - b.served != served) {
      v.fail(std::string("server ledger disagrees with the client for ") + name);
    }
    v.failed += a.failed - b.failed;
  }
}

/// Served outputs against the shape/finite gate, and the sampled ones (by
/// their hashes) against solo Encoder::forward, computed after the window.
void check_outputs(const Window& win, const Workload& w,
                   const swat::model::EncoderConfig& cfg, std::uint64_t seed,
                   Verdict& v) {
  std::size_t bad = 0, checked = 0, mismatched = 0;
  const swat::model::Encoder oracle(cfg);
  for (std::size_t i = 0; i < win.outcomes.size(); ++i) {
    const Outcome& o = win.outcomes[i];
    if (!o.served) continue;
    if (!o.output_ok) {
      ++bad;
      continue;
    }
    if (!w.verify_all && !sampled(seed, i)) continue;
    const Arrival& a = win.arrivals[i];
    ++checked;
    const swat::MatrixF ref =
        oracle.forward(perfbench::make_input(a.input_seed, a.tokens, cfg.d_model));
    if (perfbench::output_hash(ref) != o.output_hash) ++mismatched;
  }
  if (bad > 0) v.fail(std::to_string(bad) + " served outputs non-finite or misshapen");
  if (mismatched > 0) {
    v.fail(std::to_string(mismatched) + " of " + std::to_string(checked) +
           " sampled outputs differ from solo Encoder::forward");
  }
  std::printf("# oracle check: %zu served outputs bit-identical to solo Encoder::forward\n",
              checked - mismatched);
}

// --------------------------------------------------------------- metrics ----

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::vector<Metric> end_to_end(const Window& win, const Workload& w,
                               double setup_s, double rss_mib) {
  std::vector<double> latency_ms;
  double tokens = 0.0;
  std::int64_t within = 0;
  for (std::size_t i = 0; i < win.outcomes.size(); ++i) {
    const Outcome& o = win.outcomes[i];
    if (!o.served) continue;
    tokens += static_cast<double>(win.arrivals[i].tokens);
    latency_ms.push_back(1e3 * o.latency_s());
    within += o.latency_s() <= w.requests.limit_s ? 1 : 0;
  }
  const double attempted = static_cast<double>(win.outcomes.size());
  const double served = static_cast<double>(latency_ms.size());
  const perfbench::Tail tail = perfbench::tail_latency(latency_ms);
  std::printf("# latency_tail_ms read at p%.2f of %zu served; every request is "
              "interactive, so interactive_tail_ms is the same\n",
              tail.percentile, tail.samples);
  return {
      {"latency_p50_ms", perfbench::quantile(latency_ms, 0.5), "ms"},
      {"latency_tail_ms", tail.value, "ms"},
      {"interactive_tail_ms", tail.value, "ms"},
      {"goodput_rps", static_cast<double>(within) / win.seconds, "1/s"},
      {"tokens_per_s", tokens / win.seconds, "1/s"},
      {"slo_met_frac", static_cast<double>(within) / attempted, "fraction"},
      {"served_frac", served / attempted, "fraction"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mib", rss_mib, "MiB"},
  };
}

/// Client-visible serving-layer metrics from RequestCounters and the
/// ServerStats deltas over the window.
std::vector<Metric> server_layer(const Window& win) {
  std::vector<double> submit_us, qd_ms, service_ms;
  std::set<std::int64_t> batches;
  double tokens = 0.0;
  for (std::size_t i = 0; i < win.outcomes.size(); ++i) {
    const Outcome& o = win.outcomes[i];
    submit_us.push_back(1e6 * (o.submit_end_s - o.submit_s));
    if (!o.served) continue;
    const swat::RequestCounters& c = o.result.counters;
    qd_ms.push_back(1e3 * c.queue_delay.value);
    service_ms.push_back(1e3 * (c.turnaround.value - c.queue_delay.value));
    batches.insert(c.batch_index);
    tokens += static_cast<double>(win.arrivals[i].tokens);
  }
  const auto delta = [&](auto field) {
    std::int64_t sum = 0;
    for (std::size_t p = 0; p < swat::kPriorityClasses; ++p) {
      sum += field(win.after.per_class[p]) - field(win.before.per_class[p]);
    }
    return static_cast<double>(sum);
  };
  std::int64_t stolen = 0, most = 0, least = -1;
  for (std::size_t r = 0; r < win.after.replicas.size(); ++r) {
    const std::int64_t done =
        win.after.replicas[r].batches - win.before.replicas[r].batches;
    stolen += win.after.replicas[r].batches_stolen -
              win.before.replicas[r].batches_stolen;
    most = std::max(most, done);
    least = least < 0 ? done : std::min(least, done);
  }
  const double nb = std::max<double>(1.0, static_cast<double>(batches.size()));
  return {
      {"server.submit_us_p50", perfbench::quantile(submit_us, 0.5), "us"},
      {"server.queue_delay_ms_p50", perfbench::quantile(qd_ms, 0.5), "ms"},
      {"server.queue_delay_ms_p99", perfbench::quantile(qd_ms, 0.99), "ms"},
      {"server.service_ms_p50", perfbench::quantile(service_ms, 0.5), "ms"},
      {"server.requests_per_batch", static_cast<double>(qd_ms.size()) / nb, "count"},
      {"server.tokens_per_batch", tokens / nb, "count"},
      {"server.batches", static_cast<double>(win.after.batches - win.before.batches), "count"},
      {"server.shed", delta([](const swat::ClassStats& s) { return s.shed; }), "count"},
      {"server.deadline_shed", delta([](const swat::ClassStats& s) { return s.deadline_shed; }), "count"},
      {"server.deadline_missed", delta([](const swat::ClassStats& s) { return s.deadline_missed; }), "count"},
      {"server.failed", delta([](const swat::ClassStats& s) { return s.failed; }), "count"},
      {"server.batches_stolen", static_cast<double>(stolen), "count"},
      {"server.replica_imbalance",
       static_cast<double>(most) / static_cast<double>(std::max<std::int64_t>(1, least)), "ratio"},
      {"server.watchdog_stalls",
       static_cast<double>(win.after.watchdog_stalls - win.before.watchdog_stalls), "count"},
  };
}

// ---------------------------------------------------------------- replay ----

/// A batch the server formed, rebuilt from the served requests sharing a
/// batch_index (members in submission order, as BatchFormer keeps them).
struct FormedBatch {
  std::int64_t batch_index = -1;
  swat::BatchPlanEntry entry;
  std::vector<std::size_t> members;  ///< window request indices
};

std::vector<FormedBatch> formed_batches(const Window& win) {
  std::map<std::int64_t, FormedBatch> by_index;
  for (std::size_t i = 0; i < win.outcomes.size(); ++i) {
    const Outcome& o = win.outcomes[i];
    if (!o.served) continue;
    FormedBatch& b = by_index[o.result.counters.batch_index];
    b.batch_index = o.result.counters.batch_index;
    if (b.entry.offsets.empty()) b.entry.offsets.push_back(0);
    b.entry.request_indices.push_back(b.members.size());
    b.entry.offsets.push_back(b.entry.offsets.back() + win.arrivals[i].tokens);
    b.entry.priority = kPriority;
    b.members.push_back(i);
  }
  std::vector<FormedBatch> out;
  for (auto& [index, b] : by_index) out.push_back(std::move(b));
  return out;
}

struct ReplayTotals {
  std::int64_t batches = 0;
  std::int64_t tokens = 0;
  std::int64_t layer_calls = 0;
  std::vector<double> execute_s, run_s, pred_over_obs;
  double execute = 0.0, run = 0.0, layers = 0.0, mha = 0.0, fused = 0.0;
  double proj = 0.0, ffn = 0.0;
  double kv_bytes = 0.0, proj_flops = 0.0, ffn_flops = 0.0, gemm_bytes = 0.0;
  bool outputs_match = true;
};

/// Replays formed batches, in a seeded order and until `budget_s` of replay
/// time is spent, through the public entry points one after another:
/// BatchExecutor::execute; the same pack, Engine::run and unpack it does;
/// every EncoderLayer::forward_batch_into; each layer's
/// MultiHeadAttention::forward_batch_into; fused_window_attention_batch_into
/// on the resulting Q/K/V; and Linear/LayerNorm calls of the layer's shapes.
/// Each call is one span; a span's children are the calls it is made of.
ReplayTotals replay(const std::vector<FormedBatch>& batches, const Window& win,
                    const Workload& w, const swat::model::EncoderConfig& cfg,
                    const swat::BatchCostModel& cost_model, std::uint64_t seed,
                    double budget_s, perfbench::Tracer& tracer) {
  ReplayTotals t;
  if (batches.empty()) return t;
  swat::BatchExecutor exec(cfg, w.options.batching);
  const swat::Engine& engine = exec.engine();
  const swat::model::Encoder& encoder = engine.encoder();
  const std::int64_t d = cfg.d_model;
  const std::int64_t hd = d / cfg.num_heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
  swat::Rng rng(cfg.weight_seed + 1);
  const swat::model::Linear proj(d, d, rng, cfg.pack_dtype);
  const swat::model::Linear ffn1(d, d * cfg.ffn_mult, rng, cfg.pack_dtype);
  const swat::model::Linear ffn2(d * cfg.ffn_mult, d, rng, cfg.pack_dtype);
  const swat::model::LayerNorm norm(d);

  std::int64_t max_rows = 0;
  for (const FormedBatch& b : batches) max_rows = std::max(max_rows, b.entry.rows());
  swat::model::EncoderArena arena;
  arena.bind(cfg, max_rows);
  swat::MatrixF packed, y, hidden, y2;
  std::map<std::int64_t, swat::ExecutionPlan> plans;  // by row count class

  std::vector<std::size_t> order(batches.size());
  std::iota(order.begin(), order.end(), 0);
  std::mt19937_64 shuffle_rng(perfbench::mix_seed(seed, 7));
  std::shuffle(order.begin(), order.end(), shuffle_rng);

  const Clock::time_point replay_start = Clock::now();
  for (const std::size_t k : order) {
    if (t.batches > 0 && seconds_between(replay_start, Clock::now()) > budget_s) break;
    const FormedBatch& b = batches[k];
    const swat::BatchPlanEntry& entry = b.entry;
    const std::vector<std::int64_t>& offsets = entry.offsets;
    const std::int64_t rows = entry.rows();
    std::vector<swat::InferenceRequest> inputs;
    for (const std::size_t i : b.members) {
      const Arrival& a = win.arrivals[i];
      inputs.push_back(make_request(a, d, i));
    }
    std::vector<const swat::InferenceRequest*> ptrs;
    for (const swat::InferenceRequest& r : inputs) ptrs.push_back(&r);
    const std::int64_t shape = (rows + w.options.batching.bucket_width - 1) /
                               w.options.batching.bucket_width;
    auto [plan_it, fresh] = plans.try_emplace(shape);
    if (fresh) {
      // First batch of this shape: compile both plans and pack the kernel
      // weights outside the timed calls.
      plan_it->second = engine.make_plan(shape * w.options.batching.bucket_width);
      (void)exec.execute(entry, ptrs);
      packed.reshape(rows, d);
      proj.forward_into(packed, y);
      ffn1.forward_gelu_into(y, hidden);
    }
    const auto group = static_cast<std::uint64_t>(b.batch_index) + 1;
    const auto span = [&](const char* name, Clock::time_point a,
                          Clock::time_point z, std::uint64_t parent) {
      return tracer.record(name, a, z, parent, group, 1, b.batch_index);
    };

    const Clock::time_point e0 = Clock::now();
    const std::vector<swat::RequestResult> results = exec.execute(entry, ptrs);
    const Clock::time_point e1 = Clock::now();
    const std::uint64_t exec_id = span("executor.execute", e0, e1, 0);

    const Clock::time_point p0 = Clock::now();
    packed.reshape(rows, d);
    for (std::size_t m = 0; m < inputs.size(); ++m) {
      std::memcpy(packed.row(offsets[m]).data(), inputs[m].input.data(),
                  sizeof(float) * static_cast<std::size_t>(inputs[m].input.size()));
    }
    const Clock::time_point p1 = Clock::now();
    span("executor.pack", p0, p1, exec_id);

    std::vector<swat::model::AttentionStats> stats(inputs.size());
    const Clock::time_point r0 = Clock::now();
    const swat::MatrixF& run_out = engine.run(plan_it->second, packed, offsets, stats);
    const Clock::time_point r1 = Clock::now();
    const std::uint64_t run_id = span("engine.run", r0, r1, exec_id);

    const Clock::time_point u0 = Clock::now();
    std::vector<swat::MatrixF> unpacked;
    for (std::size_t m = 0; m < inputs.size(); ++m) {
      unpacked.emplace_back(inputs[m].input.rows(), d);
      std::memcpy(unpacked.back().data(), run_out.row(offsets[m]).data(),
                  sizeof(float) * static_cast<std::size_t>(unpacked.back().size()));
    }
    const Clock::time_point u1 = Clock::now();
    span("executor.unpack", u0, u1, exec_id);

    const swat::MatrixF* in = &packed;
    swat::MatrixF* out = &arena.ping;
    swat::model::MhaWorkspace& ws = arena.scratch.mha;
    for (int l = 0; l < cfg.layers; ++l) {
      const swat::model::EncoderLayer& layer = encoder.layer(l);
      const Clock::time_point l0 = Clock::now();
      layer.forward_batch_into(*in, offsets, {}, arena.scratch, *out);
      const Clock::time_point l1 = Clock::now();
      const std::uint64_t layer_id = span("model.layer", l0, l1, run_id);

      const Clock::time_point m0 = Clock::now();
      layer.attention().forward_batch_into(*in, offsets, {}, ws, arena.scratch.attn_out);
      const Clock::time_point m1 = Clock::now();
      const std::uint64_t mha_id = span("model.mha", m0, m1, layer_id);

      const Clock::time_point f0 = Clock::now();
      swat::attn::fused_window_attention_batch_into(
          ws.q, ws.k, ws.v, offsets, cfg.num_heads, cfg.swat.window_before(),
          cfg.swat.window_after(), scale, ws.concat, cfg.stream_dtype);
      const Clock::time_point f1 = Clock::now();
      span("attn.fused", f0, f1, mha_id);

      t.layers += seconds_between(l0, l1);
      t.mha += seconds_between(m0, m1);
      t.fused += seconds_between(f0, f1);
      ++t.layer_calls;
      in = out;
      out = out == &arena.ping ? &arena.pong : &arena.ping;
    }
    for (std::size_t m = 0; m < inputs.size(); ++m) {
      const std::size_t n = static_cast<std::size_t>(unpacked[m].size());
      t.outputs_match = t.outputs_match && results[m].output == unpacked[m] &&
                        std::memcmp(in->row(offsets[m]).data(),
                                    unpacked[m].data(), n * sizeof(float)) == 0;
    }

    // Kernel calls of the layer's Linear/LayerNorm shapes at this batch's
    // row count (own weights: only the shapes matter for speed).
    const Clock::time_point k0 = Clock::now();
    proj.forward_into(packed, y);
    const Clock::time_point k1 = Clock::now();
    ffn1.forward_gelu_into(y, hidden);
    ffn2.forward_residual_into(hidden, y, y2);
    const Clock::time_point k2 = Clock::now();
    norm.forward_into(y2, y2);
    const Clock::time_point k3 = Clock::now();
    span("kernels.gemm_proj", k0, k1, 0);
    span("kernels.gemm_ffn", k1, k2, 0);
    span("kernels.layer_norm", k2, k3, 0);

    for (std::size_t m = 0; m < inputs.size(); ++m) {
      t.kv_bytes += static_cast<double>(swat::attn::fused_window_kv_stream_bytes(
                        inputs[m].input.rows(), cfg.num_heads, hd,
                        cfg.swat.window_before(), cfg.swat.window_after(),
                        cfg.stream_dtype)) *
                    cfg.layers;
    }
    const double r = static_cast<double>(rows);
    const double df = static_cast<double>(d);
    const double hf = df * static_cast<double>(cfg.ffn_mult);
    t.proj_flops += 2.0 * r * df * df;
    t.ffn_flops += 2.0 * (2.0 * r * df * hf);
    t.gemm_bytes += 4.0 * ((r * df + df * df + r * df) +
                           (r * df + df * hf + r * hf) + (r * hf + hf * df + 2 * r * df));
    t.proj += seconds_between(k0, k1);
    t.ffn += seconds_between(k1, k2);
    t.execute += seconds_between(e0, e1);
    t.run += seconds_between(r0, r1);
    t.execute_s.push_back(seconds_between(e0, e1));
    t.run_s.push_back(seconds_between(r0, r1));
    t.pred_over_obs.push_back(cost_model.predict(entry).value /
                              seconds_between(e0, e1));
    t.tokens += rows;
    ++t.batches;
  }
  return t;
}

/// Self time of all spans named `name`, as a share of their duration.
double self_share(const std::vector<perfbench::Span>& spans,
                  const std::vector<double>& self, const char* name) {
  double total = 0.0, own = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::strcmp(spans[i].name, name) != 0) continue;
    total += spans[i].seconds();
    own += self[i];
  }
  return total > 0.0 ? own / total : 0.0;
}

std::vector<Metric> per_layer(const Window& win, const Workload& w,
                              const swat::model::EncoderConfig& cfg,
                              std::uint64_t seed, double budget_s,
                              perfbench::Tracer& tracer, double triad,
                              double fma, Verdict& v) {
  std::vector<Metric> m = server_layer(win);
  const std::vector<FormedBatch> batches = formed_batches(win);
  const swat::BatchCostModel cost_model(cfg);

  // Batch formation: the served requests' admission order replayed
  // through BatchFormer::push with the cost model attached.
  std::vector<double> push_ns, predict_ns;
  {
    swat::BatchFormer former(w.options.batching, &cost_model);
    for (std::size_t i = 0; i < win.outcomes.size(); ++i) {
      if (!win.outcomes[i].served) continue;
      const Arrival& a = win.arrivals[i];
      const Clock::time_point t0 = Clock::now();
      former.push(i, a.tokens, kPriority);
      push_ns.push_back(1e9 * seconds_between(t0, Clock::now()));
      while (former.has_ready()) former.pop_ready();
    }
  }
  for (const FormedBatch& b : batches) {
    const Clock::time_point t0 = Clock::now();
    const swat::Seconds p = cost_model.predict(b.entry);
    predict_ns.push_back(1e9 * seconds_between(t0, Clock::now()));
    if (!std::isfinite(p.value)) v.fail("cost model returned a non-finite price");
  }

  const ReplayTotals t =
      replay(batches, win, w, cfg, cost_model, seed, budget_s, tracer);
  if (!t.outputs_match) {
    v.fail("replayed execute / Engine::run / layer-by-layer outputs differ");
  }
  const std::vector<perfbench::Span> spans = tracer.spans();
  const std::vector<double> self = perfbench::self_seconds(spans);
  const double run_gap = self_share(spans, self, "engine.run");
  const double exec_gap = self_share(spans, self, "executor.execute");
  std::printf("# replayed %lld of %zu batches; unaccounted self time: engine.run %.3f, "
              "executor.execute %.3f (tolerance %.2f)\n",
              static_cast<long long>(t.batches), batches.size(), run_gap, exec_gap,
              kSelfTimeTolerance);
  if (std::abs(run_gap) > kSelfTimeTolerance) {
    v.fail("summed EncoderLayer calls do not account for Engine::run");
  }
  if (std::abs(exec_gap) > kSelfTimeTolerance) {
    v.fail("pack + Engine::run + unpack do not account for BatchExecutor::execute");
  }

  const double calls = std::max<double>(1.0, static_cast<double>(t.layer_calls));
  const double attn_flops = 0.5 * t.kv_bytes;  // 4*head_dim flops per 8*head_dim bytes
  const double attn_gflops = t.fused > 0 ? 1e-9 * attn_flops / t.fused : 0.0;
  const double gemm_flops = t.proj_flops + t.ffn_flops;
  const double gemm_gflops = t.proj + t.ffn > 0 ? 1e-9 * gemm_flops / (t.proj + t.ffn) : 0.0;
  const auto roofline = [&](double flops, double bytes) {
    return bytes > 0.0 ? std::min(fma, triad * flops / bytes) : fma;
  };
  const auto ms = [](std::vector<double> s) { return 1e3 * median(std::move(s)); };
  const std::vector<Metric> rest = {
      {"batcher.push_ns_p50", median(push_ns), "ns"},
      {"cost_model.predict_ns_p50", median(predict_ns), "ns"},
      {"cost_model.pred_over_obs_p50", perfbench::quantile(t.pred_over_obs, 0.5), "ratio"},
      {"cost_model.pred_over_obs_p90", perfbench::quantile(t.pred_over_obs, 0.9), "ratio"},
      {"executor.execute_ms_p50", ms(t.execute_s), "ms"},
      {"executor.overhead_frac", t.execute > 0 ? (t.execute - t.run) / t.execute : 0.0, "fraction"},
      {"engine.run_ms_p50", ms(t.run_s), "ms"},
      {"engine.us_per_token", t.tokens > 0 ? 1e6 * t.run / static_cast<double>(t.tokens) : 0.0, "us"},
      {"model.layer_ms", 1e3 * t.layers / calls, "ms"},
      {"model.mha_ms", 1e3 * t.mha / calls, "ms"},
      {"model.proj_ms", 1e3 * (t.mha - t.fused) / calls, "ms"},
      {"model.ffn_ln_ms", 1e3 * (t.layers - t.mha) / calls, "ms"},
      {"attn.fused_ms", 1e3 * t.fused / calls, "ms"},
      {"attn.gflops", attn_gflops, "GFLOP/s"},
      {"attn.kv_gbps", t.fused > 0 ? 1e-9 * t.kv_bytes / t.fused : 0.0, "GB/s"},
      {"attn.roofline_frac", attn_gflops / roofline(attn_flops, t.kv_bytes), "fraction"},
      {"kernels.gemm_proj_gflops", t.proj > 0 ? 1e-9 * t.proj_flops / t.proj : 0.0, "GFLOP/s"},
      {"kernels.gemm_ffn_gflops", t.ffn > 0 ? 1e-9 * t.ffn_flops / t.ffn : 0.0, "GFLOP/s"},
      {"kernels.gemm_roofline_frac", gemm_gflops / roofline(gemm_flops, t.gemm_bytes), "fraction"},
      {"host.triad_gbps", triad, "GB/s"},
      {"host.fma_gflops", fma, "GFLOP/s"},
      {"host.steal_frac", win.steal_frac, "fraction"},
      {"harness.trace_overhead_frac", win.tracing_s / win.seconds, "fraction"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

// ---------------------------------------------------------------- output ----

std::string number(double x) {
  if (!std::isfinite(x)) x = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, x);
  return std::string(buf, res.ptr);
}

void print_result(const Verdict& v, std::size_t attempted,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& p : v.problems) std::printf("# FAIL: %s\n", p.c_str());
  std::string json = std::string("{\"correct\": ") + (v.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(v.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, trace_out;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload_name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n", arg.c_str());
      return 2;
    }
  }
  const std::optional<Workload> found = find_workload(workload_name);
  if (!found || !(seconds > 0.0) || (trace != 0 && trace != 1)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload long_doc|short_batch "
                 "--seed N --seconds S --trace 0|1 [--trace-out PATH]\n");
    return 2;
  }
  const Workload& w = *found;
  if (std::getenv("SWAT_THREADS") == nullptr) {
    swat::set_num_threads(std::clamp(
        static_cast<int>(std::thread::hardware_concurrency()), 1, kMaxThreads));
  }
  const swat::model::EncoderConfig cfg = model_config();
  std::printf("# workload %s seed %llu seconds %.1f trace %d threads %d\n",
              w.name.c_str(), static_cast<unsigned long long>(seed), seconds,
              trace, swat::num_threads());

  try {
    double triad = 0.0, fma = 0.0;
    if (trace == 1) {
      triad = perfbench::triad_gbps();
      fma = perfbench::fma_gflops();
    }
    double setup_s = 0.0;
    std::unique_ptr<swat::Server> server = set_up(w, cfg, setup_s);
    std::optional<perfbench::Tracer> tracer;
    if (trace == 1) tracer.emplace();
    const Window win =
        run_window(*server, w, cfg, seed, seconds, tracer ? &*tracer : nullptr);
    const double rss = perfbench::peak_rss_mib();
    server.reset();

    Verdict v;
    check_ledgers(win, v);
    std::vector<Metric> metrics =
        trace == 1 ? per_layer(win, w, cfg, seed, seconds, *tracer, triad, fma, v)
                   : end_to_end(win, w, setup_s, rss);
    // The oracle check is not timed: give it every core.
    swat::set_num_threads(std::max(1, static_cast<int>(std::thread::hardware_concurrency())));
    check_outputs(win, w, cfg, seed, v);
    if (tracer && !trace_out.empty()) {
      std::ofstream os(trace_out);
      tracer->write_chrome_trace(os);
      if (!os) v.fail("cannot write trace " + trace_out);
    }
    print_result(v, win.outcomes.size(), metrics);
    return v.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
