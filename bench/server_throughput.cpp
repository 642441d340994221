// Open-loop serving benchmark: the continuous-batching swat::Server under
// Poisson request arrivals. Emits BENCH_server.json.
//
// Arrivals are OPEN-LOOP: request i is submitted at a pre-drawn absolute
// time regardless of how far the server has fallen behind — the regime
// where queue latency actually exists. The arrival process is Poisson
// (exponential inter-arrival gaps) from a deterministic seed, so the same
// machine replays the same schedule run to run. Arrival intensity is
// calibrated against the measured sequential service rate (the median of
// five timed passes after a warm one): arms run at
// 0.5x (underloaded — latency dominated by batch-formation waits) and 2.0x
// (overloaded — latency dominated by queueing) of what one sequential
// stream can absorb. submit() returns immediately, and the scheduler
// thread cuts batches continuously (caps + predicted-latency budget from
// the paper's stage-latency model), overlapping batch formation with
// request arrival.
//
// Queue latency is the time a request spends admitted-but-unserved before
// its batch starts executing (server-stamped); the table reports p50/p99
// per load plus end-to-end tokens/s over the makespan. Server outputs are
// checked bit-identical to the sequential oracle before any timing is
// believed.
//
// The OVERLOAD sweep then pushes the server from 0.5x to 4x offered
// load with a 50/50 interactive/bulk mix under the production overload
// shape: kShedBulk admission (bulk shed at the queue watermark,
// interactive reserved headroom) plus a deadline on every interactive
// request, so hopeless interactive work is shed before compute instead of
// being served uselessly late. Per class and intensity it reports goodput
// (served requests/s), shed rate, deadline sheds/misses, and p50/p99
// TURNAROUND (admission to completion) of the requests actually served —
// the numbers that show interactive latency holding its budget at 4x
// while bulk absorbs the shedding.
//
// The REPLICA-SCALING sweep reruns the same open-loop overload shape with
// the server's engine-replica pool at 1/2/4 replicas on default pool
// options (each replica on a pinned pool over its own core group, all of
// them reading one shared weight pack), with replica_queue_depth=2 so
// dispatch pipelines with execution. It reports aggregate goodput,
// goodput speedup vs one replica at the same offered load, and per-class
// p50/p99 turnaround — the goodput-vs-replicas scaling column is the
// headline.
//
// Usage: server_throughput [--smoke] [--out <path>]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "runtime/server.hpp"

namespace {

using swat::InferenceRequest;
using swat::MatrixF;
using swat::RequestResult;
using swat::Server;

using Clock = std::chrono::steady_clock;

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

/// Sequential service rate of `requests` through `encoder`, in requests/s:
/// one untimed warm pass, then the median of kCalibrationPasses timed
/// passes, so one slow pass on a noisy host cannot rescale every offered
/// load sized from it.
double sequential_service_rps(const swat::model::Encoder& encoder,
                              const std::vector<InferenceRequest>& requests) {
  constexpr int kCalibrationPasses = 5;
  for (const InferenceRequest& req : requests) (void)encoder.forward(req.input);
  std::vector<double> pass_seconds;
  for (int pass = 0; pass < kCalibrationPasses; ++pass) {
    const auto start = Clock::now();
    for (const InferenceRequest& req : requests) {
      (void)encoder.forward(req.input);
    }
    pass_seconds.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
  }
  return static_cast<double>(requests.size()) / percentile(pass_seconds, 0.5);
}

struct ArmResult {
  double intensity_rel = 0.0;  ///< arrival rate / sequential service rate
  double intensity_rps = 0.0;
  double p50_queue_ms = 0.0;
  double p99_queue_ms = 0.0;
  double tokens_per_s = 0.0;
  std::int64_t batches = 0;
};

/// One (replica count, offered load) cell of the replica-scaling sweep.
struct ReplicaSweepResult {
  std::size_t replicas = 1;
  double intensity_rel = 0.0;
  std::int64_t served = 0;
  double goodput_per_s = 0.0;   ///< aggregate served requests / makespan
  double goodput_speedup = 0.0; ///< vs the 1-replica cell at this load
  double interactive_p50_ms = 0.0;
  double interactive_p99_ms = 0.0;
  double bulk_p50_ms = 0.0;
  double bulk_p99_ms = 0.0;
};

/// One (offered load, SLO class) cell of the overload sweep.
struct OverloadResult {
  double intensity_rel = 0.0;
  std::string slo_class;
  std::int64_t submitted = 0;
  std::int64_t served = 0;
  std::int64_t shed = 0;
  std::int64_t deadline_shed = 0;
  std::int64_t deadline_missed = 0;
  double shed_rate = 0.0;  ///< (shed + deadline_shed) / submitted
  double goodput_per_s = 0.0;
  double p50_turnaround_ms = 0.0;
  double p99_turnaround_ms = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_server.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }

  // The serving-sized encoder the runtime bench standardizes on.
  swat::model::EncoderConfig cfg;
  cfg.d_model = smoke ? 128 : 256;
  cfg.num_heads = smoke ? 2 : 4;
  cfg.ffn_mult = 4;
  cfg.layers = smoke ? 2 : 4;
  cfg.backend = swat::model::AttentionBackend::kFusedStreaming;
  cfg.swat = swat::SwatConfig();
  cfg.swat.head_dim = 64;
  cfg.swat.window_cores = 64;
  cfg.weight_seed = 17;

  const std::int64_t num_requests = smoke ? 16 : 64;
  const std::vector<std::int64_t> length_cycle =
      smoke ? std::vector<std::int64_t>{48, 64, 96, 33}
            : std::vector<std::int64_t>{96, 128, 192, 256, 112, 160, 224, 144};
  swat::Rng rng(2025);
  std::vector<InferenceRequest> requests;
  std::int64_t total_tokens = 0;
  for (std::int64_t i = 0; i < num_requests; ++i) {
    InferenceRequest req;
    req.id = static_cast<std::uint64_t>(i);
    const std::int64_t len =
        length_cycle[static_cast<std::size_t>(i) % length_cycle.size()];
    req.input = swat::random_normal(len, cfg.d_model, rng);
    total_tokens += len;
    requests.push_back(std::move(req));
  }

  // Service-rate calibration + correctness gate: the arrival intensities
  // are expressed against the sequential service rate, and the server must
  // reproduce the sequential oracle bit for bit.
  const swat::model::Encoder encoder(cfg);
  const double service_rps = sequential_service_rps(encoder, requests);
  std::vector<MatrixF> oracle;
  for (const InferenceRequest& req : requests) {
    oracle.push_back(encoder.forward(req.input));
  }
  {
    Server server(cfg);
    std::vector<Server::Ticket> tickets;
    for (const InferenceRequest& req : requests) {
      tickets.push_back(server.submit(req));  // submit copies its argument
    }
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      const RequestResult got = tickets[i].get();
      if (!(got.output == oracle[i])) {
        std::cerr << "FATAL: server output diverges from sequential oracle "
                     "for request "
                  << i << "\n";
        return 1;
      }
    }
  }

  const std::vector<double> intensities = {0.5, 2.0};
  std::vector<ArmResult> arms;

  for (const double rel : intensities) {
    const double rps = rel * service_rps;
    // Deterministic Poisson arrival schedule (absolute offsets, seconds).
    swat::Rng arrival_rng(
        777 + static_cast<std::uint64_t>(rel * 1000.0));
    std::vector<double> arrival(requests.size());
    double t = 0.0;
    for (double& a : arrival) {
      t += -std::log(1.0 - arrival_rng.uniform(0.0, 1.0)) / rps;
      a = t;
    }

    // Open-loop submit; the scheduler batches continuously.
    swat::ServerOptions opt;
    // Let the stage-latency model cap batches at ~4 mid-length requests
    // of predicted work, so the budget (not just the caps) shapes cuts.
    opt.batching.max_batch_latency = swat::Seconds{
        swat::BatchCostModel(cfg).request_seconds(length_cycle[1]).value *
        4.0};
    Server server(cfg, opt);
    std::vector<Server::Ticket> tickets(requests.size());
    const auto start = Clock::now();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(arrival[i]));
      std::this_thread::sleep_until(due);
      tickets[i] = server.submit(requests[i]);
    }
    std::vector<double> queue_ms;
    queue_ms.reserve(requests.size());
    for (Server::Ticket& ticket : tickets) {
      queue_ms.push_back(ticket.get().counters.queue_delay.value * 1e3);
    }
    const double makespan =
        std::chrono::duration<double>(Clock::now() - start).count();
    ArmResult arm;
    arm.intensity_rel = rel;
    arm.intensity_rps = rps;
    arm.p50_queue_ms = percentile(queue_ms, 0.5);
    arm.p99_queue_ms = percentile(queue_ms, 0.99);
    arm.tokens_per_s = static_cast<double>(total_tokens) / makespan;
    arm.batches = server.totals().batches;
    arms.push_back(arm);
  }

  // ---- overload sweep: 0.5x..4x offered load, 50/50 interactive/bulk,
  // kShedBulk admission + interactive deadlines. Bulk is expected to shed
  // as load crosses 1x; interactive turnaround must hold its budget.
  const std::vector<double> overload_intensities =
      smoke ? std::vector<double>{0.5, 4.0}
            : std::vector<double>{0.5, 1.0, 2.0, 4.0};
  // The interactive latency budget: the wall time of ~8 sequential
  // requests, floored at 100 ms — generous when idle, binding at 4x.
  const double interactive_deadline_s =
      std::max(0.1, 8.0 / service_rps);
  std::vector<OverloadResult> overload;
  for (const double rel : overload_intensities) {
    const double rps = rel * service_rps;
    swat::Rng arrival_rng(1234 + static_cast<std::uint64_t>(rel * 1000.0));
    std::vector<double> arrival(requests.size());
    double t = 0.0;
    for (double& a : arrival) {
      t += -std::log(1.0 - arrival_rng.uniform(0.0, 1.0)) / rps;
      a = t;
    }

    swat::ServerOptions opt;
    opt.batching.max_batch_latency = swat::Seconds{
        swat::BatchCostModel(cfg).request_seconds(length_cycle[1]).value *
        4.0};
    opt.admission = swat::OverflowPolicy::kShedBulk;
    opt.queue_capacity = 16;
    opt.shed_watermark = 0.75;  // bulk sheds at 12 queued
    Server server(cfg, opt);

    std::vector<Server::Ticket> tickets(requests.size());
    const auto start = Clock::now();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(arrival[i]));
      std::this_thread::sleep_until(due);
      InferenceRequest req = requests[i];  // copy: the pool is reused
      req.priority = (i % 2 == 0) ? swat::Priority::kInteractive
                                  : swat::Priority::kBulk;
      if (req.priority == swat::Priority::kInteractive) {
        req.deadline = swat::Seconds{interactive_deadline_s};
      }
      tickets[i] = server.submit(std::move(req));
    }
    std::vector<double> turnaround_ms[2];
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      try {
        const RequestResult res = tickets[i].get();
        turnaround_ms[i % 2].push_back(res.counters.turnaround.value * 1e3);
      } catch (const std::exception&) {
        // shed at admission or by deadline — ledgered in server.stats()
      }
    }
    const double makespan =
        std::chrono::duration<double>(Clock::now() - start).count();
    server.drain();
    const swat::ServerStats stats = server.stats();
    for (const swat::Priority cls :
         {swat::Priority::kInteractive, swat::Priority::kBulk}) {
      const swat::ClassStats& cs = stats.of(cls);
      OverloadResult row;
      row.intensity_rel = rel;
      row.slo_class = swat::to_string(cls);
      row.submitted = cs.submitted;
      row.served = cs.served;
      row.shed = cs.shed;
      row.deadline_shed = cs.deadline_shed;
      row.deadline_missed = cs.deadline_missed;
      row.shed_rate = cs.submitted == 0
                          ? 0.0
                          : static_cast<double>(cs.shed + cs.deadline_shed) /
                                static_cast<double>(cs.submitted);
      row.goodput_per_s = static_cast<double>(cs.served) / makespan;
      const std::size_t lane = cls == swat::Priority::kInteractive ? 0 : 1;
      row.p50_turnaround_ms = percentile(turnaround_ms[lane], 0.5);
      row.p99_turnaround_ms = percentile(turnaround_ms[lane], 0.99);
      overload.push_back(row);
    }
  }

  // ---- replica-scaling sweep: the open-loop overload shape, served by
  // 1/2/4 engine replicas behind one admission queue. The workload is its
  // own: MANY SHORT requests, the saturation regime the pool exists for —
  // per-request service is small, so one engine's batch-at-a-time cadence
  // (claim, execute, retire, wake the dispatcher) is the bottleneck and
  // concurrent replicas pipeline past it; short requests also spawn few
  // fork-join tasks each, so on multi-core hosts a single replica
  // underfills the thread pool and the replica count decides utilization.
  // Replicas share one read-only weight pack (memory stays 1x) and the
  // dispatcher may claim ahead two batches per replica
  // (replica_queue_depth=2) so batch formation pipelines with execution.
  // The column that matters is aggregate goodput vs replica count at
  // saturating load.
  const std::int64_t sweep_count = smoke ? 32 : 96;
  const std::vector<std::int64_t> sweep_lengths = {8, 16, 24, 12};
  swat::Rng sweep_rng(3030);
  std::vector<InferenceRequest> sweep_requests;
  for (std::int64_t i = 0; i < sweep_count; ++i) {
    InferenceRequest req;
    req.id = static_cast<std::uint64_t>(10000 + i);
    const std::int64_t len =
        sweep_lengths[static_cast<std::size_t>(i) % sweep_lengths.size()];
    req.input = swat::random_normal(len, cfg.d_model, sweep_rng);
    sweep_requests.push_back(std::move(req));
  }
  // Calibrate the sweep's own sequential service rate (short requests
  // serve much faster than the main pool's).
  const double sweep_service_rps =
      sequential_service_rps(encoder, sweep_requests);
  const double sweep_deadline_s = std::max(0.1, 8.0 / sweep_service_rps);

  // Replica scaling at every (load, replicas) cell; goodput_speedup is
  // normalized against the 1-replica cell at the same load.
  std::vector<ReplicaSweepResult> replica_sweep;
  for (const double rel : overload_intensities) {
    double base_goodput = 0.0;
    for (const std::size_t replicas : {1u, 2u, 4u}) {
      swat::Rng arrival_rng(4321 + static_cast<std::uint64_t>(rel * 1000.0));
      std::vector<double> arrival(sweep_requests.size());
      double t = 0.0;
      for (double& a : arrival) {
        t += -std::log(1.0 - arrival_rng.uniform(0.0, 1.0)) /
             (rel * sweep_service_rps);
        a = t;
      }

      swat::ServerOptions opt;
      // Singleton batches: each batch spawns only `heads` fork-join tasks,
      // so a single replica underfills a multi-core pool and the replica
      // count — not the batch width — decides machine utilization. This is
      // the regime the pool exists for; on hosts with fewer cores than
      // SWAT_THREADS the speedup column honestly reads ~1x.
      opt.batching.max_batch_requests = 1;
      opt.admission = swat::OverflowPolicy::kShedBulk;
      opt.queue_capacity = 16;
      opt.shed_watermark = 0.75;
      opt.num_replicas = replicas;
      opt.replica_queue_depth = 2;
      Server server(cfg, opt);

      std::vector<Server::Ticket> tickets(sweep_requests.size());
      const auto start = Clock::now();
      for (std::size_t i = 0; i < sweep_requests.size(); ++i) {
        const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(arrival[i]));
        std::this_thread::sleep_until(due);
        InferenceRequest req = sweep_requests[i];  // copy: the pool is reused
        req.priority = (i % 2 == 0) ? swat::Priority::kInteractive
                                    : swat::Priority::kBulk;
        if (req.priority == swat::Priority::kInteractive) {
          req.deadline = swat::Seconds{sweep_deadline_s};
        }
        tickets[i] = server.submit(std::move(req));
      }
      std::vector<double> turnaround_ms[2];
      std::int64_t served = 0;
      for (std::size_t i = 0; i < tickets.size(); ++i) {
        try {
          const RequestResult res = tickets[i].get();
          turnaround_ms[i % 2].push_back(res.counters.turnaround.value * 1e3);
          ++served;
        } catch (const std::exception&) {
          // shed at admission or by deadline — ledgered in server.stats()
        }
      }
      const double makespan =
          std::chrono::duration<double>(Clock::now() - start).count();
      server.drain();

      ReplicaSweepResult row;
      row.replicas = replicas;
      row.intensity_rel = rel;
      row.served = served;
      row.goodput_per_s = static_cast<double>(served) / makespan;
      if (replicas == 1) base_goodput = row.goodput_per_s;
      row.goodput_speedup =
          base_goodput > 0.0 ? row.goodput_per_s / base_goodput : 0.0;
      row.interactive_p50_ms = percentile(turnaround_ms[0], 0.5);
      row.interactive_p99_ms = percentile(turnaround_ms[0], 0.99);
      row.bulk_p50_ms = percentile(turnaround_ms[1], 0.5);
      row.bulk_p99_ms = percentile(turnaround_ms[1], 0.99);
      replica_sweep.push_back(row);
    }
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "error: cannot open " << out_path << " for writing\n";
    return 1;
  }
  out << "{\n"
      << "  \"default_threads\": " << swat::num_threads() << ",\n"
      << "  \"requests\": " << num_requests << ",\n"
      << "  \"total_tokens\": " << total_tokens << ",\n"
      << "  \"sequential_service_rps\": " << service_rps << ",\n"
      << "  \"config\": {\"d_model\": " << cfg.d_model
      << ", \"num_heads\": " << cfg.num_heads << ", \"layers\": " << cfg.layers
      << ", \"window_tokens\": " << cfg.swat.window_cores << "},\n"
      << "  \"arms\": [\n";
  for (std::size_t i = 0; i < arms.size(); ++i) {
    const ArmResult& a = arms[i];
    out << "    {\"intensity_rel\": " << a.intensity_rel
        << ", \"intensity_rps\": " << a.intensity_rps
        << ", \"p50_queue_ms\": " << a.p50_queue_ms
        << ", \"p99_queue_ms\": " << a.p99_queue_ms
        << ", \"tokens_per_s\": " << a.tokens_per_s
        << ", \"batches\": " << a.batches << "}"
        << (i + 1 < arms.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"interactive_deadline_ms\": " << interactive_deadline_s * 1e3
      << ",\n"
      << "  \"overload\": [\n";
  for (std::size_t i = 0; i < overload.size(); ++i) {
    const OverloadResult& o = overload[i];
    out << "    {\"intensity_rel\": " << o.intensity_rel
        << ", \"class\": \"" << o.slo_class
        << "\", \"submitted\": " << o.submitted
        << ", \"served\": " << o.served << ", \"shed\": " << o.shed
        << ", \"deadline_shed\": " << o.deadline_shed
        << ", \"deadline_missed\": " << o.deadline_missed
        << ", \"shed_rate\": " << o.shed_rate
        << ", \"goodput_per_s\": " << o.goodput_per_s
        << ", \"p50_turnaround_ms\": " << o.p50_turnaround_ms
        << ", \"p99_turnaround_ms\": " << o.p99_turnaround_ms << "}"
        << (i + 1 < overload.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"replica_sweep_requests\": " << sweep_count << ",\n"
      << "  \"replica_sweep_service_rps\": " << sweep_service_rps << ",\n"
      << "  \"replica_sweep\": [\n";
  for (std::size_t i = 0; i < replica_sweep.size(); ++i) {
    const ReplicaSweepResult& r = replica_sweep[i];
    out << "    {\"replicas\": " << r.replicas
        << ", \"intensity_rel\": " << r.intensity_rel
        << ", \"served\": " << r.served
        << ", \"goodput_per_s\": " << r.goodput_per_s
        << ", \"goodput_speedup\": " << r.goodput_speedup
        << ", \"interactive_p50_ms\": " << r.interactive_p50_ms
        << ", \"interactive_p99_ms\": " << r.interactive_p99_ms
        << ", \"bulk_p50_ms\": " << r.bulk_p50_ms
        << ", \"bulk_p99_ms\": " << r.bulk_p99_ms << "}"
        << (i + 1 < replica_sweep.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";

  std::printf(
      "server throughput (%lld requests, %lld tokens, seq service %.1f "
      "req/s)\n",
      static_cast<long long>(num_requests),
      static_cast<long long>(total_tokens), service_rps);
  std::printf("%10s %12s %14s %14s %14s %8s\n", "load", "arrive r/s",
              "p50 queue ms", "p99 queue ms", "tokens/s", "batches");
  for (const ArmResult& a : arms) {
    std::printf("%9.1fx %12.1f %14.2f %14.2f %14.0f %8lld\n",
                a.intensity_rel, a.intensity_rps,
                a.p50_queue_ms, a.p99_queue_ms, a.tokens_per_s,
                static_cast<long long>(a.batches));
  }
  std::printf(
      "\noverload sweep (kShedBulk, interactive deadline %.0f ms)\n",
      interactive_deadline_s * 1e3);
  std::printf("%6s %-12s %6s %6s %6s %7s %7s %10s %9s %9s\n", "load",
              "class", "subm", "served", "shed", "dl-shed", "dl-miss",
              "goodput/s", "p50 ms", "p99 ms");
  for (const OverloadResult& o : overload) {
    std::printf(
        "%5.1fx %-12s %6lld %6lld %6lld %7lld %7lld %10.1f %9.2f %9.2f\n",
        o.intensity_rel, o.slo_class.c_str(),
        static_cast<long long>(o.submitted),
        static_cast<long long>(o.served), static_cast<long long>(o.shed),
        static_cast<long long>(o.deadline_shed),
        static_cast<long long>(o.deadline_missed), o.goodput_per_s,
        o.p50_turnaround_ms, o.p99_turnaround_ms);
  }
  std::printf(
      "\nreplica-scaling sweep (%lld short requests, seq service %.1f "
      "req/s; kShedBulk, singleton batches, queue_depth 2)\n",
      static_cast<long long>(sweep_count), sweep_service_rps);
  std::printf("%6s %9s %6s %10s %8s %9s %9s %9s %9s\n", "load", "replicas",
              "served", "goodput/s", "speedup", "int p50", "int p99",
              "bulk p50", "bulk p99");
  for (const ReplicaSweepResult& r : replica_sweep) {
    std::printf("%5.1fx %9zu %6lld %10.1f %7.2fx %9.2f %9.2f %9.2f %9.2f\n",
                r.intensity_rel, r.replicas, static_cast<long long>(r.served),
                r.goodput_per_s, r.goodput_speedup, r.interactive_p50_ms,
                r.interactive_p99_ms, r.bulk_p50_ms, r.bulk_p99_ms);
  }
  std::cout << "wrote " << out_path << "\n";
  return out ? 0 : 1;
}
