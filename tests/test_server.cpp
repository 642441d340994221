// Tests for the asynchronous continuous-batching server (src/runtime/
// server.hpp).
//
// The load-bearing guarantee: for any arrival order, SWAT_THREADS, queue
// bound, and batch cut the scheduler happens to make, every request's
// output and counters are bit-identical to a solo Encoder::forward run —
// only the timing-dependent fields (batch_index, queue_delay) may differ.
// And shutdown with in-flight requests completes or rejects every ticket:
// no hangs, no leaks.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/concurrent_queue.hpp"
#include "common/fault_injection.hpp"
#include "common/thread_pool.hpp"
#include "runtime/server.hpp"
#include "test_util.hpp"

namespace swat {
namespace {

using model::AttentionBackend;
using model::EncoderConfig;

using swat::testing::ThreadCountGuard;

/// The compact encoder geometry the runtime tests standardize on.
EncoderConfig small_config(AttentionBackend backend) {
  EncoderConfig cfg;
  cfg.d_model = 64;
  cfg.num_heads = 2;
  cfg.ffn_mult = 2;
  cfg.layers = 2;
  cfg.backend = backend;
  cfg.swat = SwatConfig();
  cfg.swat.head_dim = 32;
  cfg.swat.window_cores = 32;
  cfg.weight_seed = 5;
  return cfg;
}

std::vector<InferenceRequest> make_requests(
    const EncoderConfig& cfg, const std::vector<std::int64_t>& lengths) {
  Rng rng(99);
  std::vector<InferenceRequest> reqs;
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    InferenceRequest req;
    req.id = 1000 + i;
    req.input = random_normal(lengths[i], cfg.d_model, rng);
    reqs.push_back(std::move(req));
  }
  return reqs;
}

// ------------------------------------------------------------- server ----

/// Async outputs and counters must be bit-identical to the per-request
/// sequential oracle for any arrival order — batches cut by arrival timing
/// may differ run to run, results may not.
void check_async_vs_sequential(AttentionBackend backend) {
  const EncoderConfig cfg = small_config(backend);
  const std::vector<std::int64_t> lengths = {5, 63, 64, 65, 1, 40, 128, 64};
  std::vector<InferenceRequest> reqs = make_requests(cfg, lengths);

  // Oracle results, one request at a time.
  std::vector<RequestResult> oracle;
  for (const InferenceRequest& req : reqs) {
    oracle.push_back(testing::solo_result(cfg, req));
  }

  // Three arrival orders: submission, reversed, shuffled.
  std::vector<std::vector<std::size_t>> orders;
  std::vector<std::size_t> base(reqs.size());
  for (std::size_t i = 0; i < base.size(); ++i) base[i] = i;
  orders.push_back(base);
  orders.emplace_back(base.rbegin(), base.rend());
  std::mt19937_64 shuffle_rng(7);
  std::shuffle(base.begin(), base.end(), shuffle_rng);
  orders.push_back(base);

  for (const std::vector<std::size_t>& order : orders) {
    Server server(cfg);
    std::vector<Server::Ticket> tickets(reqs.size());
    for (const std::size_t i : order) {
      tickets[i] = server.submit(reqs[i]);  // submit copies its argument
    }
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const RequestResult got = tickets[i].get();
      EXPECT_EQ(got.id, reqs[i].id);
      testing::expect_matrix_equal(got.output, oracle[i].output,
                                   "async vs sequential oracle");
      EXPECT_EQ(got.counters.tokens, oracle[i].counters.tokens);
      EXPECT_EQ(got.counters.swat_offchip_traffic.count,
                oracle[i].counters.swat_offchip_traffic.count);
      EXPECT_EQ(got.counters.swat_core_loads,
                oracle[i].counters.swat_core_loads);
      EXPECT_EQ(got.counters.heads_run, oracle[i].counters.heads_run);
      EXPECT_EQ(got.counters.model_flops, oracle[i].counters.model_flops);
      EXPECT_GE(got.counters.batch_index, 0);
      EXPECT_GE(got.counters.queue_delay.value, 0.0);
    }
  }
}

TEST(Server, AsyncMatchesSequentialOracleHostBackend) {
  check_async_vs_sequential(AttentionBackend::kWindowExact);
}

TEST(Server, AsyncMatchesSequentialOracleSwatSimulator) {
  check_async_vs_sequential(AttentionBackend::kSwatSimulator);
}

/// Outputs must not depend on the thread count — the repo-wide determinism
/// contract extended across the async path (SWAT_THREADS={1,4}).
TEST(Server, ThreadCountInvariance) {
  const EncoderConfig cfg = small_config(AttentionBackend::kWindowExact);
  std::vector<InferenceRequest> reqs =
      make_requests(cfg, {17, 64, 33, 65, 5, 48, 80, 64});

  const auto serve_all = [&](int threads) {
    ThreadCountGuard guard(threads);
    Server server(cfg);
    std::vector<Server::Ticket> tickets = server.submit_many(reqs);
    std::vector<RequestResult> results;
    for (Server::Ticket& t : tickets) results.push_back(t.get());
    return results;
  };

  const std::vector<RequestResult> at1 = serve_all(1);
  const std::vector<RequestResult> at4 = serve_all(4);
  ASSERT_EQ(at1.size(), at4.size());
  for (std::size_t i = 0; i < at1.size(); ++i) {
    testing::expect_matrix_equal(at4[i].output, at1[i].output,
                                 "threads=4 vs threads=1");
    EXPECT_EQ(at4[i].counters.swat_offchip_traffic.count,
              at1[i].counters.swat_offchip_traffic.count);
    EXPECT_EQ(at4[i].counters.swat_core_loads,
              at1[i].counters.swat_core_loads);
  }
}

/// A tight queue bound with blocking admission: every request still serves
/// (backpressure, not loss), and results stay bit-identical.
TEST(Server, TinyBlockingQueueServesEverything) {
  const EncoderConfig cfg = small_config(AttentionBackend::kWindowExact);
  std::vector<InferenceRequest> reqs =
      make_requests(cfg, {31, 64, 17, 50, 64, 9, 100, 3});
  const model::Encoder oracle(cfg);

  ServerOptions opt;
  opt.queue_capacity = 1;  // the tightest legal bound
  opt.admission = OverflowPolicy::kBlock;
  Server server(cfg, opt);

  std::vector<Server::Ticket> tickets;
  for (const InferenceRequest& req : reqs) {
    tickets.push_back(server.submit(req));
  }
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const RequestResult got = tickets[i].get();
    testing::expect_matrix_equal(got.output, oracle.forward(reqs[i].input),
                                 "capacity-1 queue vs Encoder::forward");
  }
}

/// kReject sheds load instead of blocking: a ticket either resolves with a
/// bit-identical result or throws — and at least the first submission (made
/// against an empty queue) must serve.
TEST(Server, RejectPolicyShedsOrServesEveryTicket) {
  const EncoderConfig cfg = small_config(AttentionBackend::kWindowExact);
  std::vector<InferenceRequest> reqs = make_requests(
      cfg, std::vector<std::int64_t>(16, 64));
  const model::Encoder oracle(cfg);

  ServerOptions opt;
  opt.queue_capacity = 2;
  opt.admission = OverflowPolicy::kReject;
  Server server(cfg, opt);

  std::vector<Server::Ticket> tickets;
  for (const InferenceRequest& req : reqs) {
    tickets.push_back(server.submit(req));
  }
  std::size_t served = 0;
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    try {
      const RequestResult got = tickets[i].get();
      testing::expect_matrix_equal(got.output, oracle.forward(reqs[i].input),
                                   "rejected-policy survivor");
      ++served;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("queue full"), std::string::npos);
    }
  }
  EXPECT_GE(served, 1u) << "an empty queue must admit";
}

/// Shutdown with in-flight requests completes every admitted ticket and
/// rejects everything submitted afterwards — no hangs, no broken promises.
TEST(Server, ShutdownCompletesInflightRejectsLate) {
  const EncoderConfig cfg = small_config(AttentionBackend::kWindowExact);
  std::vector<InferenceRequest> reqs =
      make_requests(cfg, std::vector<std::int64_t>(12, 48));
  const model::Encoder oracle(cfg);

  Server server(cfg);
  std::vector<Server::Ticket> tickets =
      server.submit_many(std::move(reqs));
  server.shutdown();  // closes admission, serves the backlog, joins

  std::vector<InferenceRequest> late =
      make_requests(cfg, std::vector<std::int64_t>{16});
  Server::Ticket late_ticket = server.submit(std::move(late[0]));

  const std::vector<InferenceRequest> again = make_requests(
      cfg, std::vector<std::int64_t>(12, 48));
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const RequestResult got = tickets[i].get();  // must not hang
    testing::expect_matrix_equal(got.output, oracle.forward(again[i].input),
                                 "ticket served across shutdown");
  }
  EXPECT_THROW(late_ticket.get(), std::runtime_error);
  EXPECT_EQ(server.totals().requests, 12);
}

/// A malformed request fails its own ticket with an actionable message and
/// never reaches the scheduler.
TEST(Server, MalformedInputRejectsTicketOnly) {
  const EncoderConfig cfg = small_config(AttentionBackend::kWindowExact);
  Server server(cfg);
  InferenceRequest bad;
  bad.id = 1;
  bad.input = MatrixF(3, cfg.d_model + 1);  // wrong width
  Server::Ticket ticket = server.submit(std::move(bad));
  EXPECT_THROW(ticket.get(), std::invalid_argument);

  // The server still serves well-formed traffic afterwards.
  std::vector<InferenceRequest> good = make_requests(cfg, {20});
  const model::Encoder oracle(cfg);
  const RequestResult got = server.submit(std::move(good[0])).get();
  const std::vector<InferenceRequest> again = make_requests(cfg, {20});
  testing::expect_matrix_equal(got.output, oracle.forward(again[0].input));
  EXPECT_EQ(server.totals().requests, 1);
}

/// One malformed request fails only itself, at admission: a NaN or +-Inf
/// element in B never reaches the fused kernel, and neither does a negative
/// or NaN deadline (which must not fall back to the default deadline). A —
/// submitted in the same burst and batchable with B — serves
/// bit-identically to the solo oracle, and the ledger records B as shed,
/// not as a failed batch.
TEST(Server, NonFiniteInputShedsOnlyItsOwnTicket) {
  const EncoderConfig cfg = small_config(AttentionBackend::kFusedStreaming);
  const std::vector<InferenceRequest> clean = make_requests(cfg, {40, 40});
  const RequestResult oracle = testing::solo_result(cfg, clean[0]);

  const float inf = std::numeric_limits<float>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Case {
    float element;    ///< written to B's input at (3, 5)
    double deadline;  ///< B's deadline in seconds
    const char* needle;
  };
  for (const Case c : {Case{std::numeric_limits<float>::quiet_NaN(), 0.0,
                            "(3, 5)"},
                       Case{inf, 0.0, "(3, 5)"}, Case{-inf, 0.0, "(3, 5)"},
                       Case{0.5f, -1.0, "deadline"},
                       Case{0.5f, nan, "deadline"}}) {
    SCOPED_TRACE("element " + std::to_string(c.element) + ", deadline " +
                 std::to_string(c.deadline));
    std::vector<InferenceRequest> burst = clean;
    burst[1].input(3, 5) = c.element;
    burst[1].deadline = Seconds{c.deadline};
    Server server(cfg);
    std::vector<Server::Ticket> tickets = server.submit_many(burst);
    try {
      tickets[1].get();
      FAIL() << "a malformed request was served";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.needle), std::string::npos)
          << e.what();
    }
    const RequestResult got = tickets[0].get();
    testing::expect_matrix_equal(got.output, oracle.output,
                                 "clean batch-mate vs solo oracle");
    server.drain();
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.of(Priority::kInteractive).shed, 1);
    EXPECT_EQ(stats.of(Priority::kInteractive).served, 1);
  }
}

/// No NaN or Inf output is returned as a success. Finite inputs scaled by
/// 1e3 overflow the fused kernel's Eq. 1 exponent (no max subtraction):
/// through one layer they come out all-NaN without tripping the kernel's
/// denominator check (a second layer would, failing the whole batch — the
/// open per-sequence status item). That request fails only its own
/// ticket, counted failed and kept out of the totals, while its batch-mate
/// serves bit-identically to the solo oracle.
TEST(Server, NonFiniteOutputFailsOnlyItsOwnTicket) {
  EncoderConfig cfg = small_config(AttentionBackend::kFusedStreaming);
  cfg.layers = 1;
  cfg.swat.window_cores = 128;
  std::vector<InferenceRequest> burst = make_requests(cfg, {40, 40});
  for (float& x : burst[1].input.flat()) x *= 1e3f;
  const RequestResult oracle = testing::solo_result(cfg, burst[0]);

  Server server(cfg);
  std::vector<Server::Ticket> tickets = server.submit_many(burst);
  testing::expect_matrix_equal(tickets[0].get().output, oracle.output,
                               "clean batch-mate vs solo oracle");
  server.drain();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.of(Priority::kInteractive).served, 1);
  EXPECT_EQ(stats.of(Priority::kInteractive).failed, 1);
  EXPECT_EQ(stats.of(Priority::kInteractive).shed, 0);
  EXPECT_EQ(server.totals().requests, 1);
  EXPECT_EQ(server.totals().tokens, 40);
  // Read the failure only after shutdown() has joined the replica thread:
  // the join orders the replica's release of its exception_ptr reference
  // before the read of what(). The refcount that would otherwise order
  // them lives in the uninstrumented libstdc++, so TSan reports a race.
  server.shutdown();
  try {
    tickets[1].get();
    FAIL() << "a non-finite output was returned as a success";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("not finite"), std::string::npos)
        << e.what();
  }
}

/// drain() blocks until every admitted request resolved; totals reconcile
/// with the per-ticket counters (integer fields exactly; model_flops sums
/// in scheduler order, so compare within rounding).
TEST(Server, DrainThenTotalsReconcile) {
  const EncoderConfig cfg = small_config(AttentionBackend::kSwatSimulator);
  std::vector<InferenceRequest> reqs = make_requests(cfg, {9, 33, 64, 12});
  Server server(cfg);
  std::vector<Server::Ticket> tickets = server.submit_many(std::move(reqs));
  server.drain();

  RuntimeTotals sum;
  for (Server::Ticket& t : tickets) {
    const RequestResult res = t.get();
    ++sum.requests;
    sum.tokens += res.counters.tokens;
    sum.swat_offchip_traffic += res.counters.swat_offchip_traffic;
    sum.swat_core_loads += res.counters.swat_core_loads;
    sum.heads_run += res.counters.heads_run;
    sum.model_flops += res.counters.model_flops;
  }
  const RuntimeTotals totals = server.totals();
  EXPECT_EQ(sum.requests, totals.requests);
  EXPECT_EQ(sum.tokens, totals.tokens);
  EXPECT_EQ(sum.swat_offchip_traffic.count,
            totals.swat_offchip_traffic.count);
  EXPECT_EQ(sum.swat_core_loads, totals.swat_core_loads);
  EXPECT_EQ(sum.heads_run, totals.heads_run);
  EXPECT_NEAR(sum.model_flops, totals.model_flops,
              1e-9 * sum.model_flops);
  EXPECT_GE(totals.batches, 1);
  EXPECT_EQ(totals.heads_run,
            cfg.layers * cfg.num_heads * totals.requests);
}

/// Each request is served in its own input buffer: a served ticket's
/// output is the matrix the caller submitted (same data() pointer) —
/// through a burst the scheduler may pack and through a lone request after
/// a drain — and its bytes equal Encoder::forward.
TEST(Server, ServedOutputIsTheSubmittedInputBuffer) {
  const EncoderConfig cfg = small_config(AttentionBackend::kWindowExact);
  const model::Encoder oracle(cfg);
  std::vector<InferenceRequest> reqs =
      make_requests(cfg, {40, 5, 63, 17, 1, 64});
  std::vector<MatrixF> want;
  std::vector<const float*> buffers;
  for (const InferenceRequest& req : reqs) {
    want.push_back(oracle.forward(req.input));
    buffers.push_back(req.input.data());
  }
  InferenceRequest lone = std::move(reqs.back());
  reqs.pop_back();

  Server server(cfg);
  std::vector<Server::Ticket> tickets = server.submit_many(std::move(reqs));
  server.drain();
  tickets.push_back(server.submit(std::move(lone)));
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const RequestResult got = tickets[i].get();
    EXPECT_EQ(got.output.data(), buffers[i]) << "ticket " << i;
    testing::expect_matrix_equal(got.output, want[i],
                                 "served in its input vs Encoder::forward");
  }
}

/// A latency budget below one request's predicted cost must serve every
/// request as a singleton batch — the budget never starves admission.
TEST(Server, TinyLatencyBudgetFormsSingletonsNeverStarves) {
  const EncoderConfig cfg = small_config(AttentionBackend::kWindowExact);
  ServerOptions opt;
  opt.batching.max_batch_requests = 64;
  opt.batching.max_batch_latency = Seconds{1e-12};
  Server server(cfg, opt);

  std::vector<InferenceRequest> reqs =
      make_requests(cfg, std::vector<std::int64_t>(6, 64));
  std::vector<Server::Ticket> tickets = server.submit_many(std::move(reqs));
  for (Server::Ticket& t : tickets) (void)t.get();
  EXPECT_EQ(server.totals().batches, 6);
  EXPECT_EQ(server.totals().requests, 6);
}

/// Concurrent submitters: the MPMC queue, the executor's one arena, and the
/// scheduler under real contention (the configuration the TSan CI arm
/// watches). Results must still be bit-identical to the oracle.
TEST(Server, ConcurrentSubmittersShareOneArena) {
  const EncoderConfig cfg = small_config(AttentionBackend::kWindowExact);
  const std::vector<std::int64_t> length_cycle = {31, 64, 17, 50};
  const model::Encoder oracle(cfg);

  ServerOptions opt;
  opt.queue_capacity = 4;  // force backpressure under contention
  Server server(cfg, opt);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::vector<std::vector<RequestResult>> results(kThreads);
  std::vector<std::vector<MatrixF>> sent(kThreads);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      Rng rng(1000 + static_cast<std::uint64_t>(t));
      for (int k = 0; k < kPerThread; ++k) {
        InferenceRequest req;
        req.id = static_cast<std::uint64_t>(t * kPerThread + k);
        req.input = random_normal(
            length_cycle[static_cast<std::size_t>(k) % length_cycle.size()],
            cfg.d_model, rng);
        sent[t].push_back(req.input);
        results[t].push_back(server.submit(std::move(req)).get());
      }
    });
  }
  for (std::thread& t : submitters) t.join();

  for (int t = 0; t < kThreads; ++t) {
    for (int k = 0; k < kPerThread; ++k) {
      testing::expect_matrix_equal(results[t][k].output,
                                   oracle.forward(sent[t][k]),
                                   "concurrent submitter vs oracle");
    }
  }
  // Shape classes are the BATCH's ceil(rows / bucket_width): every request
  // is <= 64 tokens and a batch packs at most max_batch_requests of them,
  // so the class set is bounded by the request cap no matter how the
  // scheduler cut the traffic.
  EXPECT_GE(server.plan_count(), 1u);
  EXPECT_LE(server.plan_count(),
            static_cast<std::size_t>(
                server.options().batching.max_batch_requests));
  EXPECT_EQ(server.totals().requests, kThreads * kPerThread);
}

/// Under sustained load the arrival queue never goes empty, so the
/// queue-empty flush alone would strand a request in a sparse length class
/// behind bucket-mates that never arrive. The claim-round bound must limit
/// that wait with no batching-wait option set: a lone long request stays
/// responsive while a filler stream keeps the scheduler saturated.
TEST(Server, ClaimRoundBoundsSparseClassWaitUnderSustainedLoad) {
  const EncoderConfig cfg = small_config(AttentionBackend::kWindowExact);
  ServerOptions opt;
  opt.batching.max_batch_requests = 4;
  opt.batching.bucket_width = 64;
  Server server(cfg, opt);
  const model::Encoder oracle(cfg);

  Rng rng(4242);
  // The victim: class 4 — no other request will ever share its bucket.
  InferenceRequest victim;
  victim.id = 1;
  victim.input = random_normal(200, cfg.d_model, rng);
  Server::Ticket victim_ticket = server.submit(victim);

  // Filler stream: class-1 singletons that keep the queue busy until the
  // victim resolves (or a deadline long past the wait bound).
  std::vector<Server::Ticket> fillers;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  while (victim_ticket.wait_for(std::chrono::seconds(0)) !=
             std::future_status::ready &&
         std::chrono::steady_clock::now() < deadline &&
         fillers.size() < 5000) {
    InferenceRequest filler;
    filler.id = 100 + fillers.size();
    filler.input = random_normal(16, cfg.d_model, rng);
    fillers.push_back(server.submit(std::move(filler)));
  }

  const RequestResult got = victim_ticket.get();
  testing::expect_matrix_equal(got.output, oracle.forward(victim.input),
                               "sparse-class victim vs Encoder::forward");
  // Without a wait bound the victim only serves once the filler stream
  // stops (>= the 3 s deadline); with the round bound, the wait is one
  // claim round plus one in-flight batch.
  EXPECT_LT(got.counters.queue_delay.value, 1.5)
      << "sparse-class request waited as if the round bound were missing";
  for (Server::Ticket& t : fillers) (void)t.get();
}

/// A backlog that queued behind a busy engine must be served in full
/// batches, not one request at a time. The first batch wedges the only
/// replica; twelve same-bucket requests queue behind it. Once it returns,
/// the scheduler must form them into ceil(12 / 4) = 3 batches. A cut on
/// time since admission sees every one of them as overdue and serves 12
/// singletons.
TEST(Server, BacklogBehindWedgedBatchFormsFullBatches) {
  FaultInjector::global().reset();
  const EncoderConfig cfg = small_config(AttentionBackend::kWindowExact);
  ServerOptions opt;
  opt.batching.max_batch_requests = 4;
  opt.batching.bucket_width = 64;
  Server server(cfg, opt);

  constexpr std::size_t kBacklog = 12;
  const std::vector<InferenceRequest> reqs =
      make_requests(cfg, std::vector<std::int64_t>(kBacklog + 1, 48));
  std::vector<RequestResult> oracle;
  for (const InferenceRequest& req : reqs) {
    oracle.push_back(testing::solo_result(cfg, req));
  }

  FaultAction wedge;
  wedge.kind = FaultKind::kDelay;
  wedge.delay = Seconds{10.0};  // the bound; released by disarm below
  wedge.count = 1;
  FaultInjector::global().arm("executor.execute", wedge);

  std::vector<Server::Ticket> tickets;
  tickets.push_back(server.submit(reqs[0]));
  while (FaultInjector::global().fires("executor.execute") != 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (std::size_t i = 1; i <= kBacklog; ++i) {
    tickets.push_back(server.submit(reqs[i]));
  }
  // The scheduler cannot claim while the only replica is busy, so the
  // whole backlog sits in the admission queue. Let it age well past any
  // fixed batching wait before the wedge releases.
  ASSERT_EQ(server.stats().queue_depth, kBacklog);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  FaultInjector::global().disarm("executor.execute");

  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const RequestResult got = tickets[i].get();
    EXPECT_EQ(got.id, reqs[i].id);
    testing::expect_matrix_equal(got.output, oracle[i].output,
                                 "backlog batch vs solo oracle");
    EXPECT_EQ(got.counters.model_flops, oracle[i].counters.model_flops);
  }
  server.drain();
  EXPECT_EQ(server.totals().requests,
            static_cast<std::int64_t>(kBacklog + 1));
  EXPECT_LE(server.totals().batches, 4)
      << "the backlog was served one request at a time";
  FaultInjector::global().reset();
}

TEST(ServerOptions, ValidateRejectsZeroCapacity) {
  ServerOptions opt;
  opt.queue_capacity = 0;
  try {
    opt.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("queue_capacity"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace swat
