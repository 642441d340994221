// Tests for the sharded engine-replica pool behind swat::Server
// (ServerOptions::num_replicas): cross-replica determinism, the
// per-replica stats/health ledger, replica-death quarantine, the shared
// ready queue's claim-ahead bound and its service around a wedged replica,
// the per-replica watchdog, and a seeded chaos property test.
//
// The load-bearing guarantees under test:
//   * WHICH replica executes a batch can never change a result bit: for
//     any replica count, arrival order, and SWAT_THREADS, every served
//     output and counter is bit-identical to a solo sequential run, with
//     every replica reading replica 0's one read-only weight pack.
//   * The per-replica conservation law (dispatched == served + failed
//     once drained) holds per replica and sums to the front-end class
//     ledger, under healthy serving and under injected chaos.
//   * A replica death rejects only the batch that replica had claimed,
//     quarantines the replica (degraded kStalled health, not kFailed),
//     and the survivors keep serving; every ticket still resolves.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.hpp"
#include "runtime/cost_model.hpp"
#include "runtime/engine.hpp"
#include "runtime/server.hpp"
#include "test_util.hpp"

namespace swat {
namespace {

using model::AttentionBackend;
using model::EncoderConfig;

using swat::testing::ThreadCountGuard;

/// The compact encoder geometry the runtime tests standardize on.
EncoderConfig small_config() {
  EncoderConfig cfg;
  cfg.d_model = 64;
  cfg.num_heads = 2;
  cfg.ffn_mult = 2;
  cfg.layers = 2;
  cfg.backend = AttentionBackend::kWindowExact;
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

InferenceRequest make_request(std::uint64_t id, std::int64_t len,
                              Priority priority = Priority::kInteractive,
                              Seconds deadline = Seconds{0.0}) {
  Rng rng(static_cast<std::uint64_t>(id) + 7);
  InferenceRequest req;
  req.id = id;
  req.input = random_normal(len, 64, rng);
  req.priority = priority;
  req.deadline = deadline;
  return req;
}

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Every test starts and ends with the injector in its pristine no-op
/// state, so an armed point can never leak into an unrelated test.
class ReplicaPoolTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::global().reset(); }
  void TearDown() override { FaultInjector::global().reset(); }
};

/// Sum a per-replica counter across the snapshot.
template <typename F>
std::int64_t sum_replicas(const ServerStats& stats, F&& field) {
  std::int64_t total = 0;
  for (const ReplicaStats& rep : stats.replicas) total += field(rep);
  return total;
}

/// The full cross-ledger audit: per-class conservation, per-replica
/// conservation, and the replica-sum-equals-front-end identities. Valid
/// on any drained server (no in-flight work).
void expect_conservation(const ServerStats& stats) {
  for (std::size_t c = 0; c < kPriorityClasses; ++c) {
    const ClassStats& cls = stats.per_class[c];
    EXPECT_EQ(cls.submitted, cls.served + cls.shed + cls.deadline_shed +
                                 cls.failed)
        << "front-end conservation, class " << c;
    EXPECT_LE(cls.deadline_missed, cls.served);

    std::int64_t replica_served = 0;
    std::int64_t replica_missed = 0;
    std::int64_t replica_failed = 0;
    for (const ReplicaStats& rep : stats.replicas) {
      replica_served += rep.per_class[c].served;
      replica_missed += rep.per_class[c].deadline_missed;
      replica_failed += rep.per_class[c].failed;
    }
    // Everything SERVED went through exactly one replica; front-end
    // failures can exceed the replica sum (scheduler death and total-pool
    // rejections never reach a replica ledger).
    EXPECT_EQ(replica_served, cls.served) << "class " << c;
    EXPECT_EQ(replica_missed, cls.deadline_missed) << "class " << c;
    EXPECT_LE(replica_failed, cls.failed) << "class " << c;
  }
  for (std::size_t r = 0; r < stats.replicas.size(); ++r) {
    const ReplicaStats& rep = stats.replicas[r];
    EXPECT_EQ(rep.in_flight(), 0) << "replica " << r << " drained";
    EXPECT_EQ(rep.dispatched(), rep.served() + rep.failed())
        << "replica " << r << " conservation";
  }
  EXPECT_EQ(sum_replicas(stats, [](const ReplicaStats& r) {
              return r.batches;
            }),
            stats.batches);
}

// ------------------------------------------------- cross-replica oracle ----

/// Bit-identity of every output against the solo sequential oracle, for
/// num_replicas x arrival order x SWAT_THREADS — the determinism contract
/// extended across the pool. Also proves per-replica serve counters sum
/// to the total.
TEST_F(ReplicaPoolTest, BitIdentityAcrossReplicasOrdersAndThreads) {
  const EncoderConfig cfg = small_config();
  const std::vector<std::int64_t> lengths = {5, 63, 64, 65, 1, 40, 128, 64,
                                             17, 33, 80, 64};
  std::vector<InferenceRequest> reqs = make_requests(cfg, lengths);

  // Oracle results, one request at a time (thread-count invariant by the
  // repo-wide kernel contract, so one oracle serves every arm).
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

  for (const int threads : {1, 4}) {
    ThreadCountGuard guard(threads);
    for (const std::size_t replicas : {1u, 2u, 4u}) {
      for (const std::vector<std::size_t>& order : orders) {
        ServerOptions opt;
        opt.num_replicas = replicas;
        // Depth 1 pipelines dispatch so replicas actually run
        // concurrently — determinism must survive the extra
        // interleaving, not depend on its absence.
        opt.replica_queue_depth = replicas > 1 ? 1 : 0;
        Server server(cfg, opt);
        std::vector<Server::Ticket> tickets(reqs.size());
        for (const std::size_t i : order) {
          tickets[i] = server.submit(reqs[i]);
        }
        for (std::size_t i = 0; i < reqs.size(); ++i) {
          const RequestResult got = tickets[i].get();
          EXPECT_EQ(got.id, reqs[i].id);
          testing::expect_matrix_equal(got.output, oracle[i].output,
                                       "replica pool vs sequential oracle");
          EXPECT_EQ(got.counters.tokens, oracle[i].counters.tokens);
          EXPECT_EQ(got.counters.heads_run, oracle[i].counters.heads_run);
          EXPECT_EQ(got.counters.model_flops,
                    oracle[i].counters.model_flops);
        }
        server.drain();
        const ServerStats stats = server.stats();
        ASSERT_EQ(stats.replicas.size(), replicas);
        expect_conservation(stats);
        EXPECT_EQ(stats.of(Priority::kInteractive).served,
                  static_cast<std::int64_t>(reqs.size()));
      }
    }
  }
}

/// Replicas 1..N-1 read replica 0's one read-only weight pack: outputs
/// stay bit-identical to the solo oracle and the packed footprint stays
/// the single-engine one at 1, 2 and 4 replicas.
TEST_F(ReplicaPoolTest, SharedWeightPackBitIdenticalAtSingleFootprint) {
  const EncoderConfig cfg = small_config();
  std::vector<InferenceRequest> reqs =
      make_requests(cfg, {31, 64, 17, 50, 64, 9, 100, 3});

  std::vector<RequestResult> oracle;
  for (const InferenceRequest& req : reqs) {
    oracle.push_back(testing::solo_result(cfg, req));
  }
  const std::size_t single_pack_floats =
      Engine::compile(cfg, 8).packed_weight_floats();
  ASSERT_GT(single_pack_floats, 0u);

  for (const std::size_t replicas : {1u, 2u, 4u}) {
    SCOPED_TRACE("replicas " + std::to_string(replicas));
    ServerOptions opt;
    opt.num_replicas = replicas;
    opt.replica_queue_depth = 1;
    Server server(cfg, opt);
    EXPECT_EQ(server.packed_weight_floats(), single_pack_floats);

    std::vector<Server::Ticket> tickets = server.submit_many(reqs);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const RequestResult got = tickets[i].get();
      testing::expect_matrix_equal(got.output, oracle[i].output,
                                   "shared pack vs sequential oracle");
    }
  }
}

// -------------------------------------------------- per-replica ledger ----

/// Mixed-class concurrent load over a multi-replica pool: the per-replica
/// conservation law holds, and the replica ledgers sum to the front-end
/// class counters.
TEST_F(ReplicaPoolTest, ConservationUnderMixedClassLoad) {
  ServerOptions opt;
  opt.num_replicas = 3;
  opt.replica_queue_depth = 2;
  opt.batching.max_batch_requests = 4;
  opt.default_deadline = Seconds{30.0};  // generous: missed, never shed
  Server server(small_config(), opt);

  std::vector<std::thread> submitters;
  std::vector<std::vector<Server::Ticket>> tickets(4);
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&, t] {
      for (int k = 0; k < 12; ++k) {
        const Priority priority =
            k % 3 == 0 ? Priority::kBulk : Priority::kInteractive;
        tickets[t].push_back(server.submit(make_request(
            static_cast<std::uint64_t>(t * 100 + k), 16 + 8 * (k % 5),
            priority)));
      }
    });
  }
  for (std::thread& thread : submitters) thread.join();
  server.drain();

  int resolved = 0;
  for (auto& lane : tickets) {
    for (Server::Ticket& ticket : lane) {
      ASSERT_EQ(ticket.wait_for(std::chrono::seconds(0)),
                std::future_status::ready);
      EXPECT_NO_THROW(ticket.get());
      ++resolved;
    }
  }
  EXPECT_EQ(resolved, 48);

  const ServerStats stats = server.stats();
  ASSERT_EQ(stats.replicas.size(), 3u);
  expect_conservation(stats);
  EXPECT_EQ(stats.of(Priority::kInteractive).served +
                stats.of(Priority::kBulk).served,
            48);
  EXPECT_EQ(sum_replicas(stats, [](const ReplicaStats& r) {
              return r.served();
            }),
            48);
}

// ------------------------------------------------------- replica death ----

/// One replica of three dies on its first claim at replica_queue_depth
/// `depth`; the rest of the pool serves everything else.
void expect_replica_death_isolated(std::size_t depth) {
  ServerOptions opt;
  opt.num_replicas = 3;
  opt.replica_queue_depth = depth;
  opt.batching.max_batch_requests = 4;
  Server server(small_config(), opt);

  FaultAction death;
  death.kind = FaultKind::kThrow;
  death.count = 1;  // exactly one replica dies, on its first claim
  FaultInjector::global().arm("replica.execute", death);

  std::vector<Server::Ticket> first_wave;
  for (int k = 0; k < 12; ++k) {
    first_wave.push_back(
        server.submit(make_request(static_cast<std::uint64_t>(k), 24)));
  }

  // drain() must return even though a replica died mid-claim.
  auto drained = std::async(std::launch::async, [&] { server.drain(); });
  ASSERT_EQ(drained.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);

  int served = 0;
  int failed = 0;
  for (Server::Ticket& ticket : first_wave) {
    ASSERT_EQ(ticket.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    try {
      ticket.get();
      ++served;
    } catch (const FaultInjectedError&) {
      ++failed;
    }
  }
  EXPECT_EQ(served + failed, 12);
  EXPECT_GE(failed, 1);  // the dead replica's claimed batch
  EXPECT_LE(failed, 4);  // ...and ONLY that batch
  EXPECT_GE(served, 8);  // survivors drained everything else

  // Exactly one quarantined replica; the pool degrades, it does not fail.
  const ServerStats stats = server.stats();
  int quarantined = 0;
  for (const ReplicaStats& rep : stats.replicas) {
    if (rep.quarantined) ++quarantined;
  }
  EXPECT_EQ(quarantined, 1);
  expect_conservation(stats);

  const ServerHealth health = server.health();
  EXPECT_EQ(health.state, HealthState::kStalled);  // degraded, serving
  ASSERT_EQ(health.replicas.size(), 3u);
  int dead = 0;
  for (const ReplicaHealth& rep : health.replicas) {
    if (rep.state == HealthState::kFailed) ++dead;
  }
  EXPECT_EQ(dead, 1);

  // The survivors keep absorbing new traffic.
  std::vector<Server::Ticket> second_wave;
  for (int k = 0; k < 6; ++k) {
    second_wave.push_back(
        server.submit(make_request(static_cast<std::uint64_t>(100 + k), 24)));
  }
  for (Server::Ticket& ticket : second_wave) {
    EXPECT_NO_THROW(ticket.get());
  }
}

/// A replica death ("replica.execute" crossing) rejects exactly the batch
/// that replica had claimed, quarantines it, and the pool keeps serving —
/// degraded health, every ticket resolves, drain() returns. At depth 2 the
/// ready queue can hold claimed-ahead batches when the replica dies; the
/// survivors must serve them.
TEST_F(ReplicaPoolTest, ReplicaDeathIsolatedPoolKeepsServing) {
  for (const std::size_t depth : {0u, 2u}) {
    SCOPED_TRACE("replica_queue_depth " + std::to_string(depth));
    FaultInjector::global().reset();
    expect_replica_death_isolated(depth);
  }
}

/// When EVERY replica dies, serving has genuinely stopped: admission
/// closes, every pending ticket is cleanly rejected, health is kFailed.
TEST_F(ReplicaPoolTest, AllReplicasDeadFailsCleanly) {
  ServerOptions opt;
  opt.num_replicas = 2;
  opt.batching.max_batch_requests = 1;
  Server server(small_config(), opt);

  FaultAction death;
  death.kind = FaultKind::kThrow;
  death.count = -1;  // every claim dies: both replicas go down
  FaultInjector::global().arm("replica.execute", death);

  std::vector<Server::Ticket> tickets;
  for (int k = 0; k < 8; ++k) {
    tickets.push_back(
        server.submit(make_request(static_cast<std::uint64_t>(k), 16)));
  }

  auto drained = std::async(std::launch::async, [&] { server.drain(); });
  ASSERT_EQ(drained.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);

  for (Server::Ticket& ticket : tickets) {
    ASSERT_EQ(ticket.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_THROW(ticket.get(), std::exception);
  }
  EXPECT_EQ(server.health().state, HealthState::kFailed);
  expect_conservation(server.stats());
}

// ------------------------------------------------- shared ready queue ----

/// One wedged replica at depth 4: the other replica pulls every other
/// batch from the shared ready queue instead of letting it wait behind the
/// wedge. Singleton batches; the wedge holds until the free replica has
/// served the other 11 (bounded), so a slow host cannot turn the wedged
/// replica back into one that serves its share.
TEST_F(ReplicaPoolTest, IdleReplicaServesAroundWedgedReplica) {
  ServerOptions opt;
  opt.num_replicas = 2;
  opt.replica_queue_depth = 4;
  opt.batching.max_batch_requests = 1;  // every request is its own batch
  Server server(small_config(), opt);

  FaultAction wedge;
  wedge.kind = FaultKind::kDelay;
  wedge.delay = Seconds{10.0};  // the bound; released by disarm below
  wedge.count = 1;  // the first batch to execute wedges its replica
  FaultInjector::global().arm("executor.execute", wedge);

  constexpr std::int64_t kRequests = 12;
  std::vector<Server::Ticket> tickets;
  for (int k = 0; k < kRequests; ++k) {
    tickets.push_back(
        server.submit(make_request(static_cast<std::uint64_t>(k), 32)));
  }
  const auto most_served = [&] {
    std::int64_t most = 0;
    for (const ReplicaStats& rep : server.stats().replicas) {
      most = std::max(most, rep.served());
    }
    return most;
  };
  for (int i = 0; i < 2000 && most_served() < kRequests - 1; ++i) {
    sleep_ms(5);
  }
  FaultInjector::global().disarm("executor.execute");
  for (Server::Ticket& ticket : tickets) {
    EXPECT_NO_THROW(ticket.get());
  }
  server.drain();

  const ServerStats stats = server.stats();
  expect_conservation(stats);
  ASSERT_EQ(stats.replicas.size(), 2u);
  std::vector<std::int64_t> served = {stats.replicas[0].served(),
                                      stats.replicas[1].served()};
  std::sort(served.begin(), served.end());
  EXPECT_EQ(served[0], 1) << "the wedged replica served only its own batch";
  EXPECT_EQ(served[1], kRequests - 1)
      << "the free replica left work waiting behind the wedge";
}

/// The claim-ahead bound with every replica wedged: the dispatcher holds
/// at most max(depth * live, idle live) batches in the ready queue, and
/// with singleton batches the scheduler stops claiming once that is full.
/// Two replicas execute one batch each, depth 0 queues none and depth 2
/// queues four, so the admission queue settles at 12 - 2 and 12 - 6.
TEST_F(ReplicaPoolTest, ClaimAheadBoundWithEveryReplicaWedged) {
  constexpr std::int64_t kRequests = 12;
  for (const std::size_t depth : {0u, 2u}) {
    SCOPED_TRACE("replica_queue_depth " + std::to_string(depth));
    FaultInjector::global().reset();
    ServerOptions opt;
    opt.num_replicas = 2;
    opt.replica_queue_depth = depth;
    opt.batching.max_batch_requests = 1;
    Server server(small_config(), opt);

    FaultAction wedge;
    wedge.kind = FaultKind::kDelay;
    wedge.delay = Seconds{10.0};  // the bound; released by disarm below
    wedge.count = 2;  // both replicas wedge on their first batch
    FaultInjector::global().arm("executor.execute", wedge);

    std::vector<Server::Ticket> tickets;
    for (int k = 0; k < kRequests; ++k) {
      tickets.push_back(
          server.submit(make_request(static_cast<std::uint64_t>(k), 16)));
    }
    const std::size_t claimed = 2 + 2 * depth;
    const std::size_t expected = kRequests - claimed;
    // Wait for both wedges and the full ready queue, then hold a while to
    // see that the scheduler claims nothing more.
    for (int i = 0; i < 2000 && (server.stats().queue_depth > expected ||
                                 FaultInjector::global().fires(
                                     "executor.execute") < 2);
         ++i) {
      sleep_ms(5);
    }
    sleep_ms(100);
    EXPECT_EQ(server.stats().queue_depth, expected);

    FaultInjector::global().disarm("executor.execute");
    for (Server::Ticket& ticket : tickets) {
      EXPECT_NO_THROW(ticket.get());
    }
    server.drain();
    expect_conservation(server.stats());
  }
}

// ---------------------------------------------- per-replica watchdog ----

/// Regression for the single-slot executing-batch stamp: two replicas
/// wedged at the same time are TWO stall episodes, one per replica — the
/// old single-slot watchdog could only ever see one.
TEST_F(ReplicaPoolTest, TwoSimultaneousStallsCountTwoEpisodes) {
  ServerOptions opt;
  opt.num_replicas = 2;
  opt.batching.max_batch_requests = 1;
  opt.watchdog_multiplier = 1.0;
  opt.watchdog_grace = Seconds{0.05};
  Server server(small_config(), opt);

  FaultAction wedge;
  wedge.kind = FaultKind::kDelay;
  wedge.delay = Seconds{0.6};
  wedge.count = 2;  // both replicas wedge on their first batch
  FaultInjector::global().arm("executor.execute", wedge);

  std::vector<Server::Ticket> tickets;
  tickets.push_back(server.submit(make_request(1, 24)));
  tickets.push_back(server.submit(make_request(2, 24)));

  // Both batches overrun the ~50 ms threshold concurrently; poll until
  // the watchdog has flagged both episodes.
  bool both_flagged = false;
  for (int i = 0; i < 400 && !both_flagged; ++i) {
    both_flagged = server.stats().watchdog_stalls >= 2;
    if (!both_flagged) sleep_ms(5);
  }
  EXPECT_TRUE(both_flagged) << "watchdog saw fewer than two stall episodes";

  const ServerStats mid = server.stats();
  ASSERT_EQ(mid.replicas.size(), 2u);
  EXPECT_EQ(mid.replicas[0].watchdog_stalls, 1);
  EXPECT_EQ(mid.replicas[1].watchdog_stalls, 1);
  EXPECT_EQ(mid.watchdog_stalls, 2);

  for (Server::Ticket& ticket : tickets) {
    EXPECT_NO_THROW(ticket.get());  // wedged is late, not lost
  }
  server.drain();
  // Recovery: the episodes stay counted, the live flags clear.
  const ServerHealth health = server.health();
  EXPECT_EQ(health.state, HealthState::kHealthy);
  EXPECT_EQ(health.watchdog_stalls, 2);
  for (const ReplicaHealth& rep : health.replicas) {
    EXPECT_EQ(rep.state, HealthState::kHealthy);
    EXPECT_EQ(rep.watchdog_stalls, 1);
  }
}

// ----------------------------------------------------------- options ----

TEST_F(ReplicaPoolTest, ServerOptionsValidateReplicaKnobs) {
  const auto expect_invalid = [](const ServerOptions& opt,
                                 const std::string& needle) {
    try {
      opt.validate();
      FAIL() << "expected invalid_argument mentioning '" << needle << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };

  ServerOptions zero_replicas;
  zero_replicas.num_replicas = 0;
  expect_invalid(zero_replicas, "num_replicas");

  ServerOptions replica_flood;
  replica_flood.num_replicas = 257;
  expect_invalid(replica_flood, "num_replicas");

  ServerOptions bottomless_queue;
  bottomless_queue.replica_queue_depth = 65;
  expect_invalid(bottomless_queue, "replica_queue_depth");

  ServerOptions fine;
  fine.num_replicas = 4;
  fine.replica_queue_depth = 2;
  EXPECT_NO_THROW(fine.validate());
}

/// The per-batch weight-stream accounting: after drain, the server's
/// totals charge exactly one cost-model weight sweep per executed batch.
/// The token cap splits the burst, so more than one batch runs.
TEST_F(ReplicaPoolTest, TotalsChargeOneWeightSweepPerBatch) {
  const EncoderConfig cfg = small_config();
  ServerOptions opt;
  opt.batching.max_batch_tokens = 64;
  opt.batching.bucket_width = 32;
  Server server(cfg, opt);
  std::vector<InferenceRequest> reqs =
      make_requests(cfg, {25, 25, 60, 40, 40, 40});
  std::vector<Server::Ticket> tickets = server.submit_many(reqs);
  for (Server::Ticket& t : tickets) (void)t.get();
  server.drain();

  const RuntimeTotals totals = server.totals();
  ASSERT_GT(totals.batches, 1);
  EXPECT_EQ(totals.weight_stream_bytes.count,
            static_cast<std::uint64_t>(totals.batches) *
                BatchCostModel(cfg).weight_stream_bytes().count);
}

// -------------------------------------------------------------- chaos ----

/// Seeded chaos property test: random fault schedules (throw/delay/wake
/// across every serving fault point), random pool shapes, mixed classes
/// and deadlines, concurrent submitters. Invariants, for every seed:
/// every ticket resolves exactly once (none hang), drain() returns, and
/// the per-class + per-replica conservation laws balance.
TEST_F(ReplicaPoolTest, ChaosConservationHoldsAcrossSeeds) {
  const char* const points[] = {"queue.push",      "queue.pop",
                                "batcher.push",    "executor.execute",
                                "replica.execute", "dispatch.place"};
  const EncoderConfig cfg = small_config();

  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    const auto pick = [&](std::int64_t lo, std::int64_t hi) {
      return static_cast<std::int64_t>(
          std::uniform_int_distribution<std::int64_t>(lo, hi)(rng));
    };

    FaultInjector::global().reset();
    ServerOptions opt;
    opt.num_replicas = static_cast<std::size_t>(1 << pick(0, 2));  // 1/2/4
    opt.replica_queue_depth = static_cast<std::size_t>(pick(0, 2));
    opt.queue_capacity = static_cast<std::size_t>(pick(8, 64));
    opt.admission = pick(0, 1) == 0 ? OverflowPolicy::kBlock
                                    : OverflowPolicy::kShedBulk;
    opt.batching.max_batch_requests = pick(1, 6);
    if (pick(0, 1) == 1) {
      opt.watchdog_multiplier = 1.0;
      opt.watchdog_grace = Seconds{0.02};
    }

    // Arm a random subset of the fault-point table with random actions.
    for (const char* point : points) {
      if (pick(0, 2) != 0) continue;  // ~1/3 of points armed per seed
      FaultAction action;
      const std::int64_t kind = pick(0, 2);
      action.kind = kind == 0   ? FaultKind::kThrow
                    : kind == 1 ? FaultKind::kDelay
                                : FaultKind::kWake;
      action.delay = Seconds{static_cast<double>(pick(1, 20)) * 1e-3};
      action.skip = static_cast<int>(pick(0, 5));
      action.count = static_cast<int>(pick(1, 3));
      FaultInjector::global().arm(point, action);
    }

    {
      Server server(cfg, opt);
      const int submitters = static_cast<int>(pick(2, 4));
      const int per_thread = static_cast<int>(pick(5, 9));
      std::vector<std::vector<Server::Ticket>> tickets(
          static_cast<std::size_t>(submitters));
      std::vector<std::thread> threads;
      for (int t = 0; t < submitters; ++t) {
        const std::uint64_t thread_seed = seed * 1000 + static_cast<std::uint64_t>(t);
        threads.emplace_back([&, t, thread_seed] {
          std::mt19937_64 local(thread_seed);
          const auto local_pick = [&](std::int64_t lo, std::int64_t hi) {
            return static_cast<std::int64_t>(
                std::uniform_int_distribution<std::int64_t>(lo, hi)(local));
          };
          for (int k = 0; k < per_thread; ++k) {
            const Priority priority = local_pick(0, 2) == 0
                                          ? Priority::kBulk
                                          : Priority::kInteractive;
            Seconds deadline{0.0};
            const std::int64_t roll = local_pick(0, 9);
            if (roll == 0) {
              deadline = Seconds{1e-7};  // hopeless: shed at submit
            } else if (roll <= 2) {
              deadline = Seconds{0.05 * static_cast<double>(roll)};  // tight
            }
            tickets[static_cast<std::size_t>(t)].push_back(server.submit(
                make_request(thread_seed * 100 + static_cast<std::uint64_t>(k),
                             8 + 8 * local_pick(0, 4), priority, deadline)));
          }
        });
      }
      for (std::thread& thread : threads) thread.join();

      // None hang: drain() must return whatever died.
      auto drained = std::async(std::launch::async, [&] { server.drain(); });
      ASSERT_EQ(drained.wait_for(std::chrono::seconds(15)),
                std::future_status::ready)
          << "drain() hung";

      // No ticket resolves twice and none hang: every future is ready and
      // yields exactly one outcome.
      std::int64_t resolved = 0;
      for (auto& lane : tickets) {
        for (Server::Ticket& ticket : lane) {
          ASSERT_EQ(ticket.wait_for(std::chrono::seconds(0)),
                    std::future_status::ready)
              << "a ticket never resolved";
          try {
            ticket.get();
          } catch (const std::exception&) {
          }
          ++resolved;
        }
      }
      EXPECT_EQ(resolved, static_cast<std::int64_t>(submitters) * per_thread);

      const ServerStats stats = server.stats();
      ASSERT_EQ(stats.replicas.size(), opt.num_replicas);
      expect_conservation(stats);
      std::int64_t submitted = 0;
      for (std::size_t c = 0; c < kPriorityClasses; ++c) {
        submitted += stats.per_class[c].submitted;
      }
      EXPECT_EQ(submitted, resolved);
    }
    FaultInjector::global().reset();
  }
}

}  // namespace
}  // namespace swat
