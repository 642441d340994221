// Resilience tests for the overload-resilient serving layer: the fault
// injector itself, the class-aware AdmissionQueue, SLO-class scheduling,
// deadline shedding, the watchdog, and the server's failure semantics.
//
// The load-bearing guarantee under test: every ticket RESOLVES — served,
// shed, or cleanly rejected — under injected executor failures, scheduler
// death, queue latency, and spurious wakeups; the stats ledger obeys its
// conservation identity; and a failure never hangs drain() or leaks a
// promise. Determinism of served outputs is covered by test_server.cpp —
// here we prove the failure paths around it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/concurrent_queue.hpp"
#include "common/fault_injection.hpp"
#include "runtime/server.hpp"
#include "test_util.hpp"

namespace swat {
namespace {

using model::AttentionBackend;
using model::EncoderConfig;

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
class ResilienceTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::global().reset(); }
  void TearDown() override { FaultInjector::global().reset(); }
};

// ----------------------------------------------------- fault injector ----

TEST_F(ResilienceTest, DisarmedPointIsInert) {
  FaultInjector& inj = FaultInjector::global();
  EXPECT_FALSE(inj.armed());
  SWAT_FAULT_POINT("test.point");  // must be a no-op
  EXPECT_EQ(inj.crossings("test.point"), 0u);  // fast path counts nothing
  EXPECT_EQ(inj.fires("test.point"), 0u);
}

TEST_F(ResilienceTest, ThrowActionSkipsCountsAndAutoDisarms) {
  FaultInjector& inj = FaultInjector::global();
  FaultAction action;
  action.kind = FaultKind::kThrow;
  action.skip = 1;
  action.count = 1;
  inj.arm("test.point", action);
  EXPECT_TRUE(inj.armed());

  SWAT_FAULT_POINT("test.point");  // skipped
  EXPECT_THROW(SWAT_FAULT_POINT("test.point"), FaultInjectedError);
  // Count exhausted: auto-disarmed, back on the no-op fast path — this
  // crossing is neither harmed nor counted.
  SWAT_FAULT_POINT("test.point");

  EXPECT_EQ(inj.crossings("test.point"), 2u);
  EXPECT_EQ(inj.fires("test.point"), 1u);
  EXPECT_FALSE(inj.armed());

  try {
    inj.arm("test.point", FaultAction{});
    SWAT_FAULT_POINT("test.point");
    FAIL() << "expected FaultInjectedError";
  } catch (const FaultInjectedError& e) {
    EXPECT_EQ(e.point(), "test.point");  // the error names its point
  }
}

// ----------------------------------------------------- admission queue ----

TEST_F(ResilienceTest, AdmissionQueuePopsInteractiveFirst) {
  AdmissionQueue<int> q(8, OverflowPolicy::kBlock, 8, 4);
  int bulk = 10, inter = 20;
  EXPECT_EQ(q.push(bulk, 1), (AdmissionQueue<int>::Admission::kAdmitted));
  EXPECT_EQ(q.push(inter, 0), (AdmissionQueue<int>::Admission::kAdmitted));
  auto first = q.pop();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->first, 20);  // interactive drained first
  EXPECT_EQ(first->second, 0u);
  EXPECT_EQ(q.pop()->first, 10);
}

TEST_F(ResilienceTest, AdmissionQueueAgingNeverStarvesBulk) {
  // aging_interval = 2: after two consecutive lane-0 pops made while bulk
  // waited, the next pop must serve bulk.
  AdmissionQueue<int> q(16, OverflowPolicy::kBlock, 16, 2);
  for (int i = 0; i < 6; ++i) {
    int v = i;
    q.push(v, 0);
  }
  int b = 100;
  q.push(b, 1);
  std::vector<std::size_t> lanes;
  for (int i = 0; i < 7; ++i) lanes.push_back(q.pop()->second);
  // Two interactive pops, then the aged bulk item, then the rest.
  const std::vector<std::size_t> expected{0, 0, 1, 0, 0, 0, 0};
  EXPECT_EQ(lanes, expected);
}

TEST_F(ResilienceTest, ShedBulkRejectsBulkAtWatermarkKeepsInteractive) {
  using Admission = AdmissionQueue<int>::Admission;
  AdmissionQueue<int> q(4, OverflowPolicy::kShedBulk, /*shed_watermark=*/2,
                        /*aging_interval=*/4);
  int v = 0;
  EXPECT_EQ(q.push(v, 1), Admission::kAdmitted);
  EXPECT_EQ(q.push(v, 1), Admission::kAdmitted);
  // Occupancy at the watermark: bulk sheds, interactive keeps admitting.
  EXPECT_EQ(q.push(v, 1), Admission::kShed);
  EXPECT_EQ(q.push(v, 0), Admission::kAdmitted);
  EXPECT_EQ(q.push(v, 0), Admission::kAdmitted);
  // Full capacity: even interactive fails now — but never blocks.
  EXPECT_EQ(q.push(v, 0), Admission::kFull);
  EXPECT_EQ(q.size(), 4u);
  q.close();
  EXPECT_EQ(q.push(v, 0), Admission::kClosed);
}

TEST_F(ResilienceTest, AdmissionQueueDiscardReturnsEverything) {
  AdmissionQueue<int> q(8, OverflowPolicy::kBlock, 8, 4);
  for (int i = 0; i < 3; ++i) {
    int b = 100 + i, it = i;
    q.push(b, 1);
    q.push(it, 0);
  }
  auto items = q.discard();
  ASSERT_EQ(items.size(), 6u);
  EXPECT_EQ(q.size(), 0u);
  // Lane order: lane 0 first, FIFO within a lane.
  EXPECT_EQ(items[0].first, 0);
  EXPECT_EQ(items[0].second, 0u);
  EXPECT_EQ(items[3].first, 100);
  EXPECT_EQ(items[3].second, 1u);
}

TEST_F(ResilienceTest, SpuriousWakeupsChangeNoOutcome) {
  // Arm a kWake on every queue crossing: each push/pop also delivers a
  // genuine spurious wakeup (all CVs notified, no state changed). All
  // items must still flow through exactly once.
  FaultAction wake;
  wake.kind = FaultKind::kWake;
  wake.count = -1;
  FaultInjector::global().arm("queue.push", wake);
  FaultInjector::global().arm("queue.pop", wake);

  AdmissionQueue<int> q(2, OverflowPolicy::kBlock, 2, 4);
  std::atomic<int> sum{0};
  std::thread consumer([&] {
    while (auto item = q.pop()) sum += item->first;
  });
  std::thread producer([&] {
    for (int i = 1; i <= 50; ++i) {
      int v = i;
      q.push(v, i % 2);  // tiny capacity: pushes park and get poked
    }
    q.close();
  });
  producer.join();
  consumer.join();
  EXPECT_EQ(sum.load(), 50 * 51 / 2);
  EXPECT_GE(FaultInjector::global().fires("queue.pop"), 50u);
}

// ------------------------------------------------------ server faults ----

TEST_F(ResilienceTest, ExecutorFailureIsolatedToItsBatch) {
  Server server(small_config());
  FaultAction boom;
  boom.kind = FaultKind::kThrow;
  boom.count = 1;
  FaultInjector::global().arm("executor.execute", boom);

  Server::Ticket doomed = server.submit(make_request(1, 40));
  EXPECT_THROW(doomed.get(), FaultInjectedError);

  // The server must keep serving after the failed batch.
  Server::Ticket fine = server.submit(make_request(2, 40));
  RequestResult res = fine.get();
  EXPECT_EQ(res.id, 2u);
  server.drain();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.of(Priority::kInteractive).failed, 1);
  EXPECT_EQ(stats.of(Priority::kInteractive).served, 1);
  EXPECT_TRUE(server.health().ok());
}

TEST_F(ResilienceTest, SchedulerDeathRejectsAllTicketsAndDrainReturns) {
  // A fault at the "queue.pop" crossing is fatal to the scheduler thread
  // itself (unlike an executor fault, which run_batch contains). The
  // server must close admission, reject every queued and in-flight
  // ticket, report kFailed — and drain() must RETURN, not hang on
  // requests that were discarded (the drain/shutdown-race regression).
  Server server(small_config());
  // Park the scheduler ahead of its next pop: a warm-up batch wedges the
  // only replica, so the scheduler waits for dispatch room instead of
  // sitting inside a pop that crossed the point before it was armed. The
  // whole burst is then queued before the scheduler's next crossing.
  FaultAction wedge;
  wedge.kind = FaultKind::kDelay;
  wedge.delay = Seconds{10.0};  // the bound; released by disarm below
  wedge.count = 1;
  FaultInjector::global().arm("executor.execute", wedge);
  Server::Ticket warm_up = server.submit(make_request(1, 32));
  while (FaultInjector::global().fires("executor.execute") != 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  FaultAction boom;
  boom.kind = FaultKind::kThrow;
  boom.count = 1;
  FaultInjector::global().arm("queue.pop", boom);

  std::vector<InferenceRequest> burst;
  for (int i = 0; i < 6; ++i) burst.push_back(make_request(10 + i, 32));
  std::vector<Server::Ticket> tickets =
      server.submit_many(std::move(burst));
  FaultInjector::global().disarm("executor.execute");
  // Dispatched before the scheduler died: the replica still serves it.
  EXPECT_NO_THROW(warm_up.get());

  // drain() must terminate even though queued requests were discarded.
  std::future<void> drained =
      std::async(std::launch::async, [&] { server.drain(); });
  ASSERT_EQ(drained.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "drain() hung after scheduler death";

  for (Server::Ticket& t : tickets) {
    EXPECT_THROW(t.get(), std::exception);  // resolved, never hung
  }
  EXPECT_EQ(server.health().state, HealthState::kFailed);
  EXPECT_FALSE(server.health().ok());

  // Submission after the failure sheds cleanly.
  EXPECT_THROW(server.submit(make_request(99, 32)).get(),
               std::runtime_error);
}

TEST_F(ResilienceTest, QueueLatencyInjectionDelaysButLosesNothing) {
  FaultAction slow;
  slow.kind = FaultKind::kDelay;
  slow.delay = Seconds{0.002};
  slow.count = -1;
  FaultInjector::global().arm("queue.push", slow);

  Server server(small_config());
  std::vector<Server::Ticket> tickets;
  for (int i = 0; i < 8; ++i) tickets.push_back(server.submit(make_request(i, 24)));
  server.drain();
  for (Server::Ticket& t : tickets) EXPECT_NO_THROW(t.get());
  EXPECT_EQ(server.stats().of(Priority::kInteractive).served, 8);
  EXPECT_GE(FaultInjector::global().fires("queue.push"), 8u);
}

// --------------------------------------------------------- SLO classes ----

TEST_F(ResilienceTest, InteractiveBatchRunsBeforeQueuedBulk) {
  // Hold the scheduler inside the first batch, queue bulk BEFORE
  // interactive, and check the interactive batch still executes first
  // (smaller batch_index) once the scheduler resumes.
  Server server(small_config());
  FaultAction hold;
  hold.kind = FaultKind::kDelay;
  hold.delay = Seconds{0.15};
  hold.count = 1;
  FaultInjector::global().arm("executor.execute", hold);

  Server::Ticket first = server.submit(make_request(1, 32));
  sleep_ms(30);  // scheduler is now asleep inside the held batch
  Server::Ticket bulk =
      server.submit(make_request(2, 32, Priority::kBulk));
  Server::Ticket inter =
      server.submit(make_request(3, 32, Priority::kInteractive));
  server.drain();

  first.get();
  const RequestResult bulk_res = bulk.get();
  const RequestResult inter_res = inter.get();
  EXPECT_LT(inter_res.counters.batch_index, bulk_res.counters.batch_index)
      << "interactive must be drained ahead of earlier-queued bulk";
  // Batches are class-pure: the two classes cannot share a batch.
  EXPECT_NE(inter_res.counters.batch_index, bulk_res.counters.batch_index);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.of(Priority::kInteractive).served, 2);
  EXPECT_EQ(stats.of(Priority::kBulk).served, 1);
}

TEST_F(ResilienceTest, ShedBulkPolicyShedsBulkKeepsInteractive) {
  ServerOptions opt;
  opt.queue_capacity = 4;
  opt.shed_watermark = 0.5;  // bulk sheds at 2 queued, interactive at 4
  opt.admission = OverflowPolicy::kShedBulk;
  Server server(small_config(), opt);

  FaultAction hold;
  hold.kind = FaultKind::kDelay;
  hold.delay = Seconds{0.25};
  hold.count = 1;
  FaultInjector::global().arm("executor.execute", hold);

  Server::Ticket first = server.submit(make_request(1, 32));
  sleep_ms(30);  // the scheduler is held: the queue now fills untouched

  Server::Ticket b1 = server.submit(make_request(2, 32, Priority::kBulk));
  Server::Ticket b2 = server.submit(make_request(3, 32, Priority::kBulk));
  Server::Ticket b3 = server.submit(make_request(4, 32, Priority::kBulk));
  Server::Ticket i1 =
      server.submit(make_request(5, 32, Priority::kInteractive));
  Server::Ticket i2 =
      server.submit(make_request(6, 32, Priority::kInteractive));

  // b3 crossed the watermark; the interactive lane kept admitting into
  // the reserved headroom.
  try {
    b3.get();
    FAIL() << "bulk past the watermark must shed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("watermark"), std::string::npos);
  }
  server.drain();
  EXPECT_NO_THROW(first.get());
  EXPECT_NO_THROW(b1.get());
  EXPECT_NO_THROW(b2.get());
  EXPECT_NO_THROW(i1.get());
  EXPECT_NO_THROW(i2.get());

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.of(Priority::kBulk).shed, 1);
  EXPECT_EQ(stats.of(Priority::kBulk).served, 2);
  EXPECT_EQ(stats.of(Priority::kInteractive).shed, 0);
  EXPECT_EQ(stats.of(Priority::kInteractive).served, 3);
}

// ----------------------------------------------------------- deadlines ----

TEST_F(ResilienceTest, ImpossibleDeadlineShedAtSubmit) {
  Server server(small_config());
  // A deadline below the cost model's predicted service time is hopeless
  // on arrival: shed before it occupies a queue slot.
  Server::Ticket t = server.submit(
      make_request(1, 256, Priority::kInteractive, Seconds{1e-12}));
  EXPECT_THROW(t.get(), DeadlineExceeded);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.of(Priority::kInteractive).deadline_shed, 1);
  EXPECT_EQ(stats.of(Priority::kInteractive).admitted, 0);
}

TEST_F(ResilienceTest, QueueingConsumesSlackShedAtClaim) {
  Server server(small_config());
  FaultAction hold;
  hold.kind = FaultKind::kDelay;
  hold.delay = Seconds{0.2};
  hold.count = 1;
  FaultInjector::global().arm("executor.execute", hold);

  // Request 1 wedges the scheduler for 200 ms; request 2's 10 ms deadline
  // passes the submit-time check (predicted accelerator time is tiny) but
  // is long gone by the time the scheduler claims it.
  Server::Ticket first = server.submit(make_request(1, 32));
  sleep_ms(30);
  Server::Ticket late = server.submit(
      make_request(2, 32, Priority::kInteractive, Seconds{0.010}));
  server.drain();
  EXPECT_NO_THROW(first.get());
  EXPECT_THROW(late.get(), DeadlineExceeded);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.of(Priority::kInteractive).deadline_shed, 1);
  EXPECT_EQ(stats.of(Priority::kInteractive).served, 1);
  // The shed happened BEFORE compute: only request 1's batch ever ran.
  EXPECT_EQ(server.totals().requests, 1);
}

TEST_F(ResilienceTest, ServedPastDeadlineCountsDeadlineMissed) {
  Server server(small_config());
  FaultAction hold;
  hold.kind = FaultKind::kDelay;
  hold.delay = Seconds{0.08};
  hold.count = 1;
  FaultInjector::global().arm("executor.execute", hold);

  // Claimed immediately (full slack), then the executor runs slow: the
  // answer arrives late. Served late is still served — with the SLO
  // violation ledgered.
  Server::Ticket t = server.submit(
      make_request(1, 32, Priority::kInteractive, Seconds{0.020}));
  const RequestResult res = t.get();
  EXPECT_GT(res.counters.turnaround.value, 0.020);
  server.drain();  // the ticket resolves before the ledger update lands
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.of(Priority::kInteractive).served, 1);
  EXPECT_EQ(stats.of(Priority::kInteractive).deadline_missed, 1);
  EXPECT_EQ(stats.of(Priority::kInteractive).deadline_shed, 0);
}

// ------------------------------------------------------------ watchdog ----

TEST_F(ResilienceTest, WatchdogFlagsStallAndRecovers) {
  ServerOptions opt;
  opt.watchdog_multiplier = 1.0;
  opt.watchdog_grace = Seconds{0.03};
  Server server(small_config(), opt);

  FaultAction wedge;
  wedge.kind = FaultKind::kDelay;
  wedge.delay = Seconds{0.3};
  wedge.count = 1;
  FaultInjector::global().arm("executor.execute", wedge);

  Server::Ticket t = server.submit(make_request(1, 32));
  // The batch overruns grace + multiplier * predicted within ~30 ms;
  // poll until the watchdog flags it.
  bool saw_stall = false;
  for (int i = 0; i < 200 && !saw_stall; ++i) {
    const ServerHealth h = server.health();
    if (h.state == HealthState::kStalled) {
      saw_stall = true;
      EXPECT_GT(h.current_batch_age.value, 0.0);
    }
    sleep_ms(5);
  }
  EXPECT_TRUE(saw_stall) << "watchdog never flagged the wedged batch";

  EXPECT_NO_THROW(t.get());  // the stalled batch still completes
  server.drain();
  EXPECT_TRUE(server.health().ok()) << "stall flag must clear on recovery";
  EXPECT_GE(server.stats().watchdog_stalls, 1);  // sticky episode counter
}

// ------------------------------------------- submit_many partial reject ----

TEST_F(ResilienceTest, SubmitManyPartialRejectKeepsEarlierAdmissions) {
  ServerOptions opt;
  opt.queue_capacity = 2;
  opt.admission = OverflowPolicy::kReject;
  Server server(small_config(), opt);

  FaultAction hold;
  hold.kind = FaultKind::kDelay;
  hold.delay = Seconds{0.2};
  hold.count = 1;
  FaultInjector::global().arm("executor.execute", hold);

  Server::Ticket first = server.submit(make_request(1, 32));
  sleep_ms(30);  // scheduler held: the 2-slot queue fills mid-burst

  std::vector<InferenceRequest> burst;
  for (int i = 0; i < 5; ++i) burst.push_back(make_request(10 + i, 32));
  std::vector<Server::Ticket> tickets =
      server.submit_many(std::move(burst));
  server.drain();

  // Strictly in order: the first two fit, the rest reject — earlier
  // tickets serve while later ones shed. No all-or-nothing transaction.
  EXPECT_NO_THROW(first.get());
  EXPECT_NO_THROW(tickets[0].get());
  EXPECT_NO_THROW(tickets[1].get());
  for (std::size_t i = 2; i < tickets.size(); ++i) {
    EXPECT_THROW(tickets[i].get(), std::runtime_error);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.of(Priority::kInteractive).served, 3);
  EXPECT_EQ(stats.of(Priority::kInteractive).shed, 3);
}

// ------------------------------------------------ ledger and validation ----

TEST_F(ResilienceTest, StatsConservationUnderChaos) {
  // Everything at once: queue latency, spurious wakeups, two executor
  // failures, concurrent mixed-class submitters with real and impossible
  // deadlines. Every ticket must resolve and the ledger must balance:
  //   submitted == served + shed + deadline_shed + failed   (per class)
  FaultAction slow;
  slow.kind = FaultKind::kDelay;
  slow.delay = Seconds{0.0003};
  slow.count = -1;
  FaultAction wake;
  wake.kind = FaultKind::kWake;
  wake.count = -1;
  FaultAction boom;
  boom.kind = FaultKind::kThrow;
  boom.skip = 2;
  boom.count = 2;
  FaultInjector::global().arm("queue.push", slow);
  FaultInjector::global().arm("queue.pop", wake);
  FaultInjector::global().arm("executor.execute", boom);

  ServerOptions opt;
  opt.queue_capacity = 16;
  opt.admission = OverflowPolicy::kShedBulk;
  opt.shed_watermark = 0.5;
  Server server(small_config(), opt);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 12;
  std::vector<Server::Ticket> tickets(kThreads * kPerThread);
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int k = t * kPerThread + i;
        const Priority cls = (k % 3 == 0) ? Priority::kBulk
                                          : Priority::kInteractive;
        // A sprinkle of impossible deadlines (shed at submit) and tight
        // ones (may shed at claim or serve late) among mostly-unbounded.
        const Seconds deadline = (k % 11 == 0)   ? Seconds{1e-12}
                                 : (k % 7 == 0) ? Seconds{0.005}
                                                : Seconds{0.0};
        tickets[static_cast<std::size_t>(k)] = server.submit(
            make_request(static_cast<std::uint64_t>(k), 16 + (k % 4) * 16,
                         cls, deadline));
      }
    });
  }
  for (std::thread& s : submitters) s.join();
  server.drain();

  std::int64_t got_result = 0;
  for (Server::Ticket& t : tickets) {
    ASSERT_EQ(t.wait_for(std::chrono::seconds(10)),
              std::future_status::ready)
        << "a ticket never resolved";
    try {
      t.get();
      ++got_result;
    } catch (const std::exception&) {
      // shed / deadline / injected failure — resolved is what matters
    }
  }

  const ServerStats stats = server.stats();
  std::int64_t served_total = 0;
  for (const Priority cls : {Priority::kInteractive, Priority::kBulk}) {
    const ClassStats& cs = stats.of(cls);
    EXPECT_EQ(cs.submitted,
              cs.served + cs.shed + cs.deadline_shed + cs.failed)
        << "ledger out of balance for class " << to_string(cls);
    EXPECT_LE(cs.deadline_missed, cs.served);
    served_total += cs.served;
  }
  EXPECT_EQ(stats.of(Priority::kInteractive).submitted +
                stats.of(Priority::kBulk).submitted,
            static_cast<std::int64_t>(tickets.size()));
  EXPECT_EQ(served_total, got_result);
  EXPECT_EQ(server.totals().requests, served_total);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.oldest_pending_age.value, 0.0);
}

TEST_F(ResilienceTest, HealthReportsShutdown) {
  Server server(small_config());
  EXPECT_TRUE(server.health().ok());
  server.shutdown();
  EXPECT_EQ(server.health().state, HealthState::kShutdown);
}

TEST_F(ResilienceTest, ServerOptionsValidateNewKnobs) {
  const auto expect_invalid = [](ServerOptions opt, const char* needle) {
    try {
      opt.validate();
      FAIL() << "expected invalid_argument mentioning '" << needle << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "actual message: " << e.what();
    }
  };
  ServerOptions opt;
  opt.shed_watermark = 0.0;
  expect_invalid(opt, "shed_watermark");
  opt.shed_watermark = 1.5;
  expect_invalid(opt, "shed_watermark");

  opt = ServerOptions();
  opt.bulk_aging_interval = 0;
  expect_invalid(opt, "bulk_aging_interval");

  opt = ServerOptions();
  opt.default_deadline = Seconds{-0.1};
  expect_invalid(opt, "default_deadline");

  opt = ServerOptions();
  opt.watchdog_multiplier = 0.5;  // below 1 would flag healthy batches
  expect_invalid(opt, "watchdog_multiplier");

  opt = ServerOptions();
  opt.watchdog_grace = Seconds{-1.0};
  expect_invalid(opt, "watchdog_grace");

  // NaN slips past a `< 0` check and would silently disable each feature.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  opt = ServerOptions();
  opt.default_deadline = Seconds{nan};
  expect_invalid(opt, "default_deadline");
  opt = ServerOptions();
  opt.watchdog_multiplier = nan;
  expect_invalid(opt, "watchdog_multiplier");
  opt = ServerOptions();
  opt.watchdog_grace = Seconds{nan};
  expect_invalid(opt, "watchdog_grace");
  opt = ServerOptions();
  opt.batching.max_batch_latency = Seconds{nan};
  expect_invalid(opt, "max_batch_latency");

  opt = ServerOptions();  // defaults are valid
  EXPECT_NO_THROW(opt.validate());
  opt.watchdog_multiplier = 2.0;
  opt.admission = OverflowPolicy::kShedBulk;
  EXPECT_NO_THROW(opt.validate());
}

TEST_F(ResilienceTest, DefaultDeadlineAppliesToBareRequests) {
  ServerOptions opt;
  opt.default_deadline = Seconds{1e-12};  // impossible for any request
  Server server(small_config(), opt);
  Server::Ticket t = server.submit(make_request(1, 64));
  EXPECT_THROW(t.get(), DeadlineExceeded);
  EXPECT_EQ(server.stats().of(Priority::kInteractive).deadline_shed, 1);
}

}  // namespace
}  // namespace swat
