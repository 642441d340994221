// Tests for the serving core every request goes through: BatchExecutor
// (src/runtime/executor.hpp) executing batches cut by BatchFormer
// (src/runtime/batcher.hpp), over the compiled Engine plans.
//
// The load-bearing guarantee: for every request, the batched path produces
// output and counters bit-identical to the request served alone (and to
// Encoder::forward), for any batch composition and any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "runtime/batcher.hpp"
#include "runtime/executor.hpp"
#include "test_util.hpp"

// ------------------------------------------------ global alloc counter ----
// Every global operator new in this test binary bumps a counter; the
// steady-state test asserts the counter does not move across a warmed
// Engine::run. This is deliberately stronger than watching
// Workspace::capacity_floats — it catches ANY heap allocation on the
// planned path (std::function boxing, vector churn, temporary matrices),
// not just kernel-arena growth.

namespace {

std::atomic<std::size_t> g_alloc_count{0};

void* counted_alloc(std::size_t n) {
  ++g_alloc_count;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* counted_alloc_aligned(std::size_t n, std::align_val_t al) {
  ++g_alloc_count;
  const std::size_t align = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(align, (n + align - 1) / align * align)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_alloc_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_alloc_aligned(n, al);
}
// The nothrow forms must be replaced too — libstdc++'s temporary buffers
// (e.g. stable_sort) allocate through them, and mixing the default nothrow
// new with our malloc-backed delete trips ASan's alloc-dealloc matching.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_alloc_count;
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++g_alloc_count;
  return std::malloc(n ? n : 1);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace swat {
namespace {

using model::AttentionBackend;
using model::EncoderConfig;

using swat::testing::ThreadCountGuard;

/// A compact encoder geometry that exercises real multi-head attention but
/// keeps the (value-level) SWAT simulator fast enough for unit tests.
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

/// Execute one formed batch of `reqs` through `executor`; results come back
/// in the batch's slot order.
std::vector<RequestResult> execute_batch(BatchExecutor& executor,
                                         std::span<const InferenceRequest> reqs,
                                         const BatchPlanEntry& batch) {
  std::vector<const InferenceRequest*> inputs;
  for (const std::size_t ri : batch.request_indices) {
    inputs.push_back(&reqs[ri]);
  }
  return executor.execute(batch, inputs);
}

/// Cut `reqs` into batches with a BatchFormer fed in submission order
/// (then flushed) and execute each batch through `executor`. Results come
/// back in submission order; the formed batches, in execution order, go
/// to `batches` when it is non-null.
std::vector<RequestResult> serve(BatchExecutor& executor,
                                 std::span<const InferenceRequest> reqs,
                                 std::vector<BatchPlanEntry>* batches =
                                     nullptr) {
  BatchFormer former(executor.batching());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    former.push(i, reqs[i].input.rows());
  }
  former.flush();
  std::vector<RequestResult> results(reqs.size());
  while (former.has_ready()) {
    const BatchPlanEntry batch = former.pop_ready();
    std::vector<RequestResult> served = execute_batch(executor, reqs, batch);
    for (std::size_t k = 0; k < served.size(); ++k) {
      results[batch.request_indices[k]] = std::move(served[k]);
    }
    if (batches) batches->push_back(batch);
  }
  return results;
}

void expect_same_counters(const RequestCounters& got,
                          const RequestCounters& want) {
  EXPECT_EQ(got.tokens, want.tokens);
  EXPECT_EQ(got.swat_offchip_traffic.count, want.swat_offchip_traffic.count);
  EXPECT_EQ(got.swat_core_loads, want.swat_core_loads);
  EXPECT_EQ(got.heads_run, want.heads_run);
  EXPECT_EQ(got.model_flops, want.model_flops);
}

// ------------------------------------------------------- batch executor ----

/// Batched outputs and counters must be bit-identical to each request
/// served alone, for both a host backend and the SWAT simulator.
void check_batched_vs_solo(AttentionBackend backend) {
  const EncoderConfig cfg = small_config(backend);
  // Ragged lengths spanning bucket boundaries (bucket_width 64 below):
  // 63/64 end class 1, 65 starts class 2, plus a length-1 request.
  const std::vector<std::int64_t> lengths = {5, 63, 64, 65, 1, 40, 128, 64};
  const std::vector<InferenceRequest> reqs = make_requests(cfg, lengths);

  BatchingOptions opt;
  opt.bucket_width = 64;
  opt.max_batch_requests = 8;
  BatchExecutor executor(cfg, opt);
  std::vector<BatchPlanEntry> batches;
  const std::vector<RequestResult> got = serve(executor, reqs, &batches);
  // Class 1 packs six requests, class 2 the other two: real batching.
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].requests(), 6);

  const model::Encoder oracle(cfg);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(got[i].id, reqs[i].id);
    const RequestResult one = testing::solo_result(cfg, reqs[i]);
    testing::expect_matrix_equal(got[i].output, one.output,
                                 "batched vs solo");
    testing::expect_matrix_equal(got[i].output, oracle.forward(reqs[i].input),
                                 "batched vs Encoder::forward");
    expect_same_counters(got[i].counters, one.counters);
  }
}

TEST(BatchExecutor, BatchedMatchesSoloOracleHostBackend) {
  check_batched_vs_solo(AttentionBackend::kWindowExact);
}

TEST(BatchExecutor, BatchedMatchesSoloOracleSwatSimulator) {
  check_batched_vs_solo(AttentionBackend::kSwatSimulator);
}

/// Nothing pushed, nothing formed, nothing compiled: an idle former cuts
/// no batch and a fresh executor holds no plan.
TEST(BatchExecutor, NoRequestsCompileNoPlans) {
  BatchExecutor executor(small_config(AttentionBackend::kWindowExact),
                         BatchingOptions{});
  EXPECT_TRUE(serve(executor, {}).empty());
  EXPECT_EQ(executor.plan_count(), 0u);
  EXPECT_EQ(executor.plan_arena_floats(), 0u);
}

TEST(BatchExecutor, BatchOfOneEqualsEncoderForward) {
  const EncoderConfig cfg = small_config(AttentionBackend::kWindowExact);
  const auto reqs = make_requests(cfg, {37});
  const RequestResult one = testing::solo_result(cfg, reqs[0]);
  const model::Encoder oracle(cfg);
  testing::expect_matrix_equal(one.output, oracle.forward(reqs[0].input));
  EXPECT_EQ(one.id, reqs[0].id);
  EXPECT_EQ(one.counters.tokens, 37);
  // Stamped by the server, not by the executor.
  EXPECT_EQ(one.counters.batch_index, -1);
  EXPECT_EQ(one.counters.queue_delay.value, 0.0);
}

/// A one-request batch runs in place in its request's buffer (here a copy
/// made by the copying execute), a larger one in the executor's packed
/// staging. Interleaved through one
/// executor on every backend, each output stays bit-identical to its
/// request run alone through the out-of-place oracle
/// (testing::unfused_forward; Encoder::forward runs the same in-place core
/// as the executor), its counters equal the solo executor's, and no
/// request's input is written.
TEST(BatchExecutor, InterleavedSingletonAndPackedBatchesMatchTheSoloOracle) {
  for (const AttentionBackend backend :
       {AttentionBackend::kDenseReference, AttentionBackend::kWindowExact,
        AttentionBackend::kFusedStreaming, AttentionBackend::kSwatSimulator}) {
    const EncoderConfig cfg = small_config(backend);
    const auto reqs = make_requests(cfg, {40, 5, 63, 17, 1, 64, 30, 9});
    const std::vector<InferenceRequest> inputs_before = reqs;
    const model::Encoder oracle(cfg);
    BatchExecutor executor(cfg, BatchingOptions{});
    const std::vector<std::vector<std::size_t>> batches = {
        {0}, {1, 2, 3}, {4}, {5, 6}, {7}, {0, 4}, {2}};
    for (const std::vector<std::size_t>& members : batches) {
      BatchPlanEntry entry;
      entry.offsets = {0};
      for (const std::size_t i : members) {
        entry.request_indices.push_back(i);
        entry.offsets.push_back(entry.offsets.back() + reqs[i].input.rows());
      }
      const std::vector<RequestResult> got =
          execute_batch(executor, reqs, entry);
      ASSERT_EQ(got.size(), members.size());
      for (std::size_t k = 0; k < members.size(); ++k) {
        const InferenceRequest& req = reqs[members[k]];
        EXPECT_EQ(got[k].id, req.id);
        testing::expect_matrix_equal(
            got[k].output, testing::unfused_forward(oracle, req.input),
            members.size() == 1 ? "singleton vs out-of-place solo oracle"
                                : "packed vs out-of-place solo oracle");
        expect_same_counters(got[k].counters,
                             testing::solo_result(cfg, req).counters);
      }
    }
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      testing::expect_matrix_equal(reqs[i].input, inputs_before[i].input,
                                   "request input after serving");
    }
  }
}

/// execute_in_place serves each request in its own input buffer: each
/// result's output is the buffer its request's input held (same data()),
/// for a singleton and for a ragged packed batch, and on every backend its
/// bytes equal the request run alone through Encoder::forward.
TEST(BatchExecutor, InPlaceResultsReuseTheRequestBuffers) {
  for (const AttentionBackend backend :
       {AttentionBackend::kDenseReference, AttentionBackend::kWindowExact,
        AttentionBackend::kFusedStreaming, AttentionBackend::kSwatSimulator}) {
    const EncoderConfig cfg = small_config(backend);
    const model::Encoder oracle(cfg);
    BatchExecutor executor(cfg, BatchingOptions{});
    for (const std::vector<std::int64_t>& lengths :
         {std::vector<std::int64_t>{37},
          std::vector<std::int64_t>{40, 5, 63, 1, 17}}) {
      std::vector<InferenceRequest> reqs = make_requests(cfg, lengths);
      std::vector<MatrixF> want;
      std::vector<const float*> buffers;
      std::vector<InferenceRequest*> requests;
      BatchPlanEntry entry;
      entry.offsets = {0};
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        want.push_back(oracle.forward(reqs[i].input));
        buffers.push_back(reqs[i].input.data());
        requests.push_back(&reqs[i]);
        entry.request_indices.push_back(i);
        entry.offsets.push_back(entry.offsets.back() + lengths[i]);
      }
      const std::vector<RequestResult> got =
          executor.execute_in_place(entry, requests);
      ASSERT_EQ(got.size(), reqs.size());
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        EXPECT_EQ(got[i].id, reqs[i].id);
        EXPECT_EQ(got[i].counters.tokens, lengths[i]);
        EXPECT_EQ(got[i].output.data(), buffers[i])
            << "request " << i << " of " << reqs.size();
        testing::expect_matrix_equal(got[i].output, want[i],
                                     "in place vs Encoder::forward");
      }
    }
  }
}

/// The copying execute leaves the caller's requests byte-unchanged, so
/// they can be executed again, and returns the bytes execute_in_place
/// returns for the same requests.
TEST(BatchExecutor, CopyingExecuteLeavesInputsAndMatchesInPlace) {
  const EncoderConfig cfg = small_config(AttentionBackend::kFusedStreaming);
  const auto reqs = make_requests(cfg, {40, 5, 63, 1, 17});
  const std::vector<InferenceRequest> inputs_before = reqs;
  BatchExecutor executor(cfg, BatchingOptions{});
  for (const std::vector<std::size_t>& members :
       {std::vector<std::size_t>{2}, std::vector<std::size_t>{0, 1, 2, 3, 4}}) {
    BatchPlanEntry entry;
    entry.offsets = {0};
    std::vector<const InferenceRequest*> inputs;
    for (const std::size_t i : members) {
      entry.request_indices.push_back(i);
      entry.offsets.push_back(entry.offsets.back() + reqs[i].input.rows());
      inputs.push_back(&reqs[i]);
    }
    const std::vector<RequestResult> copied = executor.execute(entry, inputs);
    std::vector<InferenceRequest> consumed;
    for (const std::size_t i : members) consumed.push_back(reqs[i]);
    std::vector<InferenceRequest*> requests;
    for (InferenceRequest& req : consumed) requests.push_back(&req);
    const std::vector<RequestResult> in_place =
        executor.execute_in_place(entry, requests);
    ASSERT_EQ(copied.size(), members.size());
    ASSERT_EQ(in_place.size(), members.size());
    for (std::size_t k = 0; k < members.size(); ++k) {
      EXPECT_NE(copied[k].output.data(), reqs[members[k]].input.data());
      testing::expect_matrix_equal(copied[k].output, in_place[k].output,
                                   "copying execute vs execute_in_place");
      expect_same_counters(copied[k].counters, in_place[k].counters);
    }
  }
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(reqs[i].id, inputs_before[i].id);
    EXPECT_TRUE(reqs[i].input == inputs_before[i].input)
        << "request " << i << " input after execute";
  }
}

/// Outputs and counters must not depend on the thread count — the
/// repo-wide determinism guarantee across the whole serving core
/// (SWAT_THREADS={1,4} mirrors the repo-wide convention).
TEST(BatchExecutor, ThreadCountInvariance) {
  for (const AttentionBackend backend :
       {AttentionBackend::kWindowExact, AttentionBackend::kSwatSimulator}) {
    const EncoderConfig cfg = small_config(backend);
    const auto reqs = make_requests(cfg, {17, 64, 33, 65, 5, 48, 80, 64});

    const auto serve_at = [&](int threads,
                              std::vector<BatchPlanEntry>& batches) {
      ThreadCountGuard guard(threads);
      BatchExecutor executor(cfg, BatchingOptions{});
      return serve(executor, reqs, &batches);
    };
    std::vector<BatchPlanEntry> batches1, batches4;
    const std::vector<RequestResult> at1 = serve_at(1, batches1);
    const std::vector<RequestResult> at4 = serve_at(4, batches4);
    ASSERT_EQ(batches1.size(), batches4.size());
    for (std::size_t b = 0; b < batches1.size(); ++b) {
      EXPECT_EQ(batches4[b].request_indices, batches1[b].request_indices);
    }
    ASSERT_EQ(at1.size(), at4.size());
    for (std::size_t i = 0; i < at1.size(); ++i) {
      testing::expect_matrix_equal(at4[i].output, at1[i].output,
                                   "threads=4 vs threads=1");
      expect_same_counters(at4[i].counters, at1[i].counters);
    }
  }
}

/// Counters stay separable: a batch's per-request counters sum, field by
/// field, to exactly what the same requests report served alone (the eval
/// tables reconcile whether accounted per request or per batch), and every
/// request ran every head of every layer. Server.DrainThenTotalsReconcile
/// carries the same identity on to Server::totals().
TEST(BatchExecutor, CountersReconcile) {
  const EncoderConfig cfg = small_config(AttentionBackend::kSwatSimulator);
  const auto reqs = make_requests(cfg, {9, 33, 64, 12});
  BatchExecutor executor(cfg, BatchingOptions{});
  std::vector<BatchPlanEntry> batches;
  const std::vector<RequestResult> results = serve(executor, reqs, &batches);
  ASSERT_EQ(batches.size(), 1u);

  RuntimeTotals batched, solo;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    batched.accumulate(results[i].counters);
    solo.accumulate(testing::solo_result(cfg, reqs[i]).counters);
  }
  EXPECT_EQ(batched.requests, solo.requests);
  EXPECT_EQ(batched.tokens, solo.tokens);
  EXPECT_EQ(batched.swat_offchip_traffic.count,
            solo.swat_offchip_traffic.count);
  EXPECT_GT(batched.swat_offchip_traffic.count, 0u);
  EXPECT_EQ(batched.swat_core_loads, solo.swat_core_loads);
  EXPECT_EQ(batched.heads_run, solo.heads_run);
  EXPECT_EQ(batched.model_flops, solo.model_flops);
  EXPECT_EQ(batched.heads_run,
            cfg.layers * cfg.num_heads * static_cast<std::int64_t>(
                                             reqs.size()));
}

/// After a warmup pass at the high-water shape, serving the same workload
/// again — in the former's order, then batch by batch from the largest
/// down — must not grow any per-worker kernel arena, the packed staging or
/// the plan arena — the "no per-request allocation on the hot path"
/// property. The 162-row batch and the 250- and 300-row singletons run the
/// post-attention block as 3, 5 and 5 row tiles, whose scratch is leased
/// from the same per-thread arena.
TEST(BatchExecutor, SteadyStateServingDoesNotGrowArenas) {
  ThreadCountGuard guard(1);  // all kernel scratch lands in this thread's arena
  const EncoderConfig cfg = small_config(AttentionBackend::kWindowExact);
  const auto reqs = make_requests(cfg, {31, 64, 17, 50, 300, 250});
  BatchExecutor executor(cfg, BatchingOptions{});
  std::vector<BatchPlanEntry> batches;
  serve(executor, reqs, &batches);  // warmup: arenas, staging to high water
  const std::size_t warm_capacity = tls_workspace().capacity_floats();
  const std::size_t warm_slabs = tls_workspace().slab_count();
  const std::size_t warm_arena = executor.plan_arena_floats();
  const std::size_t warm_plans = executor.plan_count();
  // A full-height tile's scratch: its d-wide rows and its GELU hidden.
  EXPECT_GE(warm_capacity,
            static_cast<std::size_t>(PackedWeight::kRowGrain * cfg.d_model *
                                     (1 + cfg.ffn_mult)));
  serve(executor, reqs);
  serve(executor, reqs);
  std::sort(batches.begin(), batches.end(),
            [](const BatchPlanEntry& a, const BatchPlanEntry& b) {
              return a.rows() > b.rows();
            });
  for (const BatchPlanEntry& batch : batches) {
    execute_batch(executor, reqs, batch);
  }
  EXPECT_EQ(tls_workspace().capacity_floats(), warm_capacity);
  EXPECT_EQ(tls_workspace().slab_count(), warm_slabs);
  EXPECT_EQ(executor.plan_arena_floats(), warm_arena);
  EXPECT_EQ(executor.plan_count(), warm_plans);
}

// -------------------------------------------------- compiled plan path ----

/// The tentpole guarantee: after one warmup pass over the workload's
/// shapes, the compiled path performs ZERO heap allocations — asserted
/// with the global operator-new counter, not an arena-capacity proxy.
/// Single-threaded so the measurement excludes the pool's O(1) fork-join
/// bookkeeping (with workers that is the only remaining allocation, and it
/// is independent of batch size). Parameterized over the host serving
/// backends: the banded window path and the fused streaming path (whose
/// weights are pre-packed at Engine::compile and whose attention scratch
/// is leased from the per-thread Workspace) must both go quiet.
void check_steady_state_allocation_free(AttentionBackend backend) {
  // The hook must actually be observing allocations, or the ==0 assertion
  // below would pass vacuously (gtest setup alone guarantees many).
  ASSERT_GT(g_alloc_count.load(), 0u);

  ThreadCountGuard guard(1);
  const EncoderConfig cfg = small_config(backend);
  Engine engine = Engine::compile(cfg, 200);

  // Mixed bucket shapes: short, boundary (64), ragged multi-sequence, and
  // the plan's high-water singleton.
  const std::vector<std::vector<std::int64_t>> shapes = {
      {31, 64, 17, 50}, {5}, {64, 64, 64}, {200}};
  std::vector<std::pair<MatrixF, std::vector<std::int64_t>>> batches;
  Rng rng(123);
  for (const auto& lengths : shapes) {
    std::vector<std::int64_t> offsets = {0};
    std::int64_t rows = 0;
    for (const std::int64_t len : lengths) offsets.push_back(rows += len);
    batches.emplace_back(random_normal(rows, cfg.d_model, rng),
                         std::move(offsets));
  }
  std::vector<model::AttentionStats> stats(8);

  // Warmup: every shape once (binds thread-local staging and workspace
  // slabs at their high-water sizes; the plan arena was bound at compile).
  for (const auto& [packed, offsets] : batches) {
    const std::size_t nseq = offsets.size() - 1;
    engine.run(packed, offsets, std::span(stats.data(), nseq));
  }

  // Steady state: the same shapes again, counted.
  const std::size_t before = g_alloc_count.load();
  for (int rep = 0; rep < 3; ++rep) {
    for (const auto& [packed, offsets] : batches) {
      const std::size_t nseq = offsets.size() - 1;
      engine.run(packed, offsets, std::span(stats.data(), nseq));
    }
  }
  const std::size_t allocs = g_alloc_count.load() - before;
  EXPECT_EQ(allocs, 0u)
      << allocs << " heap allocation(s) on the warmed planned path";
}

TEST(RuntimePlanned, SteadyStateIsAllocationFreeAfterWarmup) {
  check_steady_state_allocation_free(AttentionBackend::kWindowExact);
}

TEST(RuntimePlanned, SteadyStateIsAllocationFreeWithFusedStreaming) {
  check_steady_state_allocation_free(AttentionBackend::kFusedStreaming);
}

/// The arena is bound once per growth of the largest shape class and
/// reused across batches — not rebound per batch.
TEST(RuntimePlanned, PlansAreReusedAcrossBatches) {
  const EncoderConfig cfg = small_config(AttentionBackend::kWindowExact);
  const std::size_t per_row = static_cast<std::size_t>(3 * cfg.d_model);
  BatchingOptions opt;
  opt.bucket_width = 64;
  opt.max_batch_requests = 8;
  BatchExecutor executor(cfg, opt);
  const auto reqs = make_requests(cfg, {5, 63, 64, 65, 1, 40, 128, 64});

  // Two batches, of 237 and 193 rows: both shape class 4.
  const std::vector<RequestResult> first = serve(executor, reqs);
  const std::size_t plans_after_first = executor.plan_count();
  const std::size_t arena_after_first = executor.plan_arena_floats();
  EXPECT_EQ(plans_after_first, 1u);
  EXPECT_EQ(arena_after_first, 4 * 64 * per_row);

  for (int rep = 0; rep < 3; ++rep) {
    const std::vector<RequestResult> again = serve(executor, reqs);
    for (std::size_t i = 0; i < again.size(); ++i) {
      testing::expect_matrix_equal(again[i].output, first[i].output,
                                   "replayed planned serving");
    }
    EXPECT_EQ(executor.plan_count(), plans_after_first)
        << "a repeated workload must not mint new plans";
    EXPECT_EQ(executor.plan_arena_floats(), arena_after_first)
        << "a repeated workload must not grow the plan arenas";
  }

  // A genuinely new, larger shape class (a much longer request) grows the
  // one arena to its high water — lazily, exactly once.
  const auto longer = make_requests(cfg, {300});
  serve(executor, longer);
  EXPECT_EQ(executor.plan_count(), plans_after_first + 1);
  EXPECT_EQ(executor.plan_arena_floats(), 5 * 64 * per_row);
  serve(executor, longer);
  serve(executor, reqs);
  EXPECT_EQ(executor.plan_count(), plans_after_first + 1);
  EXPECT_EQ(executor.plan_arena_floats(), 5 * 64 * per_row);
}

/// One arena serves every shape class: served in ascending and then
/// descending class order, the executor counts every class compiled but
/// binds only the largest class's high water, 3 x d_model floats per row.
/// A smaller batch run right after a larger one reads none of the larger
/// batch's stale rows: every output stays bit-identical to the solo oracle.
TEST(RuntimePlanned, OneArenaServesEveryShapeClass) {
  const EncoderConfig cfg = small_config(AttentionBackend::kWindowExact);
  const std::size_t per_row = static_cast<std::size_t>(3 * cfg.d_model);
  BatchingOptions opt;
  opt.bucket_width = 64;
  BatchExecutor executor(cfg, opt);
  const model::Encoder oracle(cfg);

  // Each call is one batch: classes 1, 2, 3, 4 going up, then 4, 3, 2, 1
  // coming down (the last one a two-request batch of 39 rows).
  const std::vector<std::vector<std::int64_t>> ascending = {
      {50}, {100}, {150}, {230}};
  const std::vector<std::vector<std::int64_t>> descending = {
      {250}, {180}, {120}, {9, 30}};
  std::int64_t shape_class = 0;
  for (const auto& lengths : ascending) {
    serve(executor, make_requests(cfg, lengths));
    ++shape_class;
    EXPECT_EQ(executor.plan_count(), static_cast<std::size_t>(shape_class));
    EXPECT_EQ(executor.plan_arena_floats(),
              static_cast<std::size_t>(shape_class) * 64 * per_row)
        << "a larger class grows the one arena to its high water";
  }
  for (const auto& lengths : descending) {
    const auto reqs = make_requests(cfg, lengths);
    std::vector<BatchPlanEntry> batches;
    const std::vector<RequestResult> got = serve(executor, reqs, &batches);
    ASSERT_EQ(batches.size(), 1u);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      testing::expect_matrix_equal(got[i].output,
                                   oracle.forward(reqs[i].input),
                                   "after a larger batch vs Encoder::forward");
    }
    EXPECT_EQ(executor.plan_count(), 4u);
    EXPECT_EQ(executor.plan_arena_floats(), 4 * 64 * per_row)
        << "a smaller class reuses the bound arena";
  }
}

/// A request longer than max_batch_tokens forms its own batch; it must be
/// served through a throwaway plan, not grow the executor's arena to a
/// proportionally huge size for its lifetime.
TEST(RuntimePlanned, OversizedSingletonsDoNotPinCachedPlans) {
  const EncoderConfig cfg = small_config(AttentionBackend::kWindowExact);
  BatchingOptions opt;
  opt.bucket_width = 64;
  opt.max_batch_tokens = 100;
  BatchExecutor executor(cfg, opt);

  // One batch per length bucket: classes 1 and 2, served by one arena at
  // class 2's high water.
  serve(executor, make_requests(cfg, {40, 80}));
  const std::size_t plans = executor.plan_count();
  const std::size_t arena = executor.plan_arena_floats();
  EXPECT_EQ(plans, 2u);
  EXPECT_EQ(arena, static_cast<std::size_t>(2 * 64 * 3 * cfg.d_model));

  const auto huge = make_requests(cfg, {400});
  std::vector<BatchPlanEntry> batches;
  const auto got = serve(executor, huge, &batches);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].rows(), 400);
  EXPECT_EQ(executor.plan_count(), plans);
  EXPECT_EQ(executor.plan_arena_floats(), arena);

  const model::Encoder oracle(cfg);
  testing::expect_matrix_equal(got[0].output, oracle.forward(huge[0].input),
                               "oversized singleton vs Encoder::forward");
}

}  // namespace
}  // namespace swat
