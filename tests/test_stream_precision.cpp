// Tests for the half-precision streamed attention tiles (ISSUE 10):
//
//   * the stream-fidelity gate: fp16 streamed K/V tiles
//     (EncoderConfig::stream_dtype = kFp16) diverge from the fp32 fused
//     oracle by a real but budgeted rounding error, per head and end to
//     end (eval/stream_fidelity vs the calibrated budgets);
//   * determinism: the fp16 stream stays bit-identical across thread
//     counts, run-to-run, arrival orders and replica counts — rounding
//     narrows the tiles once, it never reorders a reduction;
//   * the fp32 default is bit-identical to the allocating Encoder oracle
//     (the regression guard that the new tail parameter changed nothing);
//   * fused_window_kv_stream_bytes' closed form against the brute-force
//     band sum, and BatchCostModel's kv-stream pricing built on it;
//   * EncoderConfig validation for the stream_dtype knob (the one place
//     it is set: servers take it from their config);
//   * the zero-steady-state-allocation guarantee with fp16 tiles on a
//     pinned pool (global operator-new counter, as tests/test_placement).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "attention/fused.hpp"
#include "common/thread_pool.hpp"
#include "common/topology.hpp"
#include "eval/calibration.hpp"
#include "eval/stream_fidelity.hpp"
#include "runtime/engine.hpp"
#include "runtime/server.hpp"
#include "tensor/kernels.hpp"
#include "test_util.hpp"

// ------------------------------------------------ global alloc counter ----
// Same counter as tests/test_placement.cpp: every global operator new in
// this binary bumps it, so the steady-state test below can assert a warmed
// fp16-streaming engine on a pinned pool allocates exactly nothing per run.

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

/// The compact fused-streaming geometry these tests standardize on — the
/// runtime tests' small_config pointed at the serving backend, with the
/// streamed-tile dtype as the knob under test.
EncoderConfig stream_config(Dtype stream_dtype = Dtype::kFp32) {
  EncoderConfig cfg;
  cfg.d_model = 64;
  cfg.num_heads = 2;
  cfg.ffn_mult = 2;
  cfg.layers = 2;
  cfg.backend = AttentionBackend::kFusedStreaming;
  cfg.swat = SwatConfig();
  cfg.swat.head_dim = 32;
  cfg.swat.window_cores = 32;
  cfg.weight_seed = 5;
  cfg.stream_dtype = stream_dtype;
  return cfg;
}

/// A packed ragged batch (embeddings + offsets) for the engine-level tests.
struct PackedBatch {
  MatrixF packed;
  std::vector<std::int64_t> offsets;
};

PackedBatch make_batch(const EncoderConfig& cfg,
                       const std::vector<std::int64_t>& lengths,
                       std::uint64_t seed = 123) {
  PackedBatch b;
  b.offsets = {0};
  std::int64_t rows = 0;
  for (const std::int64_t len : lengths) b.offsets.push_back(rows += len);
  Rng rng(seed);
  b.packed = random_normal(rows, cfg.d_model, rng);
  return b;
}

std::vector<InferenceRequest> make_requests(
    const EncoderConfig& cfg, const std::vector<std::int64_t>& lengths) {
  Rng rng(99);
  std::vector<InferenceRequest> reqs;
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    InferenceRequest req;
    req.id = 2000 + i;
    req.input = random_normal(lengths[i], cfg.d_model, rng);
    reqs.push_back(std::move(req));
  }
  return reqs;
}

// -------------------------------------------------- stream-fidelity gate ----

/// The acceptance gate: fp16 streamed tiles perturb every head by a REAL
/// rounding error (the test is not vacuous) that fits the calibrated
/// budget, per head and end to end — at whatever SWAT_THREADS the CI
/// matrix runs this binary under.
TEST(StreamFidelity, Fp16TilesFitTheCalibratedBudget) {
  const EncoderConfig cfg = stream_config();
  const eval::StreamFidelityResult res = eval::stream_fidelity(cfg, 96, 11);

  ASSERT_EQ(res.per_head.size(), static_cast<std::size_t>(cfg.num_heads));
  EXPECT_DOUBLE_EQ(res.head_budget, calib::kFp16StreamHeadRelErrBudget);
  EXPECT_DOUBLE_EQ(res.end_to_end_budget,
                   cfg.layers * calib::kFp16StreamEndToEndRelErrPerLayer);

  // fp16 tiles genuinely round — a zero error would mean the knob is dead.
  EXPECT_GT(res.worst_head_rel_error, 0.0);
  EXPECT_GT(res.end_to_end_rel_error, 0.0);

  // ...and the rounding fits the calibrated budget on both axes.
  EXPECT_LE(res.worst_head_rel_error, res.head_budget);
  EXPECT_GE(res.worst_head_cosine, calib::fp16_cosine_floor(res.head_budget));
  EXPECT_LE(res.end_to_end_rel_error, res.end_to_end_budget);
  EXPECT_GE(res.end_to_end_cosine,
            calib::fp16_cosine_floor(res.end_to_end_budget));
  EXPECT_TRUE(res.within_budget);

  for (const eval::HeadStreamPrecision& head : res.per_head) {
    EXPECT_GE(head.rel_error, 0.0);
    EXPECT_LE(head.rel_error, res.worst_head_rel_error);
    EXPECT_GE(head.cosine, res.worst_head_cosine);
    EXPECT_LE(head.cosine, 1.0 + 1e-12);
  }
}

TEST(StreamFidelity, BudgetDerivation) {
  // u * amplification: 2^-11 * 64 = 1/32 per head, and the end-to-end
  // budget accrues one head budget per layer.
  EXPECT_DOUBLE_EQ(calib::kFp16StreamHeadRelErrBudget, 1.0 / 32.0);
  EXPECT_DOUBLE_EQ(calib::kFp16StreamHeadRelErrBudget,
                   calib::kFp16UnitRoundoff * calib::kFp16StreamAmplification);
  EXPECT_DOUBLE_EQ(calib::kFp16StreamEndToEndRelErrPerLayer,
                   calib::kFp16StreamHeadRelErrBudget);
  // Small-angle identity the cosine floors are derived from.
  const double e = calib::kFp16StreamHeadRelErrBudget;
  EXPECT_DOUBLE_EQ(calib::fp16_cosine_floor(e), 1.0 - e * e / 2.0);
}

// ----------------------------------------------------- determinism ----

/// fp16 tiles never change a reduction order: the compiled fp16-streaming
/// engine is bit-identical run-to-run and across thread counts.
TEST(StreamDeterminism, Fp16EngineBitIdenticalAcrossThreadCounts) {
  const EncoderConfig cfg = stream_config(Dtype::kFp16);
  const PackedBatch batch = make_batch(cfg, {5, 63, 64, 1, 40});

  MatrixF ref;
  {
    ThreadCountGuard guard(1);
    Engine engine = Engine::compile(cfg, batch.packed.rows());
    ref = engine.run(batch.packed, batch.offsets);
    // Run-to-run on the same engine/plan: bit-identical.
    const MatrixF& again = engine.run(batch.packed, batch.offsets);
    testing::expect_matrix_equal(again, ref, "fp16 stream run-to-run");
  }
  for (const int threads : {2, 4}) {
    ThreadCountGuard guard(threads);
    Engine engine = Engine::compile(cfg, batch.packed.rows());
    testing::expect_matrix_equal(engine.run(batch.packed, batch.offsets), ref,
                                 "fp16 stream across thread counts");
  }
}

/// The regression guard for the new tail parameter: the fp32 default is
/// bit-identical to the allocating Encoder oracle, and the fp16 stream
/// actually differs from it (the knob is observable, not cosmetic).
TEST(StreamDeterminism, Fp32DefaultMatchesOracleAndFp16Diverges) {
  EXPECT_EQ(EncoderConfig{}.stream_dtype, Dtype::kFp32);

  const EncoderConfig cfg = stream_config();
  const PackedBatch batch = make_batch(cfg, {31, 64, 17});
  const model::Encoder oracle(cfg);
  const MatrixF expected =
      testing::solo_forward_packed(oracle, batch.packed, batch.offsets);

  ThreadCountGuard guard(4);
  Engine fp32 = Engine::compile(cfg, batch.packed.rows());
  testing::expect_batch_matches_solo(oracle, batch.packed, batch.offsets,
                                     fp32.run(batch.packed, batch.offsets),
                                     {}, "fp32 stream default vs oracle");

  Engine fp16 = Engine::compile(stream_config(Dtype::kFp16),
                                batch.packed.rows());
  const MatrixF& half = fp16.run(batch.packed, batch.offsets);
  ASSERT_EQ(half.rows(), expected.rows());
  ASSERT_EQ(half.cols(), expected.cols());
  bool any_diff = false;
  for (std::int64_t i = 0; i < half.rows() && !any_diff; ++i) {
    for (std::int64_t j = 0; j < half.cols() && !any_diff; ++j) {
      any_diff = half(i, j) != expected(i, j);
    }
  }
  EXPECT_TRUE(any_diff) << "fp16 tiles produced bit-equal output — the "
                           "stream_dtype knob is not reaching the kernel";
}

/// Server-level determinism matrix: a server built from an fp16-stream
/// config serves bit-identically to the solo fp16 sequential oracle across
/// SWAT_THREADS {1,4} x three arrival orders x replica counts {1,2} under
/// partitioned placement.
TEST(StreamServing, Fp16BitIdenticalAcrossThreadsOrdersAndReplicas) {
  const EncoderConfig cfg = stream_config(Dtype::kFp16);
  const std::vector<std::int64_t> lengths = {5, 63, 64, 65, 1, 40, 17, 33};
  std::vector<InferenceRequest> reqs = make_requests(cfg, lengths);

  std::vector<RequestResult> oracle;
  for (const InferenceRequest& req : reqs) {
    oracle.push_back(testing::solo_result(cfg, req));
  }

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
    for (const std::size_t replicas : {1u, 2u}) {
      for (const std::vector<std::size_t>& order : orders) {
        ServerOptions opt;
        opt.num_replicas = replicas;
        opt.placement = PlacementPolicy::kPartitioned;
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
                                       "fp16 stream server vs solo oracle");
        }
        server.drain();
      }
    }
  }
}

// ------------------------------------------- kv-stream bytes & pricing ----

TEST(FusedKvStreamBytes, ClosedFormMatchesBruteForceBandSum) {
  const auto brute_band_sum = [](std::int64_t n, std::int64_t wb,
                                 std::int64_t wa) {
    std::int64_t sum = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      const std::int64_t lo = std::max<std::int64_t>(0, i - wb);
      const std::int64_t hi = std::min<std::int64_t>(n - 1, i + wa);
      sum += hi - lo + 1;
    }
    return sum;
  };

  // Hand-checked anchors first: a single row with no reach streams exactly
  // its own K and V row; n=3 with radius 1 attends 2+3+2 = 7 positions.
  EXPECT_EQ(attn::fused_window_kv_stream_bytes(1, 1, 1, 0, 0, Dtype::kFp32),
            2 * 1 * 1 * 1 * 4);
  EXPECT_EQ(attn::fused_window_kv_stream_bytes(3, 1, 1, 1, 1, Dtype::kFp32),
            2 * 1 * 1 * 7 * 4);

  const struct { std::int64_t n, wb, wa; } shapes[] = {
      {1, 0, 0}, {3, 1, 1}, {8, 2, 1}, {64, 16, 15},
      {128, 16, 15}, {5, 100, 100}, {40, 0, 7}, {17, 31, 0},
  };
  for (const auto& s : shapes) {
    const std::int64_t band = brute_band_sum(s.n, s.wb, s.wa);
    for (const std::int64_t heads : {1, 2, 12}) {
      for (const std::int64_t h : {1, 32, 64}) {
        const std::int64_t fp32 = attn::fused_window_kv_stream_bytes(
            s.n, heads, h, s.wb, s.wa, Dtype::kFp32);
        const std::int64_t fp16 = attn::fused_window_kv_stream_bytes(
            s.n, heads, h, s.wb, s.wa, Dtype::kFp16);
        EXPECT_EQ(fp32, 2 * heads * h * band * 4)
            << "n=" << s.n << " wb=" << s.wb << " wa=" << s.wa;
        EXPECT_EQ(fp16 * 2, fp32) << "fp16 must stream exactly half";
      }
    }
  }
}

/// BatchCostModel's activation-stream pricing: the kv sweep is the kernel
/// closed form summed per sequence, times the layer count, converted at
/// the calibrated host stream bandwidth — and predict() is exactly the
/// three-term sum the dispatch sites charge.
TEST(CostModel, KvStreamPricingFollowsTheKernelClosedForm) {
  const EncoderConfig cfg = stream_config();
  const BatchCostModel fp32_model(cfg);
  const BatchCostModel fp16_model(stream_config(Dtype::kFp16));

  BatchPlanEntry entry;
  entry.request_indices = {0, 1};
  entry.offsets = {0, 5, 68};  // lengths 5 and 63

  std::uint64_t expected = 0;
  for (const std::int64_t len : {5, 63}) {
    expected += static_cast<std::uint64_t>(attn::fused_window_kv_stream_bytes(
        len, cfg.num_heads, cfg.swat.head_dim, cfg.swat.window_before(),
        cfg.swat.window_after(), Dtype::kFp32));
  }
  expected *= static_cast<std::uint64_t>(cfg.layers);

  EXPECT_EQ(fp32_model.kv_stream_bytes(entry).count, expected);
  EXPECT_EQ(fp16_model.kv_stream_bytes(entry).count, expected / 2);
  EXPECT_DOUBLE_EQ(fp32_model.kv_stream_seconds(entry).value,
                   static_cast<double>(expected) /
                       calib::kHostWeightStreamBytesPerSec);
  EXPECT_DOUBLE_EQ(fp32_model.predict(entry).value,
                   fp32_model.batch_seconds(entry).value +
                       fp32_model.weight_stream_seconds().value +
                       fp32_model.kv_stream_seconds(entry).value);
  // The knob prices what it streams: a cheaper kv sweep, nothing else.
  EXPECT_LT(fp16_model.predict(entry).value, fp32_model.predict(entry).value);
  EXPECT_DOUBLE_EQ(fp16_model.batch_seconds(entry).value,
                   fp32_model.batch_seconds(entry).value);
}

// ------------------------------------------------------- validation ----

TEST(StreamOptionsValidation, EncoderConfigRejectsBadStreamDtypes) {
  EncoderConfig bad = stream_config();
  bad.stream_dtype = static_cast<Dtype>(42);
  try {
    bad.validate();
    FAIL() << "unknown stream_dtype accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("stream_dtype"), std::string::npos);
  }

  EncoderConfig wrong_backend = stream_config(Dtype::kFp16);
  wrong_backend.backend = AttentionBackend::kWindowExact;
  try {
    wrong_backend.validate();
    FAIL() << "fp16 stream on a non-fused backend accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("kFusedStreaming"),
              std::string::npos);
  }
  // The same geometry with the fused backend is valid.
  EXPECT_NO_THROW(stream_config(Dtype::kFp16).validate());
}

// -------------------------------------------------- zero-alloc steady state ----

/// The zero-allocation guarantee survives the fp16 tile path: a warmed
/// fp16-streaming engine bound to a PINNED single-thread pool performs no
/// heap allocation per run — the u16 staging leases from the same
/// thread-local float arena the fp32 path uses (same counter methodology
/// as tests/test_placement.cpp).
TEST(StreamSteadyState, Fp16PinnedEngineRunAllocatesNothing) {
  ASSERT_GT(g_alloc_count.load(), 0u);

  const CpuSet allowed = current_thread_affinity();
  CpuSet group;
  if (!allowed.empty()) group.add(allowed.cpus().front());
  ThreadPool pool(1, group);

  const EncoderConfig cfg = stream_config(Dtype::kFp16);
  Engine engine(cfg, &pool);
  ExecutionPlan plan = engine.make_plan(200);

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

  // Warmup binds thread-local staging/workspace at their high-water sizes.
  for (auto& [packed, offsets] : batches) {
    engine.run(plan, packed, offsets,
               std::span<model::AttentionStats>(stats.data(),
                                                offsets.size() - 1));
  }

  const std::size_t before = g_alloc_count.load();
  for (auto& [packed, offsets] : batches) {
    engine.run(plan, packed, offsets,
               std::span<model::AttentionStats>(stats.data(),
                                                offsets.size() - 1));
  }
  EXPECT_EQ(g_alloc_count.load(), before)
      << "a warmed fp16-stream pinned-pool run allocated";
}

}  // namespace
}  // namespace swat
