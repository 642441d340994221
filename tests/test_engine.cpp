// Tests for the compiled execution plan (src/runtime/engine.hpp).
//
// The load-bearing guarantee: Engine::run through a compiled plan is
// bit-identical — outputs AND per-sequence counters — to running each
// sequence alone (Encoder::forward for outputs, a one-slot Engine::run for
// counters), for every backend, any thread count, and any batch
// composition. One const Encoder is also safe to share across threads. The zero-allocation steady-state
// property is asserted in tests/test_runtime.cpp (operator-new counter).
//
// Encoder::forward runs the same layer core as Engine::run, so those tests
// cannot see a bug in the row-tiled post-attention block. The
// EncoderLayerRowTiles tests hold that block to an independent oracle: the
// unfused whole-matrix sequence built from the layer's own sub-modules.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/cpu_dispatch.hpp"
#include "common/thread_pool.hpp"
#include "runtime/engine.hpp"
#include "test_util.hpp"

namespace swat {
namespace {

using model::AttentionBackend;
using model::AttentionStats;
using model::EncoderConfig;

using swat::testing::ThreadCountGuard;

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

/// A ragged packed batch with fixed contents: lengths -> (packed, offsets).
std::pair<MatrixF, std::vector<std::int64_t>> make_packed(
    const EncoderConfig& cfg, const std::vector<std::int64_t>& lengths,
    std::uint64_t seed = 99) {
  Rng rng(seed);
  std::vector<std::int64_t> offsets = {0};
  std::int64_t rows = 0;
  for (const std::int64_t len : lengths) offsets.push_back(rows += len);
  MatrixF packed = random_normal(rows, cfg.d_model, rng);
  return {std::move(packed), std::move(offsets)};
}

// ------------------------------------------------------------ compile ----

TEST(EngineCompile, ValidatesConfigBeforeBuildingWeights) {
  EncoderConfig bad = small_config(AttentionBackend::kWindowExact);
  bad.num_heads = 3;  // 64 % 3 != 0
  EXPECT_THROW(Engine::compile(bad, 128), std::invalid_argument);
}

TEST(EngineCompile, RejectsNonPositiveMaxTokens) {
  const EncoderConfig cfg = small_config(AttentionBackend::kWindowExact);
  EXPECT_THROW(Engine::compile(cfg, 0), std::invalid_argument);
}

TEST(EngineCompile, BindsArenaSizedForTheHighWaterShape) {
  const EncoderConfig cfg = small_config(AttentionBackend::kWindowExact);
  const Engine engine = Engine::compile(cfg, 96);
  EXPECT_EQ(engine.plan().max_tokens(), 96);
  // Every bound buffer scales with max_tokens, all d_model wide: q, k and
  // v. Attention writes over q, every layer over its own input, and the
  // post-attention block (output projection, LNs, FFN hidden) runs per row
  // tile in per-thread scratch and binds nothing.
  const std::size_t per_row = static_cast<std::size_t>(3 * cfg.d_model);
  EXPECT_EQ(engine.plan().arena_floats(), 96 * per_row);
  // A separately minted plan for twice the tokens is exactly twice as big.
  const ExecutionPlan big = engine.make_plan(192);
  EXPECT_EQ(big.arena_floats(), 192 * per_row);
}

TEST(EngineCompile, PacksEveryLinearWeightEagerly) {
  const EncoderConfig cfg = small_config(AttentionBackend::kWindowExact);
  const Engine engine = Engine::compile(cfg, 64);
  // Per layer: four d x d projections, the d -> ffn_mult*d expand, and the
  // ffn_mult*d -> d contract. Every out_features here is a multiple of the
  // panel width, so the packed footprint equals the raw weight counts.
  const std::size_t d = static_cast<std::size_t>(cfg.d_model);
  const std::size_t hidden = d * static_cast<std::size_t>(cfg.ffn_mult);
  const std::size_t per_layer = 4 * d * d + 2 * d * hidden;
  EXPECT_EQ(engine.packed_weight_floats(),
            per_layer * static_cast<std::size_t>(cfg.layers));
  // Plans do not carry weights: minting more plans leaves the packed
  // footprint untouched (weights are per-engine, activations per-plan).
  const ExecutionPlan extra = engine.make_plan(128);
  EXPECT_EQ(engine.packed_weight_floats(),
            per_layer * static_cast<std::size_t>(cfg.layers));
  EXPECT_GT(extra.arena_floats(), 0u);
}

TEST(EngineCompile, RunRejectsBatchesBeyondThePlanShape) {
  const EncoderConfig cfg = small_config(AttentionBackend::kWindowExact);
  Engine engine = Engine::compile(cfg, 16);
  const auto [packed, offsets] = make_packed(cfg, {17});
  EXPECT_THROW(engine.run(packed, offsets), std::invalid_argument);
}

TEST(EngineCompile, RunRejectsAPlanFromADifferentGeometry) {
  const EncoderConfig cfg = small_config(AttentionBackend::kWindowExact);
  EncoderConfig other = cfg;
  other.d_model = 32;
  other.num_heads = 1;
  other.swat.head_dim = 32;
  const Engine engine = Engine::compile(cfg, 64);
  const Engine mismatched = Engine::compile(other, 64);
  ExecutionPlan foreign = mismatched.make_plan(64);
  const auto [packed, offsets] = make_packed(cfg, {8});
  EXPECT_THROW(engine.run(foreign, packed, offsets), std::invalid_argument);
}

TEST(EngineCompile, RunRejectsAnUncompiledPlan) {
  const EncoderConfig cfg = small_config(AttentionBackend::kWindowExact);
  const Engine engine = Engine::compile(cfg, 64);
  ExecutionPlan unbound;  // default-constructed, never compiled
  const auto [packed, offsets] = make_packed(cfg, {8});
  EXPECT_THROW(engine.run(unbound, packed, offsets),
               std::invalid_argument);
}

// ------------------------------------------------------- bit-identity ----

/// Planned outputs must be bit-identical to per-request Encoder::forward,
/// and per-sequence counters to each request run alone.
void check_planned_bit_identity(AttentionBackend backend) {
  const EncoderConfig cfg = small_config(backend);
  const std::vector<std::int64_t> lengths = {5, 63, 64, 1, 40};
  const auto [packed, offsets] = make_packed(cfg, lengths);

  Engine engine = Engine::compile(cfg, packed.rows());
  std::vector<AttentionStats> planned_stats(lengths.size());
  const MatrixF& planned = engine.run(packed, offsets, planned_stats);

  const model::Encoder oracle(cfg);
  testing::expect_batch_matches_solo(oracle, packed, offsets, planned,
                                     planned_stats, "planned vs solo");
}

TEST(EngineBitIdentity, WindowBackend) {
  check_planned_bit_identity(AttentionBackend::kWindowExact);
}

TEST(EngineBitIdentity, DenseReferenceBackend) {
  check_planned_bit_identity(AttentionBackend::kDenseReference);
}

TEST(EngineBitIdentity, SwatSimulatorBackend) {
  check_planned_bit_identity(AttentionBackend::kSwatSimulator);
}

TEST(EngineBitIdentity, FusedStreamingBackend) {
  check_planned_bit_identity(AttentionBackend::kFusedStreaming);
}

TEST(EngineBitIdentity, ThreadCountInvariance) {
  for (const AttentionBackend backend :
       {AttentionBackend::kWindowExact, AttentionBackend::kFusedStreaming,
        AttentionBackend::kSwatSimulator}) {
    const EncoderConfig cfg = small_config(backend);
    const auto [packed, offsets] = make_packed(cfg, {17, 64, 33, 5, 48});

    MatrixF at1, at4;
    std::vector<AttentionStats> stats1(5), stats4(5);
    {
      ThreadCountGuard guard(1);
      Engine engine = Engine::compile(cfg, packed.rows());
      at1 = engine.run(packed, offsets, stats1);  // copy out of the arena
    }
    {
      ThreadCountGuard guard(4);
      Engine engine = Engine::compile(cfg, packed.rows());
      at4 = engine.run(packed, offsets, stats4);
    }
    testing::expect_matrix_equal(at4, at1, "threads=4 vs threads=1");
    for (std::size_t s = 0; s < stats1.size(); ++s) {
      EXPECT_EQ(stats4[s].swat_offchip_traffic.count,
                stats1[s].swat_offchip_traffic.count);
      EXPECT_EQ(stats4[s].swat_core_loads, stats1[s].swat_core_loads);
      EXPECT_EQ(stats4[s].heads_run, stats1[s].heads_run);
    }
  }
}

// --------------------------------------------------- row-tiled layer ----

using testing::unfused_layer;

TEST(EncoderLayerRowTiles, TilesAreWholeRegisterTilesWithinTheGrain) {
  for (int threads = 1; threads <= 4; ++threads) {
    for (std::int64_t n = 1; n <= 4096; n += (n < 300 ? 1 : 127)) {
      const model::RowTiling tiling(n, threads);
      const std::string what =
          "n=" + std::to_string(n) + " threads=" + std::to_string(threads);
      ASSERT_GE(tiling.tiles, 1) << what;
      EXPECT_EQ(tiling.begin(0), 0) << what;
      EXPECT_EQ(tiling.end(tiling.tiles - 1), n) << what;
      // A multiple of the pool, unless there are fewer register tiles.
      EXPECT_TRUE(tiling.tiles % threads == 0 ||
                  tiling.tiles == tiling.groups)
          << what;
      std::int64_t tallest = 0;
      for (std::int64_t t = 0; t < tiling.tiles; ++t) {
        const std::int64_t rows = tiling.end(t) - tiling.begin(t);
        EXPECT_GE(rows, 1) << what;
        EXPECT_LE(rows, PackedWeight::kRowGrain) << what;
        if (t + 1 < tiling.tiles) {
          EXPECT_EQ(rows % PackedWeight::kRowTile, 0) << what;
        }
        tallest = std::max(tallest, rows);
      }
      EXPECT_GE(tiling.max_rows, tallest) << what;
      EXPECT_LE(tiling.max_rows, PackedWeight::kRowGrain) << what;
    }
  }
}

/// Row counts on both sides of every tile boundary (1, 5, 6, 7, 59, 60,
/// 61, 121, 4096) and ragged batches.
const std::vector<std::vector<std::int64_t>> kRowTileBatches = {
    {1},  {5},   {6},          {7},       {59},
    {60}, {61},  {121},        {4096},    {1, 5, 6, 7},
    {59, 1, 61}, {17, 64, 3, 40, 121}};

/// The row-tiled layer against the unfused sequence, memcmp on the output
/// bytes: kRowTileBatches, 1-4 threads (3 splits the tiles unevenly) and
/// every ISA tier this CPU runs. With `in_place` the layer writes over its
/// own input, as the encoder stack runs it; the oracle always writes a
/// separate matrix.
void check_row_tiles_against_unfused(bool in_place) {
  const EncoderConfig cfg = small_config(AttentionBackend::kFusedStreaming);
  const model::Encoder encoder(cfg);
  const model::EncoderLayer& layer = encoder.layer(1);
  for (std::size_t b = 0; b < kRowTileBatches.size(); ++b) {
    const auto [x, offsets] =
        make_packed(cfg, kRowTileBatches[b], 31 * (b + 1));
    const MatrixF want = unfused_layer(layer, x, offsets);
    model::EncoderLayerScratch scratch;
    MatrixF got;
    for (const IsaTier tier : kIsaTiers) {
      if (!isa_tier_supported(tier)) continue;
      const ScopedIsaTier scope(tier);
      for (int threads = 1; threads <= 4; ++threads) {
        ThreadCountGuard guard(threads);
        if (in_place) {
          got = x;
          layer.forward_batch_into(got, offsets, {}, scratch, got);
        } else {
          layer.forward_batch_into(x, offsets, {}, scratch, got);
        }
        ASSERT_EQ(got.rows(), want.rows());
        ASSERT_EQ(got.cols(), want.cols());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              sizeof(float) *
                                  static_cast<std::size_t>(want.size())),
                  0)
            << "rows " << x.rows() << " (" << kRowTileBatches[b].size()
            << " sequences), tier " << isa_tier_name(tier) << ", threads "
            << threads;
      }
    }
  }
}

TEST(EncoderLayerRowTiles, ByteIdenticalToTheUnfusedSequence) {
  check_row_tiles_against_unfused(/*in_place=*/false);
}

TEST(EncoderLayerRowTiles, InPlaceByteIdenticalToTheUnfusedSequence) {
  check_row_tiles_against_unfused(/*in_place=*/true);
}

// --------------------------------------------------------- plan reuse ----

TEST(EnginePlanReuse, RepeatedRunsReuseTheArenaAndStayIdentical) {
  const EncoderConfig cfg = small_config(AttentionBackend::kWindowExact);
  const auto [packed, offsets] = make_packed(cfg, {31, 64, 17});
  Engine engine = Engine::compile(cfg, 128);

  const MatrixF first = engine.run(packed, offsets);  // copy
  const std::size_t bound = engine.plan().arena_floats();
  for (int rep = 0; rep < 3; ++rep) {
    const MatrixF& again = engine.run(packed, offsets);
    testing::expect_matrix_equal(again, first, "repeated planned run");
  }
  EXPECT_EQ(engine.plan().arena_floats(), bound);
}

TEST(EnginePlanReuse, OnePlanServesEveryShapeAtOrBelowItsHighWater) {
  const EncoderConfig cfg = small_config(AttentionBackend::kWindowExact);
  Engine engine = Engine::compile(cfg, 200);
  const model::Encoder oracle(cfg);
  // Mixed shapes through one plan, interleaved, twice over.
  const std::vector<std::vector<std::int64_t>> batches = {
      {64, 64}, {7}, {33, 12, 50}, {200}};
  for (int rep = 0; rep < 2; ++rep) {
    for (std::size_t b = 0; b < batches.size(); ++b) {
      const auto [packed, offsets] =
          make_packed(cfg, batches[b], 7 * (b + 1));
      const MatrixF& got = engine.run(packed, offsets);
      testing::expect_batch_matches_solo(oracle, packed, offsets, got, {},
                                         "mixed-shape planned run");
    }
  }
}

// -------------------------------------------------------- shared pack ----

/// The pack-sharing constructor (the replica pool's shared weight pack):
/// the replica keeps the shared pack alive after its prototype is
/// destroyed, reports no footprint of its own, and serves bit-identically
/// to an engine with a private pack.
TEST(EngineSharedPack, ReplicaOutlivesPrototypeAndMatchesPrivatePack) {
  const EncoderConfig cfg = small_config(AttentionBackend::kWindowExact);
  std::optional<Engine> prototype(std::in_place, cfg);
  Engine replica(*prototype, nullptr);
  prototype.reset();  // the replica's copy keeps the shared pack alive
  EXPECT_EQ(replica.packed_weight_floats(), 0u);
  const auto [packed, offsets] = make_packed(cfg, {26, 30});
  Engine solo = Engine::compile(cfg, 64);
  ExecutionPlan plan = replica.make_plan(64);
  testing::expect_matrix_equal(replica.run(plan, packed, offsets),
                               solo.run(packed, offsets),
                               "shared pack vs private pack");
}

// ------------------------------------------------ immutable encoder ----

/// One const Encoder shared by two threads: the model holds no per-call
/// state, so concurrent forward calls on different inputs are race-free
/// (the TSan CI job runs this) and bit-identical to serial runs.
TEST(EncoderConcurrency, ConstEncoderSharedByTwoThreadsMatchesSerialRuns) {
  for (const AttentionBackend backend :
       {AttentionBackend::kFusedStreaming, AttentionBackend::kWindowExact}) {
    const EncoderConfig cfg = small_config(backend);
    const model::Encoder encoder(cfg);
    Rng rng(123);
    const MatrixF inputs[2] = {random_normal(37, cfg.d_model, rng),
                               random_normal(64, cfg.d_model, rng)};
    const MatrixF serial[2] = {encoder.forward(inputs[0]),
                               encoder.forward(inputs[1])};
    std::vector<MatrixF> got[2];
    std::thread workers[2];
    for (int t = 0; t < 2; ++t) {
      workers[t] = std::thread([&, t] {
        for (int rep = 0; rep < 20; ++rep) {
          got[t].push_back(encoder.forward(inputs[t]));
        }
      });
    }
    for (std::thread& w : workers) w.join();
    for (int t = 0; t < 2; ++t) {
      ASSERT_EQ(got[t].size(), 20u);
      for (const MatrixF& out : got[t]) {
        testing::expect_matrix_equal(out, serial[t],
                                     "concurrent forward vs serial");
      }
    }
  }
}

}  // namespace
}  // namespace swat
