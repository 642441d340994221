// Tests for the half-precision packed-weight path (EncoderConfig::
// pack_dtype = Dtype::kFp16) and its calibrated fidelity gate.
//
// The load-bearing guarantees under test:
//   * FIDELITY: the fp16 pack's deviation from the fp32 oracle fits the
//     budget derived in eval/calibration.hpp — per-layer (teacher-forced)
//     against u * sqrt(k_max), end-to-end (free-running) against layers x
//     that budget, with the matching cosine floors. This is the gate that
//     lets serving flip the knob without re-deriving accuracy claims.
//   * DETERMINISM: fp16-packed outputs are bit-identical across runs,
//     across SWAT_THREADS, and across batch compositions — the same
//     structural guarantee the fp32 path has; only oracle bit-parity is
//     given up.
//   * REGRESSION: the fp32 default stays bit-identical to the allocating
//     Encoder oracle — the fp16 path rides beside it, never through it.
#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.hpp"
#include "eval/calibration.hpp"
#include "eval/precision_fidelity.hpp"
#include "runtime/cost_model.hpp"
#include "runtime/engine.hpp"
#include "tensor/kernels.hpp"
#include "test_util.hpp"

namespace swat {
namespace {

using model::AttentionBackend;
using model::EncoderConfig;

using swat::testing::expect_matrix_equal;
using swat::testing::ThreadCountGuard;

/// The compact geometry the runtime tests standardize on, with a deeper
/// FFN (ffn_mult 4) so the longest reduction the budget bounds is
/// exercised at a meaningful depth.
EncoderConfig small_config(Dtype pack_dtype = Dtype::kFp32) {
  EncoderConfig cfg;
  cfg.d_model = 64;
  cfg.num_heads = 2;
  cfg.ffn_mult = 4;
  cfg.layers = 2;
  cfg.backend = AttentionBackend::kWindowExact;
  cfg.swat = SwatConfig();
  cfg.swat.head_dim = 32;
  cfg.swat.window_cores = 32;
  cfg.weight_seed = 5;
  cfg.pack_dtype = pack_dtype;
  return cfg;
}

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

// ------------------------------------------------------- fidelity gate ----

TEST(PrecisionFidelity, Fp16PackFitsTheCalibratedBudget) {
  const auto result =
      eval::precision_fidelity(small_config(), /*seq_len=*/96,
                               /*input_seed=*/11);
  ASSERT_EQ(result.per_layer.size(), 2u);
  // The budgets come straight from calibration.
  EXPECT_DOUBLE_EQ(result.layer_budget, calib::kFp16LayerRelErrBudget);
  EXPECT_DOUBLE_EQ(result.end_to_end_budget,
                   2.0 * calib::kFp16EndToEndRelErrPerLayer);
  // The pack genuinely rounds (a zero error would mean the fp16 path is
  // silently serving fp32 panels) ...
  EXPECT_GT(result.worst_layer_rel_error, 0.0);
  EXPECT_GT(result.end_to_end_rel_error, 0.0);
  // ... and the rounding fits the budget with the cosine floors. This is
  // THE gate: loosening calibration or breaking the widen-on-load path
  // fails here, not in production.
  EXPECT_LE(result.worst_layer_rel_error, result.layer_budget);
  EXPECT_GE(result.worst_layer_cosine,
            calib::fp16_cosine_floor(result.layer_budget));
  EXPECT_LE(result.end_to_end_rel_error, result.end_to_end_budget);
  EXPECT_GE(result.end_to_end_cosine,
            calib::fp16_cosine_floor(result.end_to_end_budget));
  EXPECT_TRUE(result.within_budget);
}

TEST(PrecisionFidelity, BudgetDerivationIsSelfConsistent) {
  // 2^-11 unit roundoff x 64 amplification = 1/32; the cosine floor is
  // second order in the budget, so it sits just below 1.
  EXPECT_DOUBLE_EQ(calib::kFp16LayerRelErrBudget, 1.0 / 32.0);
  EXPECT_GT(calib::fp16_cosine_floor(calib::kFp16LayerRelErrBudget),
            0.999);
  EXPECT_LT(calib::fp16_cosine_floor(calib::kFp16LayerRelErrBudget), 1.0);
}

// ------------------------------------------------- packed-weight dtype ----

TEST(PackedWeightF16, PackStoresHalfPanelsWithFullElementCount) {
  Rng rng(3);
  const MatrixF w = random_normal(70, 33, rng);  // forces row+k padding
  PackedWeight f32;
  pack_weight_nt(w, f32);
  PackedWeight f16;
  pack_weight_nt(w, f16, Dtype::kFp16);
  EXPECT_EQ(f32.dtype, Dtype::kFp32);
  EXPECT_EQ(f16.dtype, Dtype::kFp16);
  // Same logical layout, half the bytes.
  EXPECT_EQ(f16.floats(), f32.floats());
  EXPECT_EQ(f16.floats(), PackedWeight::padded_elements(70, 33));
  EXPECT_EQ(f16.bytes() * 2, f32.bytes());
  EXPECT_TRUE(f16.data.empty());
  EXPECT_TRUE(f32.data_f16.empty());
  // Every fp16 panel element is the RNE rounding of the fp32 one.
  for (std::size_t i = 0; i < f32.data.size(); ++i) {
    ASSERT_EQ(f16.data_f16[i], f32_to_f16_bits(f32.data[i])) << "i=" << i;
  }
}

TEST(PackedWeightF16, GemmTracksTheRoundedOracleWithinBudget) {
  Rng rng(4);
  const std::int64_t m = 37, k = 96, n = 50;
  const MatrixF a = random_normal(m, k, rng);
  const MatrixF w = random_normal(n, k, rng);
  // Oracle: the same GEMM against master weights rounded through fp16 —
  // what fp32 accumulation over half-stored panels should produce, up to
  // contraction (the fp16 tile allows FMA; same ascending-k order).
  MatrixF w_rounded(n, k);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < k; ++j) {
      w_rounded(i, j) = f16_bits_to_f32(f32_to_f16_bits(w(i, j)));
    }
  }
  PackedWeight pf16, pref;
  pack_weight_nt(w, pf16, Dtype::kFp16);
  pack_weight_nt(w_rounded, pref);
  const std::vector<float> bias(static_cast<std::size_t>(n), 0.25f);
  MatrixF y16(m, n), yref(m, n);
  gemm_packed_into(a, pf16, bias, y16);
  gemm_packed_into(a, pref, bias, yref);
  // FMA keeps partial products at full precision, so the contracted tile
  // sits within a few float ulps of the non-contracted oracle.
  EXPECT_LT(relative_error(y16, yref), 1e-6);
  // And genuinely differs from the unrounded fp32 pack (the knob is live).
  MatrixF y32(m, n);
  gemm_packed_into(a, pref, bias, y32);
  pack_weight_nt(w, pref);
  gemm_packed_into(a, pref, bias, y32);
  EXPECT_GT(relative_error(y16, y32), 0.0);
  EXPECT_LT(relative_error(y16, y32), calib::kFp16LayerRelErrBudget);
}

TEST(PackedWeightF16, GemmIsBitIdenticalAcrossThreadCounts) {
  Rng rng(6);
  const std::int64_t m = 130, k = 64, n = 70;  // multiple row/panel tiles
  const MatrixF a = random_normal(m, k, rng);
  const MatrixF w = random_normal(n, k, rng);
  PackedWeight packed;
  pack_weight_nt(w, packed, Dtype::kFp16);
  const std::vector<float> bias(static_cast<std::size_t>(n), -0.5f);
  MatrixF solo(m, n), wide(m, n);
  {
    ThreadCountGuard guard(1);
    gemm_packed_into(a, packed, bias, solo);
  }
  {
    ThreadCountGuard guard(4);
    gemm_packed_into(a, packed, bias, wide);
  }
  expect_matrix_equal(wide, solo, "fp16 gemm across thread counts");
}

// ------------------------------------------------- engine determinism ----

TEST(PrecisionEngine, Fp16RunIsBitIdenticalRunToRun) {
  const EncoderConfig cfg = small_config(Dtype::kFp16);
  auto [packed, offsets] = make_packed(cfg, {33, 17, 48});
  Engine engine = Engine::compile(cfg, 128);
  const MatrixF first = engine.run(packed, offsets);
  for (int round = 0; round < 3; ++round) {
    const MatrixF& again = engine.run(packed, offsets);
    expect_matrix_equal(again, first, "fp16 engine run-to-run");
  }
  // A second engine built from the same config reproduces it too.
  Engine rebuilt = Engine::compile(cfg, 128);
  expect_matrix_equal(rebuilt.run(packed, offsets), first,
                      "fp16 engine rebuild");
}

TEST(PrecisionEngine, Fp16RunIsThreadCountInvariant) {
  const EncoderConfig cfg = small_config(Dtype::kFp16);
  auto [packed, offsets] = make_packed(cfg, {40, 24});
  Engine engine = Engine::compile(cfg, 128);
  MatrixF solo, wide;
  {
    ThreadCountGuard guard(1);
    solo = engine.run(packed, offsets);
  }
  {
    ThreadCountGuard guard(4);
    wide = engine.run(packed, offsets);
  }
  expect_matrix_equal(wide, solo, "fp16 engine across thread counts");
}

TEST(PrecisionEngine, Fp16BatchCompositionCannotChangeResults) {
  const EncoderConfig cfg = small_config(Dtype::kFp16);
  auto [packed, offsets] = make_packed(cfg, {21, 35});
  Engine engine = Engine::compile(cfg, 128);
  const MatrixF batched = engine.run(packed, offsets);
  // Each sequence run alone must reproduce its batched rows bit for bit.
  for (std::size_t s = 0; s + 1 < offsets.size(); ++s) {
    const std::int64_t lo = offsets[s], hi = offsets[s + 1];
    MatrixF alone(hi - lo, cfg.d_model);
    for (std::int64_t i = lo; i < hi; ++i) {
      for (std::int64_t j = 0; j < cfg.d_model; ++j) {
        alone(i - lo, j) = packed(i, j);
      }
    }
    const std::vector<std::int64_t> solo_offsets = {0, hi - lo};
    const MatrixF& out = engine.run(alone, solo_offsets);
    for (std::int64_t i = 0; i < out.rows(); ++i) {
      for (std::int64_t j = 0; j < out.cols(); ++j) {
        ASSERT_EQ(out(i, j), batched(lo + i, j))
            << "sequence " << s << " row " << i << " col " << j;
      }
    }
  }
}

TEST(PrecisionEngine, Fp32DefaultStaysBitIdenticalToTheOracle) {
  // The regression that proves the fp16 path rides BESIDE the fp32 path:
  // a default-dtype engine still matches the solo encoder oracle bit for
  // bit, and an fp16 engine from the same weights measurably differs.
  const EncoderConfig cfg = small_config();
  ASSERT_EQ(cfg.pack_dtype, Dtype::kFp32);
  auto [packed, offsets] = make_packed(cfg, {29, 43});
  Engine engine = Engine::compile(cfg, 128);
  const model::Encoder oracle(cfg);
  swat::testing::expect_batch_matches_solo(oracle, packed, offsets,
                                           engine.run(packed, offsets), {},
                                           "fp32 default vs oracle");
  Engine half = Engine::compile(small_config(Dtype::kFp16), 128);
  EXPECT_GT(max_abs_diff(half.run(packed, offsets),
                         swat::testing::solo_forward_packed(oracle, packed,
                                                            offsets)),
            0.0f);
}

// ------------------------------------------------- footprint and cost ----

TEST(PrecisionFootprint, Fp16HalvesPackedWeightBytesNotFloats) {
  Engine f32(small_config());
  Engine f16(small_config(Dtype::kFp16));
  EXPECT_EQ(f16.packed_weight_floats(), f32.packed_weight_floats());
  EXPECT_EQ(f16.packed_weight_bytes() * 2, f32.packed_weight_bytes());
  EXPECT_EQ(f32.packed_weight_bytes(), f32.packed_weight_floats() * 4);
}

TEST(PrecisionFootprint, CostModelSweepMatchesEngineResidentBytes) {
  for (const Dtype dtype : {Dtype::kFp32, Dtype::kFp16}) {
    const EncoderConfig cfg = small_config(dtype);
    const BatchCostModel model(cfg);
    const Engine engine(cfg);
    // The cost model prices the sweep from geometry alone; a non-sharing
    // engine's resident pack IS one sweep. The identity keeps dispatch
    // honest about what the dtype knob changes.
    EXPECT_EQ(model.weight_stream_bytes().count,
              static_cast<std::uint64_t>(engine.packed_weight_bytes()))
        << dtype_name(dtype);
    EXPECT_GT(model.weight_stream_seconds().value, 0.0);
  }
}

// ------------------------------------------------------ config guards ----

TEST(PrecisionConfig, MatchingDtypeSharedPackStaysBitIdentical) {
  const EncoderConfig cfg = small_config(Dtype::kFp16);
  std::optional<Engine> prototype(std::in_place, cfg);
  Engine replica(*prototype, nullptr);
  prototype.reset();  // the replica's copy keeps the shared pack alive
  EXPECT_EQ(replica.packed_weight_floats(), 0u);
  EXPECT_EQ(replica.packed_weight_bytes(), 0u);
  auto [packed, offsets] = make_packed(cfg, {26, 30});
  Engine solo = Engine::compile(cfg, 64);
  ExecutionPlan plan = replica.make_plan(64);
  expect_matrix_equal(replica.run(plan, packed, offsets),
                      solo.run(packed, offsets),
                      "shared fp16 pack vs private pack");
}

TEST(PrecisionConfig, EncoderConfigRejectsUnknownPackDtype) {
  EncoderConfig cfg = small_config();
  cfg.pack_dtype = static_cast<Dtype>(42);
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace swat
