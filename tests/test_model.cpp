// Tests for the host transformer stack and its SWAT attention backend.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "model/encoder.hpp"
#include "tensor/kernels.hpp"
#include "test_util.hpp"

namespace swat::model {
namespace {

/// Small geometry so the dense-reference oracle stays fast: d_model 32,
/// 4 heads of dim 8, 16-core SWAT band.
EncoderConfig small_config(AttentionBackend backend) {
  EncoderConfig cfg;
  cfg.d_model = 32;
  cfg.num_heads = 4;
  cfg.ffn_mult = 2;
  cfg.layers = 2;
  cfg.backend = backend;
  cfg.swat = SwatConfig();
  cfg.swat.head_dim = 8;
  cfg.swat.window_cores = 16;
  return cfg;
}

TEST(Linear, ForwardMatchesManualComputation) {
  MatrixF w(2, 3);
  w(0, 0) = 1.0f;
  w(0, 1) = 2.0f;
  w(0, 2) = 3.0f;
  w(1, 0) = -1.0f;
  w(1, 1) = 0.5f;
  w(1, 2) = 0.0f;
  const Linear lin(std::move(w), {10.0f, -10.0f});
  MatrixF x(1, 3);
  x(0, 0) = 1.0f;
  x(0, 1) = 1.0f;
  x(0, 2) = 1.0f;
  const MatrixF y = lin.forward(x);
  EXPECT_FLOAT_EQ(y(0, 0), 16.0f);
  EXPECT_FLOAT_EQ(y(0, 1), -10.5f);
}

TEST(Linear, XavierInitBounded) {
  Rng rng(2);
  Linear lin(100, 100, rng);
  const double bound = std::sqrt(6.0 / 200.0);
  // The layer keeps only its pack; the identity input reads the weights
  // back out exactly (Y = I W^T + 0 = W^T).
  MatrixF eye(100, 100);
  for (std::int64_t i = 0; i < 100; ++i) eye(i, i) = 1.0f;
  const MatrixF wt = lin.forward(eye);
  for (float w : wt.flat()) {
    EXPECT_LE(std::abs(w), bound + 1e-6);
  }
  EXPECT_EQ(lin.parameters(), 100 * 100 + 100);
}

TEST(LayerNorm, NormalizesRows) {
  Rng rng(3);
  LayerNorm ln(16);
  const MatrixF x = random_normal(8, 16, rng, 5.0);
  const MatrixF y = ln.forward(x);
  for (std::int64_t i = 0; i < y.rows(); ++i) {
    double mean = 0.0, var = 0.0;
    for (float v : y.row(i)) mean += v;
    mean /= 16.0;
    for (float v : y.row(i)) var += (v - mean) * (v - mean);
    var /= 16.0;
    EXPECT_NEAR(mean, 0.0, 1e-5);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(LayerNorm, AffineParametersApply) {
  LayerNorm ln(4);
  ln.gamma() = {2.0f, 2.0f, 2.0f, 2.0f};
  ln.beta() = {1.0f, 1.0f, 1.0f, 1.0f};
  MatrixF x(1, 4);
  x(0, 0) = -1.0f;
  x(0, 1) = 0.0f;
  x(0, 2) = 0.0f;
  x(0, 3) = 1.0f;
  const MatrixF y = ln.forward(x);
  // Mean 0, var 0.5 -> normalized {-sqrt2, 0, 0, sqrt2}; x2 + 1.
  EXPECT_NEAR(y(0, 0), 1.0f - 2.0f * std::sqrt(2.0f), 1e-4f);
  EXPECT_NEAR(y(0, 1), 1.0f, 1e-5f);
  EXPECT_NEAR(y(0, 3), 1.0f + 2.0f * std::sqrt(2.0f), 1e-4f);
}

TEST(Gelu, KnownValues) {
  EXPECT_NEAR(gelu(0.0f), 0.0f, 1e-7f);
  EXPECT_NEAR(gelu(1.0f), 0.8412f, 1e-3f);
  EXPECT_NEAR(gelu(-1.0f), -0.1588f, 1e-3f);
  EXPECT_GT(gelu(10.0f), 9.99f);  // ~identity for large x
  EXPECT_NEAR(gelu(-10.0f), 0.0f, 1e-4f);
}

TEST(Mha, BackendsAgreeWhenWindowCoversSequence) {
  // With seq_len <= window_after + 1 every row's band covers the whole
  // sequence, so window attention == dense attention; all three backends
  // must produce the same layer output (SWAT within fp16).
  Rng rng(4);
  const std::int64_t n = 8;  // band is [i-8, i+7] for the 16-core config
  const MatrixF x = random_normal(n, 32, rng);
  const EncoderConfig base = small_config(AttentionBackend::kDenseReference);

  Rng wrng1(99), wrng2(99), wrng3(99);
  MultiHeadAttention dense(32, 4, AttentionBackend::kDenseReference,
                           base.swat, wrng1);
  MultiHeadAttention window(32, 4, AttentionBackend::kWindowExact, base.swat,
                            wrng2);
  MultiHeadAttention sim(32, 4, AttentionBackend::kSwatSimulator, base.swat,
                         wrng3);

  const MatrixF yd = dense.forward(x);
  const MatrixF yw = window.forward(x);
  const MatrixF ys = sim.forward(x);
  swat::testing::expect_matrix_near(yw, yd, 1e-4f, "window vs dense");
  swat::testing::expect_matrix_near(ys, yd, 0.15f, "swat sim vs dense");
}

TEST(Mha, SwatBackendTracksWindowBackend) {
  Rng rng(5);
  const MatrixF x = random_normal(64, 32, rng);
  const EncoderConfig base = small_config(AttentionBackend::kWindowExact);
  Rng wrng1(7), wrng2(7);
  MultiHeadAttention window(32, 4, AttentionBackend::kWindowExact, base.swat,
                            wrng1);
  MultiHeadAttention sim(32, 4, AttentionBackend::kSwatSimulator, base.swat,
                         wrng2);
  const MatrixF yw = window.forward(x);
  const MatrixF ys = sim.forward(x);
  // The only difference is the fp16 datapath.
  swat::testing::expect_matrix_near(ys, yw, 0.15f, "swat vs window layer");
  EXPECT_GT(mean_row_cosine(ys, yw), 0.999);
}

TEST(Mha, StatsTrackTrafficAndHeads) {
  Rng rng(6);
  const std::int64_t n = 48;
  const MatrixF x = random_normal(n, 32, rng);
  const EncoderConfig base = small_config(AttentionBackend::kSwatSimulator);
  Rng wrng(8);
  MultiHeadAttention sim(32, 4, AttentionBackend::kSwatSimulator, base.swat,
                         wrng);
  const std::vector<std::int64_t> offsets = {0, n};
  AttentionStats stats[1];
  MhaWorkspace ws;
  MatrixF out;
  sim.forward_batch_into(x, offsets, stats, ws, out);
  const AttentionStats& s = stats[0];
  EXPECT_EQ(s.heads_run, 4);
  // 4 heads x (Q + K + V + Z) x n x 8 dims x 2 bytes.
  EXPECT_EQ(s.swat_offchip_traffic.count, 4ull * 4 * n * 8 * 2);
  EXPECT_EQ(s.swat_core_loads, 4 * n);
}

TEST(Mha, StatsSpanMustMatchSequenceCountOrBeEmpty) {
  // The documented contract: stats.size() == offsets.size() - 1, or 0.
  // Anything else would silently mis-attribute per-request counters, so it
  // must throw instead.
  Rng rng(31);
  const EncoderConfig base = small_config(AttentionBackend::kWindowExact);
  Rng wrng(12);
  MultiHeadAttention mha(32, 4, AttentionBackend::kWindowExact, base.swat,
                         wrng);
  const MatrixF x = random_normal(24, 32, rng);
  const std::vector<std::int64_t> offsets = {0, 10, 24};  // two sequences

  std::vector<AttentionStats> too_few(1), too_many(3), just_right(2);
  MhaWorkspace ws;
  MatrixF out;
  EXPECT_THROW(mha.forward_batch_into(x, offsets, too_few, ws, out),
               std::invalid_argument);
  EXPECT_THROW(mha.forward_batch_into(x, offsets, too_many, ws, out),
               std::invalid_argument);
  EXPECT_NO_THROW(mha.forward_batch_into(x, offsets, just_right, ws, out));
  EXPECT_NO_THROW(mha.forward_batch_into(x, offsets, {}, ws, out));
  EXPECT_EQ(just_right[0].heads_run, 4);
  EXPECT_EQ(just_right[1].heads_run, 4);
}

TEST(Linear, ForwardIntoMatchesForwardBitExact) {
  Rng rng(32);
  Linear lin(24, 40, rng);
  const MatrixF x = random_normal(13, 24, rng);
  const MatrixF want = lin.forward(x);
  MatrixF got;
  lin.forward_into(x, got);
  swat::testing::expect_matrix_equal(got, want, "forward_into vs forward");
  // Reuse at a smaller shape must still be exact (stale capacity retained).
  const MatrixF x2 = random_normal(5, 24, rng);
  const MatrixF want2 = lin.forward(x2);
  lin.forward_into(x2, got);
  swat::testing::expect_matrix_equal(got, want2, "forward_into reuse");
}

TEST(LayerNorm, ForwardIntoMatchesForwardAndWorksInPlace) {
  Rng rng(33);
  LayerNorm ln(16);
  ln.gamma() = std::vector<float>(16, 1.5f);
  ln.beta() = std::vector<float>(16, -0.25f);
  const MatrixF x = random_normal(7, 16, rng, 3.0);
  const MatrixF want = ln.forward(x);
  MatrixF got;
  ln.forward_into(x, got);
  swat::testing::expect_matrix_equal(got, want, "forward_into vs forward");
  MatrixF inplace = x;
  ln.forward_into(inplace, inplace);
  swat::testing::expect_matrix_equal(inplace, want, "in-place forward_into");
}

// ------------------------------------------- EncoderConfig::validate ----

TEST(EncoderConfigValidate, AcceptsTheStandardGeometries) {
  EXPECT_NO_THROW(small_config(AttentionBackend::kWindowExact).validate());
  EXPECT_NO_THROW(
      EncoderConfig::longformer_base(AttentionBackend::kWindowExact)
          .validate());
}

TEST(EncoderConfigValidate, RejectsIndivisibleHeads) {
  EncoderConfig cfg = small_config(AttentionBackend::kWindowExact);
  cfg.num_heads = 5;  // 32 % 5 != 0
  try {
    cfg.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("divisible by num_heads"),
              std::string::npos)
        << e.what();
  }
}

TEST(EncoderConfigValidate, RejectsNonPositiveDims) {
  EncoderConfig cfg = small_config(AttentionBackend::kWindowExact);
  cfg.d_model = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = small_config(AttentionBackend::kWindowExact);
  cfg.num_heads = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(EncoderConfigValidate, RejectsBadFfnMult) {
  EncoderConfig cfg = small_config(AttentionBackend::kWindowExact);
  cfg.ffn_mult = 0;
  try {
    cfg.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("ffn_mult"), std::string::npos);
  }
}

TEST(EncoderConfigValidate, RejectsZeroLayers) {
  EncoderConfig cfg = small_config(AttentionBackend::kWindowExact);
  cfg.layers = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_THROW(Encoder{cfg}, std::invalid_argument);  // ctor path too
}

TEST(EncoderConfigValidate, RejectsSwatHeadDimDrift) {
  EncoderConfig cfg = small_config(AttentionBackend::kWindowExact);
  cfg.swat.head_dim = 16;  // d_model / num_heads == 8
  try {
    cfg.validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("head_dim"), std::string::npos)
        << e.what();
  }
}

/// The fused kernel streams fp32 K/V tiles and the packed GEMM fp32
/// panels only: an fp16 stream_dtype or pack_dtype (and any unknown dtype)
/// is rejected on every backend, naming the field.
TEST(EncoderConfigValidate, RejectsNonFp32StreamDtype) {
  EXPECT_EQ(EncoderConfig{}.stream_dtype, Dtype::kFp32);
  EXPECT_EQ(EncoderConfig{}.pack_dtype, Dtype::kFp32);
  const std::pair<const char*, Dtype EncoderConfig::*> fields[] = {
      {"stream_dtype", &EncoderConfig::stream_dtype},
      {"pack_dtype", &EncoderConfig::pack_dtype}};
  for (const auto& [name, field] : fields) {
    for (const AttentionBackend backend :
         {AttentionBackend::kFusedStreaming, AttentionBackend::kWindowExact}) {
      for (const Dtype dtype : {Dtype::kFp16, static_cast<Dtype>(42)}) {
        EncoderConfig cfg = small_config(backend);
        cfg.*field = dtype;
        try {
          cfg.validate();
          FAIL() << name << " " << static_cast<int>(dtype) << " accepted";
        } catch (const std::invalid_argument& e) {
          EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
              << e.what();
        }
      }
    }
  }
}

TEST(Mha, RejectsMismatchedHeadDim) {
  Rng rng(9);
  SwatConfig bad;
  bad.head_dim = 16;  // d_model/heads = 8
  bad.window_cores = 16;
  EXPECT_THROW(MultiHeadAttention(32, 4, AttentionBackend::kWindowExact, bad,
                                  rng),
               std::invalid_argument);
}

TEST(Encoder, ForwardShapesAndDeterminism) {
  const EncoderConfig cfg = small_config(AttentionBackend::kWindowExact);
  const Encoder enc(cfg);
  Rng rng(10);
  const MatrixF x = random_normal(40, 32, rng);
  const MatrixF y1 = enc.forward(x);
  const MatrixF y2 = enc.forward(x);
  EXPECT_EQ(y1.rows(), 40);
  EXPECT_EQ(y1.cols(), 32);
  swat::testing::expect_matrix_equal(y1, y2, "determinism");
}

TEST(Encoder, EmptyInputYieldsEmptyOutput) {
  // The batched path requires non-empty sequences; the single-sequence
  // wrappers must keep accepting zero-row inputs (empty in, empty out).
  const EncoderConfig cfg = small_config(AttentionBackend::kWindowExact);
  const Encoder enc(cfg);
  const MatrixF y = enc.forward(MatrixF(0, cfg.d_model));
  EXPECT_EQ(y.rows(), 0);
  EXPECT_EQ(y.cols(), cfg.d_model);
}

TEST(Encoder, ParameterCount) {
  const EncoderConfig cfg = small_config(AttentionBackend::kWindowExact);
  const Encoder enc(cfg);
  // Per layer: 4 x (32x32 + 32) attention + ffn (32x64 + 64) + (64x32 + 32)
  // + 2 x layernorm (2 x 32).
  const std::int64_t mha = 4 * (32 * 32 + 32);
  const std::int64_t ffn = (32 * 64 + 64) + (64 * 32 + 32);
  const std::int64_t norms = 2 * 64;
  EXPECT_EQ(enc.parameters(), 2 * (mha + ffn + norms));
}

TEST(Encoder, SwatBackendStaysCloseToHostBackendOverDepth) {
  EncoderConfig host_cfg = small_config(AttentionBackend::kWindowExact);
  EncoderConfig swat_cfg = small_config(AttentionBackend::kSwatSimulator);
  host_cfg.weight_seed = swat_cfg.weight_seed = 42;
  const Encoder host(host_cfg);
  const Encoder accel(swat_cfg);
  Rng rng(11);
  const MatrixF x = random_normal(64, 32, rng);
  const MatrixF yh = host.forward(x);
  const MatrixF ya = accel.forward(x);
  // fp16 error compounds over layers but layer norms keep it bounded.
  EXPECT_GT(mean_row_cosine(ya, yh), 0.99);
  // SWAT traffic is reported through the per-sequence stats span.
  const std::vector<std::int64_t> offsets = {0, x.rows()};
  AttentionStats accel_stats[1], host_stats[1];
  EncoderArena arena;
  accel.forward_batch_into(x, offsets, accel_stats, arena);
  host.forward_batch_into(x, offsets, host_stats, arena);
  EXPECT_GT(accel_stats[0].swat_offchip_traffic.count, 0u);
  EXPECT_EQ(host_stats[0].swat_offchip_traffic.count, 0u);
}

TEST(Encoder, LongformerBaseFactory) {
  const EncoderConfig cfg =
      EncoderConfig::longformer_base(AttentionBackend::kWindowExact);
  EXPECT_EQ(cfg.d_model, 768);
  EXPECT_EQ(cfg.num_heads, 12);
  EXPECT_EQ(cfg.layers, 8);
  EXPECT_EQ(cfg.swat.head_dim, 64);
  EXPECT_EQ(cfg.swat.window_cores, 512);
}

}  // namespace
}  // namespace swat::model
