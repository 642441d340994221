// Tests for the batched fused streaming attention kernel
// (attention/fused.hpp: fused_window_attention_batch_into) and the
// kFusedStreaming serving backend built on it.
//
// The contract under test, per ISSUE 5:
//   * per-head bit-parity with fused_window_attention (the paper's Eq. 1
//     operation order) on the sliced head;
//   * numerical parity with the masked_attention_into oracle across window
//     radii {0, 1, 7, >= seq_len} and ragged batches including edge rows;
//   * thread-count invariance;
//   * fused_window_kv_stream_bytes' closed form against the brute-force
//     band sum;
//   * the serving backend (MultiHeadAttention / Encoder / Engine) is
//     bit-identical between its planned and allocating paths and rejects
//     pattern-augmented configs it cannot honor.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "attention/fused.hpp"
#include "attention/reference.hpp"
#include "common/thread_pool.hpp"
#include "runtime/engine.hpp"
#include "test_util.hpp"

namespace swat {
namespace {

using attn::AttentionPattern;
using attn::HeadInput;
using attn::PatternSpec;
using model::AttentionBackend;
using model::EncoderConfig;

using swat::testing::ThreadCountGuard;

struct PackedQkv {
  MatrixF q, k, v;
  std::vector<std::int64_t> offsets;
  std::int64_t rows() const { return q.rows(); }
};

PackedQkv make_packed(const std::vector<std::int64_t>& lengths,
                      std::int64_t d_model, std::uint64_t seed) {
  Rng rng(seed);
  PackedQkv p;
  p.offsets = {0};
  std::int64_t rows = 0;
  for (const std::int64_t len : lengths) p.offsets.push_back(rows += len);
  // 0.3 stddev keeps the unshifted exp of Eq. 1 well inside float range.
  p.q = random_normal(rows, d_model, rng, 0.3);
  p.k = random_normal(rows, d_model, rng, 0.3);
  p.v = random_normal(rows, d_model, rng);
  return p;
}

/// The head slice the batched kernel operates on, staged exactly the way
/// MultiHeadAttention stages it (scale folded into Q with one rounding).
HeadInput slice_head(const PackedQkv& p, std::size_t seq, std::int64_t head,
                     std::int64_t h, float scale) {
  const std::int64_t row0 = p.offsets[seq];
  const std::int64_t n = p.offsets[seq + 1] - row0;
  const std::int64_t base = head * h;
  HeadInput in;
  in.q = MatrixF(n, h);
  in.k = MatrixF(n, h);
  in.v = MatrixF(n, h);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t d = 0; d < h; ++d) {
      in.q(i, d) = p.q(row0 + i, base + d) * scale;
      in.k(i, d) = p.k(row0 + i, base + d);
      in.v(i, d) = p.v(row0 + i, base + d);
    }
  }
  return in;
}

// ------------------------------------------------------ per-head parity ----

TEST(FusedStreamingBatch, BitParityWithPerHeadFusedKernel) {
  const std::int64_t num_heads = 3, h = 8, d_model = num_heads * h;
  const float scale = 1.0f / std::sqrt(static_cast<float>(h));
  const PackedQkv p = make_packed({19, 1, 33}, d_model, 7);
  for (const std::int64_t w : {0L, 1L, 7L, 64L}) {
    MatrixF out(p.rows(), d_model, -5.0f);  // poisoned
    attn::fused_window_attention_batch_into(p.q, p.k, p.v, p.offsets,
                                            num_heads, w, w, scale, out);
    for (std::size_t s = 0; s + 1 < p.offsets.size(); ++s) {
      for (std::int64_t head = 0; head < num_heads; ++head) {
        const HeadInput in = slice_head(p, s, head, h, scale);
        const MatrixF want = attn::fused_window_attention(in, w);
        const std::int64_t row0 = p.offsets[s];
        for (std::int64_t i = 0; i < want.rows(); ++i) {
          for (std::int64_t d = 0; d < h; ++d) {
            ASSERT_EQ(out(row0 + i, head * h + d), want(i, d))
                << "w=" << w << " seq=" << s << " head=" << head << " row="
                << i << " d=" << d;
          }
        }
      }
    }
  }
}

// ------------------------------------------------- masked-oracle parity ----

TEST(FusedStreamingBatch, MatchesMaskedOracleAcrossRadiiAndRaggedBatches) {
  const std::int64_t num_heads = 2, h = 8, d_model = num_heads * h;
  const float scale = 1.0f / std::sqrt(static_cast<float>(h));
  // Ragged on purpose: a singleton edge row, a length-2, and longer runs.
  const PackedQkv p = make_packed({13, 1, 2, 29}, d_model, 11);
  for (const std::int64_t w : {0L, 1L, 7L, 64L}) {  // 64 >= every seq_len
    MatrixF out(p.rows(), d_model);
    attn::fused_window_attention_batch_into(p.q, p.k, p.v, p.offsets,
                                            num_heads, w, w, scale, out);
    for (std::size_t s = 0; s + 1 < p.offsets.size(); ++s) {
      const std::int64_t row0 = p.offsets[s];
      for (std::int64_t head = 0; head < num_heads; ++head) {
        const HeadInput in = slice_head(p, s, head, h, scale);
        const AttentionPattern pattern(
            PatternSpec::longformer(in.seq_len(), w));
        MatrixF oracle;
        attn::masked_attention_into(in, pattern, oracle);
        MatrixF got(in.seq_len(), h);
        for (std::int64_t i = 0; i < got.rows(); ++i) {
          for (std::int64_t d = 0; d < h; ++d) {
            got(i, d) = out(row0 + i, head * h + d);
          }
        }
        // Eq. 1 skips the max subtraction and defers the division, so
        // parity with the stable-softmax oracle is numerical, not bitwise.
        swat::testing::expect_matrix_near(got, oracle, 1e-5f,
                                          "fused vs masked oracle");
      }
    }
  }
}

TEST(FusedStreamingBatch, AsymmetricBandMatchesMaskedOracle) {
  // The SWAT band (before = w, after = w - 1) — the shape the serving
  // config actually runs.
  const std::int64_t num_heads = 2, h = 8, d_model = num_heads * h;
  const float scale = 1.0f / std::sqrt(static_cast<float>(h));
  const PackedQkv p = make_packed({21, 5}, d_model, 13);
  const std::int64_t before = 4, after = 3;
  MatrixF out(p.rows(), d_model);
  attn::fused_window_attention_batch_into(p.q, p.k, p.v, p.offsets,
                                          num_heads, before, after, scale,
                                          out);
  for (std::size_t s = 0; s + 1 < p.offsets.size(); ++s) {
    const std::int64_t row0 = p.offsets[s];
    for (std::int64_t head = 0; head < num_heads; ++head) {
      const HeadInput in = slice_head(p, s, head, h, scale);
      const AttentionPattern pattern(
          PatternSpec::swat_band(in.seq_len(), before + after + 1));
      MatrixF oracle;
      attn::masked_attention_into(in, pattern, oracle);
      MatrixF got(in.seq_len(), h);
      for (std::int64_t i = 0; i < got.rows(); ++i) {
        for (std::int64_t d = 0; d < h; ++d) {
          got(i, d) = out(row0 + i, head * h + d);
        }
      }
      swat::testing::expect_matrix_near(got, oracle, 1e-5f,
                                        "asymmetric band vs masked oracle");
    }
  }
}

// --------------------------------------------------- thread invariance ----

TEST(FusedStreamingBatch, ThreadCountInvariance) {
  const std::int64_t num_heads = 4, h = 8, d_model = num_heads * h;
  const float scale = 1.0f / std::sqrt(static_cast<float>(h));
  const PackedQkv p = make_packed({17, 64, 33, 5}, d_model, 17);
  MatrixF at1, at4;
  {
    ThreadCountGuard guard(1);
    at1 = MatrixF(p.rows(), d_model);
    attn::fused_window_attention_batch_into(p.q, p.k, p.v, p.offsets,
                                            num_heads, 7, 6, scale, at1);
  }
  {
    ThreadCountGuard guard(4);
    at4 = MatrixF(p.rows(), d_model);
    attn::fused_window_attention_batch_into(p.q, p.k, p.v, p.offsets,
                                            num_heads, 7, 6, scale, at4);
  }
  swat::testing::expect_matrix_equal(at4, at1, "threads 4 vs 1");
}

// ---------------------------------------------------------- contracts ----

TEST(FusedStreamingBatch, RejectsMalformedInputs) {
  const PackedQkv p = make_packed({8}, 16, 19);
  MatrixF out(8, 16);
  // num_heads must divide d_model.
  EXPECT_THROW(attn::fused_window_attention_batch_into(
                   p.q, p.k, p.v, p.offsets, 3, 2, 2, 1.0f, out),
               std::invalid_argument);
  // Offsets must span the packed rows.
  const std::vector<std::int64_t> bad_offsets = {0, 5};
  EXPECT_THROW(attn::fused_window_attention_batch_into(
                   p.q, p.k, p.v, bad_offsets, 2, 2, 2, 1.0f, out),
               std::invalid_argument);
  // Negative window reach.
  EXPECT_THROW(attn::fused_window_attention_batch_into(
                   p.q, p.k, p.v, p.offsets, 2, -1, 2, 1.0f, out),
               std::invalid_argument);
  // Output shape mismatch.
  MatrixF small(8, 8);
  EXPECT_THROW(attn::fused_window_attention_batch_into(
                   p.q, p.k, p.v, p.offsets, 2, 2, 2, 1.0f, small),
               std::invalid_argument);
  // The output may be Q itself, but may overlap neither K, V nor Q other
  // than exactly.
  MatrixF q = p.q, k = p.k, v = p.v;
  EXPECT_THROW(attn::fused_window_attention_batch_into(
                   p.q, k, p.v, p.offsets, 2, 2, 2, 1.0f, k),
               std::invalid_argument);
  EXPECT_THROW(attn::fused_window_attention_batch_into(
                   p.q, p.k, v, p.offsets, 2, 2, 2, 1.0f, v),
               std::invalid_argument);
  MatrixF backing(9, 16, 0.5f);
  const ConstMatrixView q_rows(backing.data(), 8, 16, 16);
  const MatrixView shifted(backing.row(1).data(), 8, 16, 16);
  EXPECT_THROW(attn::fused_window_attention_batch_into(
                   q_rows, p.k, p.v, p.offsets, 2, 2, 2, 1.0f, shifted),
               std::invalid_argument);
  EXPECT_NO_THROW(attn::fused_window_attention_batch_into(
      q, p.k, p.v, p.offsets, 2, 2, 2, 1.0f, q));
  // The K/V tiles stream in fp32 only.
  EXPECT_THROW(attn::fused_window_attention_batch_into(
                   p.q, p.k, p.v, p.offsets, 2, 2, 2, 1.0f, out,
                   Dtype::kFp16),
               std::invalid_argument);
}

// ---------------------------------------------------- kv-stream bytes ----

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

// ------------------------------------------------------ serving backend ----

EncoderConfig fused_config() {
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
  return cfg;
}

TEST(FusedStreamingBackend, RejectsPatternAugmentedConfigs) {
  EncoderConfig cfg = fused_config();
  cfg.swat.window_cores = 16;
  cfg.swat.global_cores = 16;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  try {
    cfg.validate();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find("fused streaming"),
              std::string::npos)
        << "actual message: " << err.what();
  }
}

TEST(FusedStreamingBackend, PlannedPathBitIdenticalToAllocatingPath) {
  const EncoderConfig cfg = fused_config();
  const std::vector<std::int64_t> lengths = {5, 63, 64, 1, 40};
  Rng rng(99);
  std::vector<std::int64_t> offsets = {0};
  std::int64_t rows = 0;
  for (const std::int64_t len : lengths) offsets.push_back(rows += len);
  const MatrixF packed = random_normal(rows, cfg.d_model, rng);

  Engine engine = Engine::compile(cfg, rows);
  EXPECT_GT(engine.packed_weight_floats(), 0u);
  const MatrixF& planned = engine.run(packed, offsets);

  const model::Encoder oracle(cfg);
  swat::testing::expect_batch_matches_solo(oracle, packed, offsets, planned,
                                           {}, "planned vs solo (fused)");
}

TEST(FusedStreamingBackend, CloseToWindowExactBackend) {
  // Same weights, same pattern, different softmax operation order: the
  // fused backend must track the stable-softmax window backend to float
  // accuracy through a full two-layer encoder.
  EncoderConfig fused = fused_config();
  EncoderConfig window = fused_config();
  window.backend = AttentionBackend::kWindowExact;
  Rng rng(123);
  const MatrixF x = random_normal(48, fused.d_model, rng);
  const model::Encoder fe(fused);
  const model::Encoder we(window);
  swat::testing::expect_matrix_near(fe.forward(x), we.forward(x), 2e-4f,
                                    "fused vs window-exact encoder");
}

TEST(FusedStreamingBackend, ThreadCountInvarianceThroughTheEngine) {
  const EncoderConfig cfg = fused_config();
  Rng rng(31);
  std::vector<std::int64_t> offsets = {0, 17, 81, 86};
  const MatrixF packed = random_normal(86, cfg.d_model, rng);
  MatrixF at1, at4;
  {
    ThreadCountGuard guard(1);
    Engine engine = Engine::compile(cfg, 86);
    at1 = engine.run(packed, offsets);
  }
  {
    ThreadCountGuard guard(4);
    Engine engine = Engine::compile(cfg, 86);
    at4 = engine.run(packed, offsets);
  }
  swat::testing::expect_matrix_equal(at4, at1, "engine threads 4 vs 1");
}

}  // namespace
}  // namespace swat
