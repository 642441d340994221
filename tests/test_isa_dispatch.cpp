// Tests for runtime ISA dispatch (common/cpu_dispatch.hpp,
// common/isa_kernels.hpp).
//
// Every tier the host supports runs in this one binary (ScopedIsaTier), and
// each is held to the same contract:
//   * fp32 packed GEMM (all three epilogues) and fp32 fused attention are
//     byte-identical to the baseline tier and to the scalar oracles, on
//     ragged shapes that exercise every tile remainder, and byte for byte
//     on edge inputs (GELU's deep negative tail, x^3 overflow, +-0;
//     attention scores in exp's subnormal range);
//   * every multiply-add in those kernels is one fused multiply-add, pinned
//     by inputs whose fused and separately rounded results differ;
//   * SWAT_ISA rejects unknown names and tiers above the host's.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "attention/fused.hpp"
#include "common/cpu_dispatch.hpp"
#include "common/det_math.hpp"
#include "common/isa_kernels.hpp"
#include "test_util.hpp"

namespace swat {
namespace {

using swat::testing::expect_matrix_equal;
using swat::testing::ThreadCountGuard;

std::vector<IsaTier> supported_tiers() {
  std::vector<IsaTier> tiers;
  for (const IsaTier t : kIsaTiers) {
    if (isa_tier_supported(t)) tiers.push_back(t);
  }
  return tiers;
}

std::string tier_label(IsaTier t) { return std::string(isa_tier_name(t)); }

std::uint32_t float_bits(float f) {
  std::uint32_t u = 0;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

/// Sets (or unsets, for nullptr) SWAT_ISA for one scope.
class EnvGuard {
 public:
  explicit EnvGuard(const char* value) {
    if (const char* old = std::getenv("SWAT_ISA")) saved_ = old;
    if (value != nullptr) {
      ::setenv("SWAT_ISA", value, 1);
    } else {
      ::unsetenv("SWAT_ISA");
    }
  }
  ~EnvGuard() {
    if (saved_) {
      ::setenv("SWAT_ISA", saved_->c_str(), 1);
    } else {
      ::unsetenv("SWAT_ISA");
    }
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  std::optional<std::string> saved_;
};

// ------------------------------------------------------------ tiers ----

TEST(IsaDispatch, BaselineIsAlwaysSupportedAndTablesMatchTheirTier) {
  EXPECT_TRUE(isa_tier_supported(IsaTier::kBaseline));
  EXPECT_TRUE(isa_tier_supported(host_isa_tier()));
  EXPECT_TRUE(isa_tier_supported(active_isa_tier()));
  for (const IsaTier t : supported_tiers()) {
    EXPECT_EQ(isa::kernels(t).tier, t) << tier_label(t);
    const ScopedIsaTier scope(t);
    EXPECT_EQ(active_isa_tier(), t);
    EXPECT_EQ(isa::active_kernels().tier, t);
  }
}

TEST(IsaDispatch, ScopedTiersNestAndRestore) {
  const IsaTier outer = active_isa_tier();
  {
    const ScopedIsaTier base(IsaTier::kBaseline);
    {
      const ScopedIsaTier host(host_isa_tier());
      EXPECT_EQ(active_isa_tier(), host_isa_tier());
    }
    EXPECT_EQ(active_isa_tier(), IsaTier::kBaseline);
  }
  EXPECT_EQ(active_isa_tier(), outer);
}

// ------------------------------------------------------- SWAT_ISA env ----

TEST(IsaEnv, TierNamesParse) {
  for (const IsaTier t : kIsaTiers) {
    EXPECT_EQ(parse_isa_tier(isa_tier_name(t), IsaTier::kAvx512), t);
  }
  {
    const EnvGuard env(nullptr);
    EXPECT_EQ(isa_tier_from_env(), host_isa_tier());
  }
  {
    const EnvGuard env("");
    EXPECT_EQ(isa_tier_from_env(), host_isa_tier());
  }
  {
    const EnvGuard env("baseline");
    EXPECT_EQ(isa_tier_from_env(), IsaTier::kBaseline);
  }
}

/// Runs `fn`, expecting std::invalid_argument whose message names `what`.
template <typename Fn>
void expect_rejected_naming(Fn&& fn, const std::string& what) {
  try {
    fn();
    ADD_FAILURE() << "expected std::invalid_argument naming " << what;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << "message: " << e.what();
  }
}

TEST(IsaEnv, UnknownNameThrowsNamingIt) {
  for (const char* bad : {"avx1024", "AVX2", "sse2", " avx2", "native"}) {
    expect_rejected_naming(
        [&] { (void)parse_isa_tier(bad, IsaTier::kAvx512); }, bad);
    const EnvGuard env(bad);
    expect_rejected_naming([] { (void)isa_tier_from_env(); }, bad);
  }
}

TEST(IsaEnv, TierAboveTheHostThrowsNamingIt) {
  // Simulated older hosts: every tier above the host's must be refused.
  expect_rejected_naming(
      [] { (void)parse_isa_tier("avx512", IsaTier::kAvx2); }, "avx512");
  expect_rejected_naming(
      [] { (void)parse_isa_tier("avx2", IsaTier::kBaseline); }, "avx2");
  expect_rejected_naming(
      [] { (void)parse_isa_tier("avx512", IsaTier::kBaseline); }, "avx512");
  // And on this host, through the environment and the scoped override.
  for (const IsaTier t : kIsaTiers) {
    if (isa_tier_supported(t)) continue;
    const std::string name = tier_label(t);
    const EnvGuard env(name.c_str());
    expect_rejected_naming([] { (void)isa_tier_from_env(); }, name);
    expect_rejected_naming([&] { const ScopedIsaTier scope(t); }, name);
  }
}

// ------------------------------------------------------- packed GEMM ----

/// The packed kernel's fp32 semantics in scalar form: the accumulator is
/// seeded with the bias, then walks k ascending with one fma per term.
MatrixF packed_oracle(const MatrixF& a, const MatrixF& w,
                      std::span<const float> bias) {
  MatrixF c(a.rows(), w.rows());
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    for (std::int64_t j = 0; j < w.rows(); ++j) {
      float acc = bias[static_cast<std::size_t>(j)];
      for (std::int64_t kk = 0; kk < a.cols(); ++kk) {
        acc = std::fma(a(i, kk), w(j, kk), acc);
      }
      c(i, j) = acc;
    }
  }
  return c;
}

struct GemmOutputs {
  MatrixF plain, gelu, residual;
};

GemmOutputs run_packed(const MatrixF& a, const PackedWeight& packed,
                       std::span<const float> bias, const MatrixF& resid) {
  GemmOutputs o{MatrixF(a.rows(), packed.out_features),
                MatrixF(a.rows(), packed.out_features),
                MatrixF(a.rows(), packed.out_features)};
  gemm_packed_into(a, packed, bias, o.plain);
  gemm_packed_gelu_into(a, packed, bias, o.gelu);
  gemm_packed_residual_into(a, packed, bias, resid, o.residual);
  return o;
}

TEST(IsaGemmPacked, Fp32ByteIdenticalAcrossTiersAndToTheOracle) {
  // m % 6 != 0, n % 32 != 0, k % 4 != 0: every register-tile, panel and
  // k-unroll remainder runs; m spans several row grains.
  struct Shape {
    std::int64_t m, k, n;
  };
  for (const Shape s : {Shape{1, 3, 5}, Shape{7, 13, 33}, Shape{131, 67, 97}}) {
    Rng rng(static_cast<std::uint64_t>(s.m * 1000 + s.n));
    const MatrixF a = random_normal(s.m, s.k, rng);
    const MatrixF w = random_normal(s.n, s.k, rng);
    const MatrixF resid = random_normal(s.m, s.n, rng);
    std::vector<float> bias(static_cast<std::size_t>(s.n));
    for (float& b : bias) b = static_cast<float>(rng.uniform(-1.0, 1.0));
    PackedWeight packed;
    pack_weight_nt(w, packed);

    const MatrixF plain_ref = packed_oracle(a, w, bias);
    const MatrixF gelu_ref = gelu_naive(plain_ref);
    const MatrixF resid_ref = add_rows_naive(plain_ref, resid);

    std::optional<GemmOutputs> base;
    for (const IsaTier t : supported_tiers()) {
      SCOPED_TRACE(tier_label(t) + " m=" + std::to_string(s.m));
      const ScopedIsaTier scope(t);
      for (const int threads : {1, 4}) {
        const ThreadCountGuard guard(threads);
        const GemmOutputs got = run_packed(a, packed, bias, resid);
        expect_matrix_equal(got.plain, plain_ref, "bias epilogue vs oracle");
        expect_matrix_equal(got.gelu, gelu_ref, "gelu epilogue vs oracle");
        expect_matrix_equal(got.residual, resid_ref,
                            "residual epilogue vs oracle");
        if (!base) base = got;
        expect_matrix_equal(got.plain, base->plain, "vs baseline tier");
        expect_matrix_equal(got.gelu, base->gelu, "vs baseline tier");
        expect_matrix_equal(got.residual, base->residual, "vs baseline tier");
      }
    }
  }
}

/// Byte equality (so -0 vs +0 and subnormal bits count), row by row.
void expect_bytes_equal(const MatrixF& got, const MatrixF& want,
                        const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::int64_t i = 0; i < got.rows(); ++i) {
    for (std::int64_t j = 0; j < got.cols(); ++j) {
      ASSERT_EQ(float_bits(got(i, j)), float_bits(want(i, j)))
          << what << " at (" << i << ", " << j << "): " << got(i, j)
          << " vs " << want(i, j);
    }
  }
}

TEST(IsaGemmPacked, GeluEpilogueEdgeCasesMatchTheScalarOracleBytes) {
  // k = 1, bias -0 and power-of-two weights make every accumulator exactly
  // a * w: the deep negative tail (exp(-2u) overflows to +Inf, GELU -> -0
  // or a subnormal), x^3 overflowing float, and both zeros, with each value
  // in every lane position of a panel (n = 37: a full panel plus a tail).
  const std::vector<float> edge = {
      -9.25f, -9.5f,  -10.0f, -10.5f, -11.0f, -12.0f, -15.0f, -20.0f,
      -50.0f, -1e6f,  1e13f,  -1e13f, 3e12f,  -3e12f, 1e20f,  -1e20f,
      1e30f,  -1e30f, 3e38f,  -3e38f, 0.0f,   -0.0f,  1e-30f, -1e-30f};
  const auto m = static_cast<std::int64_t>(edge.size());
  const std::int64_t n = 37;
  MatrixF a(m, 1);
  for (std::int64_t i = 0; i < m; ++i) {
    a(i, 0) = edge[static_cast<std::size_t>(i)];
  }
  MatrixF w(n, 1);
  for (std::int64_t j = 0; j < n; ++j) {
    w(j, 0) = (j % 2 == 0 ? 1.0f : -1.0f) * (j % 3 == 0 ? 1.0f : 0.5f);
  }
  const std::vector<float> bias(static_cast<std::size_t>(n), -0.0f);
  PackedWeight packed;
  pack_weight_nt(w, packed);
  const MatrixF want = gelu_naive(packed_oracle(a, w, bias));
  for (const IsaTier t : supported_tiers()) {
    const ScopedIsaTier scope(t);
    for (const int threads : {1, 4}) {
      const ThreadCountGuard guard(threads);
      MatrixF got(m, n);
      gemm_packed_gelu_into(a, packed, bias, got);
      expect_bytes_equal(got, want, tier_label(t));
    }
  }
}

// x * x = 1 + 2^-11 + 2^-24 exactly. Rounded on its own the product ties
// to even at 1 + 2^-11, so x * x + kMinusRoundedSquare is 0 when the
// product is rounded before the add and 2^-24 under one fused rounding.
constexpr float kX = 1.0f + 0x1p-12f;
constexpr float kMinusRoundedSquare = -(1.0f + 0x1p-11f);

TEST(IsaFmaContract, PackedGemmFusesEveryMultiplyAdd) {
  // Row i carries x only at k = i % k: across the rows the fused term
  // takes every position of the k unroll and its remainder, in both the
  // 6-row tile and the single-row tail, against a full and a padded panel.
  // The zero terms around it leave the accumulator as it is.
  const std::int64_t m = 7, k = 5, n = 33;
  MatrixF a(m, k, 0.0f);
  for (std::int64_t i = 0; i < m; ++i) a(i, i % k) = kX;
  const MatrixF w(n, k, kX);
  const std::vector<float> bias(static_cast<std::size_t>(n),
                                kMinusRoundedSquare);
  const MatrixF resid(m, n, 0x1p-24f);
  PackedWeight packed;
  pack_weight_nt(w, packed);
  const GemmOutputs want{MatrixF(m, n, 0x1p-24f),
                         MatrixF(m, n, gelu(0x1p-24f)),
                         MatrixF(m, n, 0x1p-23f)};
  for (const IsaTier t : supported_tiers()) {
    const ScopedIsaTier scope(t);
    for (const int threads : {1, 4}) {
      const ThreadCountGuard guard(threads);
      const GemmOutputs got = run_packed(a, packed, bias, resid);
      const std::string label =
          tier_label(t) + " threads " + std::to_string(threads);
      expect_bytes_equal(got.plain, want.plain, label + " bias epilogue");
      expect_bytes_equal(got.gelu, want.gelu, label + " gelu epilogue");
      expect_bytes_equal(got.residual, want.residual,
                         label + " residual epilogue");
    }
  }
}

// -------------------------------------------------- fused attention ----

struct Packed {
  MatrixF q, k, v;
  std::vector<std::int64_t> offsets;
};

Packed make_packed(const std::vector<std::int64_t>& lengths,
                   std::int64_t d_model, std::uint64_t seed) {
  Rng rng(seed);
  Packed p;
  p.offsets = {0};
  std::int64_t rows = 0;
  for (const std::int64_t len : lengths) p.offsets.push_back(rows += len);
  // 0.3 stddev keeps the unshifted exp of Eq. 1 well inside float range.
  p.q = random_normal(rows, d_model, rng, 0.3);
  p.k = random_normal(rows, d_model, rng, 0.3);
  p.v = random_normal(rows, d_model, rng);
  return p;
}

/// Eq. 1 over the band [i - before, i + after] clipped to each sequence,
/// with the scale folded into Q: the fused kernel's exact arithmetic
/// (dot/axpy ascending with one fma per term, det_exp, one division whose
/// zero quotient is stored as +0).
MatrixF fused_oracle(const Packed& p, std::int64_t heads, std::int64_t before,
                     std::int64_t after, float scale) {
  const std::int64_t d_model = p.q.cols();
  const std::int64_t h = d_model / heads;
  MatrixF out(p.q.rows(), d_model);
  std::vector<float> qs(static_cast<std::size_t>(h));
  std::vector<float> z(static_cast<std::size_t>(h));
  for (std::size_t s = 0; s + 1 < p.offsets.size(); ++s) {
    const std::int64_t row0 = p.offsets[s];
    const std::int64_t n = p.offsets[s + 1] - row0;
    for (std::int64_t head = 0; head < heads; ++head) {
      const std::int64_t base = head * h;
      const auto slice = [&](const MatrixF& m, std::int64_t r) {
        return std::span<const float>(m.row(row0 + r).data() + base,
                                      static_cast<std::size_t>(h));
      };
      for (std::int64_t i = 0; i < n; ++i) {
        const std::span<const float> qrow = slice(p.q, i);
        for (std::size_t d = 0; d < qs.size(); ++d) qs[d] = qrow[d] * scale;
        std::fill(z.begin(), z.end(), 0.0f);
        float denom = 0.0f;
        const std::int64_t lo = std::max<std::int64_t>(0, i - before);
        const std::int64_t hi = std::min<std::int64_t>(n - 1, i + after);
        for (std::int64_t j = lo; j <= hi; ++j) {
          const float e = det_exp(dot(qs, slice(p.k, j)));
          denom += e;
          axpy(e, slice(p.v, j), z);
        }
        for (std::int64_t d = 0; d < h; ++d) {
          out(row0 + i, base + d) =
              z[static_cast<std::size_t>(d)] / denom + 0.0f;
        }
      }
    }
  }
  return out;
}

struct Band {
  std::int64_t before, after;
};

// Multi-sequence offsets (one sequence shorter than the band, one longer
// than a query tile).
const std::vector<std::int64_t> kLengths = {5, 70, 1, 131};
constexpr std::int64_t kHeads = 3;
constexpr std::int64_t kHeadDim = 20;  // not a multiple of 8 or 16

// The fp32 byte-identity tests add the worker's register-tile edges: a
// partial row group of every size (lengths 2, 3, kFusedRowGroup + 1), a
// sequence past two query tiles that is not a multiple of the row group,
// the serving head width (a full S'V tile) and, after bands clipped at
// both ends with before != after, the serving band.
std::vector<std::int64_t> tile_edge_lengths() {
  std::vector<std::int64_t> lengths = kLengths;
  for (const std::int64_t len :
       {std::int64_t{2}, std::int64_t{3}, isa::kFusedRowGroup + 1,
        2 * isa::kFusedQueryTile + isa::kFusedRowGroup - 1}) {
    lengths.push_back(len);
  }
  return lengths;
}
const Band kTileBands[] = {{3, 7}, {9, 0}, {0, 4}, {200, 150}, {256, 255}};
constexpr std::int64_t kHeadDims[] = {kHeadDim, 64};

TEST(IsaFusedAttention, Fp32ByteIdenticalAcrossTiersAndToTheOracle) {
  for (const std::int64_t head_dim : kHeadDims) {
    const Packed p = make_packed(tile_edge_lengths(), kHeads * head_dim, 71);
    const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
    for (const Band band : kTileBands) {
      const MatrixF oracle =
          fused_oracle(p, kHeads, band.before, band.after, scale);
      std::optional<MatrixF> base;
      for (const IsaTier t : supported_tiers()) {
        SCOPED_TRACE(tier_label(t) + " head_dim " + std::to_string(head_dim) +
                     " band " + std::to_string(band.before) + "/" +
                     std::to_string(band.after));
        const ScopedIsaTier scope(t);
        for (const int threads : {1, 4}) {
          const ThreadCountGuard guard(threads);
          MatrixF got(p.q.rows(), p.q.cols());
          attn::fused_window_attention_batch_into(p.q, p.k, p.v, p.offsets,
                                                  kHeads, band.before,
                                                  band.after, scale, got);
          expect_matrix_equal(got, oracle, "fused vs Eq. 1 oracle");
          if (!base) base = got;
          expect_matrix_equal(got, *base, "fused vs baseline tier");
        }
      }
    }
  }
}

TEST(IsaFusedAttention, OutputOverQIsByteIdenticalToASeparateOutput) {
  // The encoder layer passes its Q buffer as the output. Each run over Q
  // is held to the same call into a separate matrix, never to another run
  // over Q, on a ragged batch with 1-row sequences and lengths that are
  // not multiples of the row group, at 1-4 threads on every tier. The
  // separate output is computed once per band: it is the same bytes on
  // every tier and thread count (Fp32ByteIdenticalAcrossTiersAndToTheOracle).
  for (const std::int64_t head_dim : kHeadDims) {
    const Packed p = make_packed(tile_edge_lengths(), kHeads * head_dim, 77);
    const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
    for (const Band band : kTileBands) {
      MatrixF separate(p.q.rows(), p.q.cols());
      attn::fused_window_attention_batch_into(p.q, p.k, p.v, p.offsets,
                                              kHeads, band.before, band.after,
                                              scale, separate);
      for (const IsaTier t : supported_tiers()) {
        const ScopedIsaTier scope(t);
        for (int threads = 1; threads <= 4; ++threads) {
          const ThreadCountGuard guard(threads);
          MatrixF over_q = p.q;
          attn::fused_window_attention_batch_into(over_q, p.k, p.v, p.offsets,
                                                  kHeads, band.before,
                                                  band.after, scale, over_q);
          expect_bytes_equal(over_q, separate,
                             tier_label(t) + " threads " +
                                 std::to_string(threads) + " head_dim " +
                                 std::to_string(head_dim) + " band " +
                                 std::to_string(band.before) + "/" +
                                 std::to_string(band.after));
        }
      }
    }
  }
}

TEST(IsaFusedAttention, TileEdgesAndUnalignedViewsMatchTheOracleBytes) {
  // Query-tile edges (one row short of a tile, one past it, two tiles plus
  // a partial row group) under a band and head width that are not whole
  // cache lines, so union-band starts land at every offset inside a K-tile
  // line. Q, K, V and the output are row-offset views of larger matrices
  // whose base is not line-aligned: alignment is a performance property,
  // never a precondition.
  constexpr std::int64_t kEdgeHeadDim = 24;
  const std::vector<std::int64_t> lengths = {
      isa::kFusedQueryTile - 1, isa::kFusedQueryTile + 1,
      2 * isa::kFusedQueryTile + isa::kFusedRowGroup - 1};
  const Packed p = make_packed(lengths, kHeads * kEdgeHeadDim, 76);
  const std::int64_t rows = p.q.rows();
  const std::int64_t cols = p.q.cols();
  const auto offset_copy = [&](const MatrixF& m) {
    MatrixF backing(rows + 1, cols, 0.0f);
    for (std::int64_t i = 0; i < rows; ++i) {
      std::copy(m.row(i).begin(), m.row(i).end(), backing.row(i + 1).begin());
    }
    return backing;
  };
  const MatrixF q = offset_copy(p.q), k = offset_copy(p.k),
                v = offset_copy(p.v);
  const auto view = [&](const MatrixF& m) {
    return ConstMatrixView(m.row(1).data(), rows, cols, cols);
  };
  for (const ConstMatrixView m : {view(q), view(k), view(v)}) {
    ASSERT_NE(reinterpret_cast<std::uintptr_t>(m.data()) % 64, 0u);
  }
  const float scale = 1.0f / std::sqrt(static_cast<float>(kEdgeHeadDim));
  for (const Band band : {Band{37, 5}, Band{5, 37}}) {
    const MatrixF oracle =
        fused_oracle(p, kHeads, band.before, band.after, scale);
    for (const IsaTier t : supported_tiers()) {
      const ScopedIsaTier scope(t);
      for (const int threads : {1, 4}) {
        const ThreadCountGuard guard(threads);
        MatrixF backing(rows + 1, cols, -1.0f);
        const MatrixView out(backing.row(1).data(), rows, cols, cols);
        attn::fused_window_attention_batch_into(view(q), view(k), view(v),
                                                p.offsets, kHeads,
                                                band.before, band.after,
                                                scale, out);
        MatrixF got(rows, cols);
        for (std::int64_t i = 0; i < rows; ++i) {
          std::copy(out.row(i).begin(), out.row(i).end(),
                    got.row(i).begin());
        }
        expect_bytes_equal(got, oracle,
                           tier_label(t) + " threads " +
                               std::to_string(threads) + " band " +
                               std::to_string(band.before) + "/" +
                               std::to_string(band.after));
      }
    }
  }
}

TEST(IsaFusedAttention, SubnormalExpScoresMatchTheScalarOracleBytes) {
  // Every score sits in exp's subnormal range [-103.9, -87.4]: each exp
  // term is a positive subnormal, the denominators stay positive, and the
  // outputs are ratios of subnormal sums. Q is all ones and K row j spreads
  // its target score over the head, so scores vary column by column.
  std::vector<std::int64_t> lengths = {70, 9};
  for (const std::int64_t len : tile_edge_lengths()) lengths.push_back(len);
  for (const std::int64_t head_dim : kHeadDims) {
    Packed p = make_packed(lengths, kHeads * head_dim, 74);
    for (std::int64_t i = 0; i < p.q.rows(); ++i) {
      for (std::int64_t head = 0; head < kHeads; ++head) {
        const double frac = std::fmod(
            0.618033988749 * static_cast<double>(i * kHeads + head), 1.0);
        const auto per_dim =
            static_cast<float>((-87.5 - 16.3 * frac) / head_dim);
        for (std::int64_t d = 0; d < head_dim; ++d) {
          p.q(i, head * head_dim + d) = 1.0f;
          p.k(i, head * head_dim + d) = per_dim;
        }
      }
    }
    for (const Band band : kTileBands) {
      const MatrixF oracle =
          fused_oracle(p, kHeads, band.before, band.after, 1.0f);
      for (const IsaTier t : supported_tiers()) {
        const ScopedIsaTier scope(t);
        for (const int threads : {1, 4}) {
          const ThreadCountGuard guard(threads);
          MatrixF got(p.q.rows(), p.q.cols());
          attn::fused_window_attention_batch_into(p.q, p.k, p.v, p.offsets,
                                                  kHeads, band.before,
                                                  band.after, 1.0f, got);
          expect_bytes_equal(got, oracle,
                             tier_label(t) + " head_dim " +
                                 std::to_string(head_dim) + " band " +
                                 std::to_string(band.before) + "/" +
                                 std::to_string(band.after));
        }
      }
    }
  }
}

TEST(IsaFusedAttention, OutOfBandOverflowScoresAreMaskedNotMultiplied) {
  // Band [i - 1, i + 1]: the first row group [0, 4) of each tile spans the
  // union band [0, 4]. Row 0's out-of-band score against K row 4 and row
  // 3's against K row 0 are 100, so exp gives +Inf there; every in-band
  // score stays small. Masking by 0 * Inf would put NaN into those rows'
  // sums (and trip the denominator check), so each row matches the oracle
  // bytes only if out-of-band entries are overwritten with +0.
  constexpr std::int64_t kHead = 64;
  const std::vector<std::int64_t> lengths = {8, isa::kFusedQueryTile + 8};
  Packed p = make_packed(lengths, kHead, 75);
  for (std::size_t s = 0; s + 1 < p.offsets.size(); ++s) {
    for (const std::int64_t tile0 : {std::int64_t{0}, isa::kFusedQueryTile}) {
      const std::int64_t r0 = p.offsets[s] + tile0;
      if (r0 + 5 > p.offsets[s + 1]) continue;
      for (std::int64_t i = r0; i < r0 + 5; ++i) {
        p.q(i, 0) = p.q(i, 1) = p.k(i, 0) = p.k(i, 1) = 0.0f;
      }
      p.q(r0, 0) = p.k(r0 + 4, 0) = 10.0f;
      p.q(r0 + 3, 1) = p.k(r0, 1) = 10.0f;
    }
  }
  const MatrixF oracle = fused_oracle(p, 1, 1, 1, 1.0f);
  for (const IsaTier t : supported_tiers()) {
    const ScopedIsaTier scope(t);
    for (const int threads : {1, 4}) {
      const ThreadCountGuard guard(threads);
      MatrixF got(p.q.rows(), p.q.cols());
      attn::fused_window_attention_batch_into(p.q, p.k, p.v, p.offsets, 1, 1,
                                              1, 1.0f, got);
      expect_bytes_equal(got, oracle, tier_label(t));
    }
  }
}

TEST(IsaFmaContract, FusedAttentionFusesScoreAndSvMultiplyAdds) {
  // Five rows (a full row group and a single row), each attending all five
  // keys with the same Q row (2^20, 2^20 x, 0, ...). Keys 0-3 are zero, so
  // their scores are 0 and their exp terms 1. Key 4 is (-(1 + 2^-11), x,
  // 0, ...): its score is 2^20 * (x * x - 1 - 2^-11), which is 2^-4 under
  // one fused rounding per term and 0 when each product is rounded first.
  // V column 1 of key 0 is -round(E * E) and of key 4 is E, with
  // E = det_exp(2^-4), so the S'V sum in that column is the rounding error
  // of E * E, which only a fused multiply-add keeps. V column 0 is 1 on
  // key 4 only. head_dim 2 runs the single-column S'V path and head_dim 64
  // the register-tiled one.
  constexpr std::int64_t kRows = isa::kFusedRowGroup + 1;
  const float e = det_exp(0x1p-4f);
  const float e_sq_error = std::fma(e, e, -(e * e));
  ASSERT_EQ(det_exp(0.0f), 1.0f);
  ASSERT_NE(e_sq_error, 0.0f);
  float denom = 0.0f;
  for (std::int64_t j = 0; j + 1 < kRows; ++j) denom += 1.0f;
  denom += e;
  for (const std::int64_t head_dim : {std::int64_t{2}, std::int64_t{64}}) {
    Packed p;
    p.offsets = {0, kRows};
    p.q = MatrixF(kRows, head_dim, 0.0f);
    p.k = MatrixF(kRows, head_dim, 0.0f);
    p.v = MatrixF(kRows, head_dim, 0.0f);
    MatrixF want(kRows, head_dim, 0.0f);
    for (std::int64_t i = 0; i < kRows; ++i) {
      p.q(i, 0) = 0x1p20f;
      p.q(i, 1) = 0x1p20f * kX;
      want(i, 0) = e / denom;
      want(i, 1) = e_sq_error / denom;
    }
    p.k(kRows - 1, 0) = kMinusRoundedSquare;
    p.k(kRows - 1, 1) = kX;
    p.v(0, 1) = -(e * e);
    p.v(kRows - 1, 0) = 1.0f;
    p.v(kRows - 1, 1) = e;
    for (const IsaTier t : supported_tiers()) {
      const ScopedIsaTier scope(t);
      for (const int threads : {1, 4}) {
        const ThreadCountGuard guard(threads);
        MatrixF got(kRows, head_dim);
        attn::fused_window_attention_batch_into(p.q, p.k, p.v, p.offsets, 1,
                                                kRows, kRows, 1.0f, got);
        expect_bytes_equal(got, want,
                           tier_label(t) + " threads " +
                               std::to_string(threads) + " head_dim " +
                               std::to_string(head_dim));
      }
    }
  }
}

TEST(IsaFusedAttention, DenominatorUnderflowIsAnInvariantViolationOnEveryTier) {
  Packed p = make_packed({8}, 8, 73);
  for (std::int64_t i = 0; i < 8; ++i) {
    for (std::int64_t d = 0; d < 8; ++d) {
      p.q(i, d) = 40.0f;
      p.k(i, d) = -40.0f;  // every logit ~ -12800: exp underflows to 0
    }
  }
  for (const IsaTier t : supported_tiers()) {
    const ScopedIsaTier scope(t);
    MatrixF out(8, 8);
    EXPECT_THROW(attn::fused_window_attention_batch_into(
                     p.q, p.k, p.v, p.offsets, 1, 2, 2, 1.0f, out),
                 std::logic_error)
        << tier_label(t);
  }
}

}  // namespace
}  // namespace swat
