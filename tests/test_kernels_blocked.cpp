// Property tests for the blocked/parallel kernel backend against the seed
// scalar reference kernels, plus the Workspace arena and the double-
// accumulating naive softmax.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/thread_pool.hpp"
#include "tensor/kernels.hpp"
#include "test_util.hpp"

namespace swat {
namespace {

struct Shape {
  std::int64_t m, k, n;
};

// Odd shapes on purpose: unit, tall, wide, prime-ish, and sizes straddling
// the kernel's row/depth block boundaries (64 / 256).
const Shape kShapes[] = {
    {1, 1, 1},   {1, 7, 3},    {3, 1, 5},    {17, 5, 1},
    {5, 3, 257}, {257, 3, 5},  {65, 129, 33}, {64, 64, 64},
    {63, 65, 2}, {2, 300, 67}, {128, 256, 64},
};

// The blocked kernels reassociate the k-reduction; for unit-variance inputs
// the accumulated float rounding grows with the reduction depth, so the
// 1e-5 bound for small/odd shapes is widened for the deep ones.
float tolerance_for_depth(std::int64_t k) {
  return k <= 64 ? 1e-5f : 1e-4f;
}

TEST(BlockedMatmul, MatchesNaiveAcrossOddShapes) {
  Rng rng(11);
  for (const Shape& s : kShapes) {
    const MatrixF a = random_normal(s.m, s.k, rng);
    const MatrixF b = random_normal(s.k, s.n, rng);
    swat::testing::expect_matrix_near(matmul(a, b), matmul_naive(a, b),
                                      tolerance_for_depth(s.k),
                                      "blocked matmul vs naive");
  }
}

TEST(BlockedMatmulNt, MatchesNaiveAcrossOddShapes) {
  Rng rng(12);
  for (const Shape& s : kShapes) {
    const MatrixF a = random_normal(s.m, s.k, rng);
    const MatrixF b = random_normal(s.n, s.k, rng);
    swat::testing::expect_matrix_near(matmul_nt(a, b), matmul_nt_naive(a, b),
                                      tolerance_for_depth(s.k),
                                      "blocked matmul_nt vs naive");
  }
}

TEST(BlockedMatmul, IntoVariantsMatchAndAreReusable) {
  Rng rng(13);
  const MatrixF a = random_normal(33, 65, rng);
  const MatrixF b = random_normal(65, 17, rng);
  const MatrixF bt = random_normal(17, 65, rng);
  MatrixF out(33, 17);
  // Two passes through the same `out` buffer: results must not depend on
  // the previous contents.
  for (int pass = 0; pass < 2; ++pass) {
    matmul_into(a, b, out);
    swat::testing::expect_matrix_near(out, matmul_naive(a, b), 1e-5f,
                                      "matmul_into");
    matmul_nt_into(a, bt, out);
    swat::testing::expect_matrix_near(out, matmul_nt_naive(a, bt), 1e-5f,
                                      "matmul_nt_into");
  }
}

TEST(BlockedMatmul, IntoShapeMismatchThrows) {
  const MatrixF a(4, 6);
  const MatrixF b(6, 8);
  MatrixF wrong(4, 7);
  EXPECT_THROW(matmul_into(a, b, wrong), std::invalid_argument);
  MatrixF wrong2(5, 8);
  EXPECT_THROW(matmul_into(a, b, wrong2), std::invalid_argument);
}

TEST(BlockedMatmulNt, FusedBiasMatchesSeparateAdd) {
  Rng rng(14);
  const MatrixF a = random_normal(19, 31, rng);
  const MatrixF b = random_normal(23, 31, rng);
  std::vector<float> bias(23);
  for (std::size_t j = 0; j < bias.size(); ++j) {
    bias[j] = static_cast<float>(rng.uniform(-2.0, 2.0));
  }
  MatrixF fused(19, 23);
  matmul_nt_bias_into(a, b, {bias.data(), bias.size()}, fused);
  MatrixF expected = matmul_nt_naive(a, b);
  for (std::int64_t i = 0; i < expected.rows(); ++i) {
    for (std::int64_t j = 0; j < expected.cols(); ++j) {
      expected(i, j) += bias[static_cast<std::size_t>(j)];
    }
  }
  swat::testing::expect_matrix_near(fused, expected, 1e-5f, "fused bias");
}

// ------------------------------------------------- degenerate shapes ----
// k == 0, n == 0, and init_row with k == 0 must all leave C correctly
// initialized (from the init row when given, zero otherwise) — an empty
// reduction is "init only", never "skip the output".

TEST(GemmDegenerate, ZeroDepthProducesZeros) {
  const MatrixF a(5, 0);  // k == 0
  const MatrixF b(0, 7);
  MatrixF out(5, 7, -1.0f);  // poisoned: gemm must overwrite every element
  matmul_into(a, b, out);
  for (float v : out.flat()) ASSERT_EQ(v, 0.0f);
  // The allocating path and the naive oracle agree.
  swat::testing::expect_matrix_equal(matmul(a, b), matmul_naive(a, b),
                                     "k==0 matmul vs naive");
  const MatrixF bt(7, 0);  // matmul_nt with k == 0
  swat::testing::expect_matrix_equal(matmul_nt(a, bt), matmul_nt_naive(a, bt),
                                     "k==0 matmul_nt vs naive");
}

TEST(GemmDegenerate, ZeroOutputColumnsIsANoOp) {
  const MatrixF a(4, 6);
  const MatrixF b(6, 0);  // n == 0
  const MatrixF c = matmul(a, b);
  EXPECT_EQ(c.rows(), 4);
  EXPECT_EQ(c.cols(), 0);
  MatrixF out(4, 0);
  ASSERT_NO_THROW(matmul_into(a, b, out));  // nothing to write, nothing read
}

TEST(GemmDegenerate, InitRowWithZeroDepthCopiesTheInitRow) {
  // detail::gemm with k == 0 and an init row: C must be exactly the init
  // row broadcast — this is the Linear layer's "bias only" edge.
  const std::vector<float> init = {1.5f, -2.0f, 0.25f};
  MatrixF c(4, 3, -7.0f);
  for (const bool parallel : {false, true}) {
    std::fill(c.flat().begin(), c.flat().end(), -7.0f);
    detail::gemm(nullptr, 0, nullptr, 3, c.data(), 3, c.rows(), 3, 0,
                 init.data(), parallel);
    for (std::int64_t i = 0; i < c.rows(); ++i) {
      for (std::int64_t j = 0; j < c.cols(); ++j) {
        ASSERT_EQ(c(i, j), init[static_cast<std::size_t>(j)])
            << "parallel=" << parallel;
      }
    }
  }
}

// --------------------------------------------------- packed-weight GEMM ----

TEST(GemmPacked, BitIdenticalToNaiveAcrossOddShapesAndThreads) {
  Rng rng(21);
  const int saved_threads = num_threads();
  for (const Shape& s : kShapes) {
    const MatrixF a = random_normal(s.m, s.k, rng);
    const MatrixF w = random_normal(s.n, s.k, rng);
    PackedWeight packed;
    pack_weight_nt(w, packed);
    EXPECT_EQ(packed.floats(),
              static_cast<std::size_t>(packed.panels() * s.k *
                                       PackedWeight::kPanel));
    const MatrixF want = matmul_nt_naive(a, w);
    for (const int threads : {1, 4}) {
      set_num_threads(threads);
      MatrixF got(s.m, s.n, -3.0f);  // poisoned
      gemm_packed_into(a, packed, {}, got);
      swat::testing::expect_matrix_equal(got, want, "gemm_packed vs naive");
    }
  }
  set_num_threads(saved_threads);
}

TEST(GemmPacked, DegenerateShapesInitializeFromBias) {
  // k == 0 with a bias: every output element is exactly the bias.
  const MatrixF a(3, 0);
  const MatrixF w(5, 0);
  PackedWeight packed;
  pack_weight_nt(w, packed);
  const std::vector<float> bias = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f};
  MatrixF out(3, 5, -9.0f);
  gemm_packed_into(a, packed, bias, out);
  for (std::int64_t i = 0; i < out.rows(); ++i) {
    for (std::int64_t j = 0; j < out.cols(); ++j) {
      ASSERT_EQ(out(i, j), bias[static_cast<std::size_t>(j)]);
    }
  }
  // k == 0 without bias: zeros. n == 0 and m == 0: no-ops.
  gemm_packed_into(a, packed, {}, out);
  for (float v : out.flat()) ASSERT_EQ(v, 0.0f);
  const MatrixF wn(0, 4);
  PackedWeight pn;
  pack_weight_nt(wn, pn);
  MatrixF out_n(2, 0);
  ASSERT_NO_THROW(
      gemm_packed_into(MatrixF(2, 4), pn, {}, out_n));
  MatrixF out_m(0, 5);
  ASSERT_NO_THROW(gemm_packed_into(MatrixF(0, 0), packed, {}, out_m));
}

/// Scalar mirror of the packed kernel's bias semantics: the accumulator is
/// *seeded* with the bias (exactly like the fused-bias GEMM the Linear
/// layer has always run), then walks k ascending with one fma per term,
/// the kernel's single-rounding multiply-add.
MatrixF packed_reference(const MatrixF& a, const MatrixF& w,
                         std::span<const float> bias) {
  MatrixF c(a.rows(), w.rows());
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    for (std::int64_t j = 0; j < w.rows(); ++j) {
      float acc = bias.empty() ? 0.0f : bias[static_cast<std::size_t>(j)];
      for (std::int64_t kk = 0; kk < a.cols(); ++kk) {
        acc = std::fma(a(i, kk), w(j, kk), acc);
      }
      c(i, j) = acc;
    }
  }
  return c;
}

TEST(GemmPacked, FusedEpiloguesAreBitIdenticalToUnfusedSequence) {
  Rng rng(22);
  const std::int64_t m = 37, k = 53, n = 41;  // straddles a panel boundary
  const MatrixF a = random_normal(m, k, rng);
  const MatrixF w = random_normal(n, k, rng);
  std::vector<float> bias(static_cast<std::size_t>(n));
  for (float& b : bias) b = static_cast<float>(rng.uniform(-1.0, 1.0));
  const MatrixF residual = random_normal(m, n, rng);
  PackedWeight packed;
  pack_weight_nt(w, packed);

  const MatrixF plain_ref = packed_reference(a, w, bias);
  MatrixF plain(m, n);
  gemm_packed_into(a, packed, bias, plain);
  swat::testing::expect_matrix_equal(plain, plain_ref, "bias-seeded packed");

  // GELU epilogue == plain result passed through gelu_naive, bit-for-bit.
  MatrixF fused_gelu(m, n);
  gemm_packed_gelu_into(a, packed, bias, fused_gelu);
  swat::testing::expect_matrix_equal(fused_gelu, gelu_naive(plain),
                                     "fused GELU epilogue");

  // Residual epilogue == plain result + residual, bit-for-bit.
  MatrixF fused_res(m, n);
  gemm_packed_residual_into(a, packed, bias, residual, fused_res);
  swat::testing::expect_matrix_equal(fused_res,
                                     add_rows_naive(plain, residual),
                                     "fused residual epilogue");
}

TEST(GemmPacked, RepackAfterMutationReusesCapacityAndTracksTheWeight) {
  Rng rng(23);
  MatrixF w = random_normal(40, 24, rng);
  PackedWeight packed;
  pack_weight_nt(w, packed);
  const std::size_t floats = packed.floats();
  const MatrixF a = random_normal(9, 24, rng);
  const MatrixF before = matmul_nt_naive(a, w);
  MatrixF got(9, 40);
  gemm_packed_into(a, packed, {}, got);
  swat::testing::expect_matrix_equal(got, before, "pre-mutation");
  w(3, 5) += 1.0f;
  pack_weight_nt(w, packed);  // same shape: capacity reused
  EXPECT_EQ(packed.floats(), floats);
  gemm_packed_into(a, packed, {}, got);
  swat::testing::expect_matrix_equal(got, matmul_nt_naive(a, w),
                                     "post-mutation repack");
}

TEST(GemmPacked, ShapeMismatchThrows) {
  const MatrixF a(4, 6);
  const MatrixF w(8, 6);
  PackedWeight packed;
  pack_weight_nt(w, packed);
  MatrixF wrong_cols(4, 7);
  EXPECT_THROW(gemm_packed_into(a, packed, {}, wrong_cols),
               std::invalid_argument);
  MatrixF wrong_rows(5, 8);
  EXPECT_THROW(gemm_packed_into(a, packed, {}, wrong_rows),
               std::invalid_argument);
  MatrixF out(4, 8);
  const std::vector<float> short_bias(3);
  EXPECT_THROW(gemm_packed_into(a, packed, short_bias, out),
               std::invalid_argument);
  const MatrixF bad_residual(3, 8);
  EXPECT_THROW(
      gemm_packed_residual_into(a, packed, {}, bad_residual, out),
      std::invalid_argument);
}

TEST(BlockedTranspose, MatchesElementwise) {
  Rng rng(15);
  for (const Shape& s : kShapes) {
    const MatrixF a = random_normal(s.m, s.n, rng);
    const MatrixF t = transpose(a);
    ASSERT_EQ(t.rows(), a.cols());
    ASSERT_EQ(t.cols(), a.rows());
    for (std::int64_t i = 0; i < a.rows(); ++i) {
      for (std::int64_t j = 0; j < a.cols(); ++j) {
        ASSERT_EQ(t(j, i), a(i, j));
      }
    }
  }
}

TEST(Workspace, ReusesSlabsAfterRelease) {
  Workspace ws;
  auto s1 = ws.take(1024);
  EXPECT_EQ(ws.slab_count(), 1u);
  ws.release(s1);
  // Same-size retake reuses the slab instead of allocating.
  auto s2 = ws.take(512);
  EXPECT_EQ(ws.slab_count(), 1u);
  EXPECT_EQ(s2.data(), s1.data());
  // A second live span while s2 is held needs a new slab...
  auto s3 = ws.take(512);
  EXPECT_EQ(ws.slab_count(), 2u);
  EXPECT_NE(s3.data(), s2.data());
  ws.release(s3);
  ws.release(s2);
  // ...but steady-state cycles stay allocation-free.
  for (int i = 0; i < 10; ++i) {
    auto a = ws.take(700);
    auto b = ws.take(300);
    ws.release(a);
    ws.release(b);
  }
  EXPECT_EQ(ws.slab_count(), 2u);
}

TEST(Workspace, GrowingSizesDropStaleSlabs) {
  // A sweep with monotonically growing requests must not retain one slab
  // per historical high-water size.
  Workspace ws;
  for (std::size_t n = 64; n <= 1 << 16; n *= 2) {
    auto s = ws.take(n);
    ws.release(s);
  }
  EXPECT_EQ(ws.slab_count(), 1u);
}

TEST(Workspace, ReleasingForeignSpanThrows) {
  Workspace ws;
  std::vector<float> foreign(8);
  EXPECT_THROW(ws.release({foreign.data(), foreign.size()}),
               std::invalid_argument);
}

TEST(RowSoftmaxNaive, SurvivesLargeMagnitudeLogits) {
  // exp(100) overflows float; the seed implementation produced inf/inf and
  // tripped SWAT_ENSURES(sum > 0). The double accumulator keeps every
  // logit up to ~709 finite.
  MatrixF m(1, 3);
  m(0, 0) = 100.0f;
  m(0, 1) = 101.0f;
  m(0, 2) = 99.0f;
  ASSERT_NO_THROW(row_softmax_naive(m));
  double sum = 0.0;
  for (float v : m.flat()) {
    ASSERT_TRUE(std::isfinite(v));
    ASSERT_GE(v, 0.0f);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-6);
  // Same ratios as the stable softmax on the shifted logits.
  MatrixF shifted(1, 3);
  shifted(0, 0) = 0.0f;
  shifted(0, 1) = 1.0f;
  shifted(0, 2) = -1.0f;
  row_softmax_naive(shifted);
  swat::testing::expect_matrix_near(m, shifted, 1e-6f,
                                    "softmax shift invariance");
}

TEST(RowSoftmaxNaive, MatchesStableInSafeRange) {
  Rng rng(16);
  MatrixF a = random_normal(9, 33, rng);
  MatrixF b = a;
  row_softmax_naive(a);
  row_softmax_stable(b);
  swat::testing::expect_matrix_near(a, b, 1e-5f, "naive vs stable");
}

}  // namespace
}  // namespace swat
