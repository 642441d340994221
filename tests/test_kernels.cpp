// Tests for the dense host kernels (the oracles' oracle).
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numbers>

#include "common/det_math.hpp"
#include "tensor/kernels.hpp"
#include "test_util.hpp"

namespace swat {
namespace {

TEST(Matmul, SmallKnown) {
  MatrixF a(2, 3);
  MatrixF b(3, 2);
  float va = 1.0f;
  for (float& v : a.flat()) v = va++;
  float vb = 1.0f;
  for (float& v : b.flat()) v = vb++;
  const MatrixF c = matmul(a, b);
  // a = [1 2 3; 4 5 6], b = [1 2; 3 4; 5 6] -> c = [22 28; 49 64]
  EXPECT_FLOAT_EQ(c(0, 0), 22.0f);
  EXPECT_FLOAT_EQ(c(0, 1), 28.0f);
  EXPECT_FLOAT_EQ(c(1, 0), 49.0f);
  EXPECT_FLOAT_EQ(c(1, 1), 64.0f);
}

TEST(Matmul, ShapeMismatchThrows) {
  MatrixF a(2, 3);
  MatrixF b(2, 3);
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
}

TEST(Matmul, NtEquivalentToExplicitTranspose) {
  Rng rng(5);
  const MatrixF a = random_normal(7, 5, rng);
  const MatrixF b = random_normal(9, 5, rng);
  const MatrixF direct = matmul_nt(a, b);
  const MatrixF via_t = matmul(a, transpose(b));
  swat::testing::expect_matrix_near(direct, via_t, 1e-5f, "nt vs transpose");
}

TEST(Transpose, Involution) {
  Rng rng(6);
  const MatrixF a = random_normal(4, 9, rng);
  swat::testing::expect_matrix_equal(transpose(transpose(a)), a);
}

TEST(Softmax, RowsSumToOne) {
  Rng rng(7);
  MatrixF m = random_normal(20, 33, rng, 3.0);
  row_softmax_stable(m);
  for (std::int64_t i = 0; i < m.rows(); ++i) {
    float sum = 0.0f;
    for (float v : m.row(i)) {
      EXPECT_GE(v, 0.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(Softmax, StableMatchesNaiveOnSmallScores) {
  Rng rng(8);
  MatrixF a = random_normal(10, 16, rng, 1.0);
  MatrixF b = a;
  row_softmax_stable(a);
  row_softmax_naive(b);
  swat::testing::expect_matrix_near(a, b, 1e-6f, "stable vs naive");
}

TEST(Softmax, StableSurvivesLargeScores) {
  MatrixF m(1, 3);
  m(0, 0) = 200.0f;  // exp(200) overflows float
  m(0, 1) = 199.0f;
  m(0, 2) = 100.0f;
  row_softmax_stable(m);
  EXPECT_NEAR(m(0, 0), 1.0f / (1.0f + std::exp(-1.0f)), 1e-5f);
  EXPECT_NEAR(m(0, 1), std::exp(-1.0f) / (1.0f + std::exp(-1.0f)), 1e-5f);
  EXPECT_NEAR(m(0, 2), 0.0f, 1e-6f);
}

TEST(Softmax, ShiftInvariance) {
  Rng rng(9);
  MatrixF a = random_normal(5, 8, rng);
  MatrixF b = a;
  for (float& v : b.flat()) v += 10.0f;  // same shift to every row
  row_softmax_stable(a);
  row_softmax_stable(b);
  swat::testing::expect_matrix_near(a, b, 1e-5f, "shift invariance");
}

TEST(DotAxpy, Basics) {
  const std::vector<float> x{1.0f, 2.0f, 3.0f};
  const std::vector<float> y{4.0f, 5.0f, 6.0f};
  EXPECT_FLOAT_EQ(dot(x, y), 32.0f);
  std::vector<float> acc{1.0f, 1.0f, 1.0f};
  axpy(2.0f, x, acc);
  EXPECT_FLOAT_EQ(acc[0], 3.0f);
  EXPECT_FLOAT_EQ(acc[2], 7.0f);
}

TEST(ErrorMetrics, MaxAbsDiffAndRelError) {
  MatrixF a(1, 2);
  MatrixF b(1, 2);
  a(0, 0) = 1.0f;
  a(0, 1) = 2.0f;
  b(0, 0) = 1.5f;
  b(0, 1) = 2.0f;
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 0.5f);
  EXPECT_NEAR(relative_error(a, b), 0.5 / std::sqrt(1.5 * 1.5 + 4.0), 1e-6);
  EXPECT_DOUBLE_EQ(relative_error(b, b), 0.0);
}

// ------------------------------------- plan-driven layer kernels ----

TEST(LayerNormInto, MatchesNaiveOracleBitExact) {
  Rng rng(21);
  const MatrixF x = random_normal(17, 24, rng, 3.0);
  std::vector<float> gamma(24), beta(24);
  for (std::size_t j = 0; j < 24; ++j) {
    gamma[j] = 0.5f + 0.1f * static_cast<float>(j);
    beta[j] = -1.0f + 0.05f * static_cast<float>(j);
  }
  const float eps = 1e-5f;
  const MatrixF want = layer_norm_naive(x, gamma, beta, eps);
  MatrixF got(17, 24);
  layer_norm_into(x, gamma, beta, eps, got);
  swat::testing::expect_matrix_equal(got, want, "layer_norm_into vs naive");
}

TEST(LayerNormInto, InPlaceAliasingMatchesOutOfPlace) {
  Rng rng(22);
  const MatrixF x = random_normal(9, 16, rng, 2.0);
  std::vector<float> gamma(16, 1.0f), beta(16, 0.0f);
  const MatrixF want = layer_norm_naive(x, gamma, beta, 1e-5f);
  MatrixF inplace = x;
  layer_norm_into(inplace, gamma, beta, 1e-5f, inplace);
  swat::testing::expect_matrix_equal(inplace, want, "in-place layer_norm");
}

TEST(LayerNormInto, RejectsMismatchedAffineLength) {
  MatrixF x(2, 4);
  MatrixF out(2, 4);
  std::vector<float> gamma(3, 1.0f), beta(4, 0.0f);
  EXPECT_THROW(layer_norm_into(x, gamma, beta, 1e-5f, out),
               std::invalid_argument);
}

TEST(GeluInto, MatchesNaiveOracleBitExactIncludingInPlace) {
  Rng rng(23);
  const MatrixF x = random_normal(13, 31, rng, 4.0);
  const MatrixF want = gelu_naive(x);
  MatrixF got(13, 31);
  gelu_into(x, got);
  swat::testing::expect_matrix_equal(got, want, "gelu_into vs naive");
  MatrixF inplace = x;
  gelu_into(inplace, inplace);
  swat::testing::expect_matrix_equal(inplace, want, "in-place gelu");
}

// --------------------------------------------------- det_exp / gelu ----

std::uint32_t bits_of(float f) {
  std::uint32_t u = 0;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

float float_of(std::uint32_t u) {
  float f = 0.0f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

/// Signed ordinal of a float: adjacent floats differ by 1, across zero too.
std::int64_t ordinal(float f) {
  const std::uint32_t u = bits_of(f);
  const auto mag = static_cast<std::int64_t>(u & 0x7fffffffu);
  return (u >> 31) != 0 ? -mag : mag;
}

std::int64_t ulp_distance(float a, float b) {
  const std::int64_t d = ordinal(a) - ordinal(b);
  return d < 0 ? -d : d;
}

TEST(DetExp, WithinTwoUlpOfCorrectlyRoundedWhereverTheResultIsNormal) {
  // A 1-in-4099 stride over every bit pattern (odd, so it visits every
  // exponent and both signs); only finite inputs with a normal result.
  std::int64_t checked = 0;
  std::int64_t worst = 0;
  float worst_x = 0.0f;
  for (std::uint64_t b = 0; b <= 0xffffffffu; b += 4099) {
    const float x = float_of(static_cast<std::uint32_t>(b));
    if (!std::isfinite(x)) continue;
    const float want = static_cast<float>(std::exp(static_cast<double>(x)));
    if (!(want >= FLT_MIN) || std::isinf(want)) continue;
    const std::int64_t d = ulp_distance(det_exp(x), want);
    if (d > worst) {
      worst = d;
      worst_x = x;
    }
    ++checked;
  }
  EXPECT_GT(checked, 50000);
  EXPECT_LE(worst, 2) << "at x = " << worst_x;
}

TEST(DetExp, SpecialValuesAndRangeEdges) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  EXPECT_TRUE(std::isnan(det_exp(std::numeric_limits<float>::quiet_NaN())));
  EXPECT_EQ(det_exp(kInf), kInf);
  EXPECT_EQ(bits_of(det_exp(-kInf)), 0u);  // +0, not -0
  EXPECT_EQ(det_exp(0.0f), 1.0f);
  EXPECT_EQ(det_exp(-0.0f), 1.0f);
  // ln(FLT_MAX) = 88.7228391...: the first float above it overflows; the
  // float below it is finite.
  EXPECT_EQ(det_exp(88.7228394f), kInf);
  EXPECT_LT(det_exp(88.7228317f), kInf);
  for (const float x : {89.0f, 100.0f, 1e10f, FLT_MAX}) {
    EXPECT_EQ(det_exp(x), kInf) << x;
  }
  // Below the subnormal floor ln(2^-150) = -103.972...: exactly +0.
  for (const float x : {-103.98f, -104.0f, -200.0f, -1e10f, -FLT_MAX}) {
    EXPECT_EQ(bits_of(det_exp(x)), 0u) << x;
  }
  // Between the floor and ln(FLT_MIN) = -87.3365...: every result is a
  // positive subnormal within one subnormal ulp of the rounded result (a
  // fused-attention band down there keeps a positive denominator).
  std::int64_t worst = 0;
  for (float x = -103.97f; x <= -87.34f; x = std::nextafter(x, 0.0f)) {
    const float e = det_exp(x);
    ASSERT_GT(e, 0.0f) << x;
    ASSERT_LT(e, FLT_MIN) << x;
    const float want = static_cast<float>(std::exp(static_cast<double>(x)));
    worst = std::max(worst, ulp_distance(e, want));
  }
  EXPECT_LE(worst, 1);
}

/// The GELU expression the sigmoid form replaced, for comparison.
SWAT_NO_FP_CONTRACT
float gelu_tanh_form(float x) {
  SWAT_NO_FP_CONTRACT_BODY
  const float c = std::sqrt(2.0f / std::numbers::pi_v<float>);
  return 0.5f * x * (1.0f + std::tanh(c * (x + 0.044715f * x * x * x)));
}

TEST(Gelu, AccurateAgainstDoubleReferenceAndNoWorseThanTheTanhForm) {
  const double c = std::sqrt(2.0 / std::numbers::pi);
  double worst_new = 0.0;
  double worst_tanh = 0.0;
  std::int64_t checked = 0;
  // Every 1031st float in [-20, 20], both signs, normal inputs only: for a
  // subnormal x, gelu(x) ~ x / 2 cannot be represented to relative
  // precision (both forms round it alike).
  for (std::uint32_t b = bits_of(FLT_MIN); b <= bits_of(20.0f); b += 1031) {
    for (const float x : {float_of(b), -float_of(b)}) {
      const double xd = x;
      const double want =
          xd / (1.0 + std::exp(-2.0 * c * (xd + 0.044715 * xd * xd * xd)));
      const double scale = std::fabs(xd);
      worst_new = std::max(worst_new, std::fabs(gelu(x) - want) / scale);
      worst_tanh =
          std::max(worst_tanh, std::fabs(gelu_tanh_form(x) - want) / scale);
      ++checked;
    }
  }
  EXPECT_GT(checked, 1000000);
  EXPECT_LE(worst_new, 1.5e-7);
  EXPECT_LE(worst_new, worst_tanh);
}

TEST(Gelu, SpecialValues) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(bits_of(gelu(0.0f)), bits_of(0.0f));
  EXPECT_EQ(bits_of(gelu(-0.0f)), bits_of(-0.0f));
  EXPECT_EQ(gelu(kInf), kInf);
  EXPECT_TRUE(std::isnan(gelu(std::numeric_limits<float>::quiet_NaN())));
  // x^3 overflows: the positive side is the identity, the negative side -0.
  EXPECT_EQ(gelu(1e20f), 1e20f);
  EXPECT_EQ(bits_of(gelu(-1e20f)), bits_of(-0.0f));
}

TEST(AddRowsInto, MatchesNaiveOracleAndAliasing) {
  Rng rng(24);
  const MatrixF a = random_normal(11, 19, rng);
  const MatrixF b = random_normal(11, 19, rng);
  const MatrixF want = add_rows_naive(a, b);
  MatrixF got(11, 19);
  add_rows_into(a, b, got);
  swat::testing::expect_matrix_equal(got, want, "add_rows_into vs naive");
  // The residual-add form: out aliases the first operand.
  MatrixF acc = a;
  add_rows_into(acc, b, acc);
  swat::testing::expect_matrix_equal(acc, want, "in-place residual add");
}

TEST(AddRowsInto, RejectsShapeMismatch) {
  MatrixF a(2, 3), b(3, 2), out(2, 3);
  EXPECT_THROW(add_rows_into(a, b, out), std::invalid_argument);
}

TEST(PlanKernels, StridedViewsTouchOnlyTheViewedBlock) {
  // A non-contiguous view (stride > cols): rows 2..5, columns 1..3 of an
  // 8 x 6 matrix. The kernel must write exactly the viewed block and leave
  // every other element untouched.
  Rng rng(25);
  MatrixF big = random_normal(8, 6, rng);
  const MatrixF before = big;
  const MatrixView mid(big.data() + 2 * 6 + 1, 4, 3, 6);
  ASSERT_FALSE(mid.contiguous());
  MatrixF sub(4, 3);
  for (std::int64_t i = 0; i < 4; ++i) {
    for (std::int64_t j = 0; j < 3; ++j) sub(i, j) = big(i + 2, j + 1);
  }
  gelu_into(static_cast<ConstMatrixView>(mid), mid);
  const MatrixF want = gelu_naive(sub);
  for (std::int64_t i = 0; i < 8; ++i) {
    for (std::int64_t j = 0; j < 6; ++j) {
      const bool viewed = i >= 2 && i < 6 && j >= 1 && j < 4;
      ASSERT_EQ(big(i, j), viewed ? want(i - 2, j - 1) : before(i, j))
          << "(" << i << ", " << j << ")";
    }
  }
}

TEST(ErrorMetrics, RowCosine) {
  MatrixF a(2, 2);
  a(0, 0) = 1.0f;
  a(0, 1) = 0.0f;
  a(1, 0) = 0.0f;
  a(1, 1) = 2.0f;
  MatrixF b = a;
  EXPECT_NEAR(mean_row_cosine(a, b), 1.0, 1e-9);
  // Orthogonal rows -> cosine 0.
  MatrixF c(1, 2);
  c(0, 0) = 1.0f;
  MatrixF d(1, 2);
  d(0, 1) = 1.0f;
  EXPECT_NEAR(mean_row_cosine(c, d), 0.0, 1e-9);
}

}  // namespace
}  // namespace swat
