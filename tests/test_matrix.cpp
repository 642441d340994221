// Tests for the Matrix container and the synthetic workload generators.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "tensor/matrix.hpp"

namespace swat {
namespace {

TEST(Matrix, ConstructionAndAccess) {
  MatrixF m(3, 4, 1.5f);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.size(), 12);
  EXPECT_FALSE(m.empty());
  EXPECT_FLOAT_EQ(m(2, 3), 1.5f);
  m(1, 2) = -2.0f;
  EXPECT_FLOAT_EQ(m(1, 2), -2.0f);
}

TEST(Matrix, DefaultIsEmpty) {
  MatrixF m;
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.cols(), 0);
  EXPECT_TRUE(m.empty());
}

TEST(Matrix, BoundsChecked) {
#if SWAT_BOUNDS_CHECKED
  MatrixF m(2, 2);
  EXPECT_THROW(m(2, 0), std::invalid_argument);
  EXPECT_THROW(m(0, 2), std::invalid_argument);
  EXPECT_THROW(m(-1, 0), std::invalid_argument);
  EXPECT_THROW(m.row(2), std::invalid_argument);
#else
  GTEST_SKIP() << "accessor bounds contracts compiled out "
                  "(Release without SWAT_CHECKED)";
#endif
}

TEST(Matrix, RowSpan) {
  MatrixF m(2, 3);
  for (std::int64_t j = 0; j < 3; ++j) m(1, j) = static_cast<float>(j);
  auto r = m.row(1);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_FLOAT_EQ(r[2], 2.0f);
  r[0] = 9.0f;
  EXPECT_FLOAT_EQ(m(1, 0), 9.0f);
}

TEST(Matrix, Equality) {
  MatrixF a(2, 2, 1.0f);
  MatrixF b(2, 2, 1.0f);
  EXPECT_EQ(a, b);
  b(0, 0) = 2.0f;
  EXPECT_FALSE(a == b);
}

/// A moved-from matrix is 0 x 0: its shape must not outlive its storage,
/// or row() would pass its bounds check over null data.
TEST(Matrix, MovedFromIsEmpty) {
  MatrixF a(3, 4, 1.0f);
  const float* storage = a.data();
  MatrixF b(std::move(a));
  EXPECT_EQ(b.rows(), 3);
  EXPECT_EQ(b.cols(), 4);
  EXPECT_EQ(b.data(), storage);
  EXPECT_EQ(a.rows(), 0);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.cols(), 0);
  EXPECT_EQ(a.size(), 0);
  EXPECT_TRUE(a.empty());

  MatrixF c(2, 2, 5.0f);
  c = std::move(b);
  EXPECT_EQ(c.rows(), 3);
  EXPECT_EQ(c.cols(), 4);
  EXPECT_FLOAT_EQ(c(2, 3), 1.0f);
  EXPECT_EQ(b.rows(), 0);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b.cols(), 0);
  EXPECT_TRUE(b.empty());

  MatrixF& alias = c;
  c = std::move(alias);  // self-move keeps the matrix whole
  EXPECT_EQ(c.rows(), 3);
  EXPECT_EQ(c.size(), 12);
}

TEST(RandomMatrix, NormalMoments) {
  Rng rng(1);
  const MatrixF m = random_normal(200, 50, rng, 2.0);
  double sum = 0.0, sum2 = 0.0;
  for (float v : m.flat()) {
    sum += v;
    sum2 += static_cast<double>(v) * v;
  }
  const double n = static_cast<double>(m.size());
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 4.0, 0.2);
}

double row_autocorrelation(const MatrixF& m, std::int64_t lag) {
  // Average correlation between token i and token i+lag across columns.
  double num = 0.0, den = 0.0;
  for (std::int64_t c = 0; c < m.cols(); ++c) {
    for (std::int64_t r = 0; r + lag < m.rows(); ++r) {
      num += static_cast<double>(m(r, c)) * m(r + lag, c);
      den += static_cast<double>(m(r, c)) * m(r, c);
    }
  }
  return num / den;
}

TEST(RandomMatrix, LocallyCorrelated1d) {
  Rng rng(2);
  const double corr_len = 8.0;
  const MatrixF m = random_locally_correlated_1d(512, 64, rng, corr_len);
  const double c1 = row_autocorrelation(m, 1);
  const double c8 = row_autocorrelation(m, 8);
  const double c64 = row_autocorrelation(m, 64);
  // AR(1): corr(lag) = exp(-lag/corr_len).
  EXPECT_NEAR(c1, std::exp(-1.0 / corr_len), 0.05);
  EXPECT_NEAR(c8, std::exp(-1.0), 0.08);
  EXPECT_LT(c64, 0.05);
  EXPECT_GT(c1, c8);
  EXPECT_GT(c8, c64);
}

TEST(RandomMatrix, LocallyCorrelated2dHasVerticalStructure) {
  Rng rng(3);
  const std::int64_t side = 32;
  const MatrixF m =
      random_locally_correlated_2d(side * side, 16, rng, 4.0);
  // Tokens `side` apart are vertical grid neighbours: they must correlate
  // much more strongly than in the 1-D stream, where lag-32 correlation
  // has decayed to exp(-8) ~ 0.
  const double vert = row_autocorrelation(m, side);
  EXPECT_GT(vert, 0.3);
  // Horizontal neighbours correlate too.
  EXPECT_GT(row_autocorrelation(m, 1), 0.3);
}

TEST(RandomMatrix, 2dRequiresPerfectSquare) {
  Rng rng(4);
  EXPECT_THROW(random_locally_correlated_2d(1000, 4, rng, 4.0),
               std::invalid_argument);
}

// ------------------------------------------------------- MatrixView ----

TEST(MatrixView, WholeMatrixViewSharesStorage) {
  MatrixF m(3, 4);
  float v = 0.0f;
  for (float& x : m.flat()) x = v++;
  MatrixView view = m;
  EXPECT_EQ(view.rows(), 3);
  EXPECT_EQ(view.cols(), 4);
  EXPECT_EQ(view.stride(), 4);
  EXPECT_TRUE(view.contiguous());
  EXPECT_EQ(view.data(), m.data());
  view(1, 2) = 100.0f;  // writes through to the owning matrix
  EXPECT_FLOAT_EQ(m(1, 2), 100.0f);
}

TEST(MatrixView, ConstViewFromConstMatrix) {
  const MatrixF m(2, 3, 7.0f);
  ConstMatrixView view = m;
  EXPECT_EQ(view.rows(), 2);
  EXPECT_FLOAT_EQ(view(1, 1), 7.0f);
  // A mutable view converts to a const view (but not the reverse).
  MatrixF mm(2, 3);
  MatrixView wview = mm;
  ConstMatrixView cview = wview;
  EXPECT_EQ(cview.data(), mm.data());
}

TEST(MatrixView, RowRangeIsAnAliasedSlice) {
  MatrixF m(5, 2);
  float v = 0.0f;
  for (float& x : m.flat()) x = v++;
  MatrixView view = m;
  const MatrixView mid = view.row_range(1, 3);
  EXPECT_EQ(mid.rows(), 3);
  EXPECT_EQ(mid.cols(), 2);
  EXPECT_FLOAT_EQ(mid(0, 0), m(1, 0));
  mid(2, 1) = -1.0f;
  EXPECT_FLOAT_EQ(m(3, 1), -1.0f);
}

TEST(MatrixView, StrideMustCoverCols) {
  MatrixF m(4, 4);
  EXPECT_THROW(MatrixView(m.data(), 4, 4, 3), std::invalid_argument);
}

TEST(MatrixView, RowSpanHonoursStride) {
  MatrixF m(4, 6);
  float v = 0.0f;
  for (float& x : m.flat()) x = v++;
  // Columns 2..4 of every row: stride 6, cols 3.
  const MatrixView cols(m.data() + 2, 4, 3, 6);
  EXPECT_FALSE(cols.contiguous());
  auto r2 = cols.row(2);
  ASSERT_EQ(r2.size(), 3u);
  EXPECT_FLOAT_EQ(r2[0], m(2, 2));
  EXPECT_FLOAT_EQ(r2[2], m(2, 4));
}

}  // namespace
}  // namespace swat
