// Tests for the binary16 software emulation — the arithmetic substrate of
// the whole functional model, so it is tested exhaustively where feasible.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>

#include "common/fp16.hpp"

namespace swat {
namespace {

TEST(Fp16Convert, KnownValues) {
  EXPECT_EQ(f32_to_f16_bits(0.0f), 0x0000u);
  EXPECT_EQ(f32_to_f16_bits(-0.0f), 0x8000u);
  EXPECT_EQ(f32_to_f16_bits(1.0f), 0x3c00u);
  EXPECT_EQ(f32_to_f16_bits(-1.0f), 0xbc00u);
  EXPECT_EQ(f32_to_f16_bits(2.0f), 0x4000u);
  EXPECT_EQ(f32_to_f16_bits(0.5f), 0x3800u);
  EXPECT_EQ(f32_to_f16_bits(65504.0f), 0x7bffu);  // max finite half
  EXPECT_EQ(f32_to_f16_bits(0.099975586f), 0x2e66u);  // ~0.1
}

TEST(Fp16Convert, InfinityAndNan) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(f32_to_f16_bits(inf), 0x7c00u);
  EXPECT_EQ(f32_to_f16_bits(-inf), 0xfc00u);
  const std::uint16_t nan_bits =
      f32_to_f16_bits(std::numeric_limits<float>::quiet_NaN());
  EXPECT_EQ(nan_bits & 0x7c00u, 0x7c00u);
  EXPECT_NE(nan_bits & 0x03ffu, 0u);
  EXPECT_TRUE(std::isnan(f16_bits_to_f32(0x7e00u)));
  EXPECT_TRUE(std::isinf(f16_bits_to_f32(0x7c00u)));
}

TEST(Fp16Convert, OverflowRoundsToInfinity) {
  EXPECT_EQ(f32_to_f16_bits(65536.0f), 0x7c00u);
  EXPECT_EQ(f32_to_f16_bits(1e30f), 0x7c00u);
  EXPECT_EQ(f32_to_f16_bits(-1e30f), 0xfc00u);
  // 65520 is the rounding boundary: it ties to 65536 (even mantissa in the
  // next binade) -> infinity.
  EXPECT_EQ(f32_to_f16_bits(65520.0f), 0x7c00u);
  // Just below the boundary rounds down to max finite.
  EXPECT_EQ(f32_to_f16_bits(65519.996f), 0x7bffu);
}

TEST(Fp16Convert, Subnormals) {
  // Smallest positive subnormal: 2^-24.
  EXPECT_EQ(f32_to_f16_bits(std::ldexp(1.0f, -24)), 0x0001u);
  EXPECT_FLOAT_EQ(f16_bits_to_f32(0x0001u), std::ldexp(1.0f, -24));
  // Largest subnormal: (1023/1024) * 2^-14.
  EXPECT_EQ(f32_to_f16_bits(std::ldexp(1023.0f, -24)), 0x03ffu);
  // Smallest normal: 2^-14.
  EXPECT_EQ(f32_to_f16_bits(std::ldexp(1.0f, -14)), 0x0400u);
  // Half of the smallest subnormal ties to even -> 0.
  EXPECT_EQ(f32_to_f16_bits(std::ldexp(1.0f, -25)), 0x0000u);
  // Slightly more than half rounds up to the smallest subnormal.
  EXPECT_EQ(f32_to_f16_bits(std::ldexp(1.1f, -25)), 0x0001u);
  // Underflow to zero below half the smallest subnormal.
  EXPECT_EQ(f32_to_f16_bits(std::ldexp(1.0f, -26)), 0x0000u);
}

TEST(Fp16Convert, RoundToNearestEvenTies) {
  // 1 + 2^-11 is exactly halfway between 1.0 and the next half (1 + 2^-10);
  // RNE keeps the even mantissa (1.0).
  EXPECT_EQ(f32_to_f16_bits(1.0f + std::ldexp(1.0f, -11)), 0x3c00u);
  // 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9; RNE picks the even
  // mantissa 1+2^-9 (0x3c02).
  EXPECT_EQ(f32_to_f16_bits(1.0f + 3.0f * std::ldexp(1.0f, -11)), 0x3c02u);
  // Anything past the halfway point rounds up.
  EXPECT_EQ(f32_to_f16_bits(1.0f + std::ldexp(1.0f, -11) * 1.001f), 0x3c01u);
}

TEST(Fp16Convert, ExhaustiveRoundTrip) {
  // Every finite half value must survive half -> float -> half exactly;
  // NaNs must stay NaN.
  for (std::uint32_t bits = 0; bits <= 0xffffu; ++bits) {
    const auto h = static_cast<std::uint16_t>(bits);
    const float f = f16_bits_to_f32(h);
    if ((h & 0x7c00u) == 0x7c00u && (h & 0x03ffu) != 0) {
      EXPECT_TRUE(std::isnan(f)) << "bits=" << bits;
      continue;
    }
    const std::uint16_t back = f32_to_f16_bits(f);
    // -0 and +0 keep their signs; everything else is bit-identical.
    EXPECT_EQ(back, h) << "bits=" << bits << " f=" << f;
  }
}

TEST(Fp16Convert, MonotoneOnSamples) {
  // Conversion must be monotone: f <= g implies h(f) <= h(g) as values.
  float prev = -70000.0f;
  for (float f = -70000.0f; f <= 70000.0f; f += 13.77f) {
    const float hf = f16_bits_to_f32(f32_to_f16_bits(f));
    const float hp = f16_bits_to_f32(f32_to_f16_bits(prev));
    EXPECT_LE(hp, hf) << "at " << f;
    prev = f;
  }
}

TEST(HalfArithmetic, BasicOps) {
  const Half a(1.5f);
  const Half b(2.25f);
  EXPECT_FLOAT_EQ((a + b).to_float(), 3.75f);
  EXPECT_FLOAT_EQ((a * b).to_float(), 3.375f);
  EXPECT_FLOAT_EQ((b - a).to_float(), 0.75f);
  EXPECT_FLOAT_EQ((b / Half(0.5f)).to_float(), 4.5f);
  EXPECT_FLOAT_EQ((-a).to_float(), -1.5f);
}

TEST(HalfArithmetic, AdditionRoundsToHalfPrecision) {
  // 2048 + 1 is not representable in binary16 (ulp at 2048 is 2);
  // RNE sends it back to 2048.
  EXPECT_FLOAT_EQ((Half(2048.0f) + Half(1.0f)).to_float(), 2048.0f);
  // 2048 + 3 = 2051 is exactly halfway between 2050 and 2052; RNE picks
  // the even mantissa, which is 2052 (2052/2 = 1026).
  EXPECT_FLOAT_EQ((Half(2048.0f) + Half(3.0f)).to_float(), 2052.0f);
  // 2048 + 2 is exactly representable.
  EXPECT_FLOAT_EQ((Half(2048.0f) + Half(2.0f)).to_float(), 2050.0f);
}

TEST(HalfArithmetic, MultiplicationOverflow) {
  EXPECT_TRUE((Half(300.0f) * Half(300.0f)).is_inf());
  EXPECT_TRUE((Half(-300.0f) * Half(300.0f)).is_inf());
  EXPECT_TRUE((Half(-300.0f) * Half(300.0f)).signbit());
}

TEST(HalfArithmetic, FmaSingleRounding) {
  // a*b = 4097 * 2^-12-ish construction: pick values where the non-fused
  // path rounds the product and loses against fma.
  const Half a(0.0999755859375f);  // 0x2e66
  const Half b(41.0f);
  const Half c(1.0f);
  const float fused = Half::fma(a, b, c).to_float();
  const float unfused = (a * b + c).to_float();
  const float exact = a.to_float() * b.to_float() + c.to_float();
  // fused must be at least as close to exact as unfused.
  EXPECT_LE(std::abs(fused - exact), std::abs(unfused - exact));
}

TEST(HalfArithmetic, ComparisonsAndPredicates) {
  EXPECT_LT(Half(1.0f), Half(2.0f));
  EXPECT_GT(Half(-1.0f), Half(-2.0f));
  EXPECT_TRUE(Half::quiet_nan().is_nan());
  EXPECT_FALSE(Half::quiet_nan() == Half::quiet_nan());
  EXPECT_TRUE(Half::infinity().is_inf());
  EXPECT_TRUE(Half::zero().is_zero());
  EXPECT_TRUE(Half::from_bits(0x8000u).is_zero());  // -0
  EXPECT_FLOAT_EQ(Half::max().to_float(), 65504.0f);
  EXPECT_FLOAT_EQ(Half::one().to_float(), 1.0f);
}

TEST(HalfArithmetic, RandomizedAlgebraicProperties) {
  // binary32 holds the exact sum and product of any two binary16 values,
  // and (Figueroa's double-rounding bound: 24 >= 2*11 + 2) the quotient's
  // float->half double rounding is innocuous — so every Half operation is
  // correctly rounded. Check the algebraic consequences on random values.
  std::mt19937 gen(7);
  std::uniform_int_distribution<std::uint32_t> bits(0, 0xffff);
  int checked = 0;
  while (checked < 5000) {
    const Half a = Half::from_bits(static_cast<std::uint16_t>(bits(gen)));
    const Half b = Half::from_bits(static_cast<std::uint16_t>(bits(gen)));
    if (a.is_nan() || b.is_nan() || a.is_inf() || b.is_inf()) continue;
    ++checked;
    // Commutativity (exact for correctly rounded ops).
    EXPECT_EQ((a + b).bits(), (b + a).bits());
    EXPECT_EQ((a * b).bits(), (b * a).bits());
    // Identity elements.
    EXPECT_EQ((a * Half::one()).to_float(), a.to_float());
    const Half sum0 = a + Half::zero();
    EXPECT_EQ(sum0.to_float(), a.to_float());
    // x - x == 0 exactly.
    EXPECT_TRUE((a - a).is_zero());
    // Exact float reference: float arithmetic of two halfs is exact for
    // + and *, so Half must equal its correctly rounded value.
    EXPECT_EQ((a + b).bits(),
              f32_to_f16_bits(a.to_float() + b.to_float()));
    EXPECT_EQ((a * b).bits(),
              f32_to_f16_bits(a.to_float() * b.to_float()));
  }
}

TEST(HalfArithmetic, AdditionMonotoneOnRandomTriples) {
  std::mt19937 gen(11);
  std::uniform_real_distribution<float> d(-1000.0f, 1000.0f);
  for (int i = 0; i < 2000; ++i) {
    const Half a(d(gen));
    const Half b(d(gen));
    const Half c(d(gen));
    if (b.to_float() <= c.to_float()) {
      EXPECT_LE((a + b).to_float(), (a + c).to_float());
    } else {
      EXPECT_GE((a + b).to_float(), (a + c).to_float());
    }
  }
}

TEST(HalfArithmetic, DivisionRoundTripWithinTwoUlp) {
  std::mt19937 gen(13);
  std::uniform_real_distribution<float> d(0.25f, 4.0f);
  for (int i = 0; i < 2000; ++i) {
    const Half a(d(gen));
    const Half b(d(gen));
    const Half back = (a / b) * b;
    // Two correctly rounded ops: relative error <= 2 * 2^-11.
    const float rel = std::abs(back.to_float() - a.to_float()) / a.to_float();
    EXPECT_LE(rel, 2.0f / 2048.0f + 1e-7f);
  }
}

TEST(HalfExp, MatchesStdExpRounded) {
  for (float x = -10.0f; x <= 10.0f; x += 0.37f) {
    // The EXP unit sees the fp16-rounded operand; compare against exp
    // evaluated at exactly that value, rounded back to fp16.
    const float xr = Half(x).to_float();
    const float expect = f16_bits_to_f32(f32_to_f16_bits(std::exp(xr)));
    EXPECT_FLOAT_EQ(half_exp(Half(x)).to_float(), expect) << "x=" << x;
  }
}

TEST(HalfExp, OverflowsToInfAt12) {
  // exp(12) ~ 162754 > 65504: the fp16 exp saturates to +inf. This is why
  // the paper's Eq. 1 (no max subtraction) needs 1/sqrt(d)-scaled scores.
  EXPECT_TRUE(half_exp(Half(12.0f)).is_inf());
  EXPECT_FALSE(half_exp(Half(11.0f)).is_inf());
}

TEST(HalfExpLut, ErrorShrinksWithSegments) {
  auto max_err = [](int segments) {
    float worst = 0.0f;
    for (float x = -8.0f; x <= 8.0f; x += 0.0137f) {
      const float ref = std::exp(x);
      const float got = half_exp_lut(Half(x), segments).to_float();
      worst = std::max(worst, std::abs(got - ref) / ref);
    }
    return worst;
  };
  const float e64 = max_err(64);
  const float e256 = max_err(256);
  const float e1024 = max_err(1024);
  EXPECT_GT(e64, e256);
  EXPECT_GT(e256, e1024);
  // With 1024 segments the LUT is within a few fp16 ulps of exact.
  EXPECT_LT(e1024, 0.01f);
}

TEST(HalfExpLut, ClampsDomain) {
  EXPECT_FLOAT_EQ(half_exp_lut(Half(-100.0f), 64, 16.0f).to_float(),
                  Half(std::exp(-16.0f)).to_float());
  EXPECT_FLOAT_EQ(half_exp_lut(Half(100.0f), 64, 16.0f).to_float(),
                  Half(std::exp(16.0f)).to_float());
  EXPECT_TRUE(half_exp_lut(Half::quiet_nan(), 64).is_nan());
}

}  // namespace
}  // namespace swat
