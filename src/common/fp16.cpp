#include "common/fp16.hpp"

#include <bit>
#include <cmath>
#include <cstring>

#include "common/contracts.hpp"
#include "common/isa_kernels.hpp"

namespace swat {

namespace {

std::uint32_t float_bits(float f) { return std::bit_cast<std::uint32_t>(f); }
float bits_float(std::uint32_t u) { return std::bit_cast<float>(u); }

}  // namespace

std::uint16_t f32_to_f16_bits(float f) {
  const std::uint32_t x = float_bits(f);
  const std::uint32_t sign = (x >> 16) & 0x8000u;
  const std::uint32_t abs = x & 0x7fffffffu;

  // NaN / infinity.
  if (abs >= 0x7f800000u) {
    if (abs > 0x7f800000u) {
      // NaN: keep it quiet, preserve a payload bit so it stays a NaN.
      return static_cast<std::uint16_t>(sign | 0x7e00u);
    }
    return static_cast<std::uint16_t>(sign | 0x7c00u);
  }

  // Overflow to half infinity: anything >= 65520 rounds to inf.
  // 65520 = 0x477ff000 in binary32? Compare via exponent/mantissa bound:
  // largest finite half is 65504; the rounding boundary is 65520.
  if (abs >= 0x47800000u) {  // 65536.0f
    return static_cast<std::uint16_t>(sign | 0x7c00u);
  }

  const std::int32_t exp32 = static_cast<std::int32_t>(abs >> 23) - 127;

  if (exp32 >= -14) {
    // Normal half range (possibly rounding up to inf at the top).
    // Round mantissa from 23 bits to 10 bits, RNE.
    std::uint32_t mant = abs & 0x007fffffu;
    std::uint32_t half = ((static_cast<std::uint32_t>(exp32 + 15) << 10) |
                          (mant >> 13));
    const std::uint32_t round_bits = mant & 0x1fffu;  // 13 discarded bits
    if (round_bits > 0x1000u || (round_bits == 0x1000u && (half & 1u))) {
      ++half;  // carries propagate correctly into the exponent, incl. to inf
    }
    return static_cast<std::uint16_t>(sign | half);
  }

  // Subnormal half or underflow to zero.
  if (exp32 < -25) {
    // Smaller than half of the smallest subnormal: rounds to zero
    // (exp == -25 with a zero mantissa ties to even, also zero, but that
    // case flows through the general path below and rounds correctly).
    return static_cast<std::uint16_t>(sign);
  }

  // Build the subnormal: implicit leading 1 becomes explicit.
  // value = mant * 2^(exp32-23); the half subnormal unit is 2^-24, so
  // half_mant = RNE(mant * 2^(exp32+1)), i.e. shift right by -(exp32+1)+23.
  const std::uint32_t mant = (abs & 0x007fffffu) | 0x00800000u;
  const int rshift = 23 - (exp32 + 24);  // number of bits shifted out
  SWAT_ENSURES(rshift >= 1 && rshift <= 24);
  const std::uint32_t half_mant = mant >> rshift;
  const std::uint32_t rem = mant & ((1u << rshift) - 1u);
  const std::uint32_t halfway = 1u << (rshift - 1);
  std::uint32_t result = half_mant;
  if (rem > halfway || (rem == halfway && (result & 1u))) ++result;
  // result may have carried into the exponent field (becoming min normal);
  // that is exactly the right encoding.
  return static_cast<std::uint16_t>(sign | result);
}

float f16_bits_to_f32(std::uint16_t h) {
  const std::uint32_t sign = (static_cast<std::uint32_t>(h) & 0x8000u) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1fu;
  const std::uint32_t mant = h & 0x03ffu;

  if (exp == 0) {
    if (mant == 0) return bits_float(sign);  // +-0
    // Subnormal: normalize.
    int e = -1;
    std::uint32_t m = mant;
    do {
      ++e;
      m <<= 1;
    } while ((m & 0x0400u) == 0);
    const std::uint32_t exp32 = static_cast<std::uint32_t>(127 - 15 - e);
    const std::uint32_t mant32 = (m & 0x03ffu) << 13;
    return bits_float(sign | (exp32 << 23) | mant32);
  }
  if (exp == 0x1f) {
    // Inf / NaN.
    return bits_float(sign | 0x7f800000u | (mant << 13));
  }
  const std::uint32_t exp32 = exp + (127 - 15);
  return bits_float(sign | (exp32 << 23) | (mant << 13));
}

void f16_bits_to_f32_batch(const std::uint16_t* src, float* dst,
                           std::size_t n) {
  isa::active_kernels().f16_bits_to_f32_batch(src, dst, n);
}

void f32_to_f16_bits_batch(const float* src, std::uint16_t* dst,
                           std::size_t n) {
  isa::active_kernels().f32_to_f16_bits_batch(src, dst, n);
}

Half half_exp(Half x) { return Half(std::exp(x.to_float())); }

Half half_exp_lut(Half x, int segments, float max_mag) {
  SWAT_EXPECTS(segments >= 2);
  SWAT_EXPECTS(max_mag > 0.0f);
  float v = x.to_float();
  if (std::isnan(v)) return Half::quiet_nan();
  if (v <= -max_mag) return Half(std::exp(-max_mag));
  if (v >= max_mag) return Half(std::exp(max_mag));
  // Piecewise-linear interpolation between table knots.
  const float span = 2.0f * max_mag;
  const float t = (v + max_mag) / span * static_cast<float>(segments);
  int idx = static_cast<int>(t);
  if (idx >= segments) idx = segments - 1;
  const float x0 = -max_mag + span * static_cast<float>(idx) /
                                  static_cast<float>(segments);
  const float x1 = -max_mag + span * static_cast<float>(idx + 1) /
                                  static_cast<float>(segments);
  const float y0 = std::exp(x0);
  const float y1 = std::exp(x1);
  const float w = (v - x0) / (x1 - x0);
  // The LUT output register is binary16, so round the interpolant.
  return Half(y0 + w * (y1 - y0));
}

}  // namespace swat
