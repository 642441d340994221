// Software emulation of IEEE-754 binary16 ("half") arithmetic.
//
// SWAT's datapath is FP16 (paper §4: "The design uses half-precision 16-bit
// floating-point data"). The functional simulator must therefore round every
// intermediate value exactly as the FPGA datapath would: multiply, add and
// exponential all produce binary16 results. We emulate this by storing the
// 16-bit pattern and performing each primitive in float (binary32, which is
// exact for any single binary16 x binary16 product and any binary16 + binary16
// sum up to rounding) followed by a correctly-rounded (round-to-nearest-even)
// conversion back to binary16.
//
// The conversion routines handle subnormals, infinities and NaN explicitly
// and are themselves unit-tested against an exhaustive 16-bit sweep.
#pragma once

#include <cstdint>
#include <limits>

namespace swat {

/// Convert a binary32 float to the nearest binary16 bit pattern
/// (round-to-nearest-even, as FPGA floating point IP and IEEE default).
std::uint16_t f32_to_f16_bits(float f);

/// Convert a binary16 bit pattern to the exactly-representable binary32.
float f16_bits_to_f32(std::uint16_t h);

/// Value type wrapping one binary16 number.
///
/// All arithmetic operators round the binary32 intermediate back to binary16,
/// so `a * b + c` performed as `(a * b) + c` models a *non-fused* multiply-add
/// with two roundings, while `Half::fma` models a fused one with a single
/// rounding. SWAT's HLS MAC (II = 3) rounds after the multiply and after the
/// add, i.e. the non-fused behaviour; `AttentionCore` uses operator* and
/// operator+ accordingly.
class Half {
 public:
  constexpr Half() = default;

  /// Construct from float with correct rounding.
  explicit Half(float f) : bits_(f32_to_f16_bits(f)) {}
  explicit Half(double d) : Half(static_cast<float>(d)) {}

  /// Reinterpret a raw bit pattern as a Half.
  static constexpr Half from_bits(std::uint16_t b) {
    Half h;
    h.bits_ = b;
    return h;
  }

  constexpr std::uint16_t bits() const { return bits_; }
  float to_float() const { return f16_bits_to_f32(bits_); }

  bool is_nan() const {
    return (bits_ & 0x7c00u) == 0x7c00u && (bits_ & 0x03ffu) != 0;
  }
  bool is_inf() const { return (bits_ & 0x7fffu) == 0x7c00u; }
  bool is_zero() const { return (bits_ & 0x7fffu) == 0; }
  bool signbit() const { return (bits_ & 0x8000u) != 0; }

  friend Half operator+(Half a, Half b) {
    return Half(a.to_float() + b.to_float());
  }
  friend Half operator-(Half a, Half b) {
    return Half(a.to_float() - b.to_float());
  }
  friend Half operator*(Half a, Half b) {
    return Half(a.to_float() * b.to_float());
  }
  friend Half operator/(Half a, Half b) {
    return Half(a.to_float() / b.to_float());
  }
  friend Half operator-(Half a) {
    return Half::from_bits(static_cast<std::uint16_t>(a.bits() ^ 0x8000u));
  }

  Half& operator+=(Half o) { return *this = *this + o; }
  Half& operator-=(Half o) { return *this = *this - o; }
  Half& operator*=(Half o) { return *this = *this * o; }
  Half& operator/=(Half o) { return *this = *this / o; }

  /// Fused multiply-add with a single binary16 rounding at the end.
  /// binary32 is wide enough to hold the exact product of two binary16
  /// values and the subsequent sum incurs at most the final rounding we
  /// want to model, so float arithmetic suffices.
  static Half fma(Half a, Half b, Half c) {
    return Half(a.to_float() * b.to_float() + c.to_float());
  }

  /// Comparison via the float values (NaN compares false, as IEEE requires).
  friend bool operator==(Half a, Half b) {
    return a.to_float() == b.to_float();
  }
  friend bool operator<(Half a, Half b) { return a.to_float() < b.to_float(); }
  friend bool operator>(Half a, Half b) { return b < a; }
  friend bool operator<=(Half a, Half b) { return !(b < a); }
  friend bool operator>=(Half a, Half b) { return !(a < b); }

  static constexpr Half infinity() { return from_bits(0x7c00u); }
  static constexpr Half quiet_nan() { return from_bits(0x7e00u); }
  static constexpr Half max() { return from_bits(0x7bffu); }  // 65504
  static constexpr Half lowest() { return from_bits(0xfbffu); }
  static constexpr Half min_normal() { return from_bits(0x0400u); }
  static constexpr Half denorm_min() { return from_bits(0x0001u); }
  static constexpr Half zero() { return from_bits(0x0000u); }
  static constexpr Half one() { return from_bits(0x3c00u); }

 private:
  std::uint16_t bits_ = 0;
};

/// exp() rounded to binary16, modelling SWAT's EXP unit evaluated at full
/// precision. The FPGA implementation uses a pipelined floating-point exp
/// core; the reference behaviour is a correctly rounded exponential.
Half half_exp(Half x);

/// exp() via a piecewise-linear lookup table with `segments` entries over
/// the clamped domain [-max_mag, +max_mag]. This models a cheaper LUT-based
/// EXP unit; used by the ablation bench to quantify the accuracy cost of
/// shrinking the exp hardware.
Half half_exp_lut(Half x, int segments, float max_mag = 16.0f);

}  // namespace swat
