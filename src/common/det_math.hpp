// Deterministic fp32 exp and GELU — swat's own transcendental primitive.
//
// Built only from correctly rounded IEEE add, multiply and divide plus
// integer exponent-bit operations, with no libm call and no data-dependent
// branch. With contraction off, every caller gets the same bits: scalar
// code, each ISA tier's vector loop, and the scalar oracles.
//
//   exp(x): Cody–Waite reduction x = n ln2 + r (|r| <= ~ln2 / 2, ln2 split
//   into a 9-bit head, so n * head is exact, and a tail), then
//   exp(r) = 1 + r + r^2 P(r) with a degree-4 P (degree 6 overall), then
//   the 2^n scale in two exact-or-once-rounded steps 2^(n/2) * 2^(n - n/2),
//   so results in the subnormal range round once and come out graded and
//   overflow rounds to +Inf through the multiply itself. At most 1 ulp from
//   the correctly rounded result wherever the result is normal (a 1-in-7
//   sweep of every float). NaN -> NaN, +Inf -> +Inf, -Inf -> +0,
//   exp(+-0) = 1, x above ln(FLT_MAX) -> +Inf, x below the subnormal floor
//   (-103.97) -> +0, x in [-103.97, -87.34] -> a positive subnormal.
//
//   gelu(x): the tanh approximation 0.5 x (1 + tanh(u)),
//   u = sqrt(2/pi) (x + 0.044715 x^3), in its algebraically identical
//   sigmoid form x / (1 + exp(-2u)), with -2u evaluated as
//   x (a + b x^2). |err| <= 1.21e-7 |x| for normal x in [-20, 20] against
//   a double reference (1-in-7 sweep; the tanh form reaches 1.45e-7).
//   gelu(+-0) = +-0, gelu(+Inf) = +Inf, NaN -> NaN (and, as with
//   the tanh form, gelu(-Inf) = NaN).
//
// Two spellings of each:
//  * det_exp (here) and gelu (tensor/kernels.hpp) are out-of-line and carry
//    SWAT_NO_FP_CONTRACT, so a scalar caller built with FMA contraction on
//    still gets the pinned bits. Scalar code and oracles call these.
//  * det_exp_inline / det_gelu_inline are the always-inlined bodies with
//    internal linkage for the ISA-tier kernels (common/isa_kernels.hpp),
//    which compile with -ffp-contract=off; inlined there, loops over them
//    vectorize. They leave no out-of-line copy (no weak symbol), so
//    scripts/check_isa_objects.py stays green.
#pragma once

#include <cstdint>

#include "common/contracts.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define SWAT_DET_INLINE __attribute__((always_inline)) static inline
#else
#define SWAT_DET_INLINE static inline
#endif

namespace swat {

/// exp(x) in fp32, bit-identical to every tier's vector exp.
float det_exp(float x);

// Bit casts through the builtin, not the std::bit_cast template: an
// unoptimized build would emit the template out of line, a weak symbol in
// the tier objects.
SWAT_DET_INLINE std::uint32_t det_bits(float f) {
  return __builtin_bit_cast(std::uint32_t, f);
}

SWAT_DET_INLINE float det_float(std::uint32_t u) {
  return __builtin_bit_cast(float, u);
}

/// m ? a : b for a lane-wide comparison result, as a bit select: no branch,
/// so loops stay vectorizable under -ftrapping-math (GCC's if-conversion
/// refuses the equivalent ?: on a float comparison).
SWAT_DET_INLINE float det_select(bool m, float a, float b) {
  const std::uint32_t mask = 0u - static_cast<std::uint32_t>(m);
  return det_float((det_bits(a) & mask) | (det_bits(b) & ~mask));
}

SWAT_DET_INLINE float det_exp_inline(float x) {
  SWAT_NO_FP_CONTRACT_BODY
  // Outside [-104, 89] the result is +0 / +Inf; clamping keeps n in
  // [-150, 128] so both half scales below are normal. NaN compares false
  // and passes through.
  x = det_select(x < -104.0f, -104.0f, x);
  x = det_select(x > 89.0f, 89.0f, x);
  // n = round-to-nearest(x log2 e) via the 1.5 * 2^23 shifter: t's low
  // mantissa bits hold n, read back as integer bits (no float-to-int
  // conversion, so NaN lanes stay defined).
  constexpr float kShifter = 12582912.0f;
  const float t = x * 1.44269504088896341f + kShifter;
  const float fn = t - kShifter;
  const auto n = static_cast<std::int32_t>(det_bits(t) - det_bits(kShifter));
  // Cody–Waite: 0.693359375 has 9 significant bits, so fn * head is exact
  // and x - fn * head is exact (Sterbenz).
  const float r = (x - fn * 0.693359375f) - fn * -2.12194440e-4f;
  // exp(r) = 1 + r + r^2 P(r), P a Chebyshev fit of (exp(r) - 1 - r) / r^2
  // on |r| <= 0.3466 (absolute error 6.5e-8 in P, <= 8e-9 in exp(r)).
  float p = 1.392618171e-3f;
  p = p * r + 8.363178000e-3f;
  p = p * r + 4.166655615e-2f;
  p = p * r + 1.666657627e-1f;
  p = p * r + 0.5f;
  const float y = (p * (r * r) + r) + 1.0f;
  // 2^n = 2^n1 * 2^n2, both factors normal for n in [-150, 128]. y * 2^n1
  // is exact; the second multiply rounds once (subnormal or overflow).
  const std::int32_t n1 = n >> 1;
  const std::int32_t n2 = n - n1;
  const float s1 = det_float(static_cast<std::uint32_t>(n1 + 127) << 23);
  const float s2 = det_float(static_cast<std::uint32_t>(n2 + 127) << 23);
  return (y * s1) * s2;
}

SWAT_DET_INLINE float det_gelu_inline(float x) {
  SWAT_NO_FP_CONTRACT_BODY
  // -2u = x (a + b x^2), a = -2 sqrt(2/pi), b = 0.044715 a.
  constexpr float kA = -1.5957691216057308f;
  constexpr float kB = -0.0713548162726002f;
  return x / (1.0f + det_exp_inline(x * (kA + kB * (x * x))));
}

}  // namespace swat
