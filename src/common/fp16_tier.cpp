// binary16 batch converters, compiled once per ISA tier (see
// common/isa_kernels.hpp for the build and linkage rules). The AVX-512 tier
// converts 16 lanes per instruction, the AVX2 tier (F16C) 8, the baseline
// tier one element at a time. NaN lanes are redone through the scalar
// routines, so every tier matches f16_bits_to_f32 / f32_to_f16_bits bit for
// bit on the full domain.
#include "common/fp16.hpp"
#include "common/isa_kernels.hpp"

#if defined(__F16C__)
#include <immintrin.h>
#endif

namespace swat::isa::SWAT_ISA_TIER {

void f16_bits_to_f32_batch(const std::uint16_t* src, float* dst,
                           std::size_t n) {
  std::size_t i = 0;
#if defined(__F16C__)
  // vcvtph2ps is exact (every binary16 is representable in binary32) and
  // matches the scalar routine on all patterns except signalling NaNs,
  // which the hardware quiets. Detect NaN inputs with an integer compare
  // ((h & 0x7fff) > 0x7c00) and redo just those lanes through the scalar
  // path.
#if defined(__AVX512F__)
  const __m256i abs_mask16 = _mm256_set1_epi16(0x7fff);
  const __m256i inf_bits16 = _mm256_set1_epi16(0x7c00);
  for (; i + 16 <= n; i += 16) {
    const __m256i h =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm512_storeu_ps(dst + i, _mm512_cvtph_ps(h));
    const __m256i nan_lanes =
        _mm256_cmpgt_epi16(_mm256_and_si256(h, abs_mask16), inf_bits16);
    if (_mm256_movemask_epi8(nan_lanes) != 0) {
      for (std::size_t l = 0; l < 16; ++l) {
        dst[i + l] = swat::f16_bits_to_f32(src[i + l]);
      }
    }
  }
#endif
  const __m128i abs_mask = _mm_set1_epi16(0x7fff);
  const __m128i inf_bits = _mm_set1_epi16(0x7c00);
  for (; i + 8 <= n; i += 8) {
    const __m128i h =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm256_storeu_ps(dst + i, _mm256_cvtph_ps(h));
    const __m128i nan_lanes =
        _mm_cmpgt_epi16(_mm_and_si128(h, abs_mask), inf_bits);
    if (_mm_movemask_epi8(nan_lanes) != 0) {
      for (std::size_t l = 0; l < 8; ++l) {
        dst[i + l] = swat::f16_bits_to_f32(src[i + l]);
      }
    }
  }
#endif
  for (; i < n; ++i) dst[i] = swat::f16_bits_to_f32(src[i]);
}

void f32_to_f16_bits_batch(const float* src, std::uint16_t* dst,
                           std::size_t n) {
  std::size_t i = 0;
#if defined(__F16C__)
  // vcvtps2ph with RNE matches the scalar routine (subnormals, overflow to
  // inf, ties) except for NaN payloads; patch NaN lanes to the canonical
  // scalar encoding.
#if defined(__AVX512F__)
  for (; i + 16 <= n; i += 16) {
    const __m512 f = _mm512_loadu_ps(src + i);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm512_cvtps_ph(f, _MM_FROUND_TO_NEAREST_INT));
    if (_mm512_cmp_ps_mask(f, f, _CMP_UNORD_Q) != 0) {
      for (std::size_t l = 0; l < 16; ++l) {
        dst[i + l] = swat::f32_to_f16_bits(src[i + l]);
      }
    }
  }
#endif
  for (; i + 8 <= n; i += 8) {
    const __m256 f = _mm256_loadu_ps(src + i);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm256_cvtps_ph(f, _MM_FROUND_TO_NEAREST_INT));
    const __m256 nan_lanes = _mm256_cmp_ps(f, f, _CMP_UNORD_Q);
    if (_mm256_movemask_ps(nan_lanes) != 0) {
      for (std::size_t l = 0; l < 8; ++l) {
        dst[i + l] = swat::f32_to_f16_bits(src[i + l]);
      }
    }
  }
#endif
  for (; i < n; ++i) dst[i] = swat::f32_to_f16_bits(src[i]);
}

}  // namespace swat::isa::SWAT_ISA_TIER
