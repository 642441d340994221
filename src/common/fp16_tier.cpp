// The binary16 -> binary32 batch widening, compiled once per ISA tier (see
// common/isa_kernels.hpp for the build and linkage rules). The AVX-512 tier
// converts 16 lanes per instruction, the AVX2 tier (F16C) 8, the baseline
// tier one element at a time. NaN lanes are redone through the scalar
// routine, so every tier matches f16_bits_to_f32 bit for bit on the full
// domain.
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

}  // namespace swat::isa::SWAT_ISA_TIER
