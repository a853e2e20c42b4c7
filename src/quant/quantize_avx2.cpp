// AVX2 instances of the two per-element quantizers in quantize.h,
// fake_quant_buffer and quantize_levels_u8. Compiled with -mavx2 only;
// quantize.cpp selects them at runtime via __builtin_cpu_supports so the
// library still runs on pre-AVX2 machines. Each handles the whole vector
// blocks and returns how many elements it did; quantize.cpp's scalar loop
// finishes the tail.
//
// Both run the quantizer of tensor/requantize.h on Avx2Lanes, and the
// scalar tail runs it on ScalarLanes:
//
//   level = clamp(round(x / scale), -q, q)
//   fake_quant_buffer:   x   <- level * scale
//   quantize_levels_u8:  dst <- u8(int(level) + 128)
//
// The float plan, the reference interpreter, QuantConv2d, the int8 plan
// and the QModel oracle all derive their agreement from this one rounding,
// so both lane types must give the scalar std:: expression's bits for
// EVERY float x; requantize.h says why the trunc-form rounding does
// (tests/test_quant_properties.cpp sweeps every quotient near each tie).
// fake_quant_buffer hands -0.0, NaN and +-inf results back to the caller;
// the u8 path needs finite input.
#include <cstdint>

#include <immintrin.h>

#include "tensor/requantize.h"

namespace nb::quant::detail {

int64_t fake_quant_avx2(float* data, int64_t n, float scale, float q) {
  const __m256 vscale = _mm256_set1_ps(scale);
  const __m256 vq = _mm256_set1_ps(q);
  const int64_t n8 = n / 8 * 8;
  for (float* p = data; p < data + n8; p += 8) {
    _mm256_storeu_ps(p, fake_quant<Avx2Lanes>(_mm256_loadu_ps(p), vscale, vq));
  }
  return n8;
}

int64_t quantize_levels_u8_avx2(const float* src, uint8_t* dst, int64_t n,
                                float scale, float q) {
  const __m256 vscale = _mm256_set1_ps(scale);
  const __m256 vq = _mm256_set1_ps(q);
  const __m256i voff = _mm256_set1_epi32(128);
  const auto bytes8 = [&](const float* p) {
    return _mm256_add_epi32(
        _mm256_cvtps_epi32(
            quant_level<Avx2Lanes>(_mm256_loadu_ps(p), vscale, vq)),
        voff);
  };

  const int64_t n16 = n / 16 * 16;
  for (int64_t i = 0; i < n16; i += 16) {
    const __m256i lo = bytes8(src + i);
    const __m256i hi = bytes8(src + i + 8);
    // packus interleaves 128-bit lanes; permute restores element order.
    const __m256i w16 = _mm256_permute4x64_epi64(
        _mm256_packus_epi32(lo, hi), _MM_SHUFFLE(3, 1, 2, 0));
    const __m128i bytes =
        _mm_packus_epi16(_mm256_castsi256_si128(w16),
                         _mm256_extracti128_si256(w16, 1));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), bytes);
  }
  return n16;
}

}  // namespace nb::quant::detail
