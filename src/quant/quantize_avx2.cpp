// AVX2 instances of the two per-element quantizers in quantize.h,
// fake_quant_buffer and quantize_levels_u8. Compiled with -mavx2 only;
// quantize.cpp selects them at runtime via __builtin_cpu_supports so the
// library still runs on pre-AVX2 machines. Each handles the whole vector
// blocks and returns how many elements it did; quantize.cpp's scalar loop
// finishes the tail.
//
// Both must be BIT-IDENTICAL to the scalar expression they replace,
//
//   level = clamp(round(x / scale), -q, q)
//   fake_quant_buffer:   x   <- level * scale
//   quantize_levels_u8:  dst <- u8(int(level) + 128)
//
// because the float plan, the reference interpreter, QuantConv2d, the int8
// plan and the QModel oracle all derive their agreement from this one
// rounding. Both run the same vector core, Levels, which reproduces the
// level for EVERY float x: fake_quant_buffer hands -0.0, NaN and +-inf
// results back to the caller, so unlike the u8 path it cannot lean on
// finite input. Three subtleties:
//
//   * the division stays a division (vdivps) — multiplying by the
//     reciprocal rounds differently;
//   * std::round rounds halves AWAY from zero, vroundps rounds them to
//     even. Ties are repaired exactly: with t the quotient and r its
//     nearest-even rounding, d = t - r is computed without error (|d| <=
//     0.5, so Sterbenz / small-magnitude cases apply). A tie rounds away
//     iff nearest-even pulled it toward zero, i.e. iff d == copysign(0.5,
//     t); the repair then adds copysign(1, t). Every other lane adds
//     copysign(0, t), never a bare +0.0: -0.0 + +0.0 is +0.0, which would
//     flip the -0.0 level of x = -0.0 or x in (-scale/2, 0), while a zero
//     of t's own sign leaves r unchanged for every t (r carries t's sign,
//     and a NaN r passes through the add as its first operand). It also
//     costs fewer uops than blending r +- 1 in, which shows on the u8 path;
//   * the clamp is min(q, max(-q, r)) with r as the SECOND operand:
//     vmaxps/vminps return the second operand when either is NaN, so a NaN
//     level (payload included) passes through as it does through
//     std::clamp, whose comparisons are both false. +-inf has d = NaN, no
//     tie fires, and the clamp lands on +-q exactly as the scalar path
//     does.
#include <cstdint>

#include <immintrin.h>

namespace nb::quant::detail {
namespace {

// clamp(round(x / scale), -q, q) on 8 lanes, bit-identical to the scalar
// std:: expression for every float x (see above).
class Levels {
 public:
  Levels(float scale, float q)
      : scale_(_mm256_set1_ps(scale)),
        q_(_mm256_set1_ps(q)),
        nq_(_mm256_set1_ps(-q)) {}

  __m256 scale() const { return scale_; }

  __m256 operator()(__m256 x) const {
    const __m256 t = _mm256_div_ps(x, scale_);
    const __m256 r =
        _mm256_round_ps(t, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    const __m256 d = _mm256_sub_ps(t, r);
    const __m256 sign = _mm256_and_ps(t, _mm256_set1_ps(-0.0f));
    const __m256 tie = _mm256_cmp_ps(
        d, _mm256_or_ps(sign, _mm256_set1_ps(0.5f)), _CMP_EQ_OQ);
    const __m256 level = _mm256_add_ps(
        r, _mm256_or_ps(sign, _mm256_and_ps(tie, _mm256_set1_ps(1.0f))));
    return _mm256_min_ps(q_, _mm256_max_ps(nq_, level));
  }

 private:
  __m256 scale_, q_, nq_;
};

}  // namespace

int64_t fake_quant_avx2(float* data, int64_t n, float scale, float q) {
  const Levels levels(scale, q);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 level = levels(_mm256_loadu_ps(data + i));
    _mm256_storeu_ps(data + i, _mm256_mul_ps(level, levels.scale()));
  }
  return i;
}

int64_t quantize_levels_u8_avx2(const float* src, uint8_t* dst, int64_t n,
                                float scale, float q) {
  const Levels levels(scale, q);
  const __m256i voff = _mm256_set1_epi32(128);
  const auto bytes8 = [&](const float* p) {
    return _mm256_add_epi32(_mm256_cvtps_epi32(levels(_mm256_loadu_ps(p))),
                            voff);
  };

  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
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
  return i;
}

}  // namespace nb::quant::detail
