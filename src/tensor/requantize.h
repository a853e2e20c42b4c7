// The float arithmetic the float and int8 backends run after their conv
// accumulations, with one definition for every place that runs it: the
// epilogue expression
//
//   y = act(acc * scale + bias)
//
// and the activation quantizer
//
//   fake_quant(y, s, q) = clamp(round(y / s), -q, q) * s
//
// scale_bias_act is the epilogue over float accumulators: the float GEMM's
// epilogue, which applies it in registers as each tile's final store, and
// the float depthwise's, which applies it as compaction writes each output.
// requantize is the int8 form: the int32 accumulator converts to float
// first, and then the same expression runs, in requantize_row below (the
// int8 depthwise, and QModel through exporter::requantize_row), in
// exporter::requantize_linear_row (QModel and the linear head) and in the
// gemm_s8 epilogue.
//
// One multiply and one add each round on their own, then the activation
// clamps with the accumulator-derived value as the SECOND max/min operand:
// vmaxps/vminps return their second source when either is NaN, and so
// does the scalar `a > b ? a : b`, which also equals std::max(y, 0.0f) /
// std::clamp(y, 0.0f, 6.0f) on every input, NaN and -0.0 included. Scalar
// and AVX2 lanes instantiate the same template, so every caller produces
// the same bits for the same accumulator.
//
// quant_level is the quantizer's level, clamp(round(y / s), -q, q), and
// fake_quant its value times s: quant::fake_quant_buffer and
// quant::quantize_levels_u8 run them in every quantize pass (the float
// plan, the reference interpreter, QuantConv2d, the int8 plan and QModel).
// Three subtleties, each bit-exact to the scalar std:: expression for
// every float y, -0.0, subnormals, +-inf and NaN payloads included:
//
//   * the division stays a division (vdivps): multiplying by the
//     reciprocal rounds differently;
//   * std::round rounds halves away from zero, vroundps to even. The AVX2
//     lanes round as trunc(t + copysign(0x1.fffffep-2f, t)): adding the
//     largest float below 0.5 with t's sign reaches the next integer away
//     from zero exactly when |t|'s fraction is at least one half (a tie
//     k + 0.5 sums to k + 1 - 2^-25, which rounds to k + 1), and at
//     |t| >= 2^23, where t is an integer, the add leaves it unchanged. A
//     zero of t's own sign keeps -0.0 levels, and a NaN passes through
//     the add as its first operand. tests/test_quant_properties.cpp holds
//     both lane types to std::round near every tie, and an exhaustive run
//     matched them on all 2^32 quotients at q = 1, 7, 127 and 32767;
//   * the clamp is min(q, max(-q, level)) with the level as the SECOND
//     operand, so a NaN level (payload included) passes through as it
//     does through std::clamp, whose comparisons are both false, and
//     +-inf lands on +-q.
//
// Include this header only from translation units built with
// -ffp-contract=off (every nb library source is, src/CMakeLists.txt).
// Under contraction the compiler may fuse the multiply and the add into
// one FMA wherever the target has one — the intrinsic forms too, which GCC
// lowers to plain vector arithmetic — and a fused copy rounds differently.
#pragma once

#include <cmath>
#include <cstdint>

#include "tensor/gemm.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace nb {

/// One float per lane.
struct ScalarLanes {
  using F = float;
  using I = int32_t;
  static F cvt(I v) { return static_cast<float>(v); }
  static F splat(float v) { return v; }
  static F mul(F a, F b) { return a * b; }
  static F add(F a, F b) { return a + b; }
  static F max(F a, F b) { return a > b ? a : b; }
  static F min(F a, F b) { return a < b ? a : b; }
  static F div(F a, F b) { return a / b; }
  static F neg(F a) { return -a; }
  /// Half away from zero.
  static F round(F t) { return std::round(t); }
};

#if defined(__AVX2__)
/// Eight floats per lane group (one ymm).
struct Avx2Lanes {
  using F = __m256;
  using I = __m256i;
  static F cvt(I v) { return _mm256_cvtepi32_ps(v); }
  static F splat(float v) { return _mm256_set1_ps(v); }
  static F mul(F a, F b) { return _mm256_mul_ps(a, b); }
  static F add(F a, F b) { return _mm256_add_ps(a, b); }
  static F max(F a, F b) { return _mm256_max_ps(a, b); }
  static F min(F a, F b) { return _mm256_min_ps(a, b); }
  static F div(F a, F b) { return _mm256_div_ps(a, b); }
  static F neg(F a) { return _mm256_xor_ps(a, _mm256_set1_ps(-0.0f)); }
  /// Half away from zero, as trunc(t + copysign(0x1.fffffep-2f, t)).
  static F round(F t) {
    const F half = _mm256_or_ps(_mm256_and_ps(t, _mm256_set1_ps(-0.0f)),
                                _mm256_set1_ps(0x1.fffffep-2f));
    return _mm256_round_ps(_mm256_add_ps(t, half),
                           _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  }
};
#endif

template <class L>
inline typename L::F scale_bias_act(typename L::F acc, typename L::F scale,
                                    typename L::F bias, EpilogueAct act) {
  const typename L::F y = L::add(L::mul(acc, scale), bias);
  switch (act) {
    case EpilogueAct::relu:
      return L::max(L::splat(0.0f), y);
    case EpilogueAct::relu6:
      return L::min(L::splat(6.0f), L::max(L::splat(0.0f), y));
    case EpilogueAct::identity:
      break;
  }
  return y;
}

template <class L>
inline typename L::F requantize(typename L::I acc, typename L::F eff,
                                typename L::F bias, EpilogueAct act) {
  return scale_bias_act<L>(L::cvt(acc), eff, bias, act);
}

/// clamp(round(y / scale), -q, q): the activation level of y.
template <class L>
inline typename L::F quant_level(typename L::F y, typename L::F scale,
                                 typename L::F q) {
  const typename L::F level = L::round(L::div(y, scale));
  return L::min(q, L::max(L::neg(q), level));
}

/// The level of y times scale: y rounded to the activation grid.
template <class L>
inline typename L::F fake_quant(typename L::F y, typename L::F scale,
                                typename L::F q) {
  return L::mul(quant_level<L>(y, scale, q), scale);
}

/// The int8 epilogue over one contiguous run of outputs of one channel:
/// out[i] = requantize(acc[i], scale, bias, act), eight lanes at a time on
/// a CPU with AVX2 (requantize.cpp). Safe when out and acc alias
/// elementwise: element i is read before it is written.
void requantize_row(float* out, const int32_t* acc, int64_t n, float scale,
                    float bias, EpilogueAct act);

}  // namespace nb
