// The epilogue expression of the float and int8 backends — the only float
// arithmetic after their conv accumulations — with one definition for
// every place that runs it:
//
//   y = act(acc * scale + bias)
//
// scale_bias_act is that expression over float accumulators: the float
// GEMM's epilogue, which applies it in registers as each tile's final
// store, and the float depthwise's, which applies it as compaction writes
// each output. requantize is the int8 form: the int32 accumulator converts
// to float first, and then the same expression runs, in
// exporter::requantize_row / requantize_linear_row (QModel, the int8
// depthwise and the linear head) and in the gemm_s8 epilogue.
//
// One multiply and one add each round on their own, then the activation
// clamps with the accumulator-derived value as the SECOND max/min operand:
// vmaxps/vminps return their second source when either is NaN, and so
// does the scalar `a > b ? a : b`, which also equals std::max(y, 0.0f) /
// std::clamp(y, 0.0f, 6.0f) on every input, NaN and -0.0 included. Scalar
// and AVX2 lanes instantiate the same template, so every caller produces
// the same bits for the same accumulator.
//
// Include this header only from translation units built with
// -ffp-contract=off (every nb library source is, src/CMakeLists.txt).
// Under contraction the compiler may fuse the multiply and the add into
// one FMA wherever the target has one — the intrinsic forms too, which GCC
// lowers to plain vector arithmetic — and a fused copy rounds differently.
#pragma once

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

}  // namespace nb
