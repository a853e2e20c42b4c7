// requantize_row (requantize.h): the portable loop and the dispatch to the
// AVX2 instance (requantize_avx2.cpp). Both evaluate the one requantize
// expression that the gemm_s8 epilogue evaluates too, and both build with
// -ffp-contract=off, so every copy rounds the multiply and the add on
// their own.
#include "tensor/requantize.h"

namespace nb {

#if defined(NB_REQUANT_AVX2)
namespace detail {
void requantize_row_avx2(float* out, const int32_t* acc, int64_t n,
                         float scale, float bias, EpilogueAct act);
}  // namespace detail
#endif

namespace {

// One loop per activation: with the activation a constant, its test folds
// out of the loop.
template <EpilogueAct kAct>
void requantize_scalar(float* out, const int32_t* acc, int64_t n, float scale,
                       float bias) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] = requantize<ScalarLanes>(acc[i], scale, bias, kAct);
  }
}

}  // namespace

void requantize_row(float* out, const int32_t* acc, int64_t n, float scale,
                    float bias, EpilogueAct act) {
#if defined(NB_REQUANT_AVX2)
  // The row runs over every output of an int8 depthwise plane, so width
  // matters; the AVX2 instance is the same expression eight lanes wide.
  static const bool use_avx2 = __builtin_cpu_supports("avx2");
  if (use_avx2) {
    detail::requantize_row_avx2(out, acc, n, scale, bias, act);
    return;
  }
#endif
  switch (act) {
    case EpilogueAct::identity:
      requantize_scalar<EpilogueAct::identity>(out, acc, n, scale, bias);
      return;
    case EpilogueAct::relu:
      requantize_scalar<EpilogueAct::relu>(out, acc, n, scale, bias);
      return;
    case EpilogueAct::relu6:
      requantize_scalar<EpilogueAct::relu6>(out, acc, n, scale, bias);
      return;
  }
}

}  // namespace nb
