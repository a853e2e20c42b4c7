// AVX2 instance of requantize_row, selected at runtime by requantize.cpp:
// the requantize expression of tensor/requantize.h eight lanes at a time,
// the scalar lanes on the tail. Built with -mavx2 (no FMA) and, like every
// library source, -ffp-contract=off.
#include <cstdint>

#include <immintrin.h>

#include "tensor/requantize.h"

namespace nb::detail {

namespace {

// One loop per activation: with the activation a constant, its test folds
// out of the loop.
template <EpilogueAct kAct>
void requantize_lanes(float* out, const int32_t* acc, int64_t n, float scale,
                      float bias) {
  const __m256 vs = Avx2Lanes::splat(scale);
  const __m256 vb = Avx2Lanes::splat(bias);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    _mm256_storeu_ps(out + i, requantize<Avx2Lanes>(v, vs, vb, kAct));
  }
  for (; i < n; ++i) {
    out[i] = requantize<ScalarLanes>(acc[i], scale, bias, kAct);
  }
}

}  // namespace

void requantize_row_avx2(float* out, const int32_t* acc, int64_t n,
                         float scale, float bias, EpilogueAct act) {
  switch (act) {
    case EpilogueAct::identity:
      requantize_lanes<EpilogueAct::identity>(out, acc, n, scale, bias);
      return;
    case EpilogueAct::relu:
      requantize_lanes<EpilogueAct::relu>(out, acc, n, scale, bias);
      return;
    case EpilogueAct::relu6:
      requantize_lanes<EpilogueAct::relu6>(out, acc, n, scale, bias);
      return;
  }
}

}  // namespace nb::detail
