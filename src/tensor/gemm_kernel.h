// Internal declarations for the packed SGEMM kernel instances. Both symbols
// are compiled from the same source (gemm_kernel.inc); they differ in their
// tile shape and in their chain, a separate multiply and add (generic) or
// one fused multiply-add (AVX2); gemm.cpp picks one at runtime. Not part of
// the public surface — include "tensor/gemm.h".
#pragma once

#include <cstdint>

#include "tensor/gemm.h"

namespace nb::detail {

/// Baseline-ISA instance, always available. Same operands as nb::gemm, with
/// m, n, k > 0 and alpha != 0 (the front end handles the BLAS corners).
/// With an epilogue (alpha 1, beta 0, A not transposed), the final K block
/// stores the epilogue's values instead of the product.
void gemm_packed_generic(bool trans_a, bool trans_b, int64_t m, int64_t n,
                         int64_t k, float alpha, const float* a,
                         const float* b, float beta, float* c,
                         const GemmEpilogue* epi);

#if defined(NB_GEMM_AVX2)
/// AVX2+FMA instance (gemm_kernel_avx2.cpp, built with -mavx2 -mfma on
/// x86-64). Only called after __builtin_cpu_supports confirms both features.
void gemm_packed_avx2(bool trans_a, bool trans_b, int64_t m, int64_t n,
                      int64_t k, float alpha, const float* a, const float* b,
                      float beta, float* c, const GemmEpilogue* epi);
#endif

}  // namespace nb::detail
