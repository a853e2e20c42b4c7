// The memory-staged SGEMM kernel (gemm_staged_kernel.inc), compiled once per
// float GEMM instance with that instance's flags: the bitwise oracle of
// test_gemm's instance sweep. NN layout only, m, n, k > 0, alpha != 0.
#pragma once

#include <cstdint>

namespace nb::detail {

void gemm_staged_generic(int64_t m, int64_t n, int64_t k, float alpha,
                         const float* a, const float* b, float beta, float* c);

#if defined(NB_GEMM_STAGED_AVX2)
void gemm_staged_avx2(int64_t m, int64_t n, int64_t k, float alpha,
                      const float* a, const float* b, float beta, float* c);
#endif

}  // namespace nb::detail
