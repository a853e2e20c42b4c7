// The staged oracle with the AVX2 instance's flags (-mavx2 -mfma
// -ffp-contract=fast; see tests/CMakeLists.txt).
#include "gemm_staged_kernel.h"

#define NB_GEMM_KERNEL_NAME gemm_staged_avx2
#include "gemm_staged_kernel.inc"
