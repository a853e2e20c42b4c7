// The staged oracle with the AVX2 instance's ISA (-mavx2 -mfma) and
// -ffp-contract=fast, which turns its chain into the FMA chain the AVX2
// instance writes with intrinsics (see tests/CMakeLists.txt).
#include "gemm_staged_kernel.h"

#define NB_GEMM_KERNEL_NAME gemm_staged_avx2
#include "gemm_staged_kernel.inc"
