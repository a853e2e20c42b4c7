// The staged oracle with the generic instance's flags (the library's
// -ffp-contract=off; see tests/CMakeLists.txt).
#include "gemm_staged_kernel.h"

#define NB_GEMM_KERNEL_NAME gemm_staged_generic
#include "gemm_staged_kernel.inc"
