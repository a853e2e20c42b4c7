// AVX2+FMA instance of the packed SGEMM kernel. This translation unit is
// compiled with -mavx2 -mfma (see src/tensor/CMakeLists.txt) and only added
// to the build on x86-64 with GCC/Clang; gemm.cpp calls it solely after
// __builtin_cpu_supports verifies both features at runtime, so the default
// build stays safe on pre-AVX2 hardware. Like every library source it
// builds with -ffp-contract=off: its chain is explicit FMA intrinsics
// (NB_GEMM_FMA), and its epilogue a separate multiply and add.
#define NB_GEMM_KERNEL_NAME gemm_packed_avx2
#define NB_GEMM_FMA 1
#include "tensor/gemm_kernel.inc"
