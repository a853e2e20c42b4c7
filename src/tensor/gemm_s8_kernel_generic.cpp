// Baseline-ISA int8 GEMM instance: built with the project-wide flags only,
// so it runs anywhere. Same exact-integer results as the SIMD instances.
#define NB_GEMM_S8_KERNEL_NAME gemm_s8_packed_generic
#define NB_GEMM_S8_PACK_NAME gemm_s8_pack_generic
#include "tensor/gemm_s8_kernel.inc"
