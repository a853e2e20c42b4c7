// AVX512-VNNI int8 GEMM instance (256-bit vpdpbusd), compiled with
// -mavx512vnni -mavx512vl; gemm_s8.cpp only calls it after
// __builtin_cpu_supports confirms both features.
#define NB_GEMM_S8_KERNEL_NAME gemm_s8_packed_vnni
#define NB_GEMM_S8_PACK_NAME gemm_s8_pack_vnni
#define NB_S8_MICRO_VNNI 1
#include "tensor/gemm_s8_kernel.inc"
