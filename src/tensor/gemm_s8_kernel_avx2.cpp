// AVX2 int8 GEMM instance (split-weight vpmaddubsw scheme), compiled with
// -mavx2; gemm_s8.cpp only calls it after __builtin_cpu_supports("avx2").
#define NB_GEMM_S8_KERNEL_NAME gemm_s8_packed_avx2
#define NB_GEMM_S8_PACK_NAME gemm_s8_pack_avx2
#define NB_S8_MICRO_AVX2 1
#include "tensor/gemm_s8_kernel.inc"
