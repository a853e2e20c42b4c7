// AVX2 instance of the int8 depthwise plane (vpmaddwd over zero-extended
// tap pairs), compiled with -mavx2; depthwise.cpp only calls it after
// __builtin_cpu_supports("avx2").
#define NB_DW_S8_KERNEL_NAME depthwise_plane_s8_avx2
#include "tensor/depthwise_s8_kernel.inc"
