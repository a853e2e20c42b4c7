// AVX512-VNNI instance of the int8 depthwise plane (256-bit vpdpbusd over
// four-tap u8 windows), compiled with -mavx512vnni -mavx512vl;
// depthwise.cpp only calls it after __builtin_cpu_supports confirms both.
#define NB_DW_S8_KERNEL_NAME depthwise_plane_s8_vnni
#define NB_DW_S8_MICRO_VNNI 1
#include "tensor/depthwise_s8_kernel.inc"
