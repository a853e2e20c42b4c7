// Internal declarations for the depthwise plane instances, float and int8.
// The vector instances all run on the zero-bordered phase-plane layout of
// depthwise_phase.h; every instance of one element type returns the same
// bits (the float ones by keeping each output's rounding chain, the int8
// ones by computing exact integers), and depthwise.cpp picks the fastest
// one the CPU supports. Not part of the public surface — include
// "tensor/depthwise.h".
#pragma once

#include <cstdint>

#include "tensor/depthwise.h"

namespace nb::detail {

/// Portable scalar float instance (the dw_plane template), always
/// available; the reference chain every float instance reproduces. Every
/// float instance applies `epi`, when given, in the store of each output.
void depthwise_plane_generic(const float* img, const float* ker, float* out,
                             int64_t h, int64_t w, int64_t oh, int64_t ow,
                             int64_t k, int64_t s, int64_t pad, float bias,
                             const DepthwiseEpilogue* epi);

/// Portable scalar int8 instance (the dw_plane_s8 template), always
/// available. The vector instances also fall back to it for geometries
/// outside their run table (more than 64 runs: k > 21 at stride 1).
void depthwise_plane_s8_generic(const uint8_t* img, const int8_t* ker,
                                int32_t* out, int64_t h, int64_t w,
                                int64_t oh, int64_t ow, int64_t k, int64_t s,
                                int64_t pad);

/// One block of a DepthwisePlanes: its `live` planes (1 to
/// kDepthwiseLanes consecutive ones) and their channels, one per lane.
/// Spare lanes repeat the last live one.
struct DepthwiseLanes {
  int64_t live = 0;
  int64_t plane[kDepthwiseLanes] = {};
  int64_t channel[kDepthwiseLanes] = {};
};

/// Portable block instances: every live plane of `ln` through its scalar
/// template (the float one with its epilogue, the int8 one followed by
/// requantize per output).
void depthwise_block_generic(const DepthwisePlanes& g,
                             const DepthwiseLanes& ln, const float* img,
                             const float* ker, const float* bias, float* out,
                             const GemmEpilogue* epi);
void depthwise_block_s8_generic(const DepthwisePlanes& g,
                                const DepthwiseLanes& ln, const uint8_t* img,
                                const int8_t* ker, float* out,
                                const GemmS8Epilogue& epi);

#if defined(NB_DW_AVX2)
/// AVX2 block instances (depthwise_block_avx2.cpp, built with -mavx2
/// -ffp-contract=off): the block's planes transposed into the eight lanes
/// of a ymm, every lane's chain bit for bit the scalar template's, and
/// the outputs transposed back through each lane's epilogue (float) or
/// requantize (int8). A block they cannot run exactly (a -0.0 chain start
/// or a non-finite tap, a stride other than 1 or 2, more than 256 taps)
/// goes to the generic instance. Only called after
/// __builtin_cpu_supports("avx2").
void depthwise_block_avx2(const DepthwisePlanes& g, const DepthwiseLanes& ln,
                          const float* img, const float* ker,
                          const float* bias, float* out,
                          const GemmEpilogue* epi);
void depthwise_block_s8_avx2(const DepthwisePlanes& g,
                             const DepthwiseLanes& ln, const uint8_t* img,
                             const int8_t* ker, float* out,
                             const GemmS8Epilogue& epi);

/// AVX2 float instance (depthwise_f32_kernel_avx2.cpp, built with -mavx2
/// -ffp-contract=off): eight flat outputs per ymm, one vmulps + vaddps per
/// tap in ascending (ki, kj) order. Calls the generic instance itself when
/// the bias is -0.0 or a tap is non-finite, the two cases in which a zero
/// border tap is not an exact no-op. Only called after
/// __builtin_cpu_supports("avx2").
void depthwise_plane_avx2(const float* img, const float* ker, float* out,
                          int64_t h, int64_t w, int64_t oh, int64_t ow,
                          int64_t k, int64_t s, int64_t pad, float bias,
                          const DepthwiseEpilogue* epi);

/// AVX2 int8 instance (depthwise_s8_kernel_avx2.cpp, built with -mavx2):
/// taps in pairs, u8 windows zero-extended to i16 by vpshufb, vpmaddwd into
/// int32. Only called after __builtin_cpu_supports("avx2").
void depthwise_plane_s8_avx2(const uint8_t* img, const int8_t* ker,
                             int32_t* out, int64_t h, int64_t w, int64_t oh,
                             int64_t ow, int64_t k, int64_t s, int64_t pad);
#endif

#if defined(NB_DW_S8_VNNI)
/// AVX512-VNNI instance (depthwise_s8_kernel_vnni.cpp, built with
/// -mavx512vnni -mavx512vl): taps in fours, one 256-bit vpdpbusd per
/// four-tap u8 window. Only called after __builtin_cpu_supports confirms
/// avx512vnni and avx512vl.
void depthwise_plane_s8_vnni(const uint8_t* img, const int8_t* ker,
                             int32_t* out, int64_t h, int64_t w, int64_t oh,
                             int64_t ow, int64_t k, int64_t s, int64_t pad);
#endif

}  // namespace nb::detail
