// Internal declarations for the int8 depthwise plane instances. The vector
// instances are compiled from one source (depthwise_s8_kernel.inc) over the
// zero-bordered phase-plane layout; because every instance computes the
// exact integer sum they return bit-identical results, and depthwise.cpp
// picks the fastest one the CPU supports. Not part of the public surface —
// include "tensor/depthwise.h".
#pragma once

#include <cstdint>

namespace nb::detail {

/// Portable scalar instance (the dw_plane_s8 template), always available.
/// The vector instances also fall back to it for geometries outside their
/// run table (kernels wider than kDwS8MaxRunTaps * stride * 4 columns).
void depthwise_plane_s8_generic(const uint8_t* img, const int8_t* ker,
                                int32_t* out, int64_t h, int64_t w,
                                int64_t oh, int64_t ow, int64_t k, int64_t s,
                                int64_t pad);

#if defined(NB_DW_S8_AVX2)
/// AVX2 instance (depthwise_s8_kernel_avx2.cpp, built with -mavx2): taps in
/// pairs, u8 windows zero-extended to i16 by vpshufb, vpmaddwd into int32.
/// Only called after __builtin_cpu_supports("avx2").
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
