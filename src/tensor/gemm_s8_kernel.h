// Internal declarations for the packed int8 GEMM kernel instances. All
// symbols are compiled from the same source (gemm_s8_kernel.inc); because
// the accumulation is exact integer arithmetic they return bit-identical
// results — gemm_s8.cpp picks the fastest one the CPU supports. Not part of
// the public surface — include "tensor/gemm_s8.h".
//
// Every instance takes the int32 output `c` and an optional epilogue: with
// `epi` null it stores exact int32 sums; otherwise each tile's final K
// block stores requantized floats over the same memory (see gemm_s8.h).
// A is either raw row-major levels (`a`, packed per call) or panels the
// same instance's pack entry built once (`pa`, with `a` unused): row
// blocks one after another, each holding its K blocks in order, and row
// sums [row block][K block][8].
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/gemm_s8.h"

namespace nb::detail {

/// Baseline-ISA instance, always available.
void gemm_s8_packed_generic(int64_t m, int64_t n, int64_t k, const int8_t* a,
                            const GemmS8PackedA* pa, const uint8_t* b,
                            int32_t* c, const GemmS8Epilogue* epi);
void gemm_s8_pack_generic(int64_t m, int64_t k, const int8_t* a,
                          std::vector<int8_t>& panels,
                          std::vector<int32_t>& rowsums);

#if defined(NB_GEMM_S8_AVX2)
/// AVX2 instance (gemm_s8_kernel_avx2.cpp, built with -mavx2). vpmaddubsw
/// saturates its i16 pair sums, so the weights are packed split as
/// w = 2*(w>>1) + (w&1); each half stays exactly representable and the
/// result is still the exact integer sum. Only called after
/// __builtin_cpu_supports("avx2").
void gemm_s8_packed_avx2(int64_t m, int64_t n, int64_t k, const int8_t* a,
                         const GemmS8PackedA* pa, const uint8_t* b, int32_t* c,
                         const GemmS8Epilogue* epi);
void gemm_s8_pack_avx2(int64_t m, int64_t k, const int8_t* a,
                       std::vector<int8_t>& panels,
                       std::vector<int32_t>& rowsums);
#endif

#if defined(NB_GEMM_S8_VNNI)
/// AVX512-VNNI instance (gemm_s8_kernel_vnni.cpp, built with
/// -mavx512vnni -mavx512vl): one vpdpbusd per 4-deep K group, no
/// saturation. Only called after __builtin_cpu_supports confirms
/// avx512vnni and avx512vl.
void gemm_s8_packed_vnni(int64_t m, int64_t n, int64_t k, const int8_t* a,
                         const GemmS8PackedA* pa, const uint8_t* b, int32_t* c,
                         const GemmS8Epilogue* epi);
void gemm_s8_pack_vnni(int64_t m, int64_t k, const int8_t* a,
                       std::vector<int8_t>& panels,
                       std::vector<int32_t>& rowsums);
#endif

}  // namespace nb::detail
