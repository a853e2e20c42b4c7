// Direct depthwise convolution of one (H,W) plane — no im2col, no GEMM.
// Shared by Conv2d's depthwise fast path and the FlatModel inference
// runtime, in float (depthwise_plane) and offset-u8 -> int32
// (depthwise_plane_s8). Both dispatch once to the fastest instance this CPU
// runs; every instance of one element type returns the same bits, so the
// choice never shows in results.
#pragma once

#include <cstdint>

#include "tensor/gemm.h"  // EpilogueAct

namespace nb {

/// One plane's epilogue: every output stores act(acc * scale + bias), the
/// float GEMM's epilogue expression (tensor/requantize.h) for one channel.
struct DepthwiseEpilogue {
  float scale = 1.0f;
  float bias = 0.0f;
  EpilogueAct act = EpilogueAct::identity;
};

/// out[oh, ow] = bias + sum_{ki,kj} ker[ki,kj] * img[oy*s+ki-pad, ox*s+kj-pad]
/// with zero padding. `ker` is a k*k row-major kernel.
///
/// Contract: every output is one rounding chain. It starts at `bias` and
/// adds the product of each in-bounds tap in ascending (ki, kj) order, each
/// product rounded to float before its add (the library builds every float
/// depthwise instance with -ffp-contract=off, so no FMA fuses them). The
/// result is therefore bitwise identical to that naive loop — and to every
/// other instance, thread count and plane split — for any float input,
/// NaN, inf, -0.0 and denormals included, except that when two NaNs meet
/// in one add, which payload survives is unspecified. Reads exactly the
/// h*w inputs and writes exactly the oh*ow outputs; temporaries live in the
/// calling thread's scratch arena.
///
/// Epilogue: with `epi`, each output's chain is mapped through it as the
/// output is written, so no second pass over the plane follows; the result
/// is bit-identical to the plane without `epi` followed by the epilogue
/// per output, on every instance.
///
/// Dispatch: the AVX2 instance runs the zero-bordered phase-plane layout
/// and takes every plane shape on which it beats the scalar template
/// (depthwise_route); the scalar template, with 3x3 and 5x5 kernels fully
/// unrolled, runs the rest and every plane on a CPU without AVX2.
void depthwise_plane(const float* img, const float* ker, float* out,
                     int64_t h, int64_t w, int64_t oh, int64_t ow, int64_t k,
                     int64_t s, int64_t pad, float bias,
                     const DepthwiseEpilogue* epi = nullptr);

/// Name of the depthwise_plane vector instance chosen at runtime
/// ("dw-f32-avx2", or "dw-f32-generic" without one); surfaced by the float
/// bench reports and flat_infer.
const char* depthwise_kernel_name();

/// Test hooks, shaped like the int8 ones below: every compiled float
/// instance this CPU can execute, generic (the scalar template) first, each
/// with depthwise_plane's contract.
int depthwise_instance_count();
const char* depthwise_instance_name(int i);
void depthwise_run_instance(int i, const float* img, const float* ker,
                            float* out, int64_t h, int64_t w, int64_t oh,
                            int64_t ow, int64_t k, int64_t s, int64_t pad,
                            float bias,
                            const DepthwiseEpilogue* epi = nullptr);

/// Index of the instance depthwise_plane runs for an oh x ow output plane:
/// the dispatched one above 8 outputs (one vector), the scalar template up
/// to that (a function of the plane shape and the CPU only; see
/// depthwise.cpp).
int depthwise_route(int64_t oh, int64_t ow);

/// Integer twin for the int8 inference path: `img` holds offset-u8 levels
/// (level + 128), `ker` int8 weight levels, and every output is the EXACT
/// int32 sum of ker * (img - 128) over the in-bounds taps — out-of-bounds
/// taps are offset level 0 and contribute nothing, matching the float
/// path's zero padding. No bias and no scaling here; the caller fuses the
/// requantize epilogue into its store. Exact integers mean the result is
/// bitwise invariant to plane splitting, tap order, and ISA. Reads exactly
/// the h*w input bytes and writes exactly the oh*ow outputs; temporaries
/// live in the calling thread's scratch arena.
void depthwise_plane_s8(const uint8_t* img, const int8_t* ker, int32_t* out,
                        int64_t h, int64_t w, int64_t oh, int64_t ow,
                        int64_t k, int64_t s, int64_t pad);

/// Name of the depthwise_plane_s8 instance chosen at runtime ("dw-s8-vnni",
/// "dw-s8-avx2" or "dw-s8-generic"); surfaced by the int8 bench report.
const char* depthwise_s8_kernel_name();

/// Test hooks, shaped like gemm_s8's: every compiled instance this CPU can
/// execute, generic first, each with depthwise_plane_s8's contract.
int depthwise_s8_instance_count();
const char* depthwise_s8_instance_name(int i);
void depthwise_s8_run_instance(int i, const uint8_t* img, const int8_t* ker,
                               int32_t* out, int64_t h, int64_t w, int64_t oh,
                               int64_t ow, int64_t k, int64_t s, int64_t pad);

}  // namespace nb
