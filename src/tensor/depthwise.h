// Direct depthwise convolution of one (H,W) plane — no im2col, no GEMM.
// Shared by Conv2d's depthwise fast path and the FlatModel inference
// runtime. Taps accumulate in ascending (ki, kj) order after the bias, the
// same order for border and interior outputs, so splitting a plane changes
// nothing numerically and results are bitwise identical to the naive loop.
#pragma once

#include <cstdint>

namespace nb {

/// out[oh, ow] = bias + sum_{ki,kj} ker[ki,kj] * img[oy*s+ki-pad, ox*s+kj-pad]
/// with zero padding. `ker` is a k*k row-major kernel. Kernel sizes 3 and 5
/// dispatch to fully unrolled tap loops.
void depthwise_plane(const float* img, const float* ker, float* out,
                     int64_t h, int64_t w, int64_t oh, int64_t ow, int64_t k,
                     int64_t s, int64_t pad, float bias);

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
