// Direct depthwise convolution — no im2col, no GEMM. Shared by Conv2d's
// depthwise forward and the FlatModel inference runtime, in float and in
// offset-u8 -> int32, through two entries:
//
//   * depthwise_plane / depthwise_plane_s8 run one (H,W) plane on the
//     zero-bordered phase-plane layout, whose per-plane setup pays off on
//     larger planes;
//   * depthwise_blocks / depthwise_blocks_s8 run every plane of a step:
//     small planes eight to a vector (one lane each), larger ones one at a
//     time through the per-plane entry. Every depthwise caller (the float
//     and int8 plans, Conv2d) runs its steps through these.
//
// Each dispatches once to the fastest instance this CPU runs; every
// instance of one element type, and both entries, return the same bits, so
// neither the choice of instance nor the route ever shows in results.
#pragma once

#include <cstdint>

#include "tensor/gemm.h"     // EpilogueAct, GemmEpilogue
#include "tensor/gemm_s8.h"  // GemmS8Epilogue

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

/// Planes per depthwise block: one vector of float lanes.
inline constexpr int64_t kDepthwiseLanes = 8;

/// Every plane of one depthwise step, all of one geometry. Plane p reads
/// the h x w input at img + p*h*w, writes the oh x ow output at
/// out + p*oh*ow, and belongs to channel (p / run) % channels, whose k*k
/// kernel is at ker + c*k*k. The plans' batch-interleaved layout keeps one
/// channel's images together (run = batch); NCHW alternates channels
/// (run = 1).
struct DepthwisePlanes {
  int64_t count = 0;
  int64_t channels = 1;
  int64_t run = 1;
  int64_t h = 0, w = 0, oh = 0, ow = 0, k = 1, s = 1, pad = 0;

  int64_t channel(int64_t p) const { return (p / run) % channels; }
};

/// Every plane of `g`. Plane p of channel c stores exactly what
/// depthwise_plane(..., bias ? bias[c] : 0.0f, &e) stores, with e =
/// {epi->scale[c], epi->bias ? epi->bias[c] : 0.0f, epi->act}, or with no
/// epilogue when `epi` is null. The same NaN latitude applies: which
/// payload survives two NaNs meeting is unspecified, and a signaling-NaN
/// start may come out quiet. Reads exactly the inputs and writes exactly
/// the outputs of its planes; temporaries live in each thread's scratch
/// arena.
///
/// Route: planes at or below a crossover on the output plane size run in
/// blocks of up to kDepthwiseLanes consecutive planes, in parallel over
/// blocks. Within a block each plane is one lane (channels at batch 1, one
/// channel's images in a batch, or a mix) and each lane runs the
/// contract's chain, from its start through the in-bounds taps in
/// ascending (ki, kj) order, a separate multiply and add each, with
/// out-of-bounds taps contributing nothing, exactly as if skipped. Larger
/// planes run one at a time through depthwise_plane, in parallel over
/// planes. The crossovers are read off bench_substrate_report's routing
/// table (see depthwise_block.cpp).
void depthwise_blocks(const DepthwisePlanes& g, const float* img,
                      const float* ker, const float* bias, float* out,
                      const GemmEpilogue* epi = nullptr);

/// Integer twin: offset-u8 planes and int8 kernels, each output the exact
/// int32 sum of depthwise_plane_s8, stored as the float
/// requantize(acc, epi.eff[c], epi.bias ? epi.bias[c] : 0.0f, epi.act)
/// (tensor/requantize.h) — bitwise what depthwise_plane_s8 followed by
/// requantize_row stores, which is what planes above its crossover run.
void depthwise_blocks_s8(const DepthwisePlanes& g, const uint8_t* img,
                         const int8_t* ker, float* out,
                         const GemmS8Epilogue& epi);

/// Test hooks for bench_substrate_report's routing table: true when
/// depthwise_blocks (float) / depthwise_blocks_s8 (int8) run planes of
/// oh x ow outputs in blocks rather than one at a time.
bool depthwise_block_route(int64_t oh, int64_t ow);
bool depthwise_block_route_s8(int64_t oh, int64_t ow);

/// Name of the block instance both block entries dispatch to
/// ("dw-block-avx2", or "dw-block-generic" without one).
const char* depthwise_block_kernel_name();

/// Test hooks: every compiled block instance this CPU can execute, generic
/// (the per-plane scalar templates) first, each with the contract of
/// depthwise_blocks (float) and depthwise_blocks_s8 (int8), run in blocks
/// whatever the plane size.
int depthwise_block_instance_count();
const char* depthwise_block_instance_name(int i);
void depthwise_blocks_run_instance(int i, const DepthwisePlanes& g,
                                   const float* img, const float* ker,
                                   const float* bias, float* out,
                                   const GemmEpilogue* epi = nullptr);
void depthwise_blocks_s8_run_instance(int i, const DepthwisePlanes& g,
                                      const uint8_t* img, const int8_t* ker,
                                      float* out, const GemmS8Epilogue& epi);

}  // namespace nb
