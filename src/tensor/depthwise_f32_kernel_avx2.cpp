// AVX2 instance of the float depthwise plane, compiled with -mavx2
// -ffp-contract=off; depthwise.cpp only calls it after
// __builtin_cpu_supports("avx2").
//
// Layout. The plane goes into the zero-bordered phase planes of
// depthwise_phase.h (border +0.0f), which turn every (k, s, pad, width)
// into one stride-1 1-D convolution over the flat output index f:
//
//   acc[f] = bias + ker[0]*buf[off[0] + f] + ... + ker[k*k-1]*buf[...]
//
// computed eight flat outputs per ymm for f in [0, round8(len)) and then
// compacted into `out`. Blocks of 8 vectors of independent accumulator
// chains run while they last (eight chains cover the vaddps latency), then
// one block of the remaining 1-7 vectors: a run of 1-vector blocks would
// wait out a k*k-deep add chain each, which on the graphs' 10x10 and
// smaller planes measured slower than sharing one block.
//
// The chain. Each accumulator starts at the bias and adds every tap in
// ascending (ki, kj) order — the scalar template's order, not grouped by
// phase — as a separate vmulps then vaddps. With contraction off (so no
// FMA), every in-bounds tap rounds exactly as in the scalar template.
// The scalar template skips out-of-bounds taps; here they read the +0.0
// border and add ker * 0 = +-0.0, which leaves the accumulator unchanged
// unless (a) the accumulator is -0.0, since -0.0 + +0.0 = +0.0, or (b) the
// tap is inf or NaN, since inf * 0 = NaN. A round-to-nearest sum is -0.0
// only when both addends are, so (a) needs the bias to be -0.0. Both cases
// are caught per plane (k*k + 1 compares) and run the scalar template, so
// every output is bit-for-bit the scalar template's. NaN accumulators stay
// NaN either way; which NaN payload survives two NaN addends is up to the
// operand order the compiler picks, on both paths.
//
// Slack. A vector at flat output f0 reads eight floats at (tap offset <
// s*s*plane) + f0, f0 + 8 <= round8(len), so round8(len) floats of slack
// past the phase planes keep every load inside the buffer.
//
// Epilogue. When the caller passes one, compaction maps each valid output
// through act(acc * scale + bias) (tensor/requantize.h) as it writes it,
// eight at a time; the scalar template applies the same expression in its
// own store, so both routes and both fallbacks keep every output's bits.
#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "tensor/depthwise_kernel.h"
#include "tensor/depthwise_phase.h"
#include "tensor/requantize.h"
#include "tensor/scratch.h"

namespace nb::detail {
namespace {

constexpr int64_t kLanes = 8;  // floats per ymm
// Taps per plane the table holds (k <= 16); wider kernels, which no graph
// runs, take the scalar instance.
constexpr int64_t kMaxTaps = 256;
// Lane masks for rows narrower than a vector: kLaneMask + kLanes - n
// enables lanes [0, n).
constexpr int32_t kLaneMask[2 * kLanes] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                           0,  0,  0,  0,  0,  0,  0,  0};

// NB vectors of 8 consecutive flat outputs starting at f0, one independent
// accumulator chain each.
template <int NB>
inline void flat_block(const float* buf, const int64_t* off, const float* wt,
                       int64_t ntaps, __m256 init, int64_t f0, float* acc) {
  __m256 sum[NB];
  for (int b = 0; b < NB; ++b) sum[b] = init;
  const float* base = buf + f0;
  for (int64_t t = 0; t < ntaps; ++t) {
    const float* src = base + off[t];
    const __m256 w = _mm256_broadcast_ss(wt + t);
    for (int b = 0; b < NB; ++b) {
      const __m256 x = _mm256_loadu_ps(src + kLanes * b);
      sum[b] = _mm256_add_ps(sum[b], _mm256_mul_ps(w, x));
    }
  }
  for (int b = 0; b < NB; ++b) {
    _mm256_storeu_ps(acc + f0 + kLanes * b, sum[b]);
  }
}

// The whole flat range [0, len), into acc.
void flat_conv(const float* buf, const int64_t* off, const float* ker,
               int64_t ntaps, float bias, int64_t len, float* acc) {
  const __m256 init = _mm256_set1_ps(bias);
  int64_t f = 0;
  for (; len - f > 7 * kLanes; f += 8 * kLanes) {
    flat_block<8>(buf, off, ker, ntaps, init, f, acc);
  }
  switch ((len - f + kLanes - 1) / kLanes) {
    case 1:
      flat_block<1>(buf, off, ker, ntaps, init, f, acc);
      break;
    case 2:
      flat_block<2>(buf, off, ker, ntaps, init, f, acc);
      break;
    case 3:
      flat_block<3>(buf, off, ker, ntaps, init, f, acc);
      break;
    case 4:
      flat_block<4>(buf, off, ker, ntaps, init, f, acc);
      break;
    case 5:
      flat_block<5>(buf, off, ker, ntaps, init, f, acc);
      break;
    case 6:
      flat_block<6>(buf, off, ker, ntaps, init, f, acc);
      break;
    case 7:
      flat_block<7>(buf, off, ker, ntaps, init, f, acc);
      break;
    default:
      break;
  }
}

// compact_rows with the epilogue: the first ow of every wq flat chains,
// each mapped as it is written. A row of at least one vector runs whole
// vectors, the last moved back to overlap the one before (acc and out
// never alias, so it rewrites identical values); a narrower row moves
// with lane masks, so nothing past it is read or written.
template <EpilogueAct kAct>
void compact_rows_epilogue(const float* acc, float* out, int64_t oh,
                           int64_t ow, int64_t wq,
                           const DepthwiseEpilogue& e) {
  const __m256 scale = _mm256_set1_ps(e.scale);
  const __m256 bias = _mm256_set1_ps(e.bias);
  const auto map = [&](__m256 v) {
    return scale_bias_act<Avx2Lanes>(v, scale, bias, kAct);
  };
  const __m256i mask = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
      kLaneMask + kLanes - std::min(ow, kLanes)));
  for (int64_t oy = 0; oy < oh; ++oy) {
    const float* src = acc + oy * wq;
    float* dst = out + oy * ow;
    if (ow < kLanes) {
      _mm256_maskstore_ps(dst, mask, map(_mm256_maskload_ps(src, mask)));
      continue;
    }
    for (int64_t x = 0; x + kLanes < ow; x += kLanes) {
      _mm256_storeu_ps(dst + x, map(_mm256_loadu_ps(src + x)));
    }
    _mm256_storeu_ps(dst + ow - kLanes, map(_mm256_loadu_ps(src + ow - kLanes)));
  }
}

// The kernel for stride S (S == 0: runtime stride `srt`); strides 1 and 2
// are compile-time so the phase arithmetic is shifts and masks.
template <int S>
void phase_plane(const float* img, const float* ker, float* out, int64_t h,
                 int64_t w, int64_t oh, int64_t ow, int64_t k, int64_t srt,
                 int64_t pad, float bias, const DepthwiseEpilogue* epi) {
  const int64_t s = S > 0 ? S : srt;
  const PhaseLayout l = phase_layout(h, w, oh, ow, k, s, pad);

  // Tap table in ascending (ki, kj) order: the chain's order. The weights
  // are `ker` itself, which is stored in that order.
  int64_t off[kMaxTaps];
  for (int64_t ki = 0; ki < k; ++ki) {
    for (int64_t kj = 0; kj < k; ++kj) {
      off[ki * k + kj] = tap_offset(l, ki, kj);
    }
  }

  const int64_t padded_len = (l.len + kLanes - 1) / kLanes * kLanes;
  // +0.0f is all zero bytes.
  const float* buf = build_phase_planes<S>(img, h, w, pad, l, padded_len, 0);
  float* acc = scratch_acquire(ScratchSlot::kDwAcc,
                               static_cast<size_t>(padded_len));
  flat_conv(buf, off, ker, k * k, bias, l.len, acc);
  if (epi == nullptr) {
    compact_rows(acc, out, oh, ow, l.wq);
    return;
  }
  switch (epi->act) {
    case EpilogueAct::identity:
      compact_rows_epilogue<EpilogueAct::identity>(acc, out, oh, ow, l.wq,
                                                   *epi);
      break;
    case EpilogueAct::relu:
      compact_rows_epilogue<EpilogueAct::relu>(acc, out, oh, ow, l.wq, *epi);
      break;
    case EpilogueAct::relu6:
      compact_rows_epilogue<EpilogueAct::relu6>(acc, out, oh, ow, l.wq, *epi);
      break;
  }
}

// True when a +0.0 border tap is an exact no-op on every chain of this
// plane: the bias is not -0.0 and every tap is finite.
bool border_taps_are_noops(const float* ker, int64_t k, float bias) {
  if (bias == 0.0f && std::signbit(bias)) return false;
  for (int64_t t = 0; t < k * k; ++t) {
    if (!std::isfinite(ker[t])) return false;
  }
  return true;
}

}  // namespace

void depthwise_plane_avx2(const float* img, const float* ker, float* out,
                          int64_t h, int64_t w, int64_t oh, int64_t ow,
                          int64_t k, int64_t s, int64_t pad, float bias,
                          const DepthwiseEpilogue* epi) {
  if (oh <= 0 || ow <= 0) return;
  // The phase layout needs k, s >= 1 and pad >= 0; any other geometry, a
  // kernel past the tap table, and the two chains a zero border tap would
  // change keep the scalar instance's behaviour.
  if (k < 1 || s < 1 || pad < 0 || k * k > kMaxTaps ||
      !border_taps_are_noops(ker, k, bias)) {
    depthwise_plane_generic(img, ker, out, h, w, oh, ow, k, s, pad, bias,
                            epi);
    return;
  }
  switch (s) {
    case 1:
      phase_plane<1>(img, ker, out, h, w, oh, ow, k, s, pad, bias, epi);
      break;
    case 2:
      phase_plane<2>(img, ker, out, h, w, oh, ow, k, s, pad, bias, epi);
      break;
    default:
      phase_plane<0>(img, ker, out, h, w, oh, ow, k, s, pad, bias, epi);
      break;
  }
}

}  // namespace nb::detail
