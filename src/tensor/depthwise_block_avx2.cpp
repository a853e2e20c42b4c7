// AVX2 block instances of the depthwise planes, float and int8, compiled
// with -mavx2 -ffp-contract=off; depthwise_block.cpp only calls them after
// __builtin_cpu_supports("avx2").
//
// Lanes. A block is up to eight planes of one geometry, one per float lane
// of a ymm. The block's inputs are transposed into a pixel-major buffer of
// lane vectors, xp[(py*wp + px)*8 + l] = lane l's padded pixel (py, px),
// and its kernels into lane vectors of taps, so one vmulps and one vaddps
// run one tap of eight planes. The padded plane is the image moved by
// `pad` inside a +0.0 border, sized like the phase planes
// (depthwise_phase.h) so that every tap of every output lies inside it.
// The outputs land pixel-major in `at`, each already through its lane's
// epilogue, and each finished output row's whole chunks of eight are
// transposed back into the lanes' planes while the next rows compute. A
// partial block repeats its last live lane in the spare lanes, whose
// results are never stored; 8x8 transposes move whole vectors, the last
// one moved back to overlap the one before, and planes shorter than a
// vector go through a stack copy on the way in and masked stores on the
// way out, so no block reads or writes outside its own planes.
//
// The chain. Each output row runs in blocks of up to eight consecutive
// outputs, one independent accumulator each. Every lane runs the scalar
// template's chain (depthwise.cpp): it starts at the lane's bias and adds
// weight * pixel for each tap in ascending (ki, kj) order, a separate
// vmulps and vaddps each (contraction is off, so no FMA fuses them). Tap
// rows that are out of bounds for the output row are skipped, exactly as
// the template skips them. An out-of-bounds tap column cannot be skipped
// for one output of a block alone; it reads the +0.0 border instead, which
// adds weight * +0.0 = +-0.0, and x + +-0.0 is x unless the weight is inf
// or NaN or x is -0.0. A chain is never -0.0 unless it starts there (a
// round-to-nearest sum is -0.0 only when both addends are), so when no
// lane starts at -0.0 and every tap is finite, every border tap is an
// exact no-op. That is every block of the plans (+0.0 starts, finite
// levels), of Conv2d in training (finite weights, +0.0 or finite biases)
// and of the int8 entry (exact integer sums). Any other block, and any
// stride other than the graphs' 1 and 2, runs the generic instance, whose
// template skips each out-of-bounds tap. As in the template, which NaN
// payload survives when two NaNs meet in one add is unspecified.
//
// int8. The block holds offset-u8 pixels as the floats x - 128 (the
// border, level 0, as +0.0) and int8 taps as floats. Every product is an
// integer of magnitude at most 128 * 127, and every partial sum of at most
// kMaxTaps of them stays below 2^23, so each multiply and add is exact:
// the float accumulator is the exact int32 sum depthwise_plane_s8
// computes, and never -0.0 (it starts at +0.0). requantize
// (tensor/requantize.h) converts that int32 to float before its epilogue,
// which yields this same float, so applying scale_bias_act to the
// accumulator stores exactly requantize's bits.
#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>

#include "tensor/depthwise_kernel.h"
#include "tensor/requantize.h"
#include "tensor/scratch.h"

namespace nb::detail {
namespace {

constexpr int64_t kLanes = kDepthwiseLanes;
// Taps per plane the block runs (k <= 16); wider kernels, which no graph
// runs, take the generic instance. It also bounds the int8 sums below 2^23.
constexpr int64_t kMaxTaps = 256;
// Lane masks for planes shorter than a vector: kLaneMask + kLanes - n
// enables lanes [0, n).
constexpr int32_t kLaneMask[2 * kLanes] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                           0,  0,  0,  0,  0,  0,  0,  0};

// The 4x4 transposes inside each 128-bit half: with t[i] holding rows i
// (low half) and i + 4 (high half) of four columns, returns those four
// columns, each of all eight rows.
inline void transpose4x2(const __m256 t[4], __m256 c[4]) {
  const __m256 u0 = _mm256_unpacklo_ps(t[0], t[1]);
  const __m256 u1 = _mm256_unpackhi_ps(t[0], t[1]);
  const __m256 u2 = _mm256_unpacklo_ps(t[2], t[3]);
  const __m256 u3 = _mm256_unpackhi_ps(t[2], t[3]);
  c[0] = _mm256_shuffle_ps(u0, u2, _MM_SHUFFLE(1, 0, 1, 0));
  c[1] = _mm256_shuffle_ps(u0, u2, _MM_SHUFFLE(3, 2, 3, 2));
  c[2] = _mm256_shuffle_ps(u1, u3, _MM_SHUFFLE(1, 0, 1, 0));
  c[3] = _mm256_shuffle_ps(u1, u3, _MM_SHUFFLE(3, 2, 3, 2));
}

// r[j] = column j of the 8x8 block whose row i is the eight floats at
// src[i]. The halves go straight from memory into place (vinsertf128 from
// memory runs on any vector port), so only the 4x4 steps shuffle.
inline void load_transposed(const float* const* src, __m256 r[kLanes]) {
  const auto rows = [&](int64_t i, int64_t col) {
    return _mm256_insertf128_ps(
        _mm256_castps128_ps256(_mm_loadu_ps(src[i] + col)),
        _mm_loadu_ps(src[i + 4] + col), 1);
  };
  const __m256 lo[4] = {rows(0, 0), rows(1, 0), rows(2, 0), rows(3, 0)};
  const __m256 hi[4] = {rows(0, 4), rows(1, 4), rows(2, 4), rows(3, 4)};
  transpose4x2(lo, r);
  transpose4x2(hi, r + 4);
}

// r[i] lane j <- r[j] lane i, for vectors already in registers.
inline void transpose8(__m256 r[kLanes]) {
  const __m256 lo[4] = {_mm256_permute2f128_ps(r[0], r[4], 0x20),
                        _mm256_permute2f128_ps(r[1], r[5], 0x20),
                        _mm256_permute2f128_ps(r[2], r[6], 0x20),
                        _mm256_permute2f128_ps(r[3], r[7], 0x20)};
  const __m256 hi[4] = {_mm256_permute2f128_ps(r[0], r[4], 0x31),
                        _mm256_permute2f128_ps(r[1], r[5], 0x31),
                        _mm256_permute2f128_ps(r[2], r[6], 0x31),
                        _mm256_permute2f128_ps(r[3], r[7], 0x31)};
  transpose4x2(lo, r);
  transpose4x2(hi, r + 4);
}

// Eight consecutive elements as floats: offset-u8 levels as x - 128, int8
// taps as they are.
inline __m256 load8(const uint8_t* p) {
  int64_t v;
  std::memcpy(&v, p, sizeof(v));
  return _mm256_sub_ps(
      _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(_mm_cvtsi64_si128(v))),
      _mm256_set1_ps(128.0f));
}

inline __m256 load8(const int8_t* p) {
  int64_t v;
  std::memcpy(&v, p, sizeof(v));
  return _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(_mm_cvtsi64_si128(v)));
}

// Elements [j0, j0 + 8) of every row, transposed: r[j] = element j0 + j of
// the eight lanes.
inline void lanes_at(const float* const* rows, int64_t j0, __m256 r[kLanes]) {
  const float* src[kLanes];
  for (int64_t l = 0; l < kLanes; ++l) src[l] = rows[l] + j0;
  load_transposed(src, r);
}

template <typename T>
inline void lanes_at(const T* const* rows, int64_t j0, __m256 r[kLanes]) {
  for (int64_t l = 0; l < kLanes; ++l) r[l] = load8(rows[l] + j0);
  transpose8(r);
}

// put(j, v) for every j < n, v = element j of the eight rows as one lane
// vector.
template <typename T, class Put>
void transpose_in(const T* const* rows, int64_t n, const Put& put) {
  __m256 r[kLanes];
  if (n < kLanes) {
    T part[kLanes][kLanes] = {};
    const T* src[kLanes];
    for (int64_t l = 0; l < kLanes; ++l) {
      std::memcpy(part[l], rows[l], static_cast<size_t>(n) * sizeof(T));
      src[l] = part[l];
    }
    lanes_at(src, 0, r);
    for (int64_t j = 0; j < n; ++j) put(j, r[j]);
    return;
  }
  for (int64_t j0 = 0;; j0 += kLanes) {
    j0 = std::min(j0, n - kLanes);
    lanes_at(rows, j0, r);
    for (int64_t j = 0; j < kLanes; ++j) put(j0 + j, r[j]);
    if (j0 + kLanes >= n) break;
  }
}

// Outputs [j0, j0 + 8) of every live lane: element j0 + j of rows[l] =
// lane l of src[(j0 + j)*8 ...].
inline void put_chunk(const float* src, int64_t j0, float* const* rows,
                      int64_t lanes) {
  __m256 r[kLanes];
  const float* at[kLanes];
  for (int64_t j = 0; j < kLanes; ++j) at[j] = src + (j0 + j) * kLanes;
  load_transposed(at, r);
  for (int64_t l = 0; l < lanes; ++l) _mm256_storeu_ps(rows[l] + j0, r[l]);
}

// Transposes the n outputs of `src` into the lanes' planes as they are
// finished, so the shuffles overlap the next rows' arithmetic: whole
// chunks of eight while they last, then the last eight outputs moved back
// over the chunk before, or a masked store for a plane shorter than a
// vector.
class OutputChunks {
 public:
  OutputChunks(const float* src, int64_t n, float* const* rows,
               int64_t lanes)
      : src_(src), n_(n), rows_(rows), lanes_(lanes) {}

  // Outputs [0, ready) are final.
  void ready(int64_t ready) {
    for (; done_ + kLanes <= ready; done_ += kLanes) {
      put_chunk(src_, done_, rows_, lanes_);
    }
  }

  void finish() {
    if (done_ == n_) return;
    if (n_ >= kLanes) {
      put_chunk(src_, n_ - kLanes, rows_, lanes_);
      return;
    }
    float part[kLanes][kLanes] = {};
    std::memcpy(part, src_, static_cast<size_t>(n_ * kLanes) * sizeof(float));
    __m256 r[kLanes];
    const float* at[kLanes];
    for (int64_t j = 0; j < kLanes; ++j) at[j] = part[j];
    load_transposed(at, r);
    const __m256i mask = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(kLaneMask + kLanes - n_));
    for (int64_t l = 0; l < lanes_; ++l) {
      _mm256_maskstore_ps(rows_[l], mask, r[l]);
    }
  }

 private:
  const float* src_;
  int64_t n_;
  float* const* rows_;
  int64_t lanes_;
  int64_t done_ = 0;
};

// Each lane's epilogue, one lane per plane: the float epilogue or the int8
// requantize (see the file comment), or none.
struct LaneStore {
  bool on = false;
  __m256 scale = _mm256_setzero_ps();
  __m256 bias = _mm256_setzero_ps();
  EpilogueAct act = EpilogueAct::identity;

  __m256 operator()(__m256 v) const {
    return on ? scale_bias_act<Avx2Lanes>(v, scale, bias, act) : v;
  }
};

// Calls block(x, nb, ki0, ki1, a) for every block of nb consecutive
// outputs (oy, ox..ox+nb-1), which read padded pixel (ki, kj) of output
// ox + b at x + b*s*8 + (ki*wp + kj)*8, take the tap rows [ki0, ki1) that
// lie inside the image and store into at + (oy*ow + ox + b)*8. Each row
// runs in blocks of as even a size as eight allows, so that a row of ten
// is two blocks of five chains, not eight and two, and each finished
// row's outputs go to `out`.
template <class Block>
void for_each_row_block(const DepthwisePlanes& g, const float* xp,
                        int64_t wp, float* at, OutputChunks& out,
                        const Block& block) {
  const int64_t blocks = (g.ow + kLanes - 1) / kLanes;
  for (int64_t oy = 0; oy < g.oh; ++oy) {
    const int64_t y0 = oy * g.s - g.pad;
    const int64_t ki0 = std::min(g.k, std::max<int64_t>(0, -y0));
    const int64_t ki1 = std::max(ki0, std::min(g.k, g.h - y0));
    const float* xrow = xp + oy * g.s * wp * kLanes;
    float* arow = at + oy * g.ow * kLanes;
    for (int64_t i = 0, ox0 = 0; i < blocks; ++i) {
      const int64_t ox1 = (i + 1) * g.ow / blocks;
      block(xrow + ox0 * g.s * kLanes, ox1 - ox0, ki0, ki1,
            arow + ox0 * kLanes);
      ox0 = ox1;
    }
    out.ready((oy + 1) * g.ow);
  }
  out.finish();
}

// NB outputs of one row block, all reading the taps w (tap t at w + t*8),
// one chain each, stored through `store`. S and K are the stride and kernel
// size (the graphs' 1 or 2, and 3 or the runtime `krt` when 0), compile-
// time so that the tap loops unroll and every load is one immediate
// offset from x.
template <int S, int K, int NB>
inline void row_block(const float* x, const float* w, int64_t krt,
                         int64_t wp, int64_t ki0, int64_t ki1, __m256 init,
                         const LaneStore& store, float* at) {
  const int64_t k = K > 0 ? K : krt;
  __m256 acc[NB];
  for (int b = 0; b < NB; ++b) acc[b] = init;
  for (int64_t ki = ki0; ki < ki1; ++ki) {
    const float* xrow = x + ki * wp * kLanes;
    const float* wrow = w + ki * k * kLanes;
    for (int64_t kj = 0; kj < k; ++kj) {
      const __m256 wv = _mm256_loadu_ps(wrow + kj * kLanes);
      for (int b = 0; b < NB; ++b) {
        const __m256 px = _mm256_loadu_ps(xrow + (b * S + kj) * kLanes);
        acc[b] = _mm256_add_ps(acc[b], _mm256_mul_ps(wv, px));
      }
    }
  }
  for (int b = 0; b < NB; ++b) {
    _mm256_storeu_ps(at + b * kLanes, store(acc[b]));
  }
}

template <int S, int K>
void run_rows(const DepthwisePlanes& g, const float* xp, int64_t wp,
                const float* w, __m256 init, const LaneStore& store,
                float* at, OutputChunks& out) {
  for_each_row_block(g, xp, wp, at, out, [&](const float* x, int64_t nb,
                                             int64_t ki0, int64_t ki1,
                                             float* a) {
    switch (nb) {
      case 1:
        row_block<S, K, 1>(x, w, g.k, wp, ki0, ki1, init, store, a);
        break;
      case 2:
        row_block<S, K, 2>(x, w, g.k, wp, ki0, ki1, init, store, a);
        break;
      case 3:
        row_block<S, K, 3>(x, w, g.k, wp, ki0, ki1, init, store, a);
        break;
      case 4:
        row_block<S, K, 4>(x, w, g.k, wp, ki0, ki1, init, store, a);
        break;
      case 5:
        row_block<S, K, 5>(x, w, g.k, wp, ki0, ki1, init, store, a);
        break;
      case 6:
        row_block<S, K, 6>(x, w, g.k, wp, ki0, ki1, init, store, a);
        break;
      case 7:
        row_block<S, K, 7>(x, w, g.k, wp, ki0, ki1, init, store, a);
        break;
      default:
        row_block<S, K, 8>(x, w, g.k, wp, ki0, ki1, init, store, a);
        break;
    }
  });
}

// The shapes the block runs: the graphs' strides, and kernels within the
// tap bound.
bool block_fits(const DepthwisePlanes& g) {
  return g.k >= 1 && (g.s == 1 || g.s == 2) && g.pad >= 0 &&
         g.k * g.k <= kMaxTaps;
}

// True when a +0.0 border tap adds nothing to any lane's chain, given the
// chains' starts and the transposed taps: each such tap adds +-0.0, which
// is the identity unless the tap is inf or NaN (inf * 0 is NaN) or the
// chain is -0.0 (-0.0 + +0.0 is +0.0). A round-to-nearest sum is -0.0
// only when both addends are, so a chain is never -0.0 unless it starts
// there.
bool border_taps_are_noops(__m256 start, const float* wt, int64_t taps) {
  const __m256 abs = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  const __m256 inf = _mm256_set1_ps(std::numeric_limits<float>::infinity());
  __m256 finite = _mm256_castsi256_ps(_mm256_set1_epi32(-1));
  for (int64_t t = 0; t < taps; ++t) {
    // Ordered compare: a NaN tap is not below inf.
    finite = _mm256_and_ps(
        finite, _mm256_cmp_ps(_mm256_and_ps(_mm256_loadu_ps(wt + t * kLanes),
                                            abs),
                              inf, _CMP_LT_OQ));
  }
  const __m256i neg_zero = _mm256_cmpeq_epi32(
      _mm256_castps_si256(start), _mm256_set1_epi32(INT32_MIN));
  return _mm256_movemask_ps(finite) == 0xFF &&
         _mm256_movemask_ps(_mm256_castsi256_ps(neg_zero)) == 0;
}

// One block: its planes transposed in, run and transposed out, each chain
// starting at `init` and stored through `store`. Returns false, having
// written nothing, when a +0.0 border tap would not be an exact no-op on
// every chain of the block (never, for the integer sums of the int8
// block); the caller then runs the generic instance.
template <typename T, typename K>
bool run_block(const DepthwisePlanes& g, const DepthwiseLanes& ln,
               const T* img, const K* ker, __m256 init,
               const LaneStore& store, float* out) {
  const int64_t taps = g.k * g.k;
  const int64_t plane = g.oh * g.ow;
  const T* rows[kLanes];
  const K* kers[kLanes];
  float* outs[kLanes];
  for (int64_t l = 0; l < kLanes; ++l) {
    rows[l] = img + ln.plane[l] * g.h * g.w;
    kers[l] = ker + ln.channel[l] * taps;
    outs[l] = out + ln.plane[l] * plane;
  }
  const int64_t hp = std::max(g.h + 2 * g.pad, (g.oh - 1) * g.s + g.k);
  const int64_t wp = std::max(g.w + 2 * g.pad, (g.ow - 1) * g.s + g.k);
  // The transposed taps, then the padded plane.
  float* wt = scratch_acquire(
      ScratchSlot::kDwPhase,
      static_cast<size_t>(taps * kLanes + hp * wp * kLanes));
  transpose_in(kers, taps, [&](int64_t t, __m256 v) {
    _mm256_storeu_ps(wt + t * kLanes, v);
  });
  if (!std::is_same_v<K, int8_t> && !border_taps_are_noops(init, wt, taps)) {
    return false;
  }
  float* xp = wt + taps * kLanes;

  // The padded plane: a +0.0 border, then the image on top.
  const __m256 zero = _mm256_setzero_ps();
  const auto fill = [&](int64_t py, int64_t px0, int64_t px1) {
    float* p = xp + (py * wp + px0) * kLanes;
    for (int64_t px = px0; px < px1; ++px, p += kLanes) {
      _mm256_storeu_ps(p, zero);
    }
  };
  for (int64_t py = 0; py < hp; ++py) {
    if (py < g.pad || py >= g.pad + g.h) {
      fill(py, 0, wp);
    } else {
      fill(py, 0, g.pad);
      fill(py, g.pad + g.w, wp);
    }
  }
  float* dst = xp + (g.pad * wp + g.pad) * kLanes;
  int64_t x = 0, next = 0;
  transpose_in(rows, g.h * g.w, [&](int64_t j, __m256 v) {
    if (j != next) {  // the last chunk moved back over the one before
      const int64_t y = j / g.w;
      x = j - y * g.w;
      dst = xp + ((y + g.pad) * wp + x + g.pad) * kLanes;
    }
    next = j + 1;
    _mm256_storeu_ps(dst, v);
    dst += kLanes;
    if (++x == g.w) {
      x = 0;
      dst += (wp - g.w) * kLanes;
    }
  });

  float* at = scratch_acquire(ScratchSlot::kDwAcc,
                              static_cast<size_t>(plane * kLanes));
  OutputChunks chunks(at, plane, outs, ln.live);
  const bool k3 = g.k == 3;
  if (g.s == 1) {
    if (k3) {
      run_rows<1, 3>(g, xp, wp, wt, init, store, at, chunks);
    } else {
      run_rows<1, 0>(g, xp, wp, wt, init, store, at, chunks);
    }
  } else if (k3) {
    run_rows<2, 3>(g, xp, wp, wt, init, store, at, chunks);
  } else {
    run_rows<2, 0>(g, xp, wp, wt, init, store, at, chunks);
  }
  return true;
}

}  // namespace

void depthwise_block_avx2(const DepthwisePlanes& g, const DepthwiseLanes& ln,
                          const float* img, const float* ker,
                          const float* bias, float* out,
                          const GemmEpilogue* epi) {
  if (g.oh <= 0 || g.ow <= 0) return;
  float start[kLanes] = {};
  float scale[kLanes] = {};
  float shift[kLanes] = {};
  for (int64_t l = 0; l < ln.live; ++l) {
    const int64_t c = ln.channel[l];
    if (bias != nullptr) start[l] = bias[c];
    if (epi != nullptr) {
      scale[l] = epi->scale[c];
      if (epi->bias != nullptr) shift[l] = epi->bias[c];
    }
  }
  LaneStore store;
  if (epi != nullptr) {
    store = {true, _mm256_loadu_ps(scale), _mm256_loadu_ps(shift), epi->act};
  }
  if (!block_fits(g) ||
      !run_block(g, ln, img, ker, _mm256_loadu_ps(start), store, out)) {
    depthwise_block_generic(g, ln, img, ker, bias, out, epi);
  }
}

void depthwise_block_s8_avx2(const DepthwisePlanes& g,
                             const DepthwiseLanes& ln, const uint8_t* img,
                             const int8_t* ker, float* out,
                             const GemmS8Epilogue& epi) {
  if (g.oh <= 0 || g.ow <= 0) return;
  float scale[kLanes] = {};
  float shift[kLanes] = {};
  for (int64_t l = 0; l < ln.live; ++l) {
    const int64_t c = ln.channel[l];
    scale[l] = epi.eff[c];
    if (epi.bias != nullptr) shift[l] = epi.bias[c];
  }
  const LaneStore store{true, _mm256_loadu_ps(scale), _mm256_loadu_ps(shift),
                        epi.act};
  if (!block_fits(g) ||
      !run_block(g, ln, img, ker, _mm256_setzero_ps(), store, out)) {
    depthwise_block_s8_generic(g, ln, img, ker, out, epi);
  }
}

}  // namespace nb::detail
