// The zero-bordered phase-plane layout behind every vector depthwise
// instance: the int8 ones (depthwise_s8_kernel.inc) and the float one
// (depthwise_f32_kernel_avx2.cpp). Only those SIMD translation units
// include it, and everything here has internal linkage: each instance
// compiles its own copy with its own ISA flags, so an out-of-line copy
// built for one ISA can never be linked into another instance.
//
// Layout. The plane is copied into s*s phase planes, each hq x wq
// elements: phase (a, b) row r, column c holds padded pixel
// (r*s + a, c*s + b), where the padded plane is the image moved by `pad`
// and surrounded by the element type's zero (byte 128 = level 0 for
// offset-u8, +0.0f for float). Tap (ki, kj) of output (oy, ox) reads
// padded pixel (oy*s + ki, ox*s + kj), i.e. phase (ki % s, kj % s) at row
// oy + ki/s, column ox + kj/s. With every phase plane using the same row
// pitch wq, that is the flat index f = oy*wq + ox plus a per-tap constant
// (tap_offset), so every (k, s, pad, width) becomes one stride-1 1-D
// convolution over f in [0, len), len = (oh-1)*wq + ow. Columns ox >= ow
// of each output row are garbage and never leave the flat accumulator;
// compact_rows copies the valid ones out. Stride 2 de-interleaves rows AND
// columns by parity (rather than striding the loads) precisely so that the
// output pitch equals the phase-row pitch: after the split, consecutive
// outputs read consecutive elements for every tap.
//
// Sizing. Phase planes are max(h + 2*pad, (oh-1)*s + k) rows by
// max(w + 2*pad, (ow-1)*s + k) columns before the split: the second term
// covers a kernel wider than the padded plane (conv_out_size truncates
// toward zero, so h = w = 4, k = 5, s = 2, pad = 0 still yields one
// output), where the taps of that output would otherwise spill into the
// next phase row. Valid outputs then read only inside their own phase
// plane. A kernel that computes flat outputs in whole vectors reads past
// `len`; build_phase_planes appends the slack it asks for, filled with the
// same zero, which only ever feeds garbage columns.
#pragma once

#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "tensor/scratch.h"

namespace nb::detail {
namespace {

struct PhaseLayout {
  int64_t s = 1;      // stride: s*s phase planes
  int64_t wq = 0;     // row pitch of every phase plane and of the outputs
  int64_t plane = 0;  // elements per phase plane (hq * wq)
  int64_t len = 0;    // flat outputs: (oh-1)*wq + ow
};

inline PhaseLayout phase_layout(int64_t h, int64_t w, int64_t oh, int64_t ow,
                                int64_t k, int64_t s, int64_t pad) {
  const int64_t hp = std::max(h + 2 * pad, (oh - 1) * s + k);
  const int64_t wp = std::max(w + 2 * pad, (ow - 1) * s + k);
  PhaseLayout l;
  l.s = s;
  l.wq = (wp + s - 1) / s;
  l.plane = (hp + s - 1) / s * l.wq;
  l.len = (oh - 1) * l.wq + ow;
  return l;
}

/// Element offset of tap (ki, kj) from flat output 0 in the phase buffer.
inline int64_t tap_offset(const PhaseLayout& l, int64_t ki, int64_t kj) {
  const int64_t s = l.s;
  return ((ki % s) * s + kj % s) * l.plane + (ki / s) * l.wq + kj / s;
}

// memcpy for the short rows these kernels move, inlined: two overlapping
// fixed-size moves cover any n in [S, 2S], so every access stays inside
// [src, src + n) and [dst, dst + n).
inline void copy_bytes(void* dst_v, const void* src_v, int64_t n) {
  auto* dst = static_cast<uint8_t*>(dst_v);
  const auto* src = static_cast<const uint8_t*>(src_v);
  if (n >= 32) {
    int64_t i = 0;
    for (; i + 32 < n; i += 32) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                          _mm256_loadu_si256(
                              reinterpret_cast<const __m256i*>(src + i)));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + n - 32),
                        _mm256_loadu_si256(
                            reinterpret_cast<const __m256i*>(src + n - 32)));
  } else if (n >= 16) {
    const __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src));
    const __m128i b =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + n - 16));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst), a);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + n - 16), b);
  } else if (n >= 8) {
    uint64_t a, b;
    std::memcpy(&a, src, 8);
    std::memcpy(&b, src + n - 8, 8);
    std::memcpy(dst, &a, 8);
    std::memcpy(dst + n - 8, &b, 8);
  } else if (n >= 4) {
    uint32_t a, b;
    std::memcpy(&a, src, 4);
    std::memcpy(&b, src + n - 4, 4);
    std::memcpy(dst, &a, 4);
    std::memcpy(dst + n - 4, &b, 4);
  } else {
    for (int64_t i = 0; i < n; ++i) dst[i] = src[i];
  }
}

// The stride-2 column split: n elements into even[] = src[0, 2, ...] and
// odd[] = src[1, 3, ...]. Vector chunks start at even x so parity is
// preserved; the last chunk is moved back to overlap the previous one
// (rewriting identical elements) and a trailing element of odd n is placed
// alone.
inline void deinterleave2(const uint8_t* src, int64_t n, uint8_t* even,
                          uint8_t* odd) {
  const __m128i split = _mm_setr_epi8(0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7,
                                      9, 11, 13, 15);
  int64_t x = 0;
  if (n >= 32) {
    const __m256i split2 = _mm256_broadcastsi128_si256(split);
    const auto chunk32 = [&](int64_t at) {
      // Per lane: 8 evens | 8 odds; the qword permute gathers the evens of
      // both lanes into the low half and the odds into the high half.
      __m256i v = _mm256_shuffle_epi8(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + at)),
          split2);
      v = _mm256_permute4x64_epi64(v, 0xD8);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(even + at / 2),
                       _mm256_castsi256_si128(v));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(odd + at / 2),
                       _mm256_extracti128_si256(v, 1));
    };
    for (; x + 32 <= n; x += 32) chunk32(x);
    if (x + 1 < n) chunk32((n - 32) & ~int64_t{1});
  } else if (n >= 16) {
    const auto chunk16 = [&](int64_t at) {
      const __m128i v = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + at)), split);
      _mm_storel_epi64(reinterpret_cast<__m128i*>(even + at / 2), v);
      _mm_storel_epi64(reinterpret_cast<__m128i*>(odd + at / 2),
                       _mm_unpackhi_epi64(v, v));
    };
    chunk16(0);
    if (n >= 18) chunk16((n - 16) & ~int64_t{1});
  } else {
    for (; x + 1 < n; x += 2) {
      even[x / 2] = src[x];
      odd[x / 2] = src[x + 1];
    }
  }
  if (n % 2 == 1) even[n / 2] = src[n - 1];
}

inline void deinterleave2(const float* src, int64_t n, float* even,
                          float* odd) {
  int64_t x = 0;
  if (n >= 16) {
    const auto chunk16 = [&](int64_t at) {
      // shufps picks lanes (0,2) / (1,3) of each 128-bit half of a and b;
      // the qword permute puts a's half before b's.
      const __m256 a = _mm256_loadu_ps(src + at);
      const __m256 b = _mm256_loadu_ps(src + at + 8);
      const __m256 ev = _mm256_shuffle_ps(a, b, _MM_SHUFFLE(2, 0, 2, 0));
      const __m256 od = _mm256_shuffle_ps(a, b, _MM_SHUFFLE(3, 1, 3, 1));
      _mm256_storeu_ps(even + at / 2,
                       _mm256_castpd_ps(_mm256_permute4x64_pd(
                           _mm256_castps_pd(ev), 0xD8)));
      _mm256_storeu_ps(odd + at / 2,
                       _mm256_castpd_ps(_mm256_permute4x64_pd(
                           _mm256_castps_pd(od), 0xD8)));
    };
    for (; x + 16 <= n; x += 16) chunk16(x);
    if (x + 1 < n) chunk16((n - 16) & ~int64_t{1});
  } else if (n >= 8) {
    const auto chunk8 = [&](int64_t at) {
      const __m128 a = _mm_loadu_ps(src + at);
      const __m128 b = _mm_loadu_ps(src + at + 4);
      _mm_storeu_ps(even + at / 2,
                    _mm_shuffle_ps(a, b, _MM_SHUFFLE(2, 0, 2, 0)));
      _mm_storeu_ps(odd + at / 2,
                    _mm_shuffle_ps(a, b, _MM_SHUFFLE(3, 1, 3, 1)));
    };
    chunk8(0);
    if (n >= 10) chunk8((n - 8) & ~int64_t{1});
  } else {
    for (; x + 1 < n; x += 2) {
      even[x / 2] = src[x];
      odd[x / 2] = src[x + 1];
    }
  }
  if (n % 2 == 1) even[n / 2] = src[n - 1];
}

/// Builds this thread's phase buffer in the kDwPhase slot and returns it:
/// the s*s phase planes holding the h x w image, followed by `slack`
/// elements. Every other element is the element type's zero, whose bytes
/// all equal `zero_byte`. S is the stride when it is a compile-time 1 or
/// 2, so the phase arithmetic is shifts and masks: at the graphs' narrowest
/// planes the per-plane setup is a large share of the work. S == 0 takes
/// the layout's runtime stride and a scalar scatter.
template <int S, typename T>
inline T* build_phase_planes(const T* img, int64_t h, int64_t w, int64_t pad,
                             const PhaseLayout& l, int64_t slack,
                             uint8_t zero_byte) {
  const int64_t s = S > 0 ? S : l.s;
  const size_t bytes =
      static_cast<size_t>(s * s * l.plane + slack) * sizeof(T);
  T* buf = reinterpret_cast<T*>(scratch_acquire(
      ScratchSlot::kDwPhase, (bytes + sizeof(float) - 1) / sizeof(float)));
  // One fill of the whole buffer, then the image on top: filling only the
  // border instead costs a short fill per phase row and measured no
  // faster, even on the largest planes.
  std::memset(buf, zero_byte, bytes);
  for (int64_t y = 0; y < h; ++y) {
    const int64_t py = y + pad;
    T* prow = buf + (py % s) * s * l.plane + (py / s) * l.wq;
    const T* src = img + y * w;
    if (s == 1) {
      copy_bytes(prow + pad, src, w * static_cast<int64_t>(sizeof(T)));
    } else if (s == 2) {
      // Even image columns land in phase column parity pad % 2, odd ones
      // in the other; both start at the padded column they map to.
      T* even = prow + (pad % 2) * l.plane + pad / 2;
      T* odd = prow + (1 - pad % 2) * l.plane + (pad + 1) / 2;
      deinterleave2(src, w, even, odd);
    } else {
      for (int64_t x = 0; x < w; ++x) {
        const int64_t px = x + pad;
        prow[(px % s) * l.plane + px / s] = src[x];
      }
    }
  }
  return buf;
}

/// Compaction: the first ow of every wq flat outputs are the valid ones.
template <typename T>
inline void compact_rows(const T* acc, T* out, int64_t oh, int64_t ow,
                         int64_t wq) {
  for (int64_t oy = 0; oy < oh; ++oy) {
    copy_bytes(out + oy * ow, acc + oy * wq,
               ow * static_cast<int64_t>(sizeof(T)));
  }
}

}  // namespace
}  // namespace nb::detail
