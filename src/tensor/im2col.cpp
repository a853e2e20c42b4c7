#include "tensor/im2col.h"

#include <algorithm>

#include "tensor/threadpool.h"

namespace nb {

namespace {

/// dst[t] = src[t * stride] for t in [0, n). Stride 2 — every strided conv
/// the graphs run — is a compile-time constant, which lets the compiler
/// vectorize the gather with shuffles instead of element loads.
template <class T>
void gather(const T* src, int64_t stride, int64_t n, T* dst) {
  if (stride == 2) {
    for (int64_t t = 0; t < n; ++t) dst[t] = src[2 * t];
  } else {
    for (int64_t t = 0; t < n; ++t) dst[t] = src[t * stride];
  }
}

/// Core expansion of one image into the column range starting at `col_off`
/// of a row-major [channels*kh*kw, ld] panel. `ld == oh*ow, col_off == 0`
/// is the classic single-image layout; a batched caller passes
/// `ld == batch*oh*ow` to lay every image's columns side by side.
/// `chan_stride` is the element distance between this image's channel
/// planes (H*W for NCHW, batch*H*W for the batch-interleaved activation
/// layout). Out-of-bounds taps write `pad` (0.0f for floats, the offset
/// level-0 byte 128 for the int8 path).
///
/// Each (c, ki, kj) row splits once into the output columns whose tap falls
/// left of the image, inside it, and right of it, so every in-bounds image
/// row is written as [pad | interior | pad] with no per-tap bounds check:
/// the interior is a copy at stride 1 and a fixed-stride gather otherwise.
template <class T>
void im2col_into(const T* img, int64_t chan_stride, int64_t channels,
                 int64_t height, int64_t width, int64_t kh, int64_t kw,
                 int64_t stride_h, int64_t stride_w, int64_t pad_h,
                 int64_t pad_w, T pad, T* cols, int64_t ld, int64_t col_off) {
  const int64_t oh = conv_out_size(height, kh, stride_h, pad_h);
  const int64_t ow = conv_out_size(width, kw, stride_w, pad_w);
  for (int64_t c = 0; c < channels; ++c) {
    const T* src = img + c * chan_stride;
    for (int64_t ki = 0; ki < kh; ++ki) {
      for (int64_t kj = 0; kj < kw; ++kj) {
        // Tap ix = ox*stride_w + shift lies inside [0, width) exactly for
        // ox in [lo, hi).
        const int64_t shift = kj - pad_w;
        const int64_t lo = std::min(
            ow, shift >= 0 ? 0 : (-shift + stride_w - 1) / stride_w);
        const int64_t hi =
            width - 1 - shift < 0
                ? lo
                : std::clamp((width - 1 - shift) / stride_w + 1, lo, ow);
        T* dst = cols + ((c * kh + ki) * kw + kj) * ld + col_off;
        for (int64_t oy = 0; oy < oh; ++oy, dst += ow) {
          const int64_t iy = oy * stride_h + ki - pad_h;
          if (iy < 0 || iy >= height) {
            std::fill(dst, dst + ow, pad);
            continue;
          }
          std::fill(dst, dst + lo, pad);
          if (lo < hi) {
            const T* first = src + iy * width + lo * stride_w + shift;
            if (stride_w == 1) {
              std::copy(first, first + (hi - lo), dst + lo);
            } else {
              gather(first, stride_w, hi - lo, dst + lo);
            }
          }
          std::fill(dst + hi, dst + ow, pad);
        }
      }
    }
  }
}

}  // namespace

void im2col(const float* img, int64_t channels, int64_t height, int64_t width,
            int64_t kh, int64_t kw, int64_t stride_h, int64_t stride_w,
            int64_t pad_h, int64_t pad_w, float* cols) {
  const int64_t oh = conv_out_size(height, kh, stride_h, pad_h);
  const int64_t ow = conv_out_size(width, kw, stride_w, pad_w);
  im2col_into(img, height * width, channels, height, width, kh, kw, stride_h,
              stride_w, pad_h, pad_w, 0.0f, cols, oh * ow, 0);
}

void im2col_batched(const float* imgs, int64_t batch, int64_t img_stride,
                    int64_t chan_stride, int64_t channels, int64_t height,
                    int64_t width, int64_t kh, int64_t kw, int64_t stride_h,
                    int64_t stride_w, int64_t pad_h, int64_t pad_w,
                    float* cols) {
  const int64_t oh = conv_out_size(height, kh, stride_h, pad_h);
  const int64_t ow = conv_out_size(width, kw, stride_w, pad_w);
  const int64_t plane = oh * ow;
  const int64_t ld = batch * plane;
  parallel_for(batch, 1, [&](int64_t b0, int64_t b1) {
    for (int64_t i = b0; i < b1; ++i) {
      im2col_into(imgs + i * img_stride, chan_stride, channels, height,
                  width, kh, kw, stride_h, stride_w, pad_h, pad_w, 0.0f, cols,
                  ld, i * plane);
    }
  });
}

void im2col_s8_batched(const uint8_t* imgs, int64_t batch, int64_t img_stride,
                       int64_t chan_stride, int64_t channels, int64_t height,
                       int64_t width, int64_t kh, int64_t kw,
                       int64_t stride_h, int64_t stride_w, int64_t pad_h,
                       int64_t pad_w, uint8_t* cols) {
  const int64_t oh = conv_out_size(height, kh, stride_h, pad_h);
  const int64_t ow = conv_out_size(width, kw, stride_w, pad_w);
  const int64_t plane = oh * ow;
  const int64_t ld = batch * plane;
  parallel_for(batch, 1, [&](int64_t b0, int64_t b1) {
    for (int64_t i = b0; i < b1; ++i) {
      im2col_into(imgs + i * img_stride, chan_stride, channels, height,
                  width, kh, kw, stride_h, stride_w, pad_h, pad_w,
                  static_cast<uint8_t>(128), cols, ld, i * plane);
    }
  });
}

void col2im(const float* cols, int64_t channels, int64_t height, int64_t width,
            int64_t kh, int64_t kw, int64_t stride_h, int64_t stride_w,
            int64_t pad_h, int64_t pad_w, float* img) {
  const int64_t oh = conv_out_size(height, kh, stride_h, pad_h);
  const int64_t ow = conv_out_size(width, kw, stride_w, pad_w);
  const int64_t plane = oh * ow;
  for (int64_t c = 0; c < channels; ++c) {
    float* dst = img + c * height * width;
    for (int64_t ki = 0; ki < kh; ++ki) {
      for (int64_t kj = 0; kj < kw; ++kj) {
        const float* src = cols + ((c * kh + ki) * kw + kj) * plane;
        for (int64_t oy = 0; oy < oh; ++oy) {
          const int64_t iy = oy * stride_h + ki - pad_h;
          if (iy < 0 || iy >= height) {
            src += ow;
            continue;
          }
          float* drow = dst + iy * width;
          for (int64_t ox = 0; ox < ow; ++ox) {
            const int64_t ix = ox * stride_w + kj - pad_w;
            if (ix >= 0 && ix < width) drow[ix] += src[ox];
          }
          src += ow;
        }
      }
    }
  }
}

}  // namespace nb
