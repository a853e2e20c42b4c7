#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "tensor/im2col.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace nb {
namespace {

TEST(Im2col, OutSizeFormula) {
  EXPECT_EQ(conv_out_size(8, 3, 1, 1), 8);   // same padding
  EXPECT_EQ(conv_out_size(8, 3, 2, 1), 4);   // stride 2
  EXPECT_EQ(conv_out_size(8, 1, 1, 0), 8);   // pointwise
  EXPECT_EQ(conv_out_size(5, 5, 1, 0), 1);   // valid full-size
  EXPECT_EQ(conv_out_size(5, 3, 1, 2), 7);   // full padding
}

TEST(Im2col, IdentityFor1x1) {
  Rng rng(31);
  const int64_t c = 3, h = 4, w = 5;
  std::vector<float> img(static_cast<size_t>(c * h * w));
  for (auto& v : img) v = rng.normal();
  std::vector<float> cols(img.size());
  im2col(img.data(), c, h, w, 1, 1, 1, 1, 0, 0, cols.data());
  EXPECT_EQ(img, cols);
}

TEST(Im2col, KnownPatch3x3) {
  // 1 channel, 3x3 image, 3x3 kernel, same padding -> center column holds
  // the full image.
  std::vector<float> img{1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<float> cols(9 * 9);
  im2col(img.data(), 1, 3, 3, 3, 3, 1, 1, 1, 1, cols.data());
  // Column layout: [kh*kw, oh*ow]; the center tap (ki=1, kj=1) is row 4.
  for (int64_t p = 0; p < 9; ++p) {
    EXPECT_EQ(cols[static_cast<size_t>(4 * 9 + p)], img[static_cast<size_t>(p)]);
  }
  // Top-left tap at output (0,0) looks at (-1,-1): zero padding.
  EXPECT_EQ(cols[0], 0.0f);
  // Top-left tap at output (1,1) looks at (0,0) = 1.
  EXPECT_EQ(cols[static_cast<size_t>(0 * 9 + 4)], 1.0f);
}

TEST(Im2col, Col2imIsAdjoint) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining property
  // of the adjoint pair used in conv backward.
  Rng rng(33);
  const int64_t c = 2, h = 6, w = 5, k = 3, stride = 2, pad = 1;
  const int64_t oh = conv_out_size(h, k, stride, pad);
  const int64_t ow = conv_out_size(w, k, stride, pad);
  const int64_t cols_n = c * k * k * oh * ow;

  std::vector<float> x(static_cast<size_t>(c * h * w));
  std::vector<float> y(static_cast<size_t>(cols_n));
  for (auto& v : x) v = rng.normal();
  for (auto& v : y) v = rng.normal();

  std::vector<float> cols(static_cast<size_t>(cols_n));
  im2col(x.data(), c, h, w, k, k, stride, stride, pad, pad, cols.data());
  double lhs = 0.0;
  for (size_t i = 0; i < cols.size(); ++i) lhs += static_cast<double>(cols[i]) * y[i];

  std::vector<float> xback(x.size(), 0.0f);
  col2im(y.data(), c, h, w, k, k, stride, stride, pad, pad, xback.data());
  double rhs = 0.0;
  for (size_t i = 0; i < x.size(); ++i) rhs += static_cast<double>(x[i]) * xback[i];

  EXPECT_NEAR(lhs, rhs, 1e-3 * (1.0 + std::abs(lhs)));
}

TEST(Im2col, StridedColumnsSubsample) {
  std::vector<float> img{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15};
  // 1x4x4, k=1, stride 2 -> picks every other pixel.
  std::vector<float> cols(4);
  im2col(img.data(), 1, 4, 4, 1, 1, 2, 2, 0, 0, cols.data());
  EXPECT_EQ(cols[0], 0.0f);
  EXPECT_EQ(cols[1], 2.0f);
  EXPECT_EQ(cols[2], 8.0f);
  EXPECT_EQ(cols[3], 10.0f);
}

TEST(Im2colBatched, EachImageColumnRangeMatchesPerImageIm2col) {
  Rng rng(7);
  const int64_t n = 3, c = 2, h = 5, w = 4, k = 3;
  const int64_t oh = conv_out_size(h, k, 1, 1);
  const int64_t ow = conv_out_size(w, k, 1, 1);
  const int64_t plane = oh * ow;
  std::vector<float> imgs(static_cast<size_t>(n * c * h * w));
  for (auto& v : imgs) v = rng.normal();

  // NCHW addressing: image stride c*h*w, channel stride h*w.
  std::vector<float> batched(static_cast<size_t>(c * k * k * n * plane));
  im2col_batched(imgs.data(), n, c * h * w, h * w, c, h, w, k, k, 1, 1, 1, 1,
                 batched.data());

  std::vector<float> single(static_cast<size_t>(c * k * k * plane));
  for (int64_t i = 0; i < n; ++i) {
    im2col(imgs.data() + i * c * h * w, c, h, w, k, k, 1, 1, 1, 1,
           single.data());
    for (int64_t r = 0; r < c * k * k; ++r) {
      for (int64_t p = 0; p < plane; ++p) {
        EXPECT_EQ(batched[static_cast<size_t>(r * n * plane + i * plane + p)],
                  single[static_cast<size_t>(r * plane + p)])
            << "image " << i << " row " << r << " col " << p;
      }
    }
  }
}

TEST(Im2colBatched, InterleavedInputAddressingMatchesNchw) {
  // The batch-interleaved activation layout ([C, batch*H*W]) must expand to
  // the exact same panel as NCHW: only the input strides differ.
  Rng rng(9);
  const int64_t n = 2, c = 3, h = 4, w = 4, k = 3;
  const int64_t plane = conv_out_size(h, k, 1, 1) * conv_out_size(w, k, 1, 1);
  std::vector<float> nchw(static_cast<size_t>(n * c * h * w));
  for (auto& v : nchw) v = rng.normal();
  std::vector<float> inter(nchw.size());
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t ch = 0; ch < c; ++ch) {
      for (int64_t t = 0; t < h * w; ++t) {
        inter[static_cast<size_t>((ch * n + i) * h * w + t)] =
            nchw[static_cast<size_t>((i * c + ch) * h * w + t)];
      }
    }
  }
  std::vector<float> a(static_cast<size_t>(c * k * k * n * plane));
  std::vector<float> b(a.size());
  im2col_batched(nchw.data(), n, c * h * w, h * w, c, h, w, k, k, 1, 1, 1, 1,
                 a.data());
  im2col_batched(inter.data(), n, h * w, n * h * w, c, h, w, k, k, 1, 1, 1,
                 1, b.data());
  EXPECT_EQ(a, b);
}

// Verbatim copies of the per-tap expansion loops im2col_batched and
// im2col_s8_batched ran before their rows were split into
// [pad | interior | pad] runs: the bitwise oracle for the split.
void im2col_into_per_tap(const float* img, int64_t chan_stride,
                         int64_t channels, int64_t height, int64_t width,
                         int64_t kh, int64_t kw, int64_t stride_h,
                         int64_t stride_w, int64_t pad_h, int64_t pad_w,
                         float* cols, int64_t ld, int64_t col_off) {
  const int64_t oh = conv_out_size(height, kh, stride_h, pad_h);
  const int64_t ow = conv_out_size(width, kw, stride_w, pad_w);
  for (int64_t c = 0; c < channels; ++c) {
    const float* src = img + c * chan_stride;
    for (int64_t ki = 0; ki < kh; ++ki) {
      for (int64_t kj = 0; kj < kw; ++kj) {
        float* dst = cols + ((c * kh + ki) * kw + kj) * ld + col_off;
        for (int64_t oy = 0; oy < oh; ++oy) {
          const int64_t iy = oy * stride_h + ki - pad_h;
          if (iy < 0 || iy >= height) {
            std::fill(dst, dst + ow, 0.0f);
            dst += ow;
            continue;
          }
          const float* srow = src + iy * width;
          for (int64_t ox = 0; ox < ow; ++ox) {
            const int64_t ix = ox * stride_w + kj - pad_w;
            *dst++ = (ix >= 0 && ix < width) ? srow[ix] : 0.0f;
          }
        }
      }
    }
  }
}

void im2col_s8_into_per_tap(const uint8_t* img, int64_t chan_stride,
                            int64_t channels, int64_t height, int64_t width,
                            int64_t kh, int64_t kw, int64_t stride_h,
                            int64_t stride_w, int64_t pad_h, int64_t pad_w,
                            uint8_t* cols, int64_t ld, int64_t col_off) {
  const int64_t oh = conv_out_size(height, kh, stride_h, pad_h);
  const int64_t ow = conv_out_size(width, kw, stride_w, pad_w);
  for (int64_t c = 0; c < channels; ++c) {
    const uint8_t* src = img + c * chan_stride;
    for (int64_t ki = 0; ki < kh; ++ki) {
      for (int64_t kj = 0; kj < kw; ++kj) {
        uint8_t* dst = cols + ((c * kh + ki) * kw + kj) * ld + col_off;
        for (int64_t oy = 0; oy < oh; ++oy) {
          const int64_t iy = oy * stride_h + ki - pad_h;
          if (iy < 0 || iy >= height) {
            std::fill(dst, dst + ow, static_cast<uint8_t>(128));
            dst += ow;
            continue;
          }
          const uint8_t* srow = src + iy * width;
          for (int64_t ox = 0; ox < ow; ++ox) {
            const int64_t ix = ox * stride_w + kj - pad_w;
            *dst++ = (ix >= 0 && ix < width) ? srow[ix]
                                             : static_cast<uint8_t>(128);
          }
        }
      }
    }
  }
}

// One geometry through both batched expansions and both oracles, with
// guard elements after each panel that no expansion may touch. Returns
// false on the first mismatch (reported through gtest).
template <class T>
bool check_against_per_tap(Rng& rng, int64_t batch, bool interleaved,
                           int64_t c, int64_t h, int64_t w, int64_t k,
                           int64_t stride, int64_t pad) {
  const int64_t plane = conv_out_size(h, k, stride, pad) *
                        conv_out_size(w, k, stride, pad);
  const int64_t img_stride = interleaved ? h * w : c * h * w;
  const int64_t chan_stride = interleaved ? batch * h * w : h * w;
  std::vector<T> imgs(static_cast<size_t>(batch * c * h * w));
  for (T& v : imgs) {
    if constexpr (std::is_same_v<T, float>) {
      v = rng.normal();
    } else {
      v = static_cast<T>(rng.randint(256));
    }
  }
  constexpr int64_t kGuard = 64;
  const auto panel = static_cast<size_t>(c * k * k * batch * plane);
  std::vector<T> want(panel + kGuard, T{77});
  std::vector<T> got(panel + kGuard, T{77});
  for (int64_t i = 0; i < batch; ++i) {
    if constexpr (std::is_same_v<T, float>) {
      im2col_into_per_tap(imgs.data() + i * img_stride, chan_stride, c, h, w,
                          k, k, stride, stride, pad, pad, want.data(),
                          batch * plane, i * plane);
    } else {
      im2col_s8_into_per_tap(imgs.data() + i * img_stride, chan_stride, c, h,
                             w, k, k, stride, stride, pad, pad, want.data(),
                             batch * plane, i * plane);
    }
  }
  if constexpr (std::is_same_v<T, float>) {
    im2col_batched(imgs.data(), batch, img_stride, chan_stride, c, h, w, k, k,
                   stride, stride, pad, pad, got.data());
  } else {
    im2col_s8_batched(imgs.data(), batch, img_stride, chan_stride, c, h, w, k,
                      k, stride, stride, pad, pad, got.data());
  }
  const bool same =
      std::memcmp(got.data(), want.data(), got.size() * sizeof(T)) == 0;
  EXPECT_TRUE(same) << (std::is_same_v<T, float> ? "float" : "s8")
                    << " batch=" << batch << " interleaved=" << interleaved
                    << " h=" << h << " w=" << w << " k=" << k
                    << " stride=" << stride << " pad=" << pad;
  return same;
}

TEST(Im2colBatched, InteriorRunsMatchPerTapLoopsBitwise) {
  // Every row of the panel is written as [pad | interior | pad]; the split
  // must reproduce the per-tap loops on every geometry: kernels 1-7,
  // strides 1-3, no / unit / k-1 / k padding, every H and W in 1..12 plus
  // a 176-wide row, batch 1 and 3 over NCHW and batch-interleaved inputs.
  Rng rng(20261018);
  const int64_t c = 2;
  std::vector<std::pair<int64_t, int64_t>> sizes;
  for (int64_t h = 1; h <= 12; ++h) {
    for (int64_t w = 1; w <= 12; ++w) sizes.emplace_back(h, w);
  }
  sizes.emplace_back(3, 176);
  int64_t checked = 0;
  for (const int64_t k : {1, 2, 3, 5, 7}) {
    for (const int64_t stride : {1, 2, 3}) {
      for (const int64_t pad : {int64_t{0}, int64_t{1}, k - 1, k}) {
        for (const auto& [h, w] : sizes) {
          if (conv_out_size(h, k, stride, pad) <= 0 ||
              conv_out_size(w, k, stride, pad) <= 0) {
            continue;
          }
          for (const int64_t batch : {1, 3}) {
            for (const bool interleaved : {false, true}) {
              if (!check_against_per_tap<float>(rng, batch, interleaved, c,
                                                h, w, k, stride, pad) ||
                  !check_against_per_tap<uint8_t>(rng, batch, interleaved, c,
                                                  h, w, k, stride, pad)) {
                return;
              }
              ++checked;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 0);
}

}  // namespace
}  // namespace nb
