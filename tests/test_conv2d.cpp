#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "nn/conv2d.h"
#include "tensor/depthwise.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/rng.h"
#include "tensor/tensor_ops.h"
#include "tensor/threadpool.h"
#include "test_util.h"

namespace nb::nn {
namespace {

using nb::testing::bits_equal;
using nb::testing::PoolOverride;

// Direct convolution reference (cross-correlation, zero padding, groups).
Tensor reference_conv(const Tensor& x, const Tensor& w, const Tensor* bias,
                      int64_t stride, int64_t pad, int64_t groups) {
  const int64_t n = x.size(0), cin = x.size(1), h = x.size(2), wd = x.size(3);
  const int64_t cout = w.size(0), k = w.size(2);
  const int64_t cin_g = cin / groups, cout_g = cout / groups;
  const int64_t oh = conv_out_size(h, k, stride, pad);
  const int64_t ow = conv_out_size(wd, k, stride, pad);
  Tensor y({n, cout, oh, ow});
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t o = 0; o < cout; ++o) {
      const int64_t g = o / cout_g;
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox) {
          double acc = bias ? bias->at(o) : 0.0;
          for (int64_t m = 0; m < cin_g; ++m) {
            for (int64_t ki = 0; ki < k; ++ki) {
              const int64_t iy = oy * stride + ki - pad;
              if (iy < 0 || iy >= h) continue;
              for (int64_t kj = 0; kj < k; ++kj) {
                const int64_t ix = ox * stride + kj - pad;
                if (ix < 0 || ix >= wd) continue;
                acc += static_cast<double>(w.at(o, m, ki, kj)) *
                       x.at(i, g * cin_g + m, iy, ix);
              }
            }
          }
          y.at(i, o, oy, ox) = static_cast<float>(acc);
        }
      }
    }
  }
  return y;
}

struct ConvCase {
  int64_t cin, cout, k, stride, pad, groups;
  bool bias;
};

void PrintTo(const ConvCase& c, std::ostream* os) {
  *os << ::nb::testing::conv_case_name(c);
}

class ConvParam : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvParam, ForwardMatchesReference) {
  const ConvCase& tc = GetParam();
  Rng rng(7 + tc.cin + tc.cout * 3 + tc.k * 5);
  Conv2d conv(Conv2dOptions(tc.cin, tc.cout, tc.k)
                  .with_stride(tc.stride)
                  .with_padding(tc.pad)
                  .with_groups(tc.groups)
                  .with_bias(tc.bias));
  fill_normal(conv.weight().value, rng, 0.0f, 0.5f);
  if (tc.bias) fill_normal(conv.bias().value, rng, 0.0f, 0.5f);

  Tensor x({2, tc.cin, 7, 6});
  fill_normal(x, rng, 0.0f, 1.0f);

  const Tensor got = conv.forward(x);
  const Tensor want = reference_conv(
      x, conv.weight().value, tc.bias ? &conv.bias().value : nullptr,
      tc.stride, tc.pad, tc.groups);
  ASSERT_TRUE(got.same_shape(want)) << got.shape_str() << " vs " << want.shape_str();
  EXPECT_LT(max_abs_diff(got, want), 2e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvParam,
    ::testing::Values(ConvCase{3, 8, 3, 1, 1, 1, false},   // standard 3x3
                      ConvCase{4, 6, 1, 1, 0, 1, false},   // pointwise
                      ConvCase{4, 6, 1, 1, 0, 1, true},    // pointwise + bias
                      ConvCase{6, 6, 3, 1, 1, 6, false},   // depthwise 3x3
                      ConvCase{6, 6, 1, 1, 0, 6, true},    // depthwise 1x1
                      ConvCase{8, 8, 3, 2, 1, 8, false},   // depthwise s2
                      ConvCase{4, 8, 5, 1, 2, 1, false},   // 5x5
                      ConvCase{6, 9, 3, 1, 1, 3, false},   // grouped, 3 groups
                      ConvCase{3, 5, 3, 2, 1, 1, true},    // strided + bias
                      ConvCase{2, 4, 7, 1, 3, 1, false})); // 7x7 (mcunet)

// The direct depthwise kernel must agree with the im2col + GEMM lowering it
// replaced, at sizes that exercise the interior fast path, both template
// specializations (k=3, k=5), the generic kernel, and stride 2.
TEST(Conv2d, DirectDepthwiseMatchesIm2colPath) {
  const struct {
    int64_t c, h, w, k, stride, pad;
    bool bias;
  } cases[] = {
      {16, 28, 28, 3, 1, 1, false},
      {8, 28, 26, 3, 2, 1, true},
      {12, 14, 14, 5, 1, 2, false},
      {4, 11, 13, 7, 1, 3, true},  // generic (non-templated) kernel size
      // Kernel wider than the plane: the interior-column bound has a
      // negative numerator and must floor to "no interior", not truncate.
      {3, 4, 4, 5, 2, 0, false},
      {3, 2, 2, 3, 2, 0, false},
  };
  for (const auto& tc : cases) {
    Rng rng(91 + tc.c + tc.k);
    Conv2d conv(Conv2dOptions(tc.c, tc.c, tc.k)
                    .with_stride(tc.stride)
                    .with_padding(tc.pad)
                    .with_groups(tc.c)
                    .with_bias(tc.bias));
    ASSERT_TRUE(conv.is_depthwise());
    fill_normal(conv.weight().value, rng, 0.0f, 0.5f);
    if (tc.bias) fill_normal(conv.bias().value, rng, 0.0f, 0.5f);
    Tensor x({2, tc.c, tc.h, tc.w});
    fill_normal(x, rng, 0.0f, 1.0f);

    const Tensor got = conv.forward(x);

    // im2col lowering per (image, channel): cols is [k*k, oh*ow], the
    // channel's kernel row is [1, k*k], their product is the output plane.
    const int64_t oh = conv_out_size(tc.h, tc.k, tc.stride, tc.pad);
    const int64_t ow = conv_out_size(tc.w, tc.k, tc.stride, tc.pad);
    const int64_t plane = oh * ow;
    Tensor want({2, tc.c, oh, ow});
    std::vector<float> cols(static_cast<size_t>(tc.k * tc.k * plane));
    for (int64_t i = 0; i < 2; ++i) {
      for (int64_t ch = 0; ch < tc.c; ++ch) {
        im2col(x.data() + (i * tc.c + ch) * tc.h * tc.w, 1, tc.h, tc.w, tc.k,
               tc.k, tc.stride, tc.stride, tc.pad, tc.pad, cols.data());
        float* out = want.data() + (i * tc.c + ch) * plane;
        gemm(false, false, 1, plane, tc.k * tc.k, 1.0f,
             conv.weight().value.data() + ch * tc.k * tc.k, cols.data(), 0.0f,
             out);
        if (tc.bias) {
          const float b = conv.bias().value.at(ch);
          for (int64_t p = 0; p < plane; ++p) out[p] += b;
        }
      }
    }
    ASSERT_TRUE(got.same_shape(want))
        << got.shape_str() << " vs " << want.shape_str();
    EXPECT_LT(max_abs_diff(got, want), 1e-5f)
        << "c=" << tc.c << " k=" << tc.k << " stride=" << tc.stride;
  }
}

TEST(Conv2d, RejectsBadGroups) {
  EXPECT_THROW(Conv2d(Conv2dOptions(4, 6, 3).with_groups(5)),
               std::runtime_error);
}

TEST(Conv2d, RejectsChannelMismatch) {
  Conv2d conv(Conv2dOptions(3, 4, 1));
  Tensor x({1, 5, 4, 4});
  EXPECT_THROW(conv.forward(x), std::runtime_error);
}

TEST(Conv2d, FlopsCount) {
  // 1x1 conv, cin=4 cout=8 on 10x10: 2 * 100 * 8 * 4 = 6400.
  Conv2d pw(Conv2dOptions(4, 8, 1));
  EXPECT_EQ(pw.flops(10, 10), 6400);
  // depthwise 3x3 on 8x8 same padding: 2 * 64 * 8 * 1 * 9 = 9216.
  Conv2d dw(Conv2dOptions(8, 8, 3).same_padding().with_groups(8));
  EXPECT_EQ(dw.flops(8, 8), 9216);
}

TEST(Conv2d, RecordsLastInputSize) {
  Conv2d conv(Conv2dOptions(3, 4, 3).same_padding());
  EXPECT_EQ(conv.last_input_h(), 0);
  Tensor x({1, 3, 9, 11});
  (void)conv.forward(x);
  EXPECT_EQ(conv.last_input_h(), 9);
  EXPECT_EQ(conv.last_input_w(), 11);
}

TEST(Conv2d, PointwiseDetection) {
  Conv2d pw(Conv2dOptions(4, 8, 1));
  Conv2d dw(Conv2dOptions(8, 8, 3).same_padding().with_groups(8));
  Conv2d full(Conv2dOptions(4, 8, 3).same_padding());
  EXPECT_TRUE(pw.is_pointwise());
  EXPECT_FALSE(pw.is_depthwise());
  EXPECT_TRUE(dw.is_depthwise());
  EXPECT_FALSE(dw.is_pointwise());
  EXPECT_FALSE(full.is_depthwise());
  EXPECT_FALSE(full.is_pointwise());
}

// ------------------------------------------------------------------------
// Bitwise contracts of the training convolutions. This file is built with
// -ffp-contract=off like nb_nn, so the oracles below round exactly as the
// loops they copy.

// Normal values with NaN, +-inf, -0.0 and denormals mixed in.
void fill_with_specials(Tensor& t, Rng& rng, float scale) {
  const float kSpecial[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(), -0.0f,
                            3.0e-39f, -3.0e-39f};
  for (int64_t e = 0; e < t.numel(); ++e) {
    const float u = rng.uniform();
    t.data()[e] = u < 0.03f ? kSpecial[e % 6] : rng.normal() * scale;
  }
}

// The scalar depthwise backward as it was before the channel lanes, kept
// verbatim (serial over channels) as the bitwise oracle.
void scalar_depthwise_backward(const Tensor& x, const Tensor& grad_out,
                               const Tensor& weight, int64_t k, int64_t stride,
                               int64_t padding, bool bias, Tensor& grad_in,
                               Tensor& weight_grad, Tensor& bias_grad) {
  const int64_t n = x.size(0), c = x.size(1), h = x.size(2), w = x.size(3);
  const int64_t oh = grad_out.size(2), ow = grad_out.size(3);
  for (int64_t ch = 0; ch < c; ++ch) {
    const float* ker = weight.data() + ch * k * k;
    float* kgrad = weight_grad.data() + ch * k * k;
    for (int64_t i = 0; i < n; ++i) {
      const float* img = x.data() + (i * c + ch) * h * w;
      const float* gout = grad_out.data() + (i * c + ch) * oh * ow;
      float* gin = grad_in.data() + (i * c + ch) * h * w;
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox) {
          const float gv = gout[oy * ow + ox];
          for (int64_t ki = 0; ki < k; ++ki) {
            const int64_t iy = oy * stride + ki - padding;
            if (iy < 0 || iy >= h) continue;
            for (int64_t kj = 0; kj < k; ++kj) {
              const int64_t ix = ox * stride + kj - padding;
              if (ix < 0 || ix >= w) continue;
              kgrad[ki * k + kj] += gv * img[iy * w + ix];
              gin[iy * w + ix] += gv * ker[ki * k + kj];
            }
          }
        }
      }
      if (bias) {
        double s = 0.0;
        for (int64_t p = 0; p < oh * ow; ++p) s += gout[p];
        bias_grad.at(ch) += static_cast<float>(s);
      }
    }
  }
}

// The channel-lane depthwise backward against the scalar loop: dX, dW and
// db (accumulated onto nonzero gradients), k in {1, 3, 5, 7}, strides 1
// and 2, pad 0 and (k-1)/2, planes from 1x1 to 20x20 and 1 to 19 channels,
// so every partial 8-channel block runs, at one and four threads.
TEST(Conv2dBitwise, DepthwiseBackwardMatchesScalarLoop) {
  ThreadPool one(0);
  ThreadPool four(3);
  const int64_t planes[][2] = {{1, 1}, {2, 3}, {5, 5}, {7, 4},
                               {9, 13}, {20, 20}};
  Rng rng(606);
  int64_t channels = 0;
  int64_t checked = 0;
  for (const int64_t k : {1, 3, 5, 7}) {
    for (const int64_t stride : {1, 2}) {
      std::vector<int64_t> pads = {0};
      if (k > 1) pads.push_back((k - 1) / 2);
      for (const int64_t pad : pads) {
        for (const auto& hw : planes) {
          const int64_t h = hw[0], w = hw[1];
          if (conv_out_size(h, k, stride, pad) <= 0 ||
              conv_out_size(w, k, stride, pad) <= 0) {
            continue;
          }
          channels = channels % 19 + 1;
          const bool bias = channels % 2 == 1;
          SCOPED_TRACE(::testing::Message()
                       << "k=" << k << " s=" << stride << " pad=" << pad
                       << " h=" << h << " w=" << w << " c=" << channels
                       << " bias=" << bias);
          Conv2d conv(Conv2dOptions(channels, channels, k)
                          .with_stride(stride)
                          .with_padding(pad)
                          .with_groups(channels)
                          .with_bias(bias));
          fill_with_specials(conv.weight().value, rng, 0.5f);
          fill_uniform(conv.weight().grad, rng, -0.1f, 0.1f);
          if (bias) fill_uniform(conv.bias().grad, rng, -0.1f, 0.1f);
          Tensor x({2, channels, h, w});
          fill_with_specials(x, rng, 1.0f);
          Tensor grad_out({2, channels, conv_out_size(h, k, stride, pad),
                           conv_out_size(w, k, stride, pad)});
          fill_with_specials(grad_out, rng, 1.0f);

          Tensor want_gin(x.shape());
          Tensor want_wg = conv.weight().grad.clone();
          Tensor want_bg = bias ? conv.bias().grad.clone() : Tensor();
          scalar_depthwise_backward(x, grad_out, conv.weight().value, k,
                                    stride, pad, bias, want_gin, want_wg,
                                    want_bg);
          const Tensor wg0 = conv.weight().grad.clone();
          const Tensor bg0 = bias ? conv.bias().grad.clone() : Tensor();
          for (ThreadPool* pool : {&one, &four}) {
            PoolOverride po(*pool);
            conv.weight().grad.copy_from(wg0);
            if (bias) conv.bias().grad.copy_from(bg0);
            (void)conv.forward(x);
            const Tensor got_gin = conv.backward(grad_out);
            constexpr bool kNanAny = true;
            EXPECT_TRUE(bits_equal(got_gin.data(), want_gin.data(),
                                   want_gin.numel(), kNanAny))
                << "dX, " << pool->num_workers() + 1 << " threads";
            EXPECT_TRUE(bits_equal(conv.weight().grad.data(), want_wg.data(),
                                   want_wg.numel(), kNanAny))
                << "dW, " << pool->num_workers() + 1 << " threads";
            if (bias) {
              EXPECT_TRUE(bits_equal(conv.bias().grad.data(), want_bg.data(),
                                     channels, kNanAny))
                  << "db, " << pool->num_workers() + 1 << " threads";
            }
          }
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 60);
}

// The pre-PR generic lowering for one conv: im2col + GEMM per image and
// group forward, and dW += dY * cols^T, dX = col2im(W^T dY) backward.
void im2col_conv(const Conv2dOptions& o, const Tensor& x, const Tensor& weight,
                 const Tensor& grad_out, Tensor& y, Tensor& weight_grad,
                 Tensor& grad_in) {
  const int64_t n = x.size(0), h = x.size(2), w = x.size(3);
  const int64_t k = o.kernel, g = o.groups;
  const int64_t cin_g = o.in_channels / g, cout_g = o.out_channels / g;
  const int64_t oh = y.size(2), ow = y.size(3);
  const int64_t plane = oh * ow, col_rows = cin_g * k * k;
  std::vector<float> cols(static_cast<size_t>(col_rows * plane));
  std::vector<float> gcols(cols.size());
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t gi = 0; gi < g; ++gi) {
      const float* img = x.data() + (i * o.in_channels + gi * cin_g) * h * w;
      const float* wgt = weight.data() + gi * cout_g * col_rows;
      const float* gout =
          grad_out.data() + (i * o.out_channels + gi * cout_g) * plane;
      im2col(img, cin_g, h, w, k, k, o.stride, o.stride, o.padding, o.padding,
             cols.data());
      gemm(false, false, cout_g, plane, col_rows, 1.0f, wgt, cols.data(), 0.0f,
           y.data() + (i * o.out_channels + gi * cout_g) * plane);
      gemm(false, true, cout_g, col_rows, plane, 1.0f, gout, cols.data(), 1.0f,
           weight_grad.data() + gi * cout_g * col_rows);
      gemm(true, false, col_rows, plane, cout_g, 1.0f, wgt, gout, 0.0f,
           gcols.data());
      col2im(gcols.data(), cin_g, h, w, k, k, o.stride, o.stride, o.padding,
             o.padding,
             grad_in.data() + (i * o.in_channels + gi * cin_g) * h * w);
    }
  }
}

// The depthwise forward runs depthwise_blocks, which takes small planes
// eight to a vector and larger ones through depthwise_plane; either way
// each plane must be bit for bit the scalar template's, with NaN, inf and -0.0
// weights and biases, over channel counts that leave partial blocks and
// planes on both sides of the crossover, at one and four threads.
TEST(Conv2dBitwise, DepthwiseForwardMatchesScalarTemplatePerPlane) {
  ThreadPool one(0);
  ThreadPool four(3);
  const int64_t planes[][2] = {{1, 1}, {2, 3}, {5, 5}, {10, 10},
                               {13, 11}, {24, 24}};
  Rng rng(607);
  int64_t channels = 0;
  for (const int64_t k : {1, 3, 5, 7}) {
    for (const int64_t stride : {1, 2}) {
      for (const auto& hw : planes) {
        const int64_t h = hw[0], w = hw[1], pad = (k - 1) / 2;
        const int64_t oh = conv_out_size(h, k, stride, pad);
        const int64_t ow = conv_out_size(w, k, stride, pad);
        channels = channels % 19 + 1;
        const bool bias = channels % 2 == 1;
        SCOPED_TRACE(::testing::Message()
                     << "k=" << k << " s=" << stride << " h=" << h
                     << " w=" << w << " c=" << channels << " bias=" << bias);
        Conv2d conv(Conv2dOptions(channels, channels, k)
                        .with_stride(stride)
                        .with_padding(pad)
                        .with_groups(channels)
                        .with_bias(bias));
        fill_with_specials(conv.weight().value, rng, 0.5f);
        if (bias) fill_with_specials(conv.bias().value, rng, 0.5f);
        Tensor x({3, channels, h, w});
        fill_with_specials(x, rng, 1.0f);
        Tensor want({3, channels, oh, ow});
        for (int64_t p = 0; p < 3 * channels; ++p) {
          const int64_t ch = p % channels;
          depthwise_run_instance(0, x.data() + p * h * w,
                                 conv.weight().value.data() + ch * k * k,
                                 want.data() + p * oh * ow, h, w, oh, ow, k,
                                 stride, pad,
                                 bias ? conv.bias().value.at(ch) : 0.0f);
        }
        for (ThreadPool* pool : {&one, &four}) {
          PoolOverride po(*pool);
          const Tensor got = conv.forward(x);
          ASSERT_TRUE(got.same_shape(want));
          EXPECT_TRUE(bits_equal(got.data(), want.data(), want.numel(),
                                 /*nan_matches_nan=*/true));
        }
      }
    }
  }
}

// 1x1 / stride-1 / pad-0 convs skip im2col and col2im; forward, dW and dX
// stay memcmp-equal to the im2col path, grouped or not, at one and four
// threads.
TEST(Conv2dBitwise, DirectPointwiseMatchesIm2colPath) {
  ThreadPool one(0);
  ThreadPool four(3);
  const struct {
    int64_t cin, cout, groups, h, w;
  } cases[] = {{1, 1, 1, 1, 1},     {3, 8, 1, 5, 5},    {16, 24, 1, 20, 20},
               {24, 72, 1, 10, 10}, {72, 16, 1, 5, 5},  {12, 9, 3, 7, 4},
               {8, 8, 2, 3, 9},     {40, 300, 1, 6, 6}, {33, 17, 1, 1, 37}};
  Rng rng(707);
  for (const auto& tc : cases) {
    SCOPED_TRACE(::testing::Message() << tc.cin << "->" << tc.cout << " g"
                                      << tc.groups << " " << tc.h << "x"
                                      << tc.w);
    const Conv2dOptions o = Conv2dOptions(tc.cin, tc.cout, 1).with_groups(tc.groups);
    Conv2d conv(o);
    ASSERT_TRUE(conv.is_direct());
    fill_with_specials(conv.weight().value, rng, 0.5f);
    fill_uniform(conv.weight().grad, rng, -0.1f, 0.1f);
    Tensor x({2, tc.cin, tc.h, tc.w});
    fill_with_specials(x, rng, 1.0f);
    Tensor grad_out({2, tc.cout, tc.h, tc.w});
    fill_with_specials(grad_out, rng, 1.0f);

    Tensor want_y({2, tc.cout, tc.h, tc.w});
    Tensor want_wg = conv.weight().grad.clone();
    Tensor want_gin(x.shape());
    im2col_conv(o, x, conv.weight().value, grad_out, want_y, want_wg,
                want_gin);
    const Tensor wg0 = conv.weight().grad.clone();
    for (ThreadPool* pool : {&one, &four}) {
      PoolOverride po(*pool);
      conv.weight().grad.copy_from(wg0);
      const Tensor got_y = conv.forward(x);
      const Tensor got_gin = conv.backward(grad_out);
      EXPECT_TRUE(bits_equal(got_y.data(), want_y.data(), want_y.numel()))
          << "forward";
      EXPECT_TRUE(bits_equal(conv.weight().grad.data(), want_wg.data(),
                             want_wg.numel()))
          << "dW";
      EXPECT_TRUE(bits_equal(got_gin.data(), want_gin.data(),
                             want_gin.numel()))
          << "dX";
    }
  }
}

// dX past the GEMM's first K block (cout > 256) whose partial sums round to
// -0.0: on an FMA kernel, fma(w, g, +0.0) with |w*g| below the smallest
// denormal gives -0.0. col2im's `+=` into the zeroed grad_in ends in +0.0,
// and so must the direct path.
TEST(Conv2dBitwise, DirectPointwiseDxKeepsCol2imZeroSign) {
  const Conv2dOptions o = Conv2dOptions(1, 300, 1);
  Conv2d conv(o);
  conv.weight().value.fill(-1.0e-30f);
  Tensor x = Tensor::full({1, 1, 2, 2}, 1.0f);
  Tensor grad_out = Tensor::full({1, 300, 2, 2}, 1.0e-20f);
  Tensor want_y({1, 300, 2, 2});
  Tensor want_wg(conv.weight().value.shape());
  Tensor want_gin(x.shape());
  im2col_conv(o, x, conv.weight().value, grad_out, want_y, want_wg, want_gin);
  (void)conv.forward(x);
  const Tensor got_gin = conv.backward(grad_out);
  EXPECT_TRUE(bits_equal(got_gin.data(), want_gin.data(), want_gin.numel()));
  EXPECT_FALSE(std::signbit(got_gin.at(0)));
}

}  // namespace
}  // namespace nb::nn
