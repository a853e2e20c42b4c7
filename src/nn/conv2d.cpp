#include "nn/conv2d.h"

#include <algorithm>

#include "tensor/depthwise.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/scratch.h"
#include "tensor/threadpool.h"

namespace nb::nn {

namespace {

// Eight channels side by side, one per lane, read and written in place in
// float buffers (may_alias, aligned(4): any float address).
typedef float f32x8 __attribute__((vector_size(32), aligned(4), may_alias));
constexpr int64_t kLanes = 8;

// Element e of a [element][lane] buffer, as one vector.
inline f32x8& lane(float* buf, int64_t e) {
  return *reinterpret_cast<f32x8*>(buf + e * kLanes);
}

// dst[e * kLanes + l] = src[l * stride + e] for the `lanes` live channels;
// the remaining lanes are zero, so they compute on zeros and never store.
void to_lanes(const float* src, int64_t stride, int64_t lanes, int64_t count,
              float* dst) {
  for (int64_t l = 0; l < kLanes; ++l) {
    if (l < lanes) {
      const float* s = src + l * stride;
      for (int64_t e = 0; e < count; ++e) dst[e * kLanes + l] = s[e];
    } else {
      for (int64_t e = 0; e < count; ++e) dst[e * kLanes + l] = 0.0f;
    }
  }
}

// The inverse of to_lanes for the live lanes.
void from_lanes(const float* src, int64_t lanes, int64_t count, float* dst,
                int64_t stride) {
  for (int64_t l = 0; l < lanes; ++l) {
    float* d = dst + l * stride;
    for (int64_t e = 0; e < count; ++e) d[e] = src[e * kLanes + l];
  }
}

}  // namespace

Conv2d::Conv2d(const Conv2dOptions& opts) : opts_(opts) {
  NB_CHECK(opts.in_channels > 0 && opts.out_channels > 0, "conv channels");
  NB_CHECK(opts.kernel > 0 && opts.stride > 0 && opts.padding >= 0,
           "conv geometry");
  NB_CHECK(opts.groups > 0 && opts.in_channels % opts.groups == 0 &&
               opts.out_channels % opts.groups == 0,
           "conv groups must divide channels");
  weight_ = Parameter(
      Tensor({opts.out_channels, opts.in_channels / opts.groups, opts.kernel,
              opts.kernel}),
      /*decay_flag=*/true);
  if (opts.bias) {
    bias_ = Parameter(Tensor({opts.out_channels}), /*decay_flag=*/false);
  }
}

std::vector<std::pair<std::string, Parameter*>> Conv2d::local_params() {
  std::vector<std::pair<std::string, Parameter*>> out;
  out.emplace_back("weight", &weight_);
  if (opts_.bias) out.emplace_back("bias", &bias_);
  return out;
}

Tensor Conv2d::forward(const Tensor& x) {
  NB_CHECK(x.dim() == 4, "Conv2d expects NCHW input");
  NB_CHECK(x.size(1) == opts_.in_channels,
           "Conv2d channel mismatch: got " + x.shape_str());
  input_ = x;
  last_h_ = x.size(2);
  last_w_ = x.size(3);
  if (is_depthwise()) return forward_depthwise(x);
  return forward_generic(x);
}

Tensor Conv2d::forward_generic(const Tensor& x) {
  const int64_t n = x.size(0), h = x.size(2), w = x.size(3);
  const int64_t k = opts_.kernel, g = opts_.groups;
  const int64_t cin_g = opts_.in_channels / g;
  const int64_t cout_g = opts_.out_channels / g;
  const int64_t oh = conv_out_size(h, k, opts_.stride, opts_.padding);
  const int64_t ow = conv_out_size(w, k, opts_.stride, opts_.padding);
  NB_CHECK(oh > 0 && ow > 0, "Conv2d output is empty for input " + x.shape_str());

  Tensor y({n, opts_.out_channels, oh, ow});
  const int64_t col_rows = cin_g * k * k;
  const int64_t plane = oh * ow;
  // The column matrix lives in the thread-local arena: one allocation per
  // thread for the whole training run instead of one per forward call. A
  // direct conv needs none: its columns are the group's channel planes.
  const bool direct = is_direct();
  float* cols = direct ? nullptr
                       : scratch_acquire(ScratchSlot::kConvCols,
                                         static_cast<size_t>(col_rows * plane));

  for (int64_t i = 0; i < n; ++i) {
    for (int64_t gi = 0; gi < g; ++gi) {
      const float* img = x.data() + (i * opts_.in_channels + gi * cin_g) * h * w;
      if (!direct) {
        im2col(img, cin_g, h, w, k, k, opts_.stride, opts_.stride,
               opts_.padding, opts_.padding, cols);
      }
      float* out = y.data() + (i * opts_.out_channels + gi * cout_g) * plane;
      const float* wgt = weight_.value.data() + gi * cout_g * col_rows;
      gemm(false, false, cout_g, plane, col_rows, 1.0f, wgt,
           direct ? img : cols, 0.0f, out);
    }
    if (opts_.bias) {
      for (int64_t c = 0; c < opts_.out_channels; ++c) {
        float* out = y.data() + (i * opts_.out_channels + c) * plane;
        const float b = bias_.value.at(c);
        for (int64_t p = 0; p < plane; ++p) out[p] += b;
      }
    }
  }
  return y;
}

Tensor Conv2d::forward_depthwise(const Tensor& x) {
  const int64_t n = x.size(0), c = x.size(1), h = x.size(2), w = x.size(3);
  const int64_t k = opts_.kernel;
  const int64_t oh = conv_out_size(h, k, opts_.stride, opts_.padding);
  const int64_t ow = conv_out_size(w, k, opts_.stride, opts_.padding);
  NB_CHECK(oh > 0 && ow > 0, "Conv2d output is empty for input " + x.shape_str());
  Tensor y({n, c, oh, ow});
  // In NCHW plane i*c + ch is channel ch of image i, so consecutive planes
  // are channels.
  DepthwisePlanes g;
  g.count = n * c;
  g.channels = c;
  g.h = h;
  g.w = w;
  g.oh = oh;
  g.ow = ow;
  g.k = k;
  g.s = opts_.stride;
  g.pad = opts_.padding;
  depthwise_blocks(g, x.data(), weight_.value.data(),
                   opts_.bias ? bias_.value.data() : nullptr, y.data());
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  NB_CHECK(input_.defined(), "Conv2d::backward before forward");
  if (is_depthwise()) return backward_depthwise(grad_out);
  return backward_generic(grad_out);
}

Tensor Conv2d::backward_generic(const Tensor& grad_out) {
  const Tensor& x = input_;
  const int64_t n = x.size(0), h = x.size(2), w = x.size(3);
  const int64_t k = opts_.kernel, g = opts_.groups;
  const int64_t cin_g = opts_.in_channels / g;
  const int64_t cout_g = opts_.out_channels / g;
  const int64_t oh = grad_out.size(2), ow = grad_out.size(3);
  const int64_t plane = oh * ow;
  const int64_t col_rows = cin_g * k * k;

  Tensor grad_in(x.shape());
  const bool direct = is_direct();
  float* cols = nullptr;
  float* gcols = nullptr;
  if (!direct) {
    cols = scratch_acquire(ScratchSlot::kConvCols,
                           static_cast<size_t>(col_rows * plane));
    gcols = scratch_acquire(ScratchSlot::kConvGradCols,
                            static_cast<size_t>(col_rows * plane));
  }

  for (int64_t i = 0; i < n; ++i) {
    for (int64_t gi = 0; gi < g; ++gi) {
      const float* img = x.data() + (i * opts_.in_channels + gi * cin_g) * h * w;
      const float* gout =
          grad_out.data() + (i * opts_.out_channels + gi * cout_g) * plane;
      float* wgrad = weight_.grad.data() + gi * cout_g * col_rows;
      const float* wgt = weight_.value.data() + gi * cout_g * col_rows;
      float* gin = grad_in.data() + (i * opts_.in_channels + gi * cin_g) * h * w;

      if (direct) {
        // The group's planes are its columns and its dX is its column
        // gradient: no im2col, no col2im. col2im's one `+=` into the zeroed
        // grad_in turns a -0.0 sum into +0.0; the pass after the GEMM does
        // the same, so dX keeps col2im's bits for any cout (a beta = 1 GEMM
        // would apply that +0.0 before the K blocks after the first).
        gemm(false, true, cout_g, col_rows, plane, 1.0f, gout, img, 1.0f,
             wgrad);
        gemm(true, false, col_rows, plane, cout_g, 1.0f, wgt, gout, 0.0f, gin);
        for (int64_t e = 0; e < col_rows * plane; ++e) gin[e] = 0.0f + gin[e];
      } else {
        // dW += dY * cols^T  (recompute im2col; trades FLOPs for memory)
        im2col(img, cin_g, h, w, k, k, opts_.stride, opts_.stride,
               opts_.padding, opts_.padding, cols);
        gemm(false, true, cout_g, col_rows, plane, 1.0f, gout, cols, 1.0f,
             wgrad);
        // dX = col2im(W^T * dY)
        gemm(true, false, col_rows, plane, cout_g, 1.0f, wgt, gout, 0.0f,
             gcols);
        col2im(gcols, cin_g, h, w, k, k, opts_.stride, opts_.stride,
               opts_.padding, opts_.padding, gin);
      }
    }
    if (opts_.bias) {
      for (int64_t c = 0; c < opts_.out_channels; ++c) {
        const float* gout = grad_out.data() + (i * opts_.out_channels + c) * plane;
        double s = 0.0;
        for (int64_t p = 0; p < plane; ++p) s += gout[p];
        bias_.grad.at(c) += static_cast<float>(s);
      }
    }
  }
  return grad_in;
}

Tensor Conv2d::backward_depthwise(const Tensor& grad_out) {
  const Tensor& x = input_;
  const int64_t n = x.size(0), c = x.size(1), h = x.size(2), w = x.size(3);
  const int64_t k = opts_.kernel, kk = k * k;
  const int64_t stride = opts_.stride, pad = opts_.padding;
  const int64_t oh = grad_out.size(2), ow = grad_out.size(3);
  const int64_t hw = h * w, ohw = oh * ow;
  Tensor grad_in(x.shape());
  // Channels are the lanes: a block of kLanes channels has its image,
  // output-gradient and kernel planes copied to [element][lane] scratch, and
  // every lane runs its channel's scalar chains (dW over images then
  // outputs, dX over outputs then taps, the same out-of-bounds taps
  // skipped), so each channel's gradients are bit-for-bit the one-channel
  // loop's. Blocks own their channels' weight/bias gradients and grad_in
  // planes, so parallel chunks are race-free, and the serial image loop
  // inside keeps every chain's order thread-count-invariant.
  const int64_t blocks = (c + kLanes - 1) / kLanes;
  parallel_for(blocks, /*grain=*/1, [&](int64_t b0, int64_t b1) {
    float* img = scratch_acquire(
        ScratchSlot::kDwGrad,
        static_cast<size_t>((2 * hw + ohw + 2 * kk) * kLanes));
    float* gin = img + hw * kLanes;
    float* gout = gin + hw * kLanes;
    float* ker = gout + ohw * kLanes;
    float* kgrad = ker + kk * kLanes;
    for (int64_t blk = b0; blk < b1; ++blk) {
      const int64_t c0 = blk * kLanes;
      const int64_t lanes = std::min(kLanes, c - c0);
      to_lanes(weight_.value.data() + c0 * kk, kk, lanes, kk, ker);
      to_lanes(weight_.grad.data() + c0 * kk, kk, lanes, kk, kgrad);
      for (int64_t i = 0; i < n; ++i) {
        to_lanes(x.data() + (i * c + c0) * hw, hw, lanes, hw, img);
        to_lanes(grad_out.data() + (i * c + c0) * ohw, ohw, lanes, ohw,
                 gout);
        std::fill(gin, gin + hw * kLanes, 0.0f);
        for (int64_t oy = 0; oy < oh; ++oy) {
          for (int64_t ox = 0; ox < ow; ++ox) {
            // No zero-skip on gv: 0 * NaN must stay NaN in both gradients
            // (same accumulation policy as gemm, see gemm.h).
            const f32x8 gv = lane(gout, oy * ow + ox);
            for (int64_t ki = 0; ki < k; ++ki) {
              const int64_t iy = oy * stride + ki - pad;
              if (iy < 0 || iy >= h) continue;
              for (int64_t kj = 0; kj < k; ++kj) {
                const int64_t ix = ox * stride + kj - pad;
                if (ix < 0 || ix >= w) continue;
                lane(kgrad, ki * k + kj) += gv * lane(img, iy * w + ix);
                lane(gin, iy * w + ix) += gv * lane(ker, ki * k + kj);
              }
            }
          }
        }
        from_lanes(gin, lanes, hw, grad_in.data() + (i * c + c0) * hw, hw);
        if (opts_.bias) {
          for (int64_t ch = c0; ch < c0 + lanes; ++ch) {
            const float* g = grad_out.data() + (i * c + ch) * ohw;
            double s = 0.0;
            for (int64_t p = 0; p < ohw; ++p) s += g[p];
            bias_.grad.at(ch) += static_cast<float>(s);
          }
        }
      }
      from_lanes(kgrad, lanes, kk, weight_.grad.data() + c0 * kk, kk);
    }
  });
  return grad_in;
}

int64_t Conv2d::flops(int64_t in_h, int64_t in_w) const {
  const int64_t oh = conv_out_size(in_h, opts_.kernel, opts_.stride, opts_.padding);
  const int64_t ow = conv_out_size(in_w, opts_.kernel, opts_.stride, opts_.padding);
  const int64_t macs = oh * ow * opts_.out_channels *
                       (opts_.in_channels / opts_.groups) * opts_.kernel *
                       opts_.kernel;
  return 2 * macs;
}

}  // namespace nb::nn
