// 2-D convolution with groups (plain, grouped and depthwise), implemented as
// im2col + GEMM with a direct fast path for depthwise kernels; 1x1 stride-1
// convs run the GEMM on the input planes without im2col. Weight layout is
// [cout, cin/groups, kh, kw] (same as torch), activations are NCHW.
#pragma once

#include "nn/module.h"

namespace nb::nn {

/// Configuration for a Conv2d layer; square kernels only (all architectures
/// in the paper use square kernels).
struct Conv2dOptions {
  int64_t in_channels = 0;
  int64_t out_channels = 0;
  int64_t kernel = 1;
  int64_t stride = 1;
  int64_t padding = 0;
  int64_t groups = 1;
  bool bias = false;

  Conv2dOptions() = default;
  Conv2dOptions(int64_t cin, int64_t cout, int64_t k)
      : in_channels(cin), out_channels(cout), kernel(k) {}
  Conv2dOptions& with_stride(int64_t s) { stride = s; return *this; }
  Conv2dOptions& with_padding(int64_t p) { padding = p; return *this; }
  Conv2dOptions& with_groups(int64_t g) { groups = g; return *this; }
  Conv2dOptions& with_bias(bool b) { bias = b; return *this; }
  /// "same" padding for stride-1 odd kernels: p = (k-1)/2.
  Conv2dOptions& same_padding() { padding = (kernel - 1) / 2; return *this; }
};

class Conv2d : public Module {
 public:
  explicit Conv2d(const Conv2dOptions& opts);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string type_name() const override { return "Conv2d"; }

  std::vector<std::pair<std::string, Parameter*>> local_params() override;

  const Conv2dOptions& options() const { return opts_; }
  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }
  bool has_bias() const { return opts_.bias; }
  bool is_depthwise() const {
    return opts_.groups == opts_.in_channels &&
           opts_.groups == opts_.out_channels;
  }
  bool is_pointwise() const { return opts_.kernel == 1 && opts_.groups == 1; }
  /// A 1x1, stride-1, unpadded conv: each group's input planes already are
  /// its im2col columns, so forward and backward skip im2col and col2im.
  bool is_direct() const {
    return opts_.kernel == 1 && opts_.stride == 1 && opts_.padding == 0;
  }

  /// FLOPs (multiply-accumulates counted as 2) for the given input HxW.
  int64_t flops(int64_t in_h, int64_t in_w) const;

  /// Input spatial size seen by the most recent forward (0 before any call);
  /// the profiler runs a dummy forward and reads these back.
  int64_t last_input_h() const { return last_h_; }
  int64_t last_input_w() const { return last_w_; }

 private:
  Tensor forward_generic(const Tensor& x);
  Tensor forward_depthwise(const Tensor& x);
  Tensor backward_generic(const Tensor& grad_out);
  Tensor backward_depthwise(const Tensor& grad_out);

  Conv2dOptions opts_;
  Parameter weight_;
  Parameter bias_;
  Tensor input_;  // cached for backward
  int64_t last_h_ = 0;
  int64_t last_w_ = 0;
};

}  // namespace nb::nn
