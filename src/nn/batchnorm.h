// Batch normalization over NCHW activations with running statistics, plus the
// exact fold of an (eval-mode) BN into a preceding convolution — the first
// step of NetBooster's contraction.
#pragma once

#include "nn/module.h"

namespace nb::nn {

class BatchNorm2d : public Module {
 public:
  explicit BatchNorm2d(int64_t channels, float eps = 1e-5f,
                       float momentum = 0.1f);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string type_name() const override { return "BatchNorm2d"; }

  std::vector<std::pair<std::string, Parameter*>> local_params() override;
  std::vector<std::pair<std::string, Tensor*>> local_buffers() override;

  int64_t channels() const { return channels_; }
  float eps() const { return eps_; }
  float momentum() const { return momentum_; }
  /// Used by BN recalibration (momentum 1/i gives a cumulative average of
  /// batch statistics over the calibration pass).
  void set_momentum(float momentum) { momentum_ = momentum; }
  Parameter& gamma() { return gamma_; }
  Parameter& beta() { return beta_; }
  Tensor& running_mean() { return running_mean_; }
  Tensor& running_var() { return running_var_; }

 private:
  int64_t channels_;
  float eps_;
  float momentum_;
  Parameter gamma_;
  Parameter beta_;
  Tensor running_mean_;
  Tensor running_var_;

  // caches for backward (training mode): the input (shared, not copied)
  // and the per-channel batch statistics; backward recomputes the
  // normalized input from them bit for bit.
  Tensor input_;
  Tensor mean_;
  Tensor inv_std_;
  int64_t count_ = 0;
  bool forward_was_training_ = false;
};

/// Per-channel affine (scale, shift) equivalent to this BN in eval mode:
/// y = scale * x + shift. Used by contraction to fold BN into convolutions.
struct BnAffine {
  std::vector<float> scale;
  std::vector<float> shift;
};

BnAffine bn_to_affine(BatchNorm2d& bn);

}  // namespace nb::nn
