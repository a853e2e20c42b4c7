// NetAug baseline (Cai et al., 2021): train the TNN embedded in a *wider*
// supernet. Each step runs the base network plus one sampled wider
// configuration whose weights are shared (the base channels are a prefix
// slice of the supernet's), summing both losses; at inference only the base
// slice remains. NetBooster's contrast (paper Sec. II-A): NetAug expands
// width only and drops the augmented part abruptly, whereas NetBooster
// expands width AND depth and contracts gradually via PLT.
//
// Faithful simplification: the augmented dimension is the hidden width of
// each inverted residual block (the expansion-ratio axis NetAug itself
// augments), so weight sharing stays block-local; block I/O widths equal the
// base model's. BN running statistics are recorded only during base-width
// passes so deployment statistics stay clean.
#pragma once

#include <memory>

#include "data/dataset.h"
#include "models/mobilenetv2.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "train/trainer.h"

namespace nb::baselines {

// The slices keep weights and BN buffers at supernet width and own no
// arithmetic: forward copies the active prefix into an nn layer of that
// width (copy_prefix_to) and runs it; backward runs its backward and hands
// the gradients back. Export copies the base prefix the same way.

/// 1x1 convolution over a weight allocated at supernet width, running on a
/// prefix slice [active_out x active_in].
class SlicePointwiseConv : public nn::Module {
 public:
  SlicePointwiseConv(int64_t max_in, int64_t max_out);

  void set_active(int64_t active_in, int64_t active_out);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string type_name() const override { return "SlicePointwiseConv"; }
  std::vector<std::pair<std::string, nn::Parameter*>> local_params() override;

  nn::Parameter& weight() { return weight_; }
  /// Copies the [out x in] weight prefix that dst's shape asks for.
  void copy_prefix_to(nn::Conv2d& dst);

 private:
  int64_t max_in_, max_out_;
  int64_t active_in_, active_out_;
  nn::Parameter weight_;              // [max_out, max_in]
  std::unique_ptr<nn::Conv2d> conv_;  // the last forward's active slice
};

/// Depthwise conv on the first `active` channels of a supernet-width weight.
class SliceDepthwiseConv : public nn::Module {
 public:
  SliceDepthwiseConv(int64_t max_channels, int64_t kernel, int64_t stride);

  void set_active(int64_t active) { active_ = active; }

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string type_name() const override { return "SliceDepthwiseConv"; }
  std::vector<std::pair<std::string, nn::Parameter*>> local_params() override;

  /// Copies the kernels of the channels dst has.
  void copy_prefix_to(nn::Conv2d& dst);

 private:
  int64_t kernel_, stride_, active_;
  nn::Parameter weight_;  // [max_c, 1, k, k]
  std::unique_ptr<nn::Conv2d> conv_;
};

/// BN over a prefix slice with gated running-stat updates.
class SliceBatchNorm : public nn::Module {
 public:
  explicit SliceBatchNorm(int64_t max_channels, float eps = 1e-5f,
                          float momentum = 0.1f);

  void set_active(int64_t active) { active_ = active; }
  /// Running stats update only when enabled (base-width passes).
  void set_record_stats(bool record) { record_stats_ = record; }
  void set_momentum(float momentum) { momentum_ = momentum; }

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string type_name() const override { return "SliceBatchNorm"; }
  std::vector<std::pair<std::string, nn::Parameter*>> local_params() override;
  std::vector<std::pair<std::string, Tensor*>> local_buffers() override;

  /// Copies gamma, beta and the running stats of the channels dst has.
  void copy_prefix_to(nn::BatchNorm2d& dst);

 private:
  int64_t active_;
  float eps_, momentum_;
  bool record_stats_ = true;
  nn::Parameter gamma_, beta_;
  Tensor running_mean_, running_var_;
  std::unique_ptr<nn::BatchNorm2d> bn_;
};

/// Inverted residual block whose hidden width can dilate up to
/// base_hidden * aug_mult. Blocks with expand_ratio == 1 mirror the plain
/// MobileNetV2 structure exactly (no pw-expand stage) and are not augmented,
/// so the base slice of every block maps 1:1 onto nn::InvertedResidual —
/// which is what export_base_to() relies on.
class AugInvertedResidual : public nn::Module {
 public:
  AugInvertedResidual(int64_t cin, int64_t cout, int64_t stride,
                      int64_t expand_ratio, int64_t kernel, float aug_mult,
                      nn::ActKind act);

  /// width_mult in [1, aug_mult]; 1 = base network. No-op for t == 1 blocks.
  void set_width(float width_mult);
  void set_record_stats(bool record);
  int64_t base_hidden() const { return base_hidden_; }
  int64_t max_hidden() const { return max_hidden_; }

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string type_name() const override { return "AugInvertedResidual"; }
  std::vector<std::pair<std::string, nn::Module*>> named_children() override;

  /// Copies the base-width slice of every weight/BN into a structurally
  /// matching plain block (deployment export), through the slices'
  /// copy_prefix_to.
  void export_base_to(nn::InvertedResidual& dst);

 private:
  int64_t cin_, cout_, stride_;
  int64_t base_hidden_, max_hidden_, active_hidden_;
  bool use_residual_;
  std::shared_ptr<SlicePointwiseConv> expand_;  // nullptr when t == 1
  std::shared_ptr<SliceBatchNorm> bn1_;
  std::shared_ptr<nn::Activation> act1_;
  std::shared_ptr<SliceDepthwiseConv> dw_;
  std::shared_ptr<SliceBatchNorm> bn2_;
  std::shared_ptr<nn::Activation> act2_;
  std::shared_ptr<SlicePointwiseConv> project_;
  std::shared_ptr<SliceBatchNorm> bn3_;
};

/// The NetAug supernet for a MobileNetV2-style config.
class NetAugModel : public nn::Module {
 public:
  NetAugModel(const models::ModelConfig& config, float aug_mult, Rng& rng);

  /// 1.0 = base network (deployment); up to aug_mult.
  void set_width(float width_mult);
  void set_record_stats(bool record);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string type_name() const override { return "NetAugModel"; }
  std::vector<std::pair<std::string, nn::Module*>> named_children() override;

  float aug_mult() const { return aug_mult_; }

  /// Builds a plain MobileNetV2 holding this supernet's base-width weights —
  /// NetAug's deployment artifact ("directly remove the supernet").
  std::shared_ptr<models::MobileNetV2> export_base();

 private:
  models::ModelConfig config_;
  float aug_mult_;
  std::shared_ptr<nn::ConvBnAct> stem_;
  std::vector<std::shared_ptr<AugInvertedResidual>> blocks_;
  std::shared_ptr<nn::ConvBnAct> head_;
  std::shared_ptr<nn::GlobalAvgPool> pool_;
  std::shared_ptr<nn::Linear> classifier_;
};

struct NetAugConfig {
  float aug_mult = 2.0f;
  /// Weight of the sampled augmented configuration's loss.
  float aug_loss_weight = 1.0f;
  uint64_t seed = 31;
};

/// Full NetAug training run; evaluation happens at base width.
train::TrainHistory train_netaug(NetAugModel& model,
                                 const data::ClassificationDataset& train_set,
                                 const data::ClassificationDataset& test_set,
                                 const train::TrainConfig& config,
                                 const NetAugConfig& netaug);

}  // namespace nb::baselines
