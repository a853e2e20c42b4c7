#include "baselines/netaug.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "data/dataloader.h"
#include "nn/init.h"
#include "nn/losses.h"
#include "nn/serialize.h"
#include "optim/lr_schedule.h"
#include "optim/sgd.h"
#include "tensor/tensor_ops.h"
#include "train/metrics.h"

namespace nb::baselines {

namespace {

// Copies the first n floats of src over those of dst: a channel prefix of a
// depthwise weight or a BN vector, whose channels are its leading entries.
void copy_head(const Tensor& src, Tensor& dst, int64_t n) {
  NB_CHECK(n <= src.numel() && n <= dst.numel(), "NetAug prefix out of range");
  std::copy_n(src.data(), n, dst.data());
}

}  // namespace

// ---------------------------------------------------------------- conv 1x1

SlicePointwiseConv::SlicePointwiseConv(int64_t max_in, int64_t max_out)
    : max_in_(max_in),
      max_out_(max_out),
      active_in_(max_in),
      active_out_(max_out),
      weight_(Tensor({max_out, max_in}), /*decay_flag=*/true) {
  NB_CHECK(max_in > 0 && max_out > 0, "slice conv dims");
}

void SlicePointwiseConv::set_active(int64_t active_in, int64_t active_out) {
  NB_CHECK(active_in >= 1 && active_in <= max_in_, "active_in out of range");
  NB_CHECK(active_out >= 1 && active_out <= max_out_, "active_out out of range");
  active_in_ = active_in;
  active_out_ = active_out;
}

std::vector<std::pair<std::string, nn::Parameter*>>
SlicePointwiseConv::local_params() {
  return {{"weight", &weight_}};
}

void SlicePointwiseConv::copy_prefix_to(nn::Conv2d& dst) {
  const int64_t out = dst.options().out_channels;
  const int64_t in = dst.options().in_channels;
  NB_CHECK(dst.is_pointwise() && out <= max_out_ && in <= max_in_,
           "SlicePointwiseConv::copy_prefix_to: shape mismatch");
  for (int64_t o = 0; o < out; ++o) {
    std::copy_n(weight_.value.data() + o * max_in_, in,
                dst.weight().value.data() + o * in);
  }
}

Tensor SlicePointwiseConv::forward(const Tensor& x) {
  conv_ = std::make_unique<nn::Conv2d>(
      nn::Conv2dOptions(active_in_, active_out_, 1));
  copy_prefix_to(*conv_);
  return conv_->forward(x);
}

Tensor SlicePointwiseConv::backward(const Tensor& grad_out) {
  NB_CHECK(conv_ != nullptr, "SlicePointwiseConv::backward before forward");
  // The batch's dW is summed in the zeroed layer, then added to the slice's
  // gradient as one term per pass.
  conv_->zero_grad();
  Tensor grad_in = conv_->backward(grad_out);
  const int64_t out = conv_->options().out_channels;
  const int64_t in = conv_->options().in_channels;
  for (int64_t o = 0; o < out; ++o) {
    float* dst = weight_.grad.data() + o * max_in_;
    const float* src = conv_->weight().grad.data() + o * in;
    for (int64_t m = 0; m < in; ++m) dst[m] += src[m];
  }
  return grad_in;
}

// ------------------------------------------------------------- conv dw kxk

SliceDepthwiseConv::SliceDepthwiseConv(int64_t max_channels, int64_t kernel,
                                       int64_t stride)
    : kernel_(kernel),
      stride_(stride),
      active_(max_channels),
      weight_(Tensor({max_channels, 1, kernel, kernel}), /*decay_flag=*/true) {}

std::vector<std::pair<std::string, nn::Parameter*>>
SliceDepthwiseConv::local_params() {
  return {{"weight", &weight_}};
}

void SliceDepthwiseConv::copy_prefix_to(nn::Conv2d& dst) {
  NB_CHECK(dst.is_depthwise() && dst.options().kernel == kernel_,
           "SliceDepthwiseConv::copy_prefix_to: shape mismatch");
  copy_head(weight_.value, dst.weight().value, dst.weight().value.numel());
}

Tensor SliceDepthwiseConv::forward(const Tensor& x) {
  conv_ = std::make_unique<nn::Conv2d>(
      nn::Conv2dOptions(active_, active_, kernel_)
          .with_stride(stride_)
          .same_padding()
          .with_groups(active_));
  copy_prefix_to(*conv_);
  return conv_->forward(x);
}

Tensor SliceDepthwiseConv::backward(const Tensor& grad_out) {
  NB_CHECK(conv_ != nullptr, "SliceDepthwiseConv::backward before forward");
  // nn's pass continues each kernel's gradient from the value it holds, so
  // the slice's gradient goes in before and comes back after.
  Tensor& grad = conv_->weight().grad;
  copy_head(weight_.grad, grad, grad.numel());
  Tensor grad_in = conv_->backward(grad_out);
  copy_head(grad, weight_.grad, grad.numel());
  return grad_in;
}

// --------------------------------------------------------------------- BN

SliceBatchNorm::SliceBatchNorm(int64_t max_channels, float eps, float momentum)
    : active_(max_channels),
      eps_(eps),
      momentum_(momentum),
      gamma_(Tensor::ones({max_channels}), /*decay_flag=*/false),
      beta_(Tensor::zeros({max_channels}), /*decay_flag=*/false),
      running_mean_(Tensor::zeros({max_channels})),
      running_var_(Tensor::ones({max_channels})) {}

std::vector<std::pair<std::string, nn::Parameter*>>
SliceBatchNorm::local_params() {
  return {{"gamma", &gamma_}, {"beta", &beta_}};
}

std::vector<std::pair<std::string, Tensor*>> SliceBatchNorm::local_buffers() {
  return {{"running_mean", &running_mean_}, {"running_var", &running_var_}};
}

void SliceBatchNorm::copy_prefix_to(nn::BatchNorm2d& dst) {
  const int64_t c = dst.channels();
  copy_head(gamma_.value, dst.gamma().value, c);
  copy_head(beta_.value, dst.beta().value, c);
  copy_head(running_mean_, dst.running_mean(), c);
  copy_head(running_var_, dst.running_var(), c);
}

Tensor SliceBatchNorm::forward(const Tensor& x) {
  bn_ = std::make_unique<nn::BatchNorm2d>(active_, eps_, momentum_);
  copy_prefix_to(*bn_);
  bn_->set_training(training());
  Tensor y = bn_->forward(x);
  if (training() && record_stats_) {
    copy_head(bn_->running_mean(), running_mean_, active_);
    copy_head(bn_->running_var(), running_var_, active_);
  }
  return y;
}

Tensor SliceBatchNorm::backward(const Tensor& grad_out) {
  NB_CHECK(bn_ != nullptr, "SliceBatchNorm::backward before forward");
  const int64_t c = bn_->channels();
  copy_head(gamma_.grad, bn_->gamma().grad, c);
  copy_head(beta_.grad, bn_->beta().grad, c);
  Tensor grad_in = bn_->backward(grad_out);
  copy_head(bn_->gamma().grad, gamma_.grad, c);
  copy_head(bn_->beta().grad, beta_.grad, c);
  return grad_in;
}

// ------------------------------------------------------------------ block

AugInvertedResidual::AugInvertedResidual(int64_t cin, int64_t cout,
                                         int64_t stride, int64_t expand_ratio,
                                         int64_t kernel, float aug_mult,
                                         nn::ActKind act)
    : cin_(cin),
      cout_(cout),
      stride_(stride),
      base_hidden_(cin * expand_ratio),
      max_hidden_(expand_ratio == 1
                      ? cin
                      : static_cast<int64_t>(std::lround(
                            static_cast<double>(cin * expand_ratio) * aug_mult))),
      active_hidden_(base_hidden_),
      use_residual_(stride == 1 && cin == cout) {
  if (expand_ratio > 1) {
    expand_ = std::make_shared<SlicePointwiseConv>(cin, max_hidden_);
    bn1_ = std::make_shared<SliceBatchNorm>(max_hidden_);
    act1_ = std::make_shared<nn::Activation>(act);
  }
  dw_ = std::make_shared<SliceDepthwiseConv>(max_hidden_, kernel, stride);
  bn2_ = std::make_shared<SliceBatchNorm>(max_hidden_);
  act2_ = std::make_shared<nn::Activation>(act);
  project_ = std::make_shared<SlicePointwiseConv>(max_hidden_, cout);
  bn3_ = std::make_shared<SliceBatchNorm>(cout);
  set_width(1.0f);
}

void AugInvertedResidual::set_width(float width_mult) {
  NB_CHECK(width_mult >= 1.0f, "NetAug width >= 1");
  if (!expand_) return;  // t == 1 blocks are not augmented
  active_hidden_ = std::min<int64_t>(
      max_hidden_, static_cast<int64_t>(std::lround(
                       static_cast<double>(base_hidden_) * width_mult)));
  expand_->set_active(cin_, active_hidden_);
  bn1_->set_active(active_hidden_);
  dw_->set_active(active_hidden_);
  bn2_->set_active(active_hidden_);
  project_->set_active(active_hidden_, cout_);
  bn3_->set_active(cout_);
}

void AugInvertedResidual::set_record_stats(bool record) {
  if (bn1_) bn1_->set_record_stats(record);
  bn2_->set_record_stats(record);
  bn3_->set_record_stats(record);
}

Tensor AugInvertedResidual::forward(const Tensor& x) {
  Tensor y = x;
  if (expand_) {
    y = expand_->forward(y);
    y = bn1_->forward(y);
    y = act1_->forward(y);
  }
  y = dw_->forward(y);
  y = bn2_->forward(y);
  y = act2_->forward(y);
  y = project_->forward(y);
  y = bn3_->forward(y);
  if (use_residual_) y.add_(x);
  return y;
}

Tensor AugInvertedResidual::backward(const Tensor& grad_out) {
  Tensor g = bn3_->backward(grad_out);
  g = project_->backward(g);
  g = act2_->backward(g);
  g = bn2_->backward(g);
  g = dw_->backward(g);
  if (expand_) {
    g = act1_->backward(g);
    g = bn1_->backward(g);
    g = expand_->backward(g);
  }
  if (use_residual_) g.add_(grad_out);
  return g;
}

std::vector<std::pair<std::string, nn::Module*>>
AugInvertedResidual::named_children() {
  std::vector<std::pair<std::string, nn::Module*>> out;
  if (expand_) {
    out.emplace_back("expand", expand_.get());
    out.emplace_back("bn1", bn1_.get());
    out.emplace_back("act1", act1_.get());
  }
  out.emplace_back("dw", dw_.get());
  out.emplace_back("bn2", bn2_.get());
  out.emplace_back("act2", act2_.get());
  out.emplace_back("project", project_.get());
  out.emplace_back("bn3", bn3_.get());
  return out;
}

void AugInvertedResidual::export_base_to(nn::InvertedResidual& dst) {
  NB_CHECK(dst.cin() == cin_ && dst.cout() == cout_ &&
               dst.stride() == stride_,
           "export_base_to: block geometry mismatch");
  NB_CHECK(dst.has_expand() == (expand_ != nullptr),
           "export_base_to: expand-stage mismatch");
  if (expand_) {
    expand_->copy_prefix_to(*dst.expand_unit().conv2d());
    bn1_->copy_prefix_to(*dst.expand_unit().bn());
  }
  dw_->copy_prefix_to(*dst.dw_unit().conv2d());
  bn2_->copy_prefix_to(*dst.dw_unit().bn());
  project_->copy_prefix_to(*dst.project_unit().conv2d());
  bn3_->copy_prefix_to(*dst.project_unit().bn());
}

// ------------------------------------------------------------------ model

NetAugModel::NetAugModel(const models::ModelConfig& config, float aug_mult,
                         Rng& rng)
    : config_(config), aug_mult_(aug_mult) {
  const int64_t stem_c =
      models::make_divisible(config.stem_channels * config.width_mult);
  stem_ = std::make_shared<nn::ConvBnAct>(
      nn::Conv2dOptions(3, stem_c, 3).same_padding(), config.act);
  int64_t cin = stem_c;
  for (const models::Stage& stage : config.stages) {
    const int64_t cout = models::make_divisible(stage.c * config.width_mult);
    for (int64_t i = 0; i < stage.n; ++i) {
      const int64_t stride = i == 0 ? stage.s : 1;
      blocks_.push_back(std::make_shared<AugInvertedResidual>(
          cin, cout, stride, stage.t, stage.k, aug_mult, config.act));
      cin = cout;
    }
  }
  const int64_t feat =
      models::make_divisible(config.head_channels * config.width_mult);
  head_ = std::make_shared<nn::ConvBnAct>(nn::Conv2dOptions(cin, feat, 1),
                                          config.act);
  pool_ = std::make_shared<nn::GlobalAvgPool>();
  classifier_ = std::make_shared<nn::Linear>(feat, config.num_classes, true);

  nn::init_parameters(*this, rng);
  // Slice layers are not Conv2d, so give their weights a Kaiming-style init
  // by hand.
  apply([&rng](nn::Module& m) {
    if (auto* pw = dynamic_cast<SlicePointwiseConv*>(&m)) {
      const float stddev =
          std::sqrt(2.0f / static_cast<float>(pw->weight().value.size(0)));
      fill_normal(pw->weight().value, rng, 0.0f, stddev);
    } else if (auto* dw = dynamic_cast<SliceDepthwiseConv*>(&m)) {
      for (auto& [name, p] : dw->local_params()) {
        (void)name;
        const float stddev = std::sqrt(
            2.0f / static_cast<float>(p->value.size(2) * p->value.size(3)));
        fill_normal(p->value, rng, 0.0f, stddev);
      }
    }
  });
}

void NetAugModel::set_width(float width_mult) {
  for (auto& b : blocks_) b->set_width(width_mult);
}

void NetAugModel::set_record_stats(bool record) {
  for (auto& b : blocks_) b->set_record_stats(record);
}

Tensor NetAugModel::forward(const Tensor& x) {
  Tensor y = stem_->forward(x);
  for (auto& b : blocks_) y = b->forward(y);
  y = head_->forward(y);
  y = pool_->forward(y);
  return classifier_->forward(y);
}

Tensor NetAugModel::backward(const Tensor& grad_out) {
  Tensor g = classifier_->backward(grad_out);
  g = pool_->backward(g);
  g = head_->backward(g);
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return stem_->backward(g);
}

std::vector<std::pair<std::string, nn::Module*>> NetAugModel::named_children() {
  std::vector<std::pair<std::string, nn::Module*>> out;
  out.emplace_back("stem", stem_.get());
  for (size_t i = 0; i < blocks_.size(); ++i) {
    out.emplace_back("block" + std::to_string(i), blocks_[i].get());
  }
  out.emplace_back("head", head_.get());
  out.emplace_back("pool", pool_.get());
  out.emplace_back("classifier", classifier_.get());
  return out;
}

std::shared_ptr<models::MobileNetV2> NetAugModel::export_base() {
  auto dst = std::make_shared<models::MobileNetV2>(config_);
  nn::load_state_dict(dst->stem(), nn::state_dict(*stem_));
  auto dst_blocks = dst->residual_blocks();
  NB_CHECK(dst_blocks.size() == blocks_.size(),
           "export_base: block count mismatch");
  for (size_t i = 0; i < blocks_.size(); ++i) {
    blocks_[i]->export_base_to(*dst_blocks[i]);
  }
  nn::load_state_dict(dst->head(), nn::state_dict(*head_));
  nn::load_state_dict(dst->classifier(), nn::state_dict(*classifier_));
  return dst;
}

// --------------------------------------------------------------- training

namespace {

/// BN recalibration for the supernet's slice BNs at base width (same
/// momentum-1/i trick as train::recalibrate_batchnorm; see that docstring).
void recalibrate_netaug(NetAugModel& model,
                        const data::ClassificationDataset& dataset) {
  std::vector<SliceBatchNorm*> bns;
  model.apply([&bns](nn::Module& m) {
    if (auto* bn = dynamic_cast<SliceBatchNorm*>(&m)) bns.push_back(bn);
  });
  std::vector<nn::BatchNorm2d*> plain;
  model.apply([&plain](nn::Module& m) {
    if (auto* bn = dynamic_cast<nn::BatchNorm2d*>(&m)) plain.push_back(bn);
  });

  model.set_width(1.0f);
  model.set_record_stats(true);
  model.set_training(true);
  data::DataLoader loader(dataset, 64, /*shuffle=*/false, /*augment=*/false);
  loader.start_epoch();
  data::Batch batch;
  int64_t i = 0;
  while (i < 8 && loader.next(batch)) {
    const float m = 1.0f / static_cast<float>(i + 1);
    for (SliceBatchNorm* bn : bns) bn->set_momentum(m);
    for (nn::BatchNorm2d* bn : plain) bn->set_momentum(m);
    (void)model.forward(batch.images);
    ++i;
  }
  for (SliceBatchNorm* bn : bns) bn->set_momentum(0.1f);
  for (nn::BatchNorm2d* bn : plain) bn->set_momentum(0.1f);
}

}  // namespace

train::TrainHistory train_netaug(NetAugModel& model,
                                 const data::ClassificationDataset& train_set,
                                 const data::ClassificationDataset& test_set,
                                 const train::TrainConfig& config,
                                 const NetAugConfig& netaug) {
  data::LoaderOptions loader_opts;
  loader_opts.batch_size = config.batch_size;
  loader_opts.shuffle = true;
  loader_opts.augment = config.augment;
  loader_opts.seed = config.seed;
  loader_opts.workers = config.data_workers;
  const std::unique_ptr<data::BatchSource> loader =
      data::make_loader(train_set, loader_opts);
  const int64_t steps_per_epoch = loader->num_batches();
  const int64_t total_steps = steps_per_epoch * config.epochs;
  optim::Sgd sgd(model.parameters(),
                 {config.lr, config.momentum, config.weight_decay, false});
  optim::CosineLr schedule(config.lr, total_steps);
  Rng rng(netaug.seed, 21);

  train::TrainHistory history;
  int64_t step = 0;
  for (int64_t epoch = 0; epoch < config.epochs; ++epoch) {
    model.set_training(true);
    loader->start_epoch();
    data::Batch batch;
    double loss_sum = 0.0;
    double acc_sum = 0.0;
    int64_t batches = 0;
    while (loader->next(batch)) {
      sgd.set_lr(schedule.lr_at(step));
      model.zero_grad();

      // Base-width pass: records BN stats, weight 1.
      model.set_width(1.0f);
      model.set_record_stats(true);
      Tensor logits = model.forward(batch.images);
      nn::LossResult base = nn::softmax_cross_entropy(logits, batch.labels);
      model.backward(base.grad);

      // One sampled augmented width, stats not recorded (NetAug aux loss).
      const float width = 1.0f + rng.uniform() * (model.aug_mult() - 1.0f);
      model.set_width(width);
      model.set_record_stats(false);
      Tensor aug_logits = model.forward(batch.images);
      nn::LossResult aug = nn::softmax_cross_entropy(aug_logits, batch.labels);
      aug.grad.mul_(netaug.aug_loss_weight);
      model.backward(aug.grad);

      sgd.step();
      loss_sum += base.loss + netaug.aug_loss_weight * aug.loss;
      acc_sum += nn::accuracy(logits, batch.labels);
      ++batches;
      ++step;
    }
    train::EpochStats stats;
    stats.epoch = epoch;
    stats.train_loss = static_cast<float>(loss_sum / batches);
    stats.train_acc = static_cast<float>(acc_sum / batches);
    stats.lr = sgd.lr();
    model.set_width(1.0f);
    model.set_record_stats(true);
    recalibrate_netaug(model, train_set);
    stats.test_acc = train::evaluate(model, test_set);
    history.best_test_acc = std::max(history.best_test_acc, stats.test_acc);
    history.epochs.push_back(stats);
  }
  history.final_test_acc = history.epochs.back().test_acc;
  return history;
}

}  // namespace nb::baselines
