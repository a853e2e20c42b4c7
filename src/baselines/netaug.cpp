#include "baselines/netaug.h"

#include <cmath>
#include <memory>

#include "data/dataloader.h"
#include "nn/init.h"
#include "nn/losses.h"
#include "nn/serialize.h"
#include "optim/lr_schedule.h"
#include "optim/sgd.h"
#include "tensor/depthwise.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"
#include "train/metrics.h"

namespace nb::baselines {

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

Tensor SlicePointwiseConv::forward(const Tensor& x) {
  NB_CHECK(x.dim() == 4 && x.size(1) == active_in_,
           "SlicePointwiseConv input mismatch: " + x.shape_str());
  input_ = x;
  const int64_t n = x.size(0), h = x.size(2), w = x.size(3);
  const int64_t plane = h * w;
  Tensor y({n, active_out_, h, w});
  // Row slice is contiguous only along out; gather the [act_out, act_in]
  // block explicitly so GEMM runs on dense buffers.
  Tensor wact({active_out_, active_in_});
  for (int64_t o = 0; o < active_out_; ++o) {
    const float* src = weight_.value.data() + o * max_in_;
    std::copy(src, src + active_in_, wact.data() + o * active_in_);
  }
  for (int64_t i = 0; i < n; ++i) {
    gemm(false, false, active_out_, plane, active_in_, 1.0f, wact.data(),
         x.data() + i * active_in_ * plane, 0.0f,
         y.data() + i * active_out_ * plane);
  }
  return y;
}

Tensor SlicePointwiseConv::backward(const Tensor& grad_out) {
  NB_CHECK(input_.defined(), "SlicePointwiseConv::backward before forward");
  const int64_t n = input_.size(0), h = input_.size(2), w = input_.size(3);
  const int64_t plane = h * w;

  Tensor wgrad_act({active_out_, active_in_});
  Tensor wact({active_out_, active_in_});
  for (int64_t o = 0; o < active_out_; ++o) {
    const float* src = weight_.value.data() + o * max_in_;
    std::copy(src, src + active_in_, wact.data() + o * active_in_);
  }
  Tensor grad_in({n, active_in_, h, w});
  for (int64_t i = 0; i < n; ++i) {
    const float* gout = grad_out.data() + i * active_out_ * plane;
    // dW += dY * X^T
    gemm(false, true, active_out_, active_in_, plane, 1.0f, gout,
         input_.data() + i * active_in_ * plane, 1.0f, wgrad_act.data());
    // dX = W^T * dY
    gemm(true, false, active_in_, plane, active_out_, 1.0f, wact.data(), gout,
         0.0f, grad_in.data() + i * active_in_ * plane);
  }
  for (int64_t o = 0; o < active_out_; ++o) {
    float* dst = weight_.grad.data() + o * max_in_;
    const float* src = wgrad_act.data() + o * active_in_;
    for (int64_t m = 0; m < active_in_; ++m) dst[m] += src[m];
  }
  return grad_in;
}

// ------------------------------------------------------------- conv dw kxk

SliceDepthwiseConv::SliceDepthwiseConv(int64_t max_channels, int64_t kernel,
                                       int64_t stride)
    : max_channels_(max_channels),
      kernel_(kernel),
      stride_(stride),
      active_(max_channels),
      weight_(Tensor({max_channels, 1, kernel, kernel}), /*decay_flag=*/true) {}

std::vector<std::pair<std::string, nn::Parameter*>>
SliceDepthwiseConv::local_params() {
  return {{"weight", &weight_}};
}

Tensor SliceDepthwiseConv::forward(const Tensor& x) {
  NB_CHECK(x.size(1) == active_, "SliceDepthwiseConv input mismatch");
  input_ = x;
  const int64_t n = x.size(0), h = x.size(2), w = x.size(3);
  const int64_t k = kernel_, pad = (kernel_ - 1) / 2;
  const int64_t oh = (h + 2 * pad - k) / stride_ + 1;
  const int64_t ow = (w + 2 * pad - k) / stride_ + 1;
  Tensor y({n, active_, oh, ow});
  // The active channels are a prefix of the weight, so channel c's kernel
  // sits at c*k*k as in a full-width depthwise conv.
  DepthwisePlanes g;
  g.count = n * active_;
  g.channels = active_;
  g.h = h;
  g.w = w;
  g.oh = oh;
  g.ow = ow;
  g.k = k;
  g.s = stride_;
  g.pad = pad;
  depthwise_blocks(g, x.data(), weight_.value.data(), nullptr, y.data());
  return y;
}

Tensor SliceDepthwiseConv::backward(const Tensor& grad_out) {
  NB_CHECK(input_.defined(), "SliceDepthwiseConv::backward before forward");
  const int64_t n = input_.size(0), h = input_.size(2), w = input_.size(3);
  const int64_t k = kernel_, pad = (kernel_ - 1) / 2;
  const int64_t oh = grad_out.size(2), ow = grad_out.size(3);
  Tensor grad_in(input_.shape());
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t c = 0; c < active_; ++c) {
      const float* img = input_.data() + (i * active_ + c) * h * w;
      const float* gout = grad_out.data() + (i * active_ + c) * oh * ow;
      const float* ker = weight_.value.data() + c * k * k;
      float* kgrad = weight_.grad.data() + c * k * k;
      float* gin = grad_in.data() + (i * active_ + c) * h * w;
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox) {
          const float gv = gout[oy * ow + ox];
          if (gv == 0.0f) continue;
          for (int64_t ki = 0; ki < k; ++ki) {
            const int64_t iy = oy * stride_ + ki - pad;
            if (iy < 0 || iy >= h) continue;
            for (int64_t kj = 0; kj < k; ++kj) {
              const int64_t ix = ox * stride_ + kj - pad;
              if (ix < 0 || ix >= w) continue;
              kgrad[ki * k + kj] += gv * img[iy * w + ix];
              gin[iy * w + ix] += gv * ker[ki * k + kj];
            }
          }
        }
      }
    }
  }
  return grad_in;
}

// --------------------------------------------------------------------- BN

SliceBatchNorm::SliceBatchNorm(int64_t max_channels, float eps, float momentum)
    : max_channels_(max_channels),
      active_(max_channels),
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

Tensor SliceBatchNorm::forward(const Tensor& x) {
  NB_CHECK(x.size(1) == active_, "SliceBatchNorm input mismatch");
  const int64_t n = x.size(0), h = x.size(2), w = x.size(3);
  const int64_t plane = h * w;
  const int64_t count = n * plane;
  Tensor y(x.shape());
  forward_was_training_ = training();

  if (training()) {
    xhat_ = Tensor(x.shape());
    inv_std_ = Tensor({active_});
    count_ = count;
    for (int64_t c = 0; c < active_; ++c) {
      double sum = 0.0, sq = 0.0;
      for (int64_t i = 0; i < n; ++i) {
        const float* p = x.data() + (i * active_ + c) * plane;
        for (int64_t j = 0; j < plane; ++j) {
          sum += p[j];
          sq += static_cast<double>(p[j]) * p[j];
        }
      }
      const float mean = static_cast<float>(sum / count);
      const float var =
          static_cast<float>(sq / count - static_cast<double>(mean) * mean);
      const float istd = 1.0f / std::sqrt(std::max(var, 0.0f) + eps_);
      inv_std_.at(c) = istd;
      const float g = gamma_.value.at(c), b = beta_.value.at(c);
      for (int64_t i = 0; i < n; ++i) {
        const float* p = x.data() + (i * active_ + c) * plane;
        float* xh = xhat_.data() + (i * active_ + c) * plane;
        float* o = y.data() + (i * active_ + c) * plane;
        for (int64_t j = 0; j < plane; ++j) {
          xh[j] = (p[j] - mean) * istd;
          o[j] = g * xh[j] + b;
        }
      }
      if (record_stats_) {
        const float unbiased =
            count > 1 ? var * static_cast<float>(count) / (count - 1) : var;
        running_mean_.at(c) =
            (1.0f - momentum_) * running_mean_.at(c) + momentum_ * mean;
        running_var_.at(c) =
            (1.0f - momentum_) * running_var_.at(c) + momentum_ * unbiased;
      }
    }
  } else {
    for (int64_t c = 0; c < active_; ++c) {
      const float istd = 1.0f / std::sqrt(running_var_.at(c) + eps_);
      const float g = gamma_.value.at(c) * istd;
      const float b = beta_.value.at(c) - running_mean_.at(c) * g;
      for (int64_t i = 0; i < n; ++i) {
        const float* p = x.data() + (i * active_ + c) * plane;
        float* o = y.data() + (i * active_ + c) * plane;
        for (int64_t j = 0; j < plane; ++j) o[j] = g * p[j] + b;
      }
    }
  }
  return y;
}

Tensor SliceBatchNorm::backward(const Tensor& grad_out) {
  NB_CHECK(forward_was_training_ && xhat_.defined(),
           "SliceBatchNorm::backward requires training forward");
  const int64_t n = grad_out.size(0);
  const int64_t plane = grad_out.size(2) * grad_out.size(3);
  Tensor grad_in(grad_out.shape());
  const float inv_count = 1.0f / static_cast<float>(count_);
  for (int64_t c = 0; c < active_; ++c) {
    double sum_g = 0.0, sum_gx = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      const float* g = grad_out.data() + (i * active_ + c) * plane;
      const float* xh = xhat_.data() + (i * active_ + c) * plane;
      for (int64_t j = 0; j < plane; ++j) {
        sum_g += g[j];
        sum_gx += static_cast<double>(g[j]) * xh[j];
      }
    }
    gamma_.grad.at(c) += static_cast<float>(sum_gx);
    beta_.grad.at(c) += static_cast<float>(sum_g);
    const float gmma = gamma_.value.at(c);
    const float istd = inv_std_.at(c);
    const float mean_g = static_cast<float>(sum_g) * inv_count;
    const float mean_gx = static_cast<float>(sum_gx) * inv_count;
    for (int64_t i = 0; i < n; ++i) {
      const float* g = grad_out.data() + (i * active_ + c) * plane;
      const float* xh = xhat_.data() + (i * active_ + c) * plane;
      float* gi = grad_in.data() + (i * active_ + c) * plane;
      for (int64_t j = 0; j < plane; ++j) {
        gi[j] = gmma * istd * (g[j] - mean_g - xh[j] * mean_gx);
      }
    }
  }
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

namespace {

void copy_slice_bn(SliceBatchNorm& src, nn::BatchNorm2d& dst) {
  const int64_t c = dst.channels();
  auto src_params = src.local_params();
  auto src_buffers = src.local_buffers();
  for (int64_t i = 0; i < c; ++i) {
    dst.gamma().value.at(i) = src_params[0].second->value.at(i);
    dst.beta().value.at(i) = src_params[1].second->value.at(i);
    dst.running_mean().at(i) = src_buffers[0].second->at(i);
    dst.running_var().at(i) = src_buffers[1].second->at(i);
  }
}

void copy_pointwise_slice(SlicePointwiseConv& src, nn::Conv2d& dst) {
  const int64_t out_c = dst.options().out_channels;
  const int64_t in_c = dst.options().in_channels;
  const int64_t max_in = src.weight().value.size(1);
  for (int64_t o = 0; o < out_c; ++o) {
    for (int64_t m = 0; m < in_c; ++m) {
      dst.weight().value.at(o * in_c + m) =
          src.weight().value.at(o * max_in + m);
    }
  }
}

}  // namespace

void AugInvertedResidual::export_base_to(nn::InvertedResidual& dst) {
  NB_CHECK(dst.cin() == cin_ && dst.cout() == cout_ &&
               dst.stride() == stride_,
           "export_base_to: block geometry mismatch");
  NB_CHECK(dst.has_expand() == (expand_ != nullptr),
           "export_base_to: expand-stage mismatch");
  if (expand_) {
    copy_pointwise_slice(*expand_, *dst.expand_unit().conv2d());
    copy_slice_bn(*bn1_, *dst.expand_unit().bn());
  }
  // Depthwise slice: first base_hidden_ channels.
  nn::Conv2d& dw_dst = *dst.dw_unit().conv2d();
  const int64_t k = dw_dst.options().kernel;
  auto dw_params = dw_->local_params();
  for (int64_t c = 0; c < base_hidden_; ++c) {
    for (int64_t j = 0; j < k * k; ++j) {
      dw_dst.weight().value.at(c * k * k + j) =
          dw_params[0].second->value.at(c * k * k + j);
    }
  }
  copy_slice_bn(*bn2_, *dst.dw_unit().bn());
  copy_pointwise_slice(*project_, *dst.project_unit().conv2d());
  copy_slice_bn(*bn3_, *dst.project_unit().bn());
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
