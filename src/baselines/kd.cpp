#include "baselines/kd.h"

#include <cmath>
#include <memory>

#include "data/dataloader.h"
#include "nn/init.h"
#include "nn/losses.h"
#include "nn/pooling.h"
#include "optim/lr_schedule.h"
#include "optim/sgd.h"
#include "tensor/tensor_ops.h"
#include "train/metrics.h"

namespace nb::baselines {

namespace {

// (1 - alpha) * CE + alpha * T^2 * KL against `teacher_logits`: the loss of
// every KD variant here.
nn::LossResult kd_blend(const Tensor& logits,
                        const std::vector<int64_t>& labels,
                        const Tensor& teacher_logits, const KdConfig& config) {
  nn::LossResult ce = nn::softmax_cross_entropy(logits, labels);
  nn::LossResult kd = nn::kd_kl(logits, teacher_logits, config.temperature);
  nn::LossResult out;
  out.loss = (1.0f - config.alpha) * ce.loss + config.alpha * kd.loss;
  out.grad = ce.grad.scale(1.0f - config.alpha);
  out.grad.add_scaled_(kd.grad, config.alpha);
  return out;
}

}  // namespace

train::LossFn make_kd_loss(std::shared_ptr<nn::Module> teacher,
                           const KdConfig& config) {
  NB_CHECK(teacher != nullptr, "KD needs a teacher");
  teacher->set_training(false);
  return [teacher, config](const Tensor& logits,
                           const std::vector<int64_t>& labels,
                           const Tensor& images) {
    return kd_blend(logits, labels, teacher->forward(images), config);
  };
}

train::LossFn make_tfkd_loss(int64_t num_classes, const KdConfig& config,
                             float correct_prob) {
  NB_CHECK(num_classes > 1, "tf-KD needs multiple classes");
  NB_CHECK(correct_prob > 1.0f / static_cast<float>(num_classes) &&
               correct_prob < 1.0f,
           "tf-KD correct_prob out of range");
  const float off =
      (1.0f - correct_prob) / static_cast<float>(num_classes - 1);
  return [num_classes, config, correct_prob, off](
             const Tensor& logits, const std::vector<int64_t>& labels,
             const Tensor&) {
    const int64_t n = logits.size(0);
    // Manual teacher logits: log of the designed distribution; kd_kl applies
    // the temperature on top (Yuan et al., Eq. 11).
    Tensor teacher({n, num_classes});
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < num_classes; ++j) {
        const float p = j == labels[static_cast<size_t>(i)] ? correct_prob : off;
        teacher.at(i, j) = std::log(p);
      }
    }
    return kd_blend(logits, labels, teacher, config);
  };
}

std::vector<std::map<std::string, Tensor>> train_teacher_route(
    models::MobileNetV2& teacher, const data::ClassificationDataset& train_set,
    const data::ClassificationDataset& test_set,
    const train::TrainConfig& config, int64_t route_length) {
  NB_CHECK(route_length >= 1, "route needs at least one checkpoint");
  std::vector<std::map<std::string, Tensor>> route;
  const int64_t steps_per_epoch =
      (train_set.size() + config.batch_size - 1) / config.batch_size;
  const int64_t total_steps = steps_per_epoch * config.epochs;

  // Snapshot at the end of each of `route_length` equal step chunks.
  std::vector<int64_t> milestones;
  for (int64_t i = 1; i <= route_length; ++i) {
    milestones.push_back(total_steps * i / route_length);
  }
  size_t next = 0;
  train::train_classifier(
      teacher, train_set, test_set, config, nullptr,
      [&](int64_t step, int64_t) {
        if (next < milestones.size() && step >= milestones[next]) {
          route.push_back(nn::state_dict(teacher));
          ++next;
        }
      });
  // Guard against rounding: always include the final weights.
  if (route.size() < static_cast<size_t>(route_length)) {
    route.push_back(nn::state_dict(teacher));
  }
  return route;
}

train::TrainHistory train_rco_kd(
    models::MobileNetV2& student, models::MobileNetV2& teacher,
    const std::vector<std::map<std::string, Tensor>>& route,
    const data::ClassificationDataset& train_set,
    const data::ClassificationDataset& test_set,
    const train::TrainConfig& config, const KdConfig& kd) {
  NB_CHECK(!route.empty(), "RCO route is empty");
  const int64_t steps_per_epoch =
      (train_set.size() + config.batch_size - 1) / config.batch_size;
  const int64_t total_steps = steps_per_epoch * config.epochs;
  const int64_t stage_len =
      std::max<int64_t>(1, total_steps / static_cast<int64_t>(route.size()));

  teacher.set_training(false);
  int64_t current_stage = -1;
  auto ensure_stage = [&](int64_t step) {
    const int64_t stage = std::min<int64_t>(
        step / stage_len, static_cast<int64_t>(route.size()) - 1);
    if (stage != current_stage) {
      nn::load_state_dict(teacher, route[static_cast<size_t>(stage)]);
      current_stage = stage;
    }
  };
  ensure_stage(0);

  train::LossFn loss_fn = [&teacher, kd](const Tensor& logits,
                                         const std::vector<int64_t>& labels,
                                         const Tensor& images) {
    return kd_blend(logits, labels, teacher.forward(images), kd);
  };

  return train::train_classifier(
      student, train_set, test_set, config, loss_fn,
      [&ensure_stage](int64_t step, int64_t) { ensure_stage(step); });
}

train::TrainHistory train_rocket(models::MobileNetV2& light,
                                 const data::ClassificationDataset& train_set,
                                 const data::ClassificationDataset& test_set,
                                 const train::TrainConfig& config,
                                 const RocketConfig& rocket) {
  // Booster branch: a wider head + classifier sharing the light trunk.
  Rng rng(rocket.seed, 27);
  const int64_t trunk_channels =
      dynamic_cast<nn::Conv2d*>(light.head().conv_slot().get())
          ->options()
          .in_channels;
  const int64_t boost_feat = static_cast<int64_t>(
      std::lround(light.feature_channels() * rocket.booster_width));
  auto boost_head = std::make_shared<nn::ConvBnAct>(
      nn::Conv2dOptions(trunk_channels, boost_feat, 1), light.config().act);
  auto boost_pool = std::make_shared<nn::GlobalAvgPool>();
  auto boost_fc = std::make_shared<nn::Linear>(
      boost_feat, light.config().num_classes, true);
  nn::init_parameters(*boost_head, rng);
  fill_normal(boost_fc->weight().value, rng, 0.0f, 0.01f);
  boost_fc->bias().value.zero();
  auto light_pool = std::make_shared<nn::GlobalAvgPool>();

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

  std::vector<nn::Parameter*> params = light.parameters();
  for (nn::Parameter* p : boost_head->parameters()) params.push_back(p);
  for (nn::Parameter* p : boost_fc->parameters()) params.push_back(p);
  optim::Sgd sgd(params, {config.lr, config.momentum, config.weight_decay, false});
  optim::CosineLr schedule(config.lr, total_steps);

  auto zero_all = [&] {
    light.zero_grad();
    boost_head->zero_grad();
    boost_fc->zero_grad();
  };

  train::TrainHistory history;
  int64_t step = 0;
  for (int64_t epoch = 0; epoch < config.epochs; ++epoch) {
    light.set_training(true);
    boost_head->set_training(true);
    boost_fc->set_training(true);
    loader->start_epoch();
    data::Batch batch;
    double loss_sum = 0.0;
    double acc_sum = 0.0;
    int64_t batches = 0;
    while (loader->next(batch)) {
      sgd.set_lr(schedule.lr_at(step));
      zero_all();

      // Shared trunk.
      Tensor t = light.stem().forward(batch.images);
      t = light.blocks().forward(t);

      // Light branch.
      Tensor lf = light.head().forward(t);
      Tensor lp = light_pool->forward(lf);
      Tensor light_logits = light.classifier().forward(lp);

      // Booster branch.
      Tensor bf = boost_head->forward(t);
      Tensor bp = boost_pool->forward(bf);
      Tensor boost_logits = boost_fc->forward(bp);

      nn::LossResult ce_l = nn::softmax_cross_entropy(light_logits, batch.labels);
      nn::LossResult ce_b = nn::softmax_cross_entropy(boost_logits, batch.labels);
      // Hint: pull the light logits toward the (detached) booster logits.
      nn::LossResult hint = nn::mse(light_logits, boost_logits);

      Tensor g_light = ce_l.grad.clone();
      g_light.add_scaled_(hint.grad, rocket.hint_weight);
      Tensor g_boost = ce_b.grad;  // gradient blocked: hint does not push booster

      Tensor gt_light = light.head().backward(
          light_pool->backward(light.classifier().backward(g_light)));
      Tensor gt_boost = boost_head->backward(
          boost_pool->backward(boost_fc->backward(g_boost)));
      gt_light.add_(gt_boost);
      light.stem().backward(light.blocks().backward(gt_light));

      sgd.step();
      loss_sum += ce_l.loss + ce_b.loss + rocket.hint_weight * hint.loss;
      acc_sum += nn::accuracy(light_logits, batch.labels);
      ++batches;
      ++step;
    }
    train::EpochStats stats;
    stats.epoch = epoch;
    stats.train_loss = static_cast<float>(loss_sum / batches);
    stats.train_acc = static_cast<float>(acc_sum / batches);
    stats.lr = sgd.lr();
    train::recalibrate_batchnorm(light, train_set);
    stats.test_acc = train::evaluate(light, test_set);
    history.best_test_acc = std::max(history.best_test_acc, stats.test_acc);
    history.epochs.push_back(stats);
  }
  history.final_test_acc = history.epochs.back().test_acc;
  return history;
}

}  // namespace nb::baselines
