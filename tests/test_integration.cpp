// Cross-module integration tests: saving and restoring state mid-pipeline,
// NetAug deployment export feeding the detector, KD over contracted models,
// and determinism of the full NetBooster flow.
#include <gtest/gtest.h>

#include "baselines/kd.h"
#include "baselines/netaug.h"
#include "core/netbooster.h"
#include "data/synth_detection.h"
#include "detect/detect_trainer.h"
#include "models/profiler.h"
#include "models/registry.h"
#include "nn/serialize.h"
#include "test_util.h"
#include "train/metrics.h"

namespace nb {
namespace {

using ::nb::testing::ToyDataset;

TEST(Integration, ExpandedModelCheckpointRoundTrip) {
  // A deep giant (including PLT alphas mid-ramp) must survive save/restore.
  auto a = models::make_model("mbv2-tiny", 6, 11);
  core::ExpansionConfig config;
  Rng rng(900);
  core::ExpansionResult exp_a = core::expand_network(*a, config, rng);
  for (nn::PltActivation* act : exp_a.plt_activations) act->set_alpha(0.37f);
  const auto saved = nn::state_dict(*a);

  auto b = models::make_model("mbv2-tiny", 6, 12);
  Rng rng2(900);  // same seed -> same structure
  core::ExpansionResult exp_b = core::expand_network(*b, config, rng2);
  nn::load_state_dict(*b, saved);

  for (nn::PltActivation* act : exp_b.plt_activations) {
    EXPECT_FLOAT_EQ(act->alpha(), 0.37f) << "alpha must ride the state dict";
  }
  a->set_training(false);
  b->set_training(false);
  Tensor x({1, 3, 20, 20});
  fill_normal(x, rng, 0.0f, 1.0f);
  EXPECT_LT(max_abs_diff(a->forward(x), b->forward(x)), 1e-6f);
}

TEST(Integration, PipelineIsDeterministicAcrossRuns) {
  ToyDataset train(10, 3, 12, 41);
  ToyDataset test(5, 3, 12, 42);
  core::NetBoosterConfig c;
  c.giant.epochs = 2;
  c.giant.batch_size = 16;
  c.giant.augment = false;
  c.tune.epochs = 2;
  c.tune.batch_size = 16;
  c.tune.augment = false;

  auto r1 = core::run_netbooster(models::make_model("mbv2-tiny", 3, 13),
                                 train, test, c);
  auto r2 = core::run_netbooster(models::make_model("mbv2-tiny", 3, 13),
                                 train, test, c);
  EXPECT_FLOAT_EQ(r1.expanded_acc, r2.expanded_acc);
  EXPECT_FLOAT_EQ(r1.final_acc, r2.final_acc);
}

TEST(Integration, ProfilerAgreesAcrossPipelineStages) {
  // vanilla == contracted exactly; giant strictly larger.
  auto model = models::make_model("mbv2-35", 8, 14);
  const models::Profile vanilla = models::profile_model(*model, 20);

  core::ExpansionConfig config;
  Rng rng(901);
  core::ExpansionResult expansion = core::expand_network(*model, config, rng);
  const models::Profile giant = models::profile_model(*model, 20);
  EXPECT_GT(giant.flops, vanilla.flops);
  EXPECT_GT(giant.params, vanilla.params);

  for (nn::PltActivation* act : expansion.plt_activations) act->set_alpha(1.0f);
  (void)core::contract_network(*model, expansion, true, rng);
  const models::Profile contracted = models::profile_model(*model, 20);
  EXPECT_EQ(contracted.flops, vanilla.flops);
  EXPECT_EQ(contracted.params, vanilla.params);
}

TEST(Integration, NetAugExportDrivesDetector) {
  // NetAug-pretrained backbone -> export base -> detector trains (Table III
  // wiring).
  Rng rng(902);
  models::ModelConfig config = models::model_config("mbv2-35", 4);
  baselines::NetAugModel supernet(config, 2.0f, rng);
  ToyDataset train(8, 4, 24, 43);
  ToyDataset test(4, 4, 24, 44);
  train::TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 16;
  tc.augment = false;
  (void)baselines::train_netaug(supernet, train, test, tc, {});

  auto base = supernet.export_base();
  data::DetectionConfig dc;
  dc.num_images = 24;
  dc.resolution = 24;
  data::SynthDetection det_train(dc, "train");
  data::SynthDetection det_test(dc, "test");
  detect::DetectorConfig det_cfg;
  detect::TinyDetector detector(base, det_cfg, rng);
  detect::DetectTrainConfig dtc;
  dtc.epochs = 2;
  dtc.batch_size = 12;
  const float ap = detect::train_detector(detector, det_train, det_test, dtc);
  EXPECT_GE(ap, 0.0f);  // smoke: full wiring runs end to end
}

TEST(Integration, KdOnTopOfContractedModel) {
  // Table II's "NetBooster + KD": distillation drives the tuning stage.
  ToyDataset train(10, 3, 12, 45);
  ToyDataset test(5, 3, 12, 46);
  auto teacher = models::make_model("mbv2-100", 3, 15);
  train::TrainConfig ttc;
  ttc.epochs = 2;
  ttc.batch_size = 16;
  ttc.augment = false;
  (void)train::train_classifier(*teacher, train, test, ttc);

  auto model = models::make_model("mbv2-tiny", 3, 16);
  core::NetBoosterConfig c;
  c.giant = ttc;
  c.tune = ttc;
  core::NetBooster nb(model, c);
  nb.train_giant(train, test);
  const float acc =
      nb.tune_and_contract(train, test, baselines::make_kd_loss(teacher, {}));
  EXPECT_GT(acc, 0.3f);
  EXPECT_TRUE(nb.contracted());
}

TEST(Integration, DetectionWithExpandedBackboneContractsInPlace) {
  // The Table III NetBooster flow: expanded backbone, PLT during detection
  // finetune, contraction, then the SAME detector instance keeps working.
  ToyDataset cls_train(8, 4, 24, 47);
  ToyDataset cls_test(4, 4, 24, 48);
  auto backbone = models::make_model("mbv2-35", 4, 17);
  core::NetBoosterConfig nbc;
  nbc.giant.epochs = 1;
  nbc.giant.batch_size = 16;
  nbc.giant.augment = false;
  core::NetBooster nb(backbone, nbc);
  nb.train_giant(cls_train, cls_test);

  data::DetectionConfig dc;
  dc.num_images = 24;
  dc.resolution = 24;
  data::SynthDetection det_train(dc, "train");
  data::SynthDetection det_test(dc, "test");
  Rng rng(903);
  detect::DetectorConfig det_cfg;
  detect::TinyDetector detector(nb.model_ptr(), det_cfg, rng);

  core::PltScheduler scheduler(nb.expansion().plt_activations, 2);
  detect::DetectTrainConfig dtc;
  dtc.epochs = 2;
  dtc.batch_size = 12;
  (void)detect::train_detector(
      detector, det_train, det_test, dtc,
      [&scheduler](int64_t step, int64_t) { scheduler.on_step(step); });
  scheduler.finish();

  core::ExpansionResult expansion = nb.expansion();
  const auto report = core::contract_network(nb.model(), expansion, true, rng);
  EXPECT_LT(report.max_error, 1e-2f);
  // The detector still runs on the contracted backbone.
  const float ap = detect::evaluate_ap50(detector, det_test);
  EXPECT_GE(ap, 0.0f);
}

TEST(Integration, TransferHeadSwapKeepsGiantFeatures) {
  ToyDataset pre(10, 4, 12, 49);
  ToyDataset pre_test(5, 4, 12, 50);
  auto model = models::make_model("mbv2-tiny", 4, 18);
  core::NetBoosterConfig c;
  c.giant.epochs = 2;
  c.giant.batch_size = 16;
  c.giant.augment = false;
  core::NetBooster nb(model, c);
  nb.train_giant(pre, pre_test);

  Tensor x({1, 3, 12, 12});
  Rng rng(904);
  fill_normal(x, rng, 0.0f, 1.0f);
  nb.model().set_training(false);
  const Tensor features_before = nb.model().forward_features(x);
  nb.prepare_transfer(2);
  nb.model().set_training(false);
  const Tensor features_after = nb.model().forward_features(x);
  EXPECT_LT(max_abs_diff(features_before, features_after), 1e-6f)
      << "head swap must not perturb the giant's features";
  EXPECT_EQ(nb.model().forward(x).size(1), 2);
}

TEST(Integration, RecalibrationIsIdempotent) {
  ToyDataset train(8, 2, 12, 51);
  auto model = models::make_model("mbv2-tiny", 2, 19);
  train::recalibrate_batchnorm(*model, train);
  Tensor x({1, 3, 12, 12});
  Rng rng(905);
  fill_normal(x, rng, 0.0f, 1.0f);
  model->set_training(false);
  const Tensor y1 = model->forward(x);
  train::recalibrate_batchnorm(*model, train);
  model->set_training(false);
  const Tensor y2 = model->forward(x);
  EXPECT_LT(max_abs_diff(y1, y2), 1e-5f);
}

}  // namespace
}  // namespace nb
