// Failure-injection tests: every NB_CHECK contract in the public API should
// fire as a std::runtime_error with a useful message, not corrupt state or
// crash. These tests document what misuse looks like.
#include <gtest/gtest.h>

#include <memory>

#include "core/contraction.h"
#include "core/expansion.h"
#include "core/netbooster.h"
#include "data/dataloader.h"
#include "data/task_registry.h"
#include "models/registry.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/serialize.h"
#include "test_util.h"
#include "tensor/tensor_ops.h"

namespace nb {
namespace {

using ::nb::testing::ToyDataset;

TEST(FailureModes, TensorShapeMismatches) {
  Tensor a({2, 3});
  Tensor b({3, 3});
  EXPECT_THROW(a.add_(b), std::runtime_error);
  EXPECT_THROW(a.add(b), std::runtime_error);
  EXPECT_THROW(Tensor::from({2}, {1.0f, 2.0f, 3.0f}), std::runtime_error);
  EXPECT_THROW(a.reshape({5}), std::runtime_error);
}

TEST(FailureModes, ConvRejectsWrongChannelCount) {
  nn::Conv2d conv(nn::Conv2dOptions(4, 8, 3).same_padding());
  Tensor x({1, 3, 8, 8});  // 3 channels, conv expects 4
  EXPECT_THROW(conv.forward(x), std::runtime_error);
}

TEST(FailureModes, LinearRejectsWrongFeatureCount) {
  nn::Linear fc(10, 4);
  Tensor x({2, 8});
  EXPECT_THROW(fc.forward(x), std::runtime_error);
}

TEST(FailureModes, ContractionRequiresFullLinearization) {
  // Contracting while any PLT alpha < 1 would change the function — the
  // library refuses.
  core::ExpansionConfig config;
  Rng rng(31, 3);
  core::ExpandedConv block(4, 8, config, nn::ActKind::relu6, rng);
  for (nn::PltActivation* act : block.plt_activations()) {
    act->set_alpha(0.7f);  // mid-ramp
  }
  EXPECT_THROW(core::contract_expanded(block), std::runtime_error);
  // After finishing the ramp it works.
  for (nn::PltActivation* act : block.plt_activations()) {
    act->set_alpha(1.0f);
  }
  block.set_training(false);
  EXPECT_NO_THROW(core::contract_expanded(block));
}

TEST(FailureModes, DoubleContractionRejected) {
  ToyDataset train(12, 3, 12, 51);
  ToyDataset test(6, 3, 12, 52);
  core::NetBoosterConfig c;
  c.giant.epochs = 1;
  c.giant.batch_size = 8;
  c.tune.epochs = 1;
  c.tune.batch_size = 8;
  auto model = models::make_model("mbv2-tiny", 3, 13);
  core::NetBooster nb(model, c);
  nb.train_giant(train, test);
  nb.tune_and_contract(train, test);
  EXPECT_THROW(nb.tune_and_contract(train, test), std::runtime_error);
  EXPECT_THROW(nb.train_giant(train, test), std::runtime_error);
  EXPECT_THROW(nb.prepare_transfer(5), std::runtime_error);
}

TEST(FailureModes, StateDictRejectsShapeMismatch) {
  auto a = models::make_model("mbv2-tiny", 4, 1);
  auto b = models::make_model("mbv2-50", 4, 1);  // different widths
  const auto dict = nn::state_dict(*a);
  EXPECT_THROW(nn::load_state_dict(*b, dict), std::runtime_error);
}

TEST(FailureModes, TrainerRejectsZeroEpochs) {
  ToyDataset train(8, 2, 12, 61);
  ToyDataset test(4, 2, 12, 62);
  auto model = models::make_model("mbv2-tiny", 2, 1);
  train::TrainConfig c;
  c.epochs = 0;
  EXPECT_THROW(train::train_classifier(*model, train, test, c),
               std::runtime_error);
}

TEST(FailureModes, ExpansionRejectsBadConfig) {
  auto model = models::make_model("mbv2-tiny", 4, 1);
  Rng rng(71, 3);
  core::ExpansionConfig bad_fraction;
  bad_fraction.expand_fraction = 1.5f;
  EXPECT_THROW(core::expand_network(*model, bad_fraction, rng),
               std::runtime_error);
  core::ExpansionConfig bad_ratio;
  bad_ratio.expansion_ratio = 0;
  EXPECT_THROW(core::expand_network(*model, bad_ratio, rng),
               std::runtime_error);
}

TEST(FailureModes, ClassifierAccessorAfterQuantizationThrows) {
  // classifier() is typed; after the quantization wrapper replaces the slot
  // the typed accessor must fail loudly instead of returning garbage.
  auto model = models::make_model("mbv2-tiny", 4, 1);
  model->classifier_slot() = std::make_shared<nn::Linear>(
      model->feature_channels(), 4);  // still a Linear: fine
  EXPECT_NO_THROW(model->classifier());
  model->classifier_slot() = std::make_shared<nn::Conv2d>(
      nn::Conv2dOptions(4, 4, 1));  // not a Linear anymore
  EXPECT_THROW(model->classifier(), std::runtime_error);
}

TEST(FailureModes, UnknownModelAndTaskNames) {
  EXPECT_THROW(models::make_model("resnet50", 10, 1), std::runtime_error);
  EXPECT_THROW(data::make_task("imagenet21k"), std::runtime_error);
}

}  // namespace
}  // namespace nb
