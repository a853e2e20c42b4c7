// Property-style sweeps over the substrate's algebraic invariants — the
// guarantees NetBooster's correctness argument leans on, tested over wider
// parameter grids than the per-module unit tests.
#include <gtest/gtest.h>

#include <cmath>

#include "core/contraction.h"
#include "core/expansion.h"
#include "data/augment.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/losses.h"
#include "tensor/im2col.h"
#include "tensor/tensor_ops.h"

namespace nb {
namespace {

Tensor randn(std::vector<int64_t> shape, uint64_t seed, float s = 1.0f) {
  Rng rng(seed, 91);
  Tensor t(std::move(shape));
  fill_normal(t, rng, 0.0f, s);
  return t;
}

// ---------------------------------------------------------------- conv

struct ShapeCase {
  int64_t in, k, stride, pad;
};

class ConvShapeSweep : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(ConvShapeSweep, OutputShapeMatchesFormula) {
  const auto& tc = GetParam();
  nn::Conv2d conv(nn::Conv2dOptions(2, 3, tc.k)
                      .with_stride(tc.stride)
                      .with_padding(tc.pad));
  Tensor x({1, 2, tc.in, tc.in});
  const Tensor y = conv.forward(x);
  EXPECT_EQ(y.size(2), conv_out_size(tc.in, tc.k, tc.stride, tc.pad));
  EXPECT_EQ(y.size(3), y.size(2));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConvShapeSweep,
    ::testing::Values(ShapeCase{8, 1, 1, 0}, ShapeCase{8, 3, 1, 1},
                      ShapeCase{8, 3, 2, 1}, ShapeCase{9, 3, 2, 1},
                      ShapeCase{16, 5, 2, 2}, ShapeCase{7, 7, 1, 3},
                      ShapeCase{20, 3, 1, 0}, ShapeCase{20, 1, 2, 0}));

TEST(ConvLinearity, ForwardIsLinearInInput) {
  // conv(a*x + b*y) == a*conv(x) + b*conv(y) for bias-free convs.
  nn::Conv2d conv(nn::Conv2dOptions(3, 5, 3).same_padding());
  Rng rng(700);
  fill_normal(conv.weight().value, rng, 0.0f, 0.5f);
  const Tensor x = randn({2, 3, 6, 6}, 701);
  const Tensor y = randn({2, 3, 6, 6}, 702);
  const float a = 1.7f, b = -0.4f;

  Tensor combo = x.scale(a);
  combo.add_scaled_(y, b);
  const Tensor lhs = conv.forward(combo);
  Tensor rhs = conv.forward(x).scale(a);
  rhs.add_scaled_(conv.forward(y), b);
  EXPECT_LT(max_abs_diff(lhs, rhs), 1e-3f);
}

TEST(ConvLinearity, DepthwiseChannelsAreIndependent) {
  // Perturbing channel 0 of the input must not change other output channels.
  nn::Conv2d dw(nn::Conv2dOptions(4, 4, 3).same_padding().with_groups(4));
  Rng rng(703);
  fill_normal(dw.weight().value, rng, 0.0f, 0.5f);
  Tensor x = randn({1, 4, 5, 5}, 704);
  const Tensor y0 = dw.forward(x);
  for (int64_t j = 0; j < 25; ++j) x.data()[j] += 1.0f;  // channel 0 only
  const Tensor y1 = dw.forward(x);
  for (int64_t c = 1; c < 4; ++c) {
    for (int64_t j = 0; j < 25; ++j) {
      EXPECT_EQ(y0.data()[c * 25 + j], y1.data()[c * 25 + j]);
    }
  }
}

// ---------------------------------------------------------------- losses

TEST(LossInvariance, SoftmaxCeIsShiftInvariant) {
  // Adding a constant to every logit of a row leaves CE unchanged.
  Rng rng(705);
  Tensor logits = randn({3, 6}, 706);
  const std::vector<int64_t> labels{0, 2, 5};
  const float base = nn::softmax_cross_entropy(logits, labels).loss;
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 6; ++j) logits.at(i, j) += 3.7f;
  }
  EXPECT_NEAR(nn::softmax_cross_entropy(logits, labels).loss, base, 1e-4f);
}

TEST(LossInvariance, KdKlIsShiftInvariantInBothArguments) {
  Rng rng(707);
  Tensor s = randn({2, 5}, 708);
  Tensor t = randn({2, 5}, 709);
  const float base = nn::kd_kl(s, t, 3.0f).loss;
  for (int64_t i = 0; i < s.numel(); ++i) s.data()[i] += 1.1f;
  for (int64_t i = 0; i < t.numel(); ++i) t.data()[i] -= 2.3f;
  EXPECT_NEAR(nn::kd_kl(s, t, 3.0f).loss, base, 1e-4f);
}

TEST(LossInvariance, CeGradientRowsSumToZero) {
  // d(CE)/dz sums to zero per row (softmax simplex tangency).
  Rng rng(710);
  const Tensor logits = randn({4, 7}, 711);
  const std::vector<int64_t> labels{1, 0, 6, 3};
  const nn::LossResult r = nn::softmax_cross_entropy(logits, labels, 0.05f);
  for (int64_t i = 0; i < 4; ++i) {
    double s = 0.0;
    for (int64_t j = 0; j < 7; ++j) s += r.grad.at(i, j);
    EXPECT_NEAR(s, 0.0, 1e-6);
  }
}

// ---------------------------------------------------------------- plt

class PltContinuity : public ::testing::TestWithParam<float> {};

TEST_P(PltContinuity, OutputIsContinuousInAlpha) {
  // |y(alpha + h) - y(alpha)| <= h * |x| elementwise for the ReLU family.
  const float alpha = GetParam();
  const float h = 0.01f;
  const Tensor x = randn({1, 2, 4, 4}, 712, 3.0f);
  nn::PltActivation a0(nn::ActKind::relu, alpha);
  nn::PltActivation a1(nn::ActKind::relu, std::min(1.0f, alpha + h));
  const Tensor y0 = a0.forward(x);
  const Tensor y1 = a1.forward(x);
  for (int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_LE(std::fabs(y1.data()[i] - y0.data()[i]),
              h * std::fabs(x.data()[i]) + 1e-6f);
  }
}

INSTANTIATE_TEST_SUITE_P(AlphaGrid, PltContinuity,
                         ::testing::Values(0.0f, 0.2f, 0.5f, 0.8f, 0.99f));

TEST(PltOrdering, OutputBracketsReluAndIdentity) {
  // For every alpha in (0,1): relu(x) >= y_alpha(x) >= x (elementwise, since
  // the decay only lowers negative outputs toward x).
  const Tensor x = randn({1, 1, 6, 6}, 713, 2.0f);
  nn::Activation relu(nn::ActKind::relu);
  const Tensor upper = relu.forward(x);
  for (float alpha : {0.25f, 0.5f, 0.75f}) {
    nn::PltActivation act(nn::ActKind::relu, alpha);
    const Tensor y = act.forward(x);
    for (int64_t i = 0; i < x.numel(); ++i) {
      EXPECT_LE(y.data()[i], upper.data()[i] + 1e-6f);
      EXPECT_GE(y.data()[i], x.data()[i] - 1e-6f);
    }
  }
}

// ------------------------------------------------------------ contraction

struct ContractSweepCase {
  core::BlockType type;
  int64_t cin, cout, ratio;
  bool preserve;
};

// Without a printer GoogleTest names each case by its raw bytes, padding
// included, so the ctest name changed from run to run.
void PrintTo(const ContractSweepCase& tc, std::ostream* os) {
  *os << core::to_string(tc.type) << " cin" << tc.cin << " cout" << tc.cout
      << " r" << tc.ratio << (tc.preserve ? " preserve" : " no-preserve");
}

class ContractionSweep : public ::testing::TestWithParam<ContractSweepCase> {};

TEST_P(ContractionSweep, ExactForEveryConfiguration) {
  const auto& tc = GetParam();
  Rng rng(714 + tc.cin * 7 + tc.cout + tc.ratio);
  core::ExpansionConfig c;
  c.block_type = tc.type;
  c.expansion_ratio = tc.ratio;
  c.preserve_function = tc.preserve;
  core::ExpandedConv block(tc.cin, tc.cout, c, nn::ActKind::relu6, rng);

  // Non-trivial BN state everywhere.
  uint64_t seed = 800;
  block.apply([&seed](nn::Module& m) {
    if (auto* bn = dynamic_cast<nn::BatchNorm2d*>(&m)) {
      Rng r(seed++, 45);
      fill_uniform(bn->gamma().value, r, 0.4f, 1.6f);
      fill_uniform(bn->beta().value, r, -0.4f, 0.4f);
      fill_uniform(bn->running_mean(), r, -0.6f, 0.6f);
      fill_uniform(bn->running_var(), r, 0.3f, 2.0f);
    }
  });
  for (nn::PltActivation* act : block.plt_activations()) act->set_alpha(1.0f);
  block.set_training(false);

  auto merged = core::contract_expanded(block);
  EXPECT_EQ(merged->options().kernel, 1);
  const Tensor x = randn({2, tc.cin, 4, 4}, 715 + tc.ratio);
  EXPECT_LT(max_abs_diff(block.forward(x), merged->forward(x)), 2e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ContractionSweep,
    ::testing::Values(
        ContractSweepCase{core::BlockType::inverted_residual, 4, 12, 2, true},
        ContractSweepCase{core::BlockType::inverted_residual, 4, 12, 6, false},
        ContractSweepCase{core::BlockType::inverted_residual, 8, 8, 4, true},
        ContractSweepCase{core::BlockType::inverted_residual, 8, 8, 4, false},
        ContractSweepCase{core::BlockType::basic, 6, 6, 6, true},
        ContractSweepCase{core::BlockType::basic, 6, 9, 6, false},
        ContractSweepCase{core::BlockType::bottleneck, 6, 10, 6, true},
        ContractSweepCase{core::BlockType::bottleneck, 10, 10, 2, false},
        ContractSweepCase{core::BlockType::inverted_residual, 3, 18, 8, true},
        ContractSweepCase{core::BlockType::bottleneck, 12, 4, 4, true}));

TEST(ContractionScale, MergedKernelIsInvariantToInputScale) {
  // Contraction must be a property of the weights alone — merging twice on
  // the same block yields identical kernels.
  Rng rng(716);
  core::ExpansionConfig c;
  core::ExpandedConv block(5, 7, c, nn::ActKind::relu6, rng);
  for (nn::PltActivation* act : block.plt_activations()) act->set_alpha(1.0f);
  block.set_training(false);
  auto m1 = core::contract_expanded(block);
  auto m2 = core::contract_expanded(block);
  EXPECT_LT(max_abs_diff(m1->weight().value, m2->weight().value), 1e-7f);
  EXPECT_LT(max_abs_diff(m1->bias().value, m2->bias().value), 1e-7f);
}

// ---------------------------------------------------------------- augment

TEST(AugmentProperties, ShiftPreservesMass) {
  // Zero-fill shifting can only remove mass, never create it.
  Tensor img = Tensor::ones({1, 6, 6});
  Tensor shifted = img.clone();
  data::shift_(shifted, 2, -1);
  EXPECT_LE(shifted.sum(), img.sum() + 1e-5f);
  EXPECT_GT(shifted.sum(), 0.0f);
}

TEST(AugmentProperties, FlipPreservesHistogram) {
  Rng rng(717);
  Tensor img({2, 5, 5});
  fill_normal(img, rng, 0.0f, 1.0f);
  const float sum = img.sum();
  const float norm = img.norm();
  data::hflip_(img);
  EXPECT_NEAR(img.sum(), sum, 1e-4f);
  EXPECT_NEAR(img.norm(), norm, 1e-4f);
}

// --------------------------------------------------------------- batchnorm

TEST(BnFoldProperty, FoldCommutesWithAffineInput) {
  // fold(conv, bn) applied to x equals bn(conv(x)) for many random BN states.
  for (uint64_t trial = 0; trial < 5; ++trial) {
    nn::Conv2d conv(nn::Conv2dOptions(3, 4, 1));
    Rng rng(720 + trial);
    fill_normal(conv.weight().value, rng, 0.0f, 0.8f);
    nn::BatchNorm2d bn(4);
    fill_uniform(bn.gamma().value, rng, 0.2f, 2.0f);
    fill_uniform(bn.beta().value, rng, -1.0f, 1.0f);
    fill_uniform(bn.running_mean(), rng, -1.0f, 1.0f);
    fill_uniform(bn.running_var(), rng, 0.1f, 4.0f);
    conv.set_training(false);
    bn.set_training(false);

    const core::LinearConv folded = core::fold_conv_bn(conv, &bn);
    const Tensor x = randn({1, 3, 3, 3}, 730 + trial);
    EXPECT_LT(max_abs_diff(core::apply_linear_conv(folded, x),
                           bn.forward(conv.forward(x))),
              1e-4f)
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace nb
