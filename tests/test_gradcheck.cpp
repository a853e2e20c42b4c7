// Finite-difference gradient checks for every layer's backward().
#include <gtest/gtest.h>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/blocks.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "test_util.h"

namespace nb::nn {
namespace {

using ::nb::testing::check_gradients;

Tensor random_input(std::vector<int64_t> shape, uint64_t seed,
                    float lo = -1.5f, float hi = 1.5f) {
  Rng rng(seed, 3);
  Tensor x(std::move(shape));
  fill_uniform(x, rng, lo, hi);
  return x;
}

struct ConvGradCase {
  int64_t cin, cout, k, stride, pad, groups;
  bool bias;
};

void PrintTo(const ConvGradCase& c, std::ostream* os) {
  *os << ::nb::testing::conv_case_name(c);
}

class ConvGrad : public ::testing::TestWithParam<ConvGradCase> {};

TEST_P(ConvGrad, FiniteDifference) {
  const auto& tc = GetParam();
  Conv2d conv(Conv2dOptions(tc.cin, tc.cout, tc.k)
                  .with_stride(tc.stride)
                  .with_padding(tc.pad)
                  .with_groups(tc.groups)
                  .with_bias(tc.bias));
  Rng rng(55);
  fill_uniform(conv.weight().value, rng, -0.7f, 0.7f);
  if (tc.bias) fill_uniform(conv.bias().value, rng, -0.3f, 0.3f);
  check_gradients(conv, random_input({2, tc.cin, 5, 5}, 17));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvGrad,
    ::testing::Values(ConvGradCase{3, 4, 3, 1, 1, 1, false},
                      ConvGradCase{3, 4, 1, 1, 0, 1, true},
                      ConvGradCase{4, 4, 3, 1, 1, 4, false},  // depthwise
                      ConvGradCase{4, 4, 1, 1, 0, 4, true},   // depthwise 1x1
                      ConvGradCase{4, 4, 3, 2, 1, 4, false},  // dw strided
                      ConvGradCase{4, 6, 3, 2, 1, 2, false},  // grouped strided
                      ConvGradCase{2, 3, 5, 1, 2, 1, true}));

TEST(GradCheck, Linear) {
  Linear fc(10, 7, true);
  Rng rng(56);
  fill_uniform(fc.weight().value, rng, -0.5f, 0.5f);
  fill_uniform(fc.bias().value, rng, -0.5f, 0.5f);
  check_gradients(fc, random_input({4, 10}, 18));
}

TEST(GradCheck, LinearNoBias) {
  Linear fc(6, 3, false);
  Rng rng(57);
  fill_uniform(fc.weight().value, rng, -0.5f, 0.5f);
  check_gradients(fc, random_input({3, 6}, 19));
}

TEST(GradCheck, BatchNormTraining) {
  BatchNorm2d bn(5);
  Rng rng(58);
  fill_uniform(bn.gamma().value, rng, 0.5f, 1.5f);
  fill_uniform(bn.beta().value, rng, -0.5f, 0.5f);
  // Slightly larger tolerance: BN's batch coupling amplifies fd noise.
  check_gradients(bn, random_input({3, 5, 4, 4}, 20), 1e-2f, 4e-2f);
}

TEST(GradCheck, ReluAvoidingKink) {
  Activation act(ActKind::relu);
  // Keep inputs away from 0 so the finite difference is valid.
  Tensor x = random_input({2, 3, 4, 4}, 21);
  for (int64_t i = 0; i < x.numel(); ++i) {
    if (std::fabs(x.data()[i]) < 0.1f) x.data()[i] += 0.3f;
  }
  check_gradients(act, x);
}

TEST(GradCheck, Relu6AvoidingKinks) {
  Activation act(ActKind::relu6);
  Tensor x = random_input({2, 3, 4, 4}, 22, -3.0f, 8.0f);
  for (int64_t i = 0; i < x.numel(); ++i) {
    float& v = x.data()[i];
    if (std::fabs(v) < 0.1f) v += 0.3f;
    if (std::fabs(v - 6.0f) < 0.1f) v += 0.3f;
  }
  check_gradients(act, x);
}

class PltGrad : public ::testing::TestWithParam<float> {};

TEST_P(PltGrad, ReluFamily) {
  PltActivation act(ActKind::relu, GetParam());
  Tensor x = random_input({2, 3, 4, 4}, 23);
  for (int64_t i = 0; i < x.numel(); ++i) {
    if (std::fabs(x.data()[i]) < 0.1f) x.data()[i] += 0.3f;
  }
  check_gradients(act, x);
}

TEST_P(PltGrad, Relu6Family) {
  PltActivation act(ActKind::relu6, GetParam());
  Tensor x = random_input({2, 3, 4, 4}, 24, -3.0f, 8.0f);
  for (int64_t i = 0; i < x.numel(); ++i) {
    float& v = x.data()[i];
    if (std::fabs(v) < 0.1f) v += 0.3f;
    if (std::fabs(v - 6.0f) < 0.1f) v += 0.3f;
  }
  check_gradients(act, x);
}

INSTANTIATE_TEST_SUITE_P(AlphaSweep, PltGrad,
                         ::testing::Values(0.0f, 0.25f, 0.5f, 0.9f, 1.0f));

TEST(GradCheck, GlobalAvgPool) {
  GlobalAvgPool pool;
  check_gradients(pool, random_input({3, 4, 5, 5}, 25));
}

TEST(GradCheck, MaxPoolAwayFromTies) {
  MaxPool2d pool(2, 2);
  Rng rng(26);
  Tensor x({2, 3, 6, 6});
  // Distinct values -> unique argmax -> differentiable.
  for (int64_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(i % 37) * 0.1f + 0.01f * rng.normal();
  }
  check_gradients(pool, x);
}

TEST(GradCheck, Flatten) {
  Flatten flat;
  check_gradients(flat, random_input({2, 3, 3, 3}, 27));
}

// Composite chains use identity activations so the finite-difference probes
// never straddle a ReLU kink (the kink-free behaviour of each activation is
// verified in isolation above); what these tests pin down is the *chaining*
// of backward() through containers, BN and residual adds.
TEST(GradCheck, SequentialComposite) {
  Sequential seq;
  seq.emplace<Conv2d>(Conv2dOptions(3, 6, 3).same_padding());
  seq.emplace<BatchNorm2d>(6);
  seq.emplace<Activation>(ActKind::identity);
  seq.emplace<Conv2d>(Conv2dOptions(6, 4, 1));
  Rng rng(59);
  for (Parameter* p : seq.parameters()) {
    if (p->value.dim() == 4) fill_uniform(p->value, rng, -0.5f, 0.5f);
  }
  check_gradients(seq, random_input({2, 3, 5, 5}, 28), 1e-2f, 5e-2f);
}

TEST(GradCheck, InvertedResidualWithSkip) {
  InvertedResidual block(4, 4, 1, 3, 3, ActKind::identity);
  Rng rng(60);
  for (Parameter* p : block.parameters()) {
    if (p->value.dim() == 4) fill_uniform(p->value, rng, -0.4f, 0.4f);
  }
  check_gradients(block, random_input({2, 4, 5, 5}, 29), 1e-2f, 5e-2f);
}

TEST(GradCheck, InvertedResidualStride2NoSkip) {
  InvertedResidual block(4, 6, 2, 2, 3, ActKind::identity);
  Rng rng(61);
  for (Parameter* p : block.parameters()) {
    if (p->value.dim() == 4) fill_uniform(p->value, rng, -0.4f, 0.4f);
  }
  check_gradients(block, random_input({2, 4, 6, 6}, 30), 1e-2f, 5e-2f);
}

TEST(GradCheck, ResidualWrapperIdentity) {
  auto body = std::make_shared<Sequential>();
  body->emplace<Conv2d>(Conv2dOptions(3, 3, 1));
  Residual res(body);
  Rng rng(62);
  for (Parameter* p : res.parameters()) fill_uniform(p->value, rng, -0.5f, 0.5f);
  check_gradients(res, random_input({2, 3, 4, 4}, 31));
}

TEST(GradCheck, ResidualWrapperProjection) {
  auto body = std::make_shared<Sequential>();
  body->emplace<Conv2d>(Conv2dOptions(3, 5, 1));
  auto shortcut = std::make_shared<Conv2d>(Conv2dOptions(3, 5, 1));
  Rng rng(63);
  Residual res(body, shortcut);
  for (Parameter* p : res.parameters()) fill_uniform(p->value, rng, -0.5f, 0.5f);
  check_gradients(res, random_input({2, 3, 4, 4}, 32));
}

}  // namespace
}  // namespace nb::nn
