#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "nn/activations.h"
#include "nn/dropblock.h"
#include "tensor/rng.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace nb::nn {
namespace {

using nb::testing::bits_equal;

TEST(Activation, ReluClampsNegative) {
  Activation relu(ActKind::relu);
  Tensor x = Tensor::from({4}, {-2.0f, -0.1f, 0.5f, 3.0f}).reshape({1, 1, 2, 2});
  Tensor y = relu.forward(x);
  EXPECT_EQ(y.at(0), 0.0f);
  EXPECT_EQ(y.at(1), 0.0f);
  EXPECT_EQ(y.at(2), 0.5f);
  EXPECT_EQ(y.at(3), 3.0f);
}

TEST(Activation, Relu6ClampsBothSides) {
  Activation relu6(ActKind::relu6);
  Tensor x = Tensor::from({4}, {-1.0f, 2.0f, 6.0f, 9.0f}).reshape({1, 1, 2, 2});
  Tensor y = relu6.forward(x);
  EXPECT_EQ(y.at(0), 0.0f);
  EXPECT_EQ(y.at(1), 2.0f);
  EXPECT_EQ(y.at(2), 6.0f);
  EXPECT_EQ(y.at(3), 6.0f);
}

TEST(Activation, IdentityPassesThrough) {
  Activation id(ActKind::identity);
  Tensor x = Tensor::from({2}, {-5.0f, 5.0f});
  Tensor y = id.forward(x);
  EXPECT_LT(max_abs_diff(x, y), 1e-7f);
}

TEST(PltActivation, AlphaZeroIsExactRelu) {
  PltActivation plt(ActKind::relu, 0.0f);
  Activation relu(ActKind::relu);
  Rng rng(80);
  Tensor x({2, 3, 4, 4});
  fill_normal(x, rng, 0.0f, 2.0f);
  EXPECT_LT(max_abs_diff(plt.forward(x), relu.forward(x)), 1e-7f);
}

TEST(PltActivation, AlphaOneIsIdentity) {
  PltActivation plt(ActKind::relu, 1.0f);
  Rng rng(81);
  Tensor x({2, 3, 4, 4});
  fill_normal(x, rng, 0.0f, 2.0f);
  EXPECT_LT(max_abs_diff(plt.forward(x), x), 1e-7f);
  EXPECT_TRUE(plt.is_linearized());
}

TEST(PltActivation, Relu6AlphaZeroMatchesRelu6) {
  PltActivation plt(ActKind::relu6, 0.0f);
  Activation relu6(ActKind::relu6);
  Rng rng(82);
  Tensor x({2, 3, 4, 4});
  fill_uniform(x, rng, -4.0f, 10.0f);
  EXPECT_LT(max_abs_diff(plt.forward(x), relu6.forward(x)), 1e-7f);
}

TEST(PltActivation, Relu6AlphaOneIsIdentity) {
  PltActivation plt(ActKind::relu6, 1.0f);
  Rng rng(83);
  Tensor x({2, 3, 4, 4});
  fill_uniform(x, rng, -4.0f, 10.0f);
  EXPECT_LT(max_abs_diff(plt.forward(x), x), 1e-6f);
}

TEST(PltActivation, HalfwayIsLeaky) {
  PltActivation plt(ActKind::relu, 0.5f);
  Tensor x = Tensor::from({2}, {-2.0f, 2.0f});
  Tensor y = plt.forward(x);
  EXPECT_FLOAT_EQ(y.at(0), -1.0f);  // max(0.5 * -2, -2) = -1
  EXPECT_FLOAT_EQ(y.at(1), 2.0f);
}

TEST(PltActivation, MonotoneInAlpha) {
  // For x < 0, y = max(alpha*x, x) = alpha*x decays monotonically from the
  // ReLU output (0) toward the identity output (x) as alpha rises.
  Tensor x = Tensor::from({1}, {-3.0f});
  float prev = 1e9f;
  for (float a : {0.0f, 0.3f, 0.6f, 1.0f}) {
    PltActivation plt(ActKind::relu, a);
    const float v = plt.forward(x).at(0);
    EXPECT_LT(v, prev + 1e-9f);
    prev = v;
  }
  EXPECT_FLOAT_EQ(prev, -3.0f) << "alpha = 1 must reproduce the identity";
}

TEST(PltActivation, RejectsOutOfRangeAlpha) {
  EXPECT_THROW(PltActivation(ActKind::relu, -0.1f), std::runtime_error);
  EXPECT_THROW(PltActivation(ActKind::relu, 1.1f), std::runtime_error);
  PltActivation plt(ActKind::relu, 0.0f);
  EXPECT_THROW(plt.set_alpha(2.0f), std::runtime_error);
}

TEST(PltActivation, AlphaIsACheckpointedBuffer) {
  PltActivation plt(ActKind::relu, 0.35f);
  const auto buffers = plt.local_buffers();
  ASSERT_EQ(buffers.size(), 1u);
  EXPECT_EQ(buffers[0].first, "alpha");
  EXPECT_FLOAT_EQ(buffers[0].second->at(0), 0.35f);
}

TEST(DropBlock, InactiveInEvalMode) {
  DropBlock2d db(0.3f, 2);
  db.set_training(false);
  Rng rng(84);
  Tensor x({1, 2, 8, 8});
  fill_normal(x, rng, 1.0f, 0.5f);
  EXPECT_LT(max_abs_diff(db.forward(x), x), 1e-7f);
}

TEST(DropBlock, DropsApproximatelyTargetFraction) {
  DropBlock2d db(0.25f, 2, 5);
  db.set_training(true);
  Tensor x = Tensor::ones({8, 4, 12, 12});
  Tensor y = db.forward(x);
  int64_t zeros = 0;
  for (int64_t i = 0; i < y.numel(); ++i) {
    if (y.at(i) == 0.0f) ++zeros;
  }
  const double frac = static_cast<double>(zeros) / y.numel();
  EXPECT_GT(frac, 0.10);
  EXPECT_LT(frac, 0.45);
}

TEST(DropBlock, GradientMaskedConsistently) {
  DropBlock2d db(0.3f, 2, 6);
  db.set_training(true);
  Tensor x = Tensor::ones({2, 3, 8, 8});
  Tensor y = db.forward(x);
  Tensor g = db.backward(Tensor::ones(x.shape()));
  for (int64_t i = 0; i < y.numel(); ++i) {
    if (y.at(i) == 0.0f) {
      EXPECT_EQ(g.at(i), 0.0f);
    } else {
      EXPECT_GT(g.at(i), 0.0f);
    }
  }
}

TEST(DropBlock, ZeroProbIsNoop) {
  DropBlock2d db(0.0f, 3);
  db.set_training(true);
  Rng rng(85);
  Tensor x({1, 2, 6, 6});
  fill_normal(x, rng, 0.0f, 1.0f);
  EXPECT_LT(max_abs_diff(db.forward(x), x), 1e-7f);
}

// ------------------------------------------------------------------------
// The branchy scalar activation loops as they were before the select form,
// kept verbatim (on plain arrays) as the bitwise oracle. Built with
// -ffp-contract=off like nb_nn.

void scalar_act_forward(ActKind kind, float* p, int64_t n) {
  if (kind == ActKind::relu) {
    for (int64_t i = 0; i < n; ++i) p[i] = p[i] > 0.0f ? p[i] : 0.0f;
  } else {  // relu6
    for (int64_t i = 0; i < n; ++i) {
      p[i] = p[i] > 0.0f ? (p[i] < 6.0f ? p[i] : 6.0f) : 0.0f;
    }
  }
}

void scalar_act_backward(ActKind kind, const float* xp, float* gp, int64_t n) {
  if (kind == ActKind::relu) {
    for (int64_t i = 0; i < n; ++i) {
      if (xp[i] <= 0.0f) gp[i] = 0.0f;
    }
  } else {
    for (int64_t i = 0; i < n; ++i) {
      if (xp[i] <= 0.0f || xp[i] >= 6.0f) gp[i] = 0.0f;
    }
  }
}

void scalar_plt_forward(ActKind kind, float a, float* p, int64_t n) {
  if (kind == ActKind::relu) {
    for (int64_t i = 0; i < n; ++i) {
      if (p[i] < 0.0f) p[i] *= a;
    }
  } else {
    for (int64_t i = 0; i < n; ++i) {
      if (p[i] < 0.0f) {
        p[i] *= a;
      } else if (p[i] > 6.0f) {
        p[i] = 6.0f + a * (p[i] - 6.0f);
      }
    }
  }
}

void scalar_plt_backward(ActKind kind, float a, const float* xp, float* gp,
                         int64_t n) {
  if (kind == ActKind::relu) {
    for (int64_t i = 0; i < n; ++i) {
      if (xp[i] < 0.0f) gp[i] *= a;
    }
  } else {
    for (int64_t i = 0; i < n; ++i) {
      if (xp[i] < 0.0f || xp[i] > 6.0f) gp[i] *= a;
    }
  }
}

// Every special value next to ordinary ones: NaN, +-inf, +-0.0, denormals
// of both signs, and the clamp points 0 and 6 with their neighbours.
Tensor special_values(Rng& rng, int64_t n) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float den = std::numeric_limits<float>::denorm_min();
  const std::vector<float> specials = {
      nan, -nan, inf, -inf, 0.0f, -0.0f, den, -den, 3.0e-39f, -3.0e-39f,
      6.0f, std::nextafter(6.0f, 0.0f), std::nextafter(6.0f, 7.0f),
      std::numeric_limits<float>::max(), -std::numeric_limits<float>::max()};
  Tensor t({n});
  for (int64_t i = 0; i < n; ++i) {
    t.data()[i] = i % 3 == 0 ? specials[static_cast<size_t>(i / 3) % specials.size()]
                             : rng.normal() * 5.0f + 2.0f;
  }
  return t;
}

// ReLU, ReLU6 and PLT at alpha 0, 0.3 and 1, forward and backward, against
// the branchy scalar loops, memcmp-equal; lengths cover every vector tail.
TEST(ActivationBitwise, SelectFormMatchesScalarLoops) {
  Rng rng(91);
  for (const int64_t n : {1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 33, 100, 1027}) {
    const Tensor x = special_values(rng, n);
    const Tensor g = special_values(rng, n);
    for (const ActKind kind : {ActKind::relu, ActKind::relu6}) {
      SCOPED_TRACE(::testing::Message() << to_string(kind) << " n=" << n);
      Activation act(kind);
      Tensor want_y = x.clone();
      scalar_act_forward(kind, want_y.data(), n);
      Tensor want_g = g.clone();
      scalar_act_backward(kind, x.data(), want_g.data(), n);
      const Tensor got_y = act.forward(x);
      const Tensor got_g = act.backward(g);
      EXPECT_TRUE(bits_equal(got_y.data(), want_y.data(), n)) << "forward";
      EXPECT_TRUE(bits_equal(got_g.data(), want_g.data(), n)) << "backward";

      for (const float a : {0.0f, 0.3f, 1.0f}) {
        SCOPED_TRACE(::testing::Message() << "plt alpha=" << a);
        PltActivation plt(kind, a);
        Tensor want_py = x.clone();
        scalar_plt_forward(kind, a, want_py.data(), n);
        Tensor want_pg = g.clone();
        scalar_plt_backward(kind, a, x.data(), want_pg.data(), n);
        const Tensor got_py = plt.forward(x);
        const Tensor got_pg = plt.backward(g);
        EXPECT_TRUE(bits_equal(got_py.data(), want_py.data(), n)) << "forward";
        EXPECT_TRUE(bits_equal(got_pg.data(), want_pg.data(), n)) << "backward";
      }
    }
  }
}

// The NaN policies the select form must keep.
TEST(ActivationBitwise, NanPolicies) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const Tensor x = Tensor::from({2}, {nan, -nan});
  const Tensor g = Tensor::from({2}, {1.5f, -2.5f});
  for (const ActKind kind : {ActKind::relu, ActKind::relu6}) {
    Activation act(kind);
    const Tensor y = act.forward(x);
    EXPECT_EQ(y.at(0), 0.0f) << "Activation maps NaN to 0";
    EXPECT_EQ(y.at(1), 0.0f);
    EXPECT_TRUE(bits_equal(act.backward(g).data(), g.data(), 2))
        << "a NaN input keeps the gradient";
    PltActivation plt(kind, 0.3f);
    EXPECT_TRUE(bits_equal(plt.forward(x).data(), x.data(), 2))
        << "PltActivation passes NaN through";
    EXPECT_TRUE(bits_equal(plt.backward(g).data(), g.data(), 2))
        << "a NaN input keeps the gradient";
  }
}

}  // namespace
}  // namespace nb::nn
