#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "tensor/rng.h"
#include "tensor/tensor_ops.h"
#include "tensor/threadpool.h"
#include "test_util.h"

namespace nb::nn {
namespace {

using nb::testing::bits_equal;
using nb::testing::PoolOverride;

TEST(BatchNorm, TrainingNormalizesBatch) {
  BatchNorm2d bn(3);
  bn.set_training(true);
  Rng rng(70);
  Tensor x({4, 3, 5, 5});
  fill_normal(x, rng, 2.0f, 3.0f);
  Tensor y = bn.forward(x);

  // Per channel: mean ~0, var ~1 (gamma=1, beta=0).
  const int64_t plane = 25;
  for (int64_t c = 0; c < 3; ++c) {
    double sum = 0.0, sq = 0.0;
    for (int64_t i = 0; i < 4; ++i) {
      for (int64_t j = 0; j < plane; ++j) {
        const float v = y.data()[(i * 3 + c) * plane + j];
        sum += v;
        sq += static_cast<double>(v) * v;
      }
    }
    const double mean = sum / (4 * plane);
    const double var = sq / (4 * plane) - mean * mean;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm, RunningStatsConvergeToDataMoments) {
  BatchNorm2d bn(2, 1e-5f, 0.5f);
  bn.set_training(true);
  Rng rng(71);
  for (int step = 0; step < 60; ++step) {
    Tensor x({8, 2, 4, 4});
    fill_normal(x, rng, 1.5f, 2.0f);
    (void)bn.forward(x);
  }
  for (int64_t c = 0; c < 2; ++c) {
    EXPECT_NEAR(bn.running_mean().at(c), 1.5f, 0.25f);
    EXPECT_NEAR(bn.running_var().at(c), 4.0f, 0.8f);
  }
}

TEST(BatchNorm, EvalUsesRunningStats) {
  BatchNorm2d bn(1);
  bn.running_mean().at(0) = 2.0f;
  bn.running_var().at(0) = 4.0f;
  bn.gamma().value.at(0) = 3.0f;
  bn.beta().value.at(0) = -1.0f;
  bn.set_training(false);
  Tensor x = Tensor::full({1, 1, 1, 1}, 6.0f);
  Tensor y = bn.forward(x);
  // (6-2)/sqrt(4+eps)*3 - 1 ~= 5.0
  EXPECT_NEAR(y.at(0, 0, 0, 0), 5.0f, 1e-3f);
}

TEST(BatchNorm, BackwardRequiresTrainingForward) {
  BatchNorm2d bn(2);
  bn.set_training(false);
  Tensor x({1, 2, 2, 2});
  (void)bn.forward(x);
  EXPECT_THROW(bn.backward(x), std::runtime_error);
}

TEST(BatchNorm, AffineMatchesEvalForward) {
  BatchNorm2d bn(4);
  Rng rng(72);
  fill_uniform(bn.gamma().value, rng, 0.5f, 2.0f);
  fill_uniform(bn.beta().value, rng, -1.0f, 1.0f);
  fill_uniform(bn.running_mean(), rng, -1.0f, 1.0f);
  fill_uniform(bn.running_var(), rng, 0.2f, 3.0f);
  bn.set_training(false);

  Tensor x({2, 4, 3, 3});
  fill_normal(x, rng, 0.0f, 2.0f);
  const Tensor want = bn.forward(x);

  const BnAffine affine = bn_to_affine(bn);
  Tensor got(x.shape());
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t c = 0; c < 4; ++c) {
      for (int64_t j = 0; j < 9; ++j) {
        got.data()[(i * 4 + c) * 9 + j] =
            affine.scale[static_cast<size_t>(c)] * x.data()[(i * 4 + c) * 9 + j] +
            affine.shift[static_cast<size_t>(c)];
      }
    }
  }
  EXPECT_LT(max_abs_diff(got, want), 1e-5f);
}

TEST(BatchNorm, BuffersExposedForCheckpointing) {
  BatchNorm2d bn(3);
  const auto buffers = bn.local_buffers();
  ASSERT_EQ(buffers.size(), 2u);
  EXPECT_EQ(buffers[0].first, "running_mean");
  EXPECT_EQ(buffers[1].first, "running_var");
}

TEST(BatchNorm, ParamsExcludedFromWeightDecay) {
  BatchNorm2d bn(3);
  for (auto& [name, p] : bn.local_params()) {
    EXPECT_FALSE(p->decay) << name << " should not be weight-decayed";
  }
}

// ------------------------------------------------------------------------
// The scalar BatchNorm2d training passes as they were before the statistics
// ran in channel lanes, kept verbatim (on plain arrays) as the bitwise
// oracle. This file is built with -ffp-contract=off like nb_nn, so no FMA
// fuses the oracle's multiply-adds either.
std::vector<float> values(const Tensor& t) {
  return std::vector<float>(t.data(), t.data() + t.numel());
}

struct ScalarBn {
  // Copies the module's parameters, statistics and gradients.
  explicit ScalarBn(BatchNorm2d& bn)
      : channels(bn.channels()),
        eps(bn.eps()),
        momentum(bn.momentum()),
        gamma(values(bn.gamma().value)),
        beta(values(bn.beta().value)),
        running_mean(values(bn.running_mean())),
        running_var(values(bn.running_var())),
        gamma_grad(values(bn.gamma().grad)),
        beta_grad(values(bn.beta().grad)) {}

  int64_t channels;
  float eps, momentum;
  std::vector<float> gamma, beta, running_mean, running_var;
  std::vector<float> gamma_grad, beta_grad;
  std::vector<float> xhat, inv_std;
  int64_t count = 0;

  Tensor forward(const Tensor& x) {
    const int64_t n = x.size(0), h = x.size(2), w = x.size(3);
    const int64_t plane = h * w;
    count = n * plane;
    Tensor y(x.shape());
    xhat.assign(static_cast<size_t>(x.numel()), 0.0f);
    inv_std.assign(static_cast<size_t>(channels), 0.0f);
    for (int64_t c = 0; c < channels; ++c) {
      double sum = 0.0, sq = 0.0;
      for (int64_t i = 0; i < n; ++i) {
        const float* p = x.data() + (i * channels + c) * plane;
        for (int64_t j = 0; j < plane; ++j) {
          sum += p[j];
          sq += static_cast<double>(p[j]) * p[j];
        }
      }
      const float mean = static_cast<float>(sum / count);
      const float var = static_cast<float>(sq / count - static_cast<double>(mean) * mean);
      const float istd = 1.0f / std::sqrt(std::max(var, 0.0f) + eps);
      inv_std[c] = istd;
      const float g = gamma[c], b = beta[c];
      for (int64_t i = 0; i < n; ++i) {
        const float* p = x.data() + (i * channels + c) * plane;
        float* xh = xhat.data() + (i * channels + c) * plane;
        float* o = y.data() + (i * channels + c) * plane;
        for (int64_t j = 0; j < plane; ++j) {
          xh[j] = (p[j] - mean) * istd;
          o[j] = g * xh[j] + b;
        }
      }
      const float unbiased =
          count > 1 ? var * static_cast<float>(count) / (count - 1) : var;
      running_mean[c] = (1.0f - momentum) * running_mean[c] + momentum * mean;
      running_var[c] = (1.0f - momentum) * running_var[c] + momentum * unbiased;
    }
    return y;
  }

  Tensor backward(const Tensor& grad_out) {
    const int64_t n = grad_out.size(0), h = grad_out.size(2), w = grad_out.size(3);
    const int64_t plane = h * w;
    Tensor grad_in(grad_out.shape());
    const float inv_count = 1.0f / static_cast<float>(count);
    for (int64_t c = 0; c < channels; ++c) {
      double sum_g = 0.0, sum_gx = 0.0;
      for (int64_t i = 0; i < n; ++i) {
        const float* g = grad_out.data() + (i * channels + c) * plane;
        const float* xh = xhat.data() + (i * channels + c) * plane;
        for (int64_t j = 0; j < plane; ++j) {
          sum_g += g[j];
          sum_gx += static_cast<double>(g[j]) * xh[j];
        }
      }
      gamma_grad[c] += static_cast<float>(sum_gx);
      beta_grad[c] += static_cast<float>(sum_g);
      const float gmma = gamma[c];
      const float istd = inv_std[c];
      const float mean_g = static_cast<float>(sum_g) * inv_count;
      const float mean_gx = static_cast<float>(sum_gx) * inv_count;
      for (int64_t i = 0; i < n; ++i) {
        const float* g = grad_out.data() + (i * channels + c) * plane;
        const float* xh = xhat.data() + (i * channels + c) * plane;
        float* gi = grad_in.data() + (i * channels + c) * plane;
        for (int64_t j = 0; j < plane; ++j) {
          gi[j] = gmma * istd * (g[j] - mean_g - xh[j] * mean_gx);
        }
      }
    }
    return grad_in;
  }
};

// The k-th element of channel c along its chain (image, then position).
float& chain_at(Tensor& t, int64_t c, int64_t k) {
  const int64_t plane = t.size(2) * t.size(3);
  return t.data()[((k / plane) * t.size(1) + c) * plane + k % plane];
}

// Normal values with -0.0 and denormals mixed into every channel, and by
// channel c % 4:
//   1: NaN and +-inf, so some channels run non-finite chains;
//   2: +2^32 as the first element and -2^32 as the last. While 2^32 sits in
//      a double sum, each add rounds to 2^-20, and the exact cancellation at
//      the end leaves that rounding in the result;
//   3 (inputs only): 64 + d1, 64 + d2, 64 - d1, 64 - d2 along the chain
//      (|d| ~ 1e-3, trailing elements 64), with the first quad's 64 - d1
//      swapped with the last quad's. The mean is exactly 64, so the
//      variance cancels sq / count against 4096 and carries the rounding
//      of the sum of squares; and the first element and the one mirrored to
//      the last quad normalize to exact opposites.
// Channels 2 and 3 make the statistics depend on the order of each chain.
void fill_with_specials(Tensor& t, Rng& rng, float scale, bool input) {
  const int64_t channels = t.size(1);
  const int64_t count = t.size(0) * t.size(2) * t.size(3);
  const float kSpecial[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()};
  for (int64_t c = 0; c < channels; ++c) {
    for (int64_t k = 0; k < count; ++k) {
      float v = rng.normal() * scale + 0.3f;
      const float u = rng.uniform();
      if (u < 0.04f) v = -0.0f;
      else if (u < 0.08f) v = (u < 0.06f ? 1.0f : -1.0f) * 3.0e-39f;
      else if (c % 4 == 1 && u < 0.10f) v = kSpecial[k % 3];
      chain_at(t, c, k) = v;
    }
    if (c % 4 == 2 && count >= 2) {
      chain_at(t, c, 0) = 4294967296.0f;
      chain_at(t, c, count - 1) = -4294967296.0f;
    }
    if (c % 4 == 3 && input) {
      const int64_t quads = count / 4 * 4;
      float d[2] = {0.0f, 0.0f};
      for (int64_t k = 0; k < count; ++k) {
        if (k % 4 < 2) d[k % 2] = std::ldexp(std::round(rng.normal() * 262.0f), -18);
        const float v = k % 4 < 2 ? d[k % 2] : -d[k % 2];
        chain_at(t, c, k) = k < quads ? 64.0f + v : 64.0f;
      }
      if (quads >= 8) std::swap(chain_at(t, c, 2), chain_at(t, c, quads - 2));
    }
  }
}

// For the output gradient of a channel filled as a 3-input: 2^40 on the
// two elements whose normalized inputs are exact opposites, so the sum of
// g * xhat holds 2^40 * xhat from the first element to the last quad and
// then cancels exactly, keeping its rounding (at 2^-12) in d(gamma).
void add_cancelling_pair(Tensor& grad_out) {
  const int64_t channels = grad_out.size(1);
  const int64_t quads = grad_out.size(0) * grad_out.size(2) * grad_out.size(3) / 4 * 4;
  if (quads < 8) return;
  for (int64_t c = 3; c < channels; c += 4) {
    chain_at(grad_out, c, 0) = 1099511627776.0f;
    chain_at(grad_out, c, quads - 2) = 1099511627776.0f;
  }
}

// Checks one geometry: forward output and running statistics, then
// grad_in, d(gamma) and d(beta), against the scalar oracle, bit for bit
// (NaN matches NaN).
void check_bn_against_scalar(int64_t n, int64_t channels, int64_t h,
                             int64_t w, uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "n=" << n << " c=" << channels
                                    << " h=" << h << " w=" << w);
  Rng rng(seed);
  BatchNorm2d bn(channels, 1e-5f, 0.1f);
  bn.set_training(true);
  fill_uniform(bn.gamma().value, rng, 0.5f, 1.5f);
  fill_uniform(bn.beta().value, rng, -0.5f, 0.5f);
  fill_uniform(bn.running_mean(), rng, -1.0f, 1.0f);
  fill_uniform(bn.running_var(), rng, 0.5f, 2.0f);
  fill_uniform(bn.gamma().grad, rng, -0.1f, 0.1f);
  fill_uniform(bn.beta().grad, rng, -0.1f, 0.1f);
  ScalarBn ref(bn);

  Tensor x({n, channels, h, w});
  fill_with_specials(x, rng, 2.0f, /*input=*/true);
  Tensor grad_out({n, channels, h, w});
  fill_with_specials(grad_out, rng, 1.0f, /*input=*/false);
  add_cancelling_pair(grad_out);

  const Tensor want_y = ref.forward(x);
  const Tensor want_gin = ref.backward(grad_out);
  const Tensor got_y = bn.forward(x);
  const Tensor got_gin = bn.backward(grad_out);

  constexpr bool kNanAny = true;
  EXPECT_TRUE(bits_equal(got_y.data(), want_y.data(), want_y.numel(), kNanAny)) << "y";
  EXPECT_TRUE(bits_equal(bn.running_mean().data(), ref.running_mean.data(), channels, kNanAny))
      << "running_mean";
  EXPECT_TRUE(bits_equal(bn.running_var().data(), ref.running_var.data(), channels, kNanAny))
      << "running_var";
  EXPECT_TRUE(bits_equal(got_gin.data(), want_gin.data(), want_gin.numel(), kNanAny))
      << "grad_in";
  EXPECT_TRUE(bits_equal(bn.gamma().grad.data(), ref.gamma_grad.data(), channels, kNanAny))
      << "d(gamma)";
  EXPECT_TRUE(bits_equal(bn.beta().grad.data(), ref.beta_grad.data(), channels, kNanAny))
      << "d(beta)";
}

// The lane statistics keep each channel's scalar chain: every channel count
// from 1 to 19 (so every partial channel block runs), planes whose size is
// and is not a multiple of the 4-position step, at one and four threads.
TEST(BatchNormBitwise, TrainingPassesMatchScalarLoops) {
  ThreadPool one(0);
  ThreadPool four(3);
  const int64_t planes[][2] = {{1, 1}, {3, 3}, {2, 5}, {5, 5}, {7, 4}, {20, 20}};
  uint64_t seed = 500;
  for (ThreadPool* pool : {&one, &four}) {
    PoolOverride po(*pool);
    for (int64_t channels = 1; channels <= 19; ++channels) {
      for (const auto& hw : planes) {
        check_bn_against_scalar(channels % 3 + 1, channels, hw[0], hw[1], ++seed);
      }
    }
  }
}

}  // namespace
}  // namespace nb::nn
