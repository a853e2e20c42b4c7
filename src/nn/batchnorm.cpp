#include "nn/batchnorm.h"

#include <algorithm>
#include <cmath>

namespace nb::nn {

namespace {

// Four floats read in place from a plane (may_alias, aligned(4): any float
// address), and the double pairs and quads the statistics accumulate in.
typedef float f32x4 __attribute__((vector_size(16), aligned(4), may_alias));
typedef double f64x2 __attribute__((vector_size(16)));
typedef double f64x4 __attribute__((vector_size(32)));

// Channels whose statistics run side by side: lanes (0, 1) and (2, 3) of a
// block are two double pairs.
constexpr int64_t kBlock = 4;

// Per-channel double sums of a and of a * b over every image and position
// of the channels [c0, c0 + kBlock). Forward (kSquare) b is a itself;
// backward b is the normalized input (x - mean[c]) * inv_std[c], recomputed
// in float exactly as the forward pass computed it. Each channel is one
// lane whose two chains add exactly the scalar loop's operands in its order
// (image, then position): a channel's sums depend on no other lane, so this
// is bit-for-bit the one-channel-at-a-time loop, only with kBlock
// independent chains in flight instead of one. Lanes past the last channel
// re-read the last channel; the caller never reads their sums.
template <bool kSquare>
void channel_sums(const float* a, const float* x, const float* mean,
                  const float* inv_std, int64_t n, int64_t channels,
                  int64_t plane, int64_t c0, double* sum_a, double* sum_ab) {
  int64_t cl[kBlock];
  f32x4 mean4[kBlock] = {}, inv_std4[kBlock] = {};
  for (int64_t l = 0; l < kBlock; ++l) {
    cl[l] = std::min(c0 + l, channels - 1);
    if (!kSquare) {
      const float m = mean[cl[l]], s = inv_std[cl[l]];
      mean4[l] = f32x4{m, m, m, m};
      inv_std4[l] = f32x4{s, s, s, s};
    }
  }
  const auto normalized = [&](int64_t l, float v) {
    return kSquare ? v : (v - mean[cl[l]]) * inv_std[cl[l]];
  };
  f64x2 sa[2] = {}, sab[2] = {};
  for (int64_t i = 0; i < n; ++i) {
    const float* pa[kBlock];
    const float* pb[kBlock];
    for (int64_t l = 0; l < kBlock; ++l) {
      const int64_t off = (i * channels + cl[l]) * plane;
      pa[l] = a + off;
      pb[l] = (kSquare ? a : x) + off;
    }
    int64_t j = 0;
    for (; j + 4 <= plane; j += 4) {
      for (int q = 0; q < 2; ++q) {
        // Four positions of two channels, widened, then transposed into
        // one (channel 2q, channel 2q + 1) pair per position.
        const int64_t l0 = 2 * q, l1 = 2 * q + 1;
        const f64x4 a0 = __builtin_convertvector(
            *reinterpret_cast<const f32x4*>(pa[l0] + j), f64x4);
        const f64x4 a1 = __builtin_convertvector(
            *reinterpret_cast<const f32x4*>(pa[l1] + j), f64x4);
        f64x4 b0 = a0, b1 = a1;
        if (!kSquare) {
          const f32x4 x0 = *reinterpret_cast<const f32x4*>(pb[l0] + j);
          const f32x4 x1 = *reinterpret_cast<const f32x4*>(pb[l1] + j);
          b0 = __builtin_convertvector((x0 - mean4[l0]) * inv_std4[l0], f64x4);
          b1 = __builtin_convertvector((x1 - mean4[l1]) * inv_std4[l1], f64x4);
        }
        const f64x2 va[4] = {__builtin_shufflevector(a0, a1, 0, 4),
                             __builtin_shufflevector(a0, a1, 1, 5),
                             __builtin_shufflevector(a0, a1, 2, 6),
                             __builtin_shufflevector(a0, a1, 3, 7)};
        const f64x2 vb[4] = {__builtin_shufflevector(b0, b1, 0, 4),
                             __builtin_shufflevector(b0, b1, 1, 5),
                             __builtin_shufflevector(b0, b1, 2, 6),
                             __builtin_shufflevector(b0, b1, 3, 7)};
        for (int t = 0; t < 4; ++t) {
          sa[q] += va[t];
          sab[q] += va[t] * vb[t];
        }
      }
    }
    for (; j < plane; ++j) {
      for (int q = 0; q < 2; ++q) {
        const int64_t l0 = 2 * q, l1 = 2 * q + 1;
        const f64x2 va = {pa[l0][j], pa[l1][j]};
        const f64x2 vb = {normalized(l0, pb[l0][j]), normalized(l1, pb[l1][j])};
        sa[q] += va;
        sab[q] += va * vb;
      }
    }
  }
  for (int64_t l = 0; l < kBlock; ++l) {
    sum_a[l] = sa[l / 2][l % 2];
    sum_ab[l] = sab[l / 2][l % 2];
  }
}

}  // namespace

BatchNorm2d::BatchNorm2d(int64_t channels, float eps, float momentum)
    : channels_(channels),
      eps_(eps),
      momentum_(momentum),
      gamma_(Tensor::ones({channels}), /*decay_flag=*/false),
      beta_(Tensor::zeros({channels}), /*decay_flag=*/false),
      running_mean_(Tensor::zeros({channels})),
      running_var_(Tensor::ones({channels})) {
  NB_CHECK(channels > 0, "BatchNorm2d channels");
}

std::vector<std::pair<std::string, Parameter*>> BatchNorm2d::local_params() {
  return {{"gamma", &gamma_}, {"beta", &beta_}};
}

std::vector<std::pair<std::string, Tensor*>> BatchNorm2d::local_buffers() {
  return {{"running_mean", &running_mean_}, {"running_var", &running_var_}};
}

Tensor BatchNorm2d::forward(const Tensor& x) {
  NB_CHECK(x.dim() == 4 && x.size(1) == channels_,
           "BatchNorm2d expects NCHW with matching channels");
  const int64_t n = x.size(0), h = x.size(2), w = x.size(3);
  const int64_t plane = h * w;
  const int64_t count = n * plane;
  Tensor y(x.shape());
  forward_was_training_ = training();

  if (training()) {
    input_ = x;
    mean_ = Tensor({channels_});
    inv_std_ = Tensor({channels_});
    count_ = count;
    double sums[kBlock], sqs[kBlock];
    for (int64_t c = 0; c < channels_; ++c) {
      if (c % kBlock == 0) {
        channel_sums<true>(x.data(), nullptr, nullptr, nullptr, n, channels_,
                           plane, c, sums, sqs);
      }
      const double sum = sums[c % kBlock], sq = sqs[c % kBlock];
      const float mean = static_cast<float>(sum / count);
      const float var = static_cast<float>(sq / count - static_cast<double>(mean) * mean);
      const float istd = 1.0f / std::sqrt(std::max(var, 0.0f) + eps_);
      mean_.at(c) = mean;
      inv_std_.at(c) = istd;
      const float g = gamma_.value.at(c), b = beta_.value.at(c);
      for (int64_t i = 0; i < n; ++i) {
        const float* p = x.data() + (i * channels_ + c) * plane;
        float* o = y.data() + (i * channels_ + c) * plane;
        for (int64_t j = 0; j < plane; ++j) {
          const float xh = (p[j] - mean) * istd;
          o[j] = g * xh + b;
        }
      }
      // unbiased variance for running stats, matching torch semantics
      const float unbiased =
          count > 1 ? var * static_cast<float>(count) / (count - 1) : var;
      running_mean_.at(c) =
          (1.0f - momentum_) * running_mean_.at(c) + momentum_ * mean;
      running_var_.at(c) =
          (1.0f - momentum_) * running_var_.at(c) + momentum_ * unbiased;
    }
  } else {
    for (int64_t c = 0; c < channels_; ++c) {
      const float istd = 1.0f / std::sqrt(running_var_.at(c) + eps_);
      const float g = gamma_.value.at(c) * istd;
      const float b = beta_.value.at(c) - running_mean_.at(c) * g;
      for (int64_t i = 0; i < n; ++i) {
        const float* p = x.data() + (i * channels_ + c) * plane;
        float* o = y.data() + (i * channels_ + c) * plane;
        for (int64_t j = 0; j < plane; ++j) o[j] = g * p[j] + b;
      }
    }
  }
  return y;
}

Tensor BatchNorm2d::backward(const Tensor& grad_out) {
  NB_CHECK(forward_was_training_,
           "BatchNorm2d::backward requires a training-mode forward");
  NB_CHECK(input_.defined(), "BatchNorm2d::backward before forward");
  const int64_t n = grad_out.size(0), h = grad_out.size(2), w = grad_out.size(3);
  const int64_t plane = h * w;
  Tensor grad_in(grad_out.shape());
  const float inv_count = 1.0f / static_cast<float>(count_);

  double sums_g[kBlock], sums_gx[kBlock];
  for (int64_t c = 0; c < channels_; ++c) {
    if (c % kBlock == 0) {
      channel_sums<false>(grad_out.data(), input_.data(), mean_.data(),
                          inv_std_.data(), n, channels_, plane, c, sums_g,
                          sums_gx);
    }
    const double sum_g = sums_g[c % kBlock], sum_gx = sums_gx[c % kBlock];
    gamma_.grad.at(c) += static_cast<float>(sum_gx);
    beta_.grad.at(c) += static_cast<float>(sum_g);

    const float gmma = gamma_.value.at(c);
    const float mean = mean_.at(c);
    const float istd = inv_std_.at(c);
    const float mean_g = static_cast<float>(sum_g) * inv_count;
    const float mean_gx = static_cast<float>(sum_gx) * inv_count;
    for (int64_t i = 0; i < n; ++i) {
      const float* g = grad_out.data() + (i * channels_ + c) * plane;
      const float* p = input_.data() + (i * channels_ + c) * plane;
      float* gi = grad_in.data() + (i * channels_ + c) * plane;
      for (int64_t j = 0; j < plane; ++j) {
        const float xh = (p[j] - mean) * istd;
        gi[j] = gmma * istd * (g[j] - mean_g - xh * mean_gx);
      }
    }
  }
  return grad_in;
}

BnAffine bn_to_affine(BatchNorm2d& bn) {
  BnAffine a;
  const int64_t c = bn.channels();
  a.scale.resize(static_cast<size_t>(c));
  a.shift.resize(static_cast<size_t>(c));
  for (int64_t i = 0; i < c; ++i) {
    const float istd = 1.0f / std::sqrt(bn.running_var().at(i) + bn.eps());
    const float s = bn.gamma().value.at(i) * istd;
    a.scale[static_cast<size_t>(i)] = s;
    a.shift[static_cast<size_t>(i)] =
        bn.beta().value.at(i) - bn.running_mean().at(i) * s;
  }
  return a;
}

}  // namespace nb::nn
