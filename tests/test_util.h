// Shared helpers for the test suite: finite-difference gradient checking and
// miniature datasets that train in milliseconds.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>

#include "data/dataset.h"
#include "nn/module.h"
#include "tensor/rng.h"
#include "tensor/tensor_ops.h"
#include "tensor/threadpool.h"

namespace nb::testing {

/// Bitwise equality, except that any NaN matches any NaN: which payload
/// survives an add or multiply of two NaNs is the compiler's operand order.
inline bool same_bits(float a, float b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

/// Compares n floats bit for bit, as memcmp does, and names the first
/// mismatch; with nan_matches_nan, any NaN matches any NaN (see same_bits).
inline ::testing::AssertionResult bits_equal(const float* got,
                                             const float* want, int64_t n,
                                             bool nan_matches_nan = false) {
  for (int64_t i = 0; i < n; ++i) {
    const bool equal = nan_matches_nan
                           ? same_bits(got[i], want[i])
                           : std::memcmp(&got[i], &want[i], sizeof(float)) == 0;
    if (!equal) {
      return ::testing::AssertionFailure()
             << "first mismatch at " << i << " of " << n << ": got "
             << got[i] << ", want " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// Routes nb::parallel_for through `pool` for the lifetime of one scope.
class PoolOverride {
 public:
  explicit PoolOverride(ThreadPool& pool) {
    ThreadPool::set_global_override(&pool);
  }
  ~PoolOverride() { ThreadPool::set_global_override(nullptr); }
  PoolOverride(const PoolOverride&) = delete;
  PoolOverride& operator=(const PoolOverride&) = delete;
};

/// Name of a conv geometry case (cin, cout, k, stride, pad, groups, bias),
/// e.g. "cin3_cout8_k3_s1_p1_g1" or "..._bias". A suite's PrintTo returns
/// it, and gtest_discover_tests names each ctest case after that printed
/// value. gtest's default printer dumps the case's bytes, padding included,
/// which differ between builds and runs.
template <typename ConvCase>
std::string conv_case_name(const ConvCase& c) {
  return "cin" + std::to_string(c.cin) + "_cout" + std::to_string(c.cout) +
         "_k" + std::to_string(c.k) + "_s" + std::to_string(c.stride) +
         "_p" + std::to_string(c.pad) + "_g" + std::to_string(c.groups) +
         (c.bias ? "_bias" : "");
}

/// Scalar objective used to seed backward: sum of elementwise weighted
/// outputs, J = sum(w .* y). dJ/dy = w, which exercises every output path.
struct WeightedSum {
  Tensor weights;

  explicit WeightedSum(const Tensor& like, Rng& rng) : weights(like.shape()) {
    fill_uniform(weights, rng, -1.0f, 1.0f);
  }
  float value(const Tensor& y) const {
    float s = 0.0f;
    const float* a = y.data();
    const float* w = weights.data();
    for (int64_t i = 0; i < y.numel(); ++i) s += a[i] * w[i];
    return s;
  }
};

/// Central-difference check of dJ/dInput and dJ/dParams against the module's
/// backward(). Tolerances are loose-ish because the substrate is fp32.
inline void check_gradients(nn::Module& m, const Tensor& input,
                            float eps = 1e-2f, float tol = 2e-2f,
                            uint64_t seed = 99) {
  Rng rng(seed, 71);
  m.set_training(true);

  Tensor x = input.clone();
  Tensor y = m.forward(x);
  WeightedSum objective(y, rng);

  m.zero_grad();
  y = m.forward(x);
  Tensor grad_in = m.backward(objective.weights);

  // Input gradient.
  Tensor x_num(x.shape());
  for (int64_t i = 0; i < x.numel(); ++i) {
    const float orig = x.data()[i];
    x.data()[i] = orig + eps;
    const float jp = objective.value(m.forward(x));
    x.data()[i] = orig - eps;
    const float jm = objective.value(m.forward(x));
    x.data()[i] = orig;
    x_num.data()[i] = (jp - jm) / (2.0f * eps);
  }
  const float in_scale = std::max(1.0f, x_num.abs_max());
  EXPECT_LT(max_abs_diff(grad_in, x_num) / in_scale, tol)
      << "input gradient mismatch";

  // Parameter gradients (subsample large tensors to keep tests fast).
  for (nn::Parameter* p : m.parameters()) {
    const int64_t n = p->value.numel();
    const int64_t step = std::max<int64_t>(1, n / 24);
    for (int64_t i = 0; i < n; i += step) {
      const float orig = p->value.data()[i];
      p->value.data()[i] = orig + eps;
      const float jp = objective.value(m.forward(x));
      p->value.data()[i] = orig - eps;
      const float jm = objective.value(m.forward(x));
      p->value.data()[i] = orig;
      const float expected = (jp - jm) / (2.0f * eps);
      const float got = p->grad.data()[i];
      const float scale = std::max({1.0f, std::fabs(expected)});
      EXPECT_NEAR(got / scale, expected / scale, tol)
          << "param grad mismatch at flat index " << i;
    }
  }
}

/// A tiny in-memory classification dataset with linearly separable-ish
/// class blobs — enough signal that a few SGD steps visibly reduce loss.
class ToyDataset : public data::ClassificationDataset {
 public:
  ToyDataset(int64_t n_per_class, int64_t classes, int64_t resolution,
             uint64_t seed)
      : classes_(classes), resolution_(resolution) {
    Rng rng(seed, 15);
    const int64_t n = n_per_class * classes;
    images_ = Tensor({n, 3, resolution, resolution});
    labels_.resize(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      const int64_t cls = i % classes;
      labels_[static_cast<size_t>(i)] = cls;
      // Class-dependent mean pattern + noise.
      for (int64_t c = 0; c < 3; ++c) {
        for (int64_t y = 0; y < resolution; ++y) {
          for (int64_t x = 0; x < resolution; ++x) {
            const float base =
                0.8f * std::sin(0.7f * static_cast<float>(cls + 1) *
                                static_cast<float>(x + y + c));
            images_.at(i, c, y, x) = base + 0.1f * rng.normal();
          }
        }
      }
    }
  }

  int64_t size() const override { return images_.size(0); }
  int64_t num_classes() const override { return classes_; }
  int64_t resolution() const override { return resolution_; }
  Tensor image(int64_t idx) const override {
    Tensor out({3, resolution_, resolution_});
    std::copy(images_.data() + idx * out.numel(),
              images_.data() + (idx + 1) * out.numel(), out.data());
    return out;
  }
  int64_t label(int64_t idx) const override {
    return labels_[static_cast<size_t>(idx)];
  }
  std::string name() const override { return "toy"; }

 private:
  int64_t classes_;
  int64_t resolution_;
  Tensor images_;
  std::vector<int64_t> labels_;
};

}  // namespace nb::testing
