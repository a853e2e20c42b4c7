#include "nn/activations.h"

namespace nb::nn {

// Every pass below is one select per element: the candidate values are
// computed for every element and the predicate only picks one, so no FP
// operation is conditional. A conditional multiply (`if (x < 0) y *= a`)
// stays a branchy scalar loop under GCC's default -ftrapping-math, since
// running it on every lane could raise an FP exception flag the branch
// would not. This file is built with -fno-trapping-math (CMakeLists.txt) so
// the multiply-then-select loops vectorize too; values are unchanged, only
// exception flags may differ. Predicates are kept exactly, so NaN behaves
// as before: Activation maps a NaN input to 0, PltActivation passes it
// through, and a NaN input leaves the gradient unchanged.

const char* to_string(ActKind kind) {
  switch (kind) {
    case ActKind::relu: return "relu";
    case ActKind::relu6: return "relu6";
    case ActKind::identity: return "identity";
  }
  return "?";
}

Tensor Activation::forward(const Tensor& x) {
  input_ = x;
  if (kind_ == ActKind::identity) return x;
  Tensor y(x.shape());
  const float* xp = x.data();
  float* yp = y.data();
  const int64_t n = y.numel();
  if (kind_ == ActKind::relu) {
    for (int64_t i = 0; i < n; ++i) yp[i] = xp[i] > 0.0f ? xp[i] : 0.0f;
  } else {  // relu6
    for (int64_t i = 0; i < n; ++i) {
      const float v = xp[i];
      yp[i] = v > 0.0f ? (v < 6.0f ? v : 6.0f) : 0.0f;
    }
  }
  return y;
}

Tensor Activation::backward(const Tensor& grad_out) {
  NB_CHECK(input_.defined(), "Activation::backward before forward");
  if (kind_ == ActKind::identity) return grad_out;
  Tensor grad_in(grad_out.shape());
  const float* go = grad_out.data();
  const float* xp = input_.data();
  float* gp = grad_in.data();
  const int64_t n = grad_in.numel();
  if (kind_ == ActKind::relu) {
    for (int64_t i = 0; i < n; ++i) {
      const float g = go[i];
      gp[i] = xp[i] <= 0.0f ? 0.0f : g;
    }
  } else {
    for (int64_t i = 0; i < n; ++i) {
      const float g = go[i];
      const bool off = (xp[i] <= 0.0f) | (xp[i] >= 6.0f);
      gp[i] = off ? 0.0f : g;
    }
  }
  return grad_in;
}

PltActivation::PltActivation(ActKind kind, float alpha)
    : kind_(kind), alpha_(Tensor({1})) {
  NB_CHECK(kind != ActKind::identity, "PltActivation over identity is vacuous");
  set_alpha(alpha);
}

std::vector<std::pair<std::string, Tensor*>> PltActivation::local_buffers() {
  return {{"alpha", &alpha_}};
}

void PltActivation::set_alpha(float a) {
  NB_CHECK(a >= 0.0f && a <= 1.0f, "PLT alpha must lie in [0, 1]");
  alpha_.at(0) = a;
}

Tensor PltActivation::forward(const Tensor& x) {
  input_ = x;
  const float a = alpha();
  Tensor y(x.shape());
  const float* xp = x.data();
  float* yp = y.data();
  const int64_t n = y.numel();
  if (kind_ == ActKind::relu) {
    // y = max(a*x, x): for x < 0 this is a*x (since a <= 1), else x.
    for (int64_t i = 0; i < n; ++i) {
      const float v = xp[i];
      const float low = v * a;
      yp[i] = v < 0.0f ? low : v;
    }
  } else {  // relu6 with linearized upper clamp
    for (int64_t i = 0; i < n; ++i) {
      const float v = xp[i];
      const float low = v * a;
      const float high = 6.0f + a * (v - 6.0f);
      yp[i] = v < 0.0f ? low : (v > 6.0f ? high : v);
    }
  }
  return y;
}

Tensor PltActivation::backward(const Tensor& grad_out) {
  NB_CHECK(input_.defined(), "PltActivation::backward before forward");
  const float a = alpha();
  Tensor grad_in(grad_out.shape());
  const float* go = grad_out.data();
  const float* xp = input_.data();
  float* gp = grad_in.data();
  const int64_t n = grad_in.numel();
  if (kind_ == ActKind::relu) {
    for (int64_t i = 0; i < n; ++i) {
      const float g = go[i];
      const float scaled = g * a;
      gp[i] = xp[i] < 0.0f ? scaled : g;
    }
  } else {
    for (int64_t i = 0; i < n; ++i) {
      const float g = go[i];
      const float scaled = g * a;
      const bool linear = (xp[i] < 0.0f) | (xp[i] > 6.0f);
      gp[i] = linear ? scaled : g;
    }
  }
  return grad_in;
}

}  // namespace nb::nn
