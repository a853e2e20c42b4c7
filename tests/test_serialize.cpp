#include <gtest/gtest.h>

#include "models/registry.h"
#include "nn/activations.h"
#include "nn/serialize.h"
#include "tensor/tensor_ops.h"

namespace nb::nn {
namespace {

TEST(StateDict, ContainsParamsAndBuffers) {
  auto model = models::make_model("mbv2-tiny", 8);
  const auto sd = state_dict(*model);
  // Every BN contributes gamma/beta (params) + running stats (buffers).
  bool has_gamma = false, has_running = false, has_conv = false;
  for (const auto& [name, t] : sd) {
    (void)t;
    if (name.find("gamma") != std::string::npos) has_gamma = true;
    if (name.find("running_mean") != std::string::npos) has_running = true;
    if (name.find("conv.weight") != std::string::npos) has_conv = true;
  }
  EXPECT_TRUE(has_gamma);
  EXPECT_TRUE(has_running);
  EXPECT_TRUE(has_conv);
}

TEST(StateDict, LoadRestoresValues) {
  auto a = models::make_model("mbv2-tiny", 8, 1);
  auto b = models::make_model("mbv2-tiny", 8, 2);
  // Different seeds -> different weights.
  EXPECT_GT(max_abs_diff(a->parameters()[0]->value,
                         b->parameters()[0]->value),
            1e-5f);
  load_state_dict(*b, state_dict(*a));
  auto pa = a->parameters();
  auto pb = b->parameters();
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_LT(max_abs_diff(pa[i]->value, pb[i]->value), 1e-7f);
  }
}

TEST(StateDict, StrictLoadRejectsMissingEntry) {
  auto model = models::make_model("mbv2-tiny", 8);
  std::map<std::string, Tensor> empty;
  EXPECT_THROW(load_state_dict(*model, empty), std::runtime_error);
}

TEST(Checkpoint, PreservesPltAlphaMidRamp) {
  // PLT alpha is a buffer, so an interrupted PLT run can resume exactly.
  PltActivation act(ActKind::relu6, 0.4f);
  const auto sd = state_dict(act);
  PltActivation restored(ActKind::relu6, 0.0f);
  load_state_dict(restored, sd);
  EXPECT_FLOAT_EQ(restored.alpha(), 0.4f);
}

}  // namespace
}  // namespace nb::nn
