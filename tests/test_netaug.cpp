#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "baselines/netaug.h"
#include "models/registry.h"
#include "nn/conv2d.h"
#include "nn/serialize.h"
#include "test_util.h"
#include "train/metrics.h"

namespace nb::baselines {
namespace {

using ::nb::testing::bits_equal;
using ::nb::testing::PoolOverride;
using ::nb::testing::ToyDataset;

// Every tensor of two state dicts, bit for bit.
void expect_same_state(const std::map<std::string, Tensor>& got,
                       const std::map<std::string, Tensor>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [name, t] : want) {
    const auto it = got.find(name);
    ASSERT_NE(it, got.end()) << name;
    ASSERT_TRUE(it->second.same_shape(t)) << name;
    EXPECT_TRUE(bits_equal(it->second.data(), t.data(), t.numel())) << name;
  }
}

TEST(SlicePointwiseConv, FullWidthMatchesConv2d) {
  Rng rng(301);
  SlicePointwiseConv slice(5, 7);
  nn::Conv2d conv(nn::Conv2dOptions(5, 7, 1));
  fill_normal(slice.weight().value, rng, 0.0f, 0.5f);
  conv.weight().value.copy_from(slice.weight().value);

  Tensor x({2, 5, 4, 4});
  fill_normal(x, rng, 0.0f, 1.0f);
  EXPECT_LT(max_abs_diff(slice.forward(x), conv.forward(x)), 1e-5f);
}

TEST(SlicePointwiseConv, SliceMatchesManualSubmatrix) {
  Rng rng(302);
  SlicePointwiseConv slice(6, 8);
  fill_normal(slice.weight().value, rng, 0.0f, 0.5f);
  slice.set_active(4, 5);

  Tensor x({1, 4, 3, 3});
  fill_normal(x, rng, 0.0f, 1.0f);
  const Tensor y = slice.forward(x);
  ASSERT_EQ(y.size(1), 5);

  // Manual: y[o, p] = sum_m W[o, m] x[m, p] over the active prefix.
  for (int64_t o = 0; o < 5; ++o) {
    for (int64_t p = 0; p < 9; ++p) {
      double acc = 0.0;
      for (int64_t m = 0; m < 4; ++m) {
        acc += static_cast<double>(slice.weight().value.at(o, m)) *
               x.data()[m * 9 + p];
      }
      EXPECT_NEAR(y.data()[o * 9 + p], acc, 1e-4f);
    }
  }
}

TEST(SlicePointwiseConv, GradientTouchesOnlyActiveSlice) {
  Rng rng(303);
  SlicePointwiseConv slice(6, 8);
  fill_normal(slice.weight().value, rng, 0.0f, 0.5f);
  slice.set_active(3, 4);
  slice.zero_grad();

  Tensor x({1, 3, 2, 2});
  fill_normal(x, rng, 0.0f, 1.0f);
  const Tensor y = slice.forward(x);
  Tensor g(y.shape());
  fill_normal(g, rng, 0.0f, 1.0f);
  (void)slice.backward(g);

  // Rows >= 4 and columns >= 3 must stay zero.
  for (int64_t o = 0; o < 8; ++o) {
    for (int64_t m = 0; m < 6; ++m) {
      const float gv = slice.weight().grad.at(o, m);
      if (o >= 4 || m >= 3) {
        EXPECT_EQ(gv, 0.0f) << "inactive weight got gradient at " << o << "," << m;
      }
    }
  }
}

TEST(SlicePointwiseConv, FiniteDifferenceAtPartialWidth) {
  Rng rng(304);
  SlicePointwiseConv slice(5, 6);
  fill_uniform(slice.weight().value, rng, -0.5f, 0.5f);
  slice.set_active(4, 4);
  Tensor x({2, 4, 3, 3});
  fill_uniform(x, rng, -1.0f, 1.0f);
  nb::testing::check_gradients(slice, x);
}

TEST(SliceDepthwiseConv, FiniteDifference) {
  Rng rng(305);
  SliceDepthwiseConv dw(6, 3, 1);
  for (auto& [name, p] : dw.local_params()) {
    (void)name;
    fill_uniform(p->value, rng, -0.5f, 0.5f);
  }
  dw.set_active(4);
  Tensor x({2, 4, 5, 5});
  fill_uniform(x, rng, -1.0f, 1.0f);
  nb::testing::check_gradients(dw, x);
}

// The naive loop SliceDepthwiseConv::forward ran before it moved onto
// nb::depthwise_blocks, verbatim: one chain per output from +0.0 over the
// in-bounds taps in ascending (ki, kj) order.
Tensor naive_slice_depthwise(const Tensor& x, const float* weight, int64_t k,
                             int64_t stride) {
  const int64_t n = x.size(0), active = x.size(1), h = x.size(2),
                w = x.size(3);
  const int64_t pad = (k - 1) / 2;
  const int64_t oh = (h + 2 * pad - k) / stride + 1;
  const int64_t ow = (w + 2 * pad - k) / stride + 1;
  Tensor y({n, active, oh, ow});
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t c = 0; c < active; ++c) {
      const float* img = x.data() + (i * active + c) * h * w;
      const float* ker = weight + c * k * k;
      float* out = y.data() + (i * active + c) * oh * ow;
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox) {
          float acc = 0.0f;
          for (int64_t ki = 0; ki < k; ++ki) {
            const int64_t iy = oy * stride + ki - pad;
            if (iy < 0 || iy >= h) continue;
            for (int64_t kj = 0; kj < k; ++kj) {
              const int64_t ix = ox * stride + kj - pad;
              if (ix < 0 || ix >= w) continue;
              acc += ker[ki * k + kj] * img[iy * w + ix];
            }
          }
          out[oy * ow + ox] = acc;
        }
      }
    }
  }
  return y;
}

TEST(SliceDepthwiseConv, ForwardMatchesNaiveLoopBitwise) {
  Rng rng(307);
  // Planes of 5x3 run in blocks at both strides; 16x14 runs plane by plane
  // at stride 1 and in blocks at stride 2; 26x24 runs plane by plane at
  // both. Active widths 5-11 of 12 leave whole and partial blocks of eight.
  for (const int64_t k : {3, 5}) {
    for (const int64_t s : {1, 2}) {
      for (const int64_t h : {5, 16, 26}) {
        for (int64_t batch = 1; batch <= 4; ++batch) {
          SliceDepthwiseConv dw(12, k, s);
          nn::Parameter* weight = dw.local_params()[0].second;
          fill_normal(weight->value, rng, 0.0f, 0.5f);
          const int64_t active = 3 + 2 * batch;
          dw.set_active(active);
          Tensor x({batch, active, h, h - 2});
          fill_normal(x, rng, 0.0f, 1.0f);
          const Tensor y = dw.forward(x);
          const Tensor want =
              naive_slice_depthwise(x, weight->value.data(), k, s);
          ASSERT_TRUE(y.same_shape(want));
          EXPECT_EQ(std::memcmp(y.data(), want.data(),
                                static_cast<size_t>(y.numel()) * sizeof(float)),
                    0)
              << "k" << k << " s" << s << " h" << h << " batch " << batch;
        }
      }
    }
  }
}

TEST(SliceBatchNorm, RecordGateFreezesRunningStats) {
  SliceBatchNorm bn(4);
  bn.set_training(true);
  Rng rng(306);
  Tensor x({4, 4, 3, 3});
  fill_normal(x, rng, 3.0f, 1.0f);

  bn.set_record_stats(false);
  (void)bn.forward(x);
  const auto buffers = bn.local_buffers();
  EXPECT_FLOAT_EQ(buffers[0].second->at(0), 0.0f) << "mean must stay at init";

  bn.set_record_stats(true);
  (void)bn.forward(x);
  EXPECT_GT(buffers[0].second->at(0), 0.1f) << "mean should move when recording";
}

TEST(AugInvertedResidual, WidthChangesHiddenOnlyKeepsIO) {
  Rng rng(307);
  AugInvertedResidual block(6, 8, 1, 3, 3, 2.0f, nn::ActKind::relu6);
  for (nn::Parameter* p : block.parameters()) {
    fill_normal(p->value, rng, 0.0f, 0.4f);
  }
  Tensor x({1, 6, 5, 5});
  fill_normal(x, rng, 0.0f, 1.0f);

  block.set_width(1.0f);
  const Tensor y1 = block.forward(x);
  block.set_width(2.0f);
  const Tensor y2 = block.forward(x);
  EXPECT_TRUE(y1.same_shape(y2)) << "I/O shape must be width-independent";
  EXPECT_GT(max_abs_diff(y1, y2), 1e-6f) << "wider path should compute differently";
  EXPECT_EQ(block.max_hidden(), 2 * block.base_hidden());
}

TEST(NetAugModel, BaseForwardShape) {
  Rng rng(308);
  models::ModelConfig config = models::model_config("mbv2-tiny", 6);
  NetAugModel model(config, 2.0f, rng);
  Tensor x({2, 3, 20, 20});
  model.set_width(1.0f);
  const Tensor logits = model.forward(x);
  EXPECT_EQ(logits.size(0), 2);
  EXPECT_EQ(logits.size(1), 6);
}

TEST(NetAugModel, TrainingImprovesBaseAccuracy) {
  ToyDataset train(16, 3, 12, 41);
  ToyDataset test(8, 3, 12, 42);
  Rng rng(309);
  models::ModelConfig config = models::model_config("mbv2-tiny", 3);
  NetAugModel model(config, 2.0f, rng);
  model.set_width(1.0f);
  const float before = train::evaluate(model, test);

  train::TrainConfig tc;
  tc.epochs = 3;
  tc.batch_size = 16;
  tc.lr = 0.05f;
  tc.augment = false;
  NetAugConfig na;
  const train::TrainHistory h = train_netaug(model, train, test, tc, na);
  EXPECT_GT(h.final_test_acc, before + 0.15f);
}

TEST(NetAugModel, ExportBaseMatchesSupernetBasePath) {
  // The deployed network ("directly remove the supernet") must compute
  // bit for bit what the supernet computes at base width: both run nn
  // layers holding the same copied prefix.
  Rng rng(311);
  models::ModelConfig config = models::model_config("mbv2-tiny", 5);
  NetAugModel supernet(config, 2.0f, rng);
  // Give BN stats some life.
  supernet.set_training(true);
  Tensor warm({4, 3, 20, 20});
  fill_normal(warm, rng, 0.0f, 1.0f);
  supernet.set_width(1.0f);
  (void)supernet.forward(warm);

  auto base = supernet.export_base();
  supernet.set_training(false);
  base->set_training(false);
  supernet.set_width(1.0f);

  Tensor x({2, 3, 20, 20});
  fill_normal(x, rng, 0.0f, 1.0f);
  const Tensor want = supernet.forward(x);
  const Tensor got = base->forward(x);
  ASSERT_TRUE(got.same_shape(want));
  EXPECT_TRUE(bits_equal(got.data(), want.data(), want.numel()));
}

TEST(NetAugModel, TrainingIsThreadInvariant) {
  // The slices run nn's passes, whose GEMMs and depthwise backward fork
  // over the pool; a short run must train the same bits at one and four
  // threads, in the supernet and in the network it deploys.
  ToyDataset train(8, 3, 12, 43);
  ToyDataset test(4, 3, 12, 44);
  train::TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 8;
  tc.lr = 0.05f;
  ThreadPool one(0);
  ThreadPool four(3);
  std::vector<std::map<std::string, Tensor>> supernets, exported;
  for (ThreadPool* pool : {&one, &four}) {
    PoolOverride po(*pool);
    Rng rng(312);
    NetAugModel model(models::model_config("mbv2-tiny", 3), 2.0f, rng);
    (void)train_netaug(model, train, test, tc, NetAugConfig{});
    supernets.push_back(nn::state_dict(model));
    exported.push_back(nn::state_dict(*model.export_base()));
  }
  expect_same_state(supernets[1], supernets[0]);
  expect_same_state(exported[1], exported[0]);
}

TEST(NetAugModel, EvaluationRunsAtBaseWidth) {
  Rng rng(310);
  models::ModelConfig config = models::model_config("mbv2-tiny", 4);
  NetAugModel model(config, 2.0f, rng);
  // After any width excursion, setting base width must restore base compute.
  Tensor x({1, 3, 20, 20});
  model.set_width(1.0f);
  model.set_training(false);
  const Tensor base1 = model.forward(x);
  model.set_width(1.7f);
  (void)model.forward(x);
  model.set_width(1.0f);
  const Tensor base2 = model.forward(x);
  EXPECT_LT(max_abs_diff(base1, base2), 1e-6f)
      << "width excursions must not corrupt the base path";
}

}  // namespace
}  // namespace nb::baselines
