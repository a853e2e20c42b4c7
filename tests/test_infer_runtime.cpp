// Tests for the planned fast inference backend (src/export/infer_plan.h):
// fast-vs-reference agreement on randomized flat graphs (grouped/depthwise
// convs, residual save/add chains, batch > 1), arena-plan peak-memory
// sanity, thread-count invariance, and geometry validation.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "export/flat_model.h"
#include "export/flat_synth.h"
#include "export/infer_plan.h"
#include "export/qmodel.h"
#include "tensor/rng.h"
#include "tensor/tensor_ops.h"
#include "tensor/threadpool.h"
#include "test_util.h"

namespace nb::exporter {
namespace {

// Thin wrappers over the shared synthetic-op builders: draw a power-of-two
// activation scale first (deterministic order), then the op.
FlatOp make_conv(Rng& rng, int64_t cin, int64_t cout, int64_t k,
                 int64_t stride, int64_t groups, FlatAct act, bool bias) {
  const float act_scale = synth::pow2_act_scale(rng);
  return synth::make_conv(rng, cin, cout, k, stride, groups, act, bias,
                          act_scale);
}

FlatOp make_marker(OpKind kind) { return synth::make_marker(kind); }

FlatOp make_linear(Rng& rng, int64_t in, int64_t out) {
  const float act_scale = synth::pow2_act_scale(rng);
  return synth::make_linear(rng, in, out, act_scale);
}

/// A small inverted-residual-style graph exercising every op kind: stem,
/// expand 1x1, depthwise 3x3, grouped conv, project + residual, 5x5
/// depthwise stride 2, GAP, linear.
FlatModel residual_graph(uint64_t seed) {
  Rng rng(seed, 7);
  FlatModel m;
  m.set_input(16, 3);
  m.push(make_conv(rng, 3, 16, 3, 2, 1, FlatAct::relu6, true));
  m.push(make_marker(OpKind::save));
  m.push(make_conv(rng, 16, 48, 1, 1, 1, FlatAct::relu6, false));
  m.push(make_conv(rng, 48, 48, 3, 1, 48, FlatAct::relu6, true));
  m.push(make_conv(rng, 48, 16, 1, 1, 1, FlatAct::identity, true));
  m.push(make_marker(OpKind::add_saved));
  m.push(make_conv(rng, 16, 32, 3, 1, 4, FlatAct::relu, true));
  m.push(make_conv(rng, 32, 32, 5, 2, 32, FlatAct::relu6, false));
  m.push(make_marker(OpKind::gap));
  m.push(make_linear(rng, 32, 10));
  return m;
}

Tensor random_input(Rng& rng, std::vector<int64_t> shape) {
  Tensor x(std::move(shape));
  fill_uniform(x, rng, -1.0f, 1.0f);
  return x;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

using nb::testing::PoolOverride;

TEST(InferPlan, FastMatchesReferenceOnResidualGraph) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    const FlatModel m = residual_graph(seed);
    Rng rng(100 + seed, 1);
    const Tensor x = random_input(rng, {2, 3, 16, 16});
    const Tensor ref = m.forward(x, Backend::reference);
    const Tensor fast = m.forward(x, Backend::fast);
    ASSERT_TRUE(ref.same_shape(fast));
    EXPECT_LT(max_abs_diff(ref, fast), 1e-5f) << "seed=" << seed;
  }
}

TEST(InferPlan, FastMatchesReferenceAcrossBatchSizes) {
  const FlatModel m = residual_graph(21);
  Rng rng(7, 1);
  for (int64_t batch : {1, 3, 8}) {
    const Tensor x = random_input(rng, {batch, 3, 16, 16});
    EXPECT_LT(max_abs_diff(m.forward(x, Backend::reference),
                           m.forward(x, Backend::fast)),
              1e-5f)
        << "batch=" << batch;
  }
}

TEST(InferPlan, FastMatchesReferenceOnRandomizedConvChains) {
  Rng graph_rng(99, 3);
  for (int trial = 0; trial < 6; ++trial) {
    FlatModel m;
    m.set_input(12, 4);
    int64_t c = 4;
    const int64_t depth = 2 + graph_rng.randint(4);
    for (int64_t d = 0; d < depth; ++d) {
      const int64_t pick = graph_rng.randint(4);
      const auto act = static_cast<FlatAct>(graph_rng.randint(3));
      const bool bias = graph_rng.bernoulli(0.5f);
      if (pick == 0) {  // pointwise, channel change
        const int64_t cout = 4 + 4 * graph_rng.randint(5);
        m.push(make_conv(graph_rng, c, cout, 1, 1, 1, act, bias));
        c = cout;
      } else if (pick == 1) {  // depthwise
        m.push(make_conv(graph_rng, c, c, 3, 1 + graph_rng.randint(2), c, act,
                         bias));
      } else if (pick == 2) {  // grouped
        m.push(make_conv(graph_rng, c, c * 2, 3, 1, 2, act, bias));
        c *= 2;
      } else {  // residual pair around a depthwise
        m.push(make_marker(OpKind::save));
        m.push(make_conv(graph_rng, c, c, 3, 1, c, act, bias));
        m.push(make_marker(OpKind::add_saved));
      }
    }
    // A grouped pointwise conv (the direct, im2col-free lowering, one GEMM
    // per group), from its own stream so the draws above stay as they were.
    Rng tail_rng(700 + static_cast<uint64_t>(trial), 3);
    m.push(make_conv(tail_rng, c, c, 1, 1, 2 << (trial % 2), FlatAct::relu6,
                     true));
    Rng rng(500 + static_cast<uint64_t>(trial), 1);
    const Tensor x = random_input(rng, {2, 4, 12, 12});
    const Tensor ref = m.forward(x, Backend::reference);
    const Tensor fast = m.forward(x, Backend::fast);
    ASSERT_TRUE(ref.same_shape(fast)) << "trial=" << trial;
    EXPECT_LT(max_abs_diff(ref, fast), 1e-5f) << "trial=" << trial;
  }
}

TEST(InferPlan, BitwiseInvariantAcrossThreadCounts) {
  ThreadPool one(0);
  ThreadPool four(3);
  const FlatModel m = residual_graph(33);
  Rng rng(42, 1);
  const Tensor x = random_input(rng, {4, 3, 16, 16});
  InferPlan plan(m, 4, 3, 16, 16);
  Tensor y1, y4;
  {
    PoolOverride po(one);
    y1 = plan.run(x);
  }
  {
    PoolOverride po(four);
    y4 = plan.run(x);
  }
  ASSERT_TRUE(y1.same_shape(y4));
  EXPECT_EQ(std::memcmp(y1.data(), y4.data(),
                        static_cast<size_t>(y1.numel()) * sizeof(float)),
            0);
}

TEST(InferPlan, ArenaIsSmallerThanPerOpAllocationsAndCoversPeak) {
  const FlatModel m = residual_graph(55);
  InferPlan plan(m, 1, 3, 16, 16);
  const PlanStats& st = plan.stats();
  EXPECT_GT(st.arena_floats, 0);
  // Reuse must beat a no-reuse executor...
  EXPECT_LT(st.arena_bytes(), st.no_reuse_bytes());
  // ...while still covering the largest set of simultaneously-live buffers.
  EXPECT_GE(st.arena_floats, st.peak_live_floats);
  EXPECT_EQ(st.save_depth, 1);
  EXPECT_EQ(st.ops, static_cast<int64_t>(m.ops().size()));

  // Batch scales every activation buffer; the plan must track it.
  InferPlan plan8(m, 8, 3, 16, 16);
  EXPECT_GT(plan8.stats().arena_floats, st.arena_floats);
}

TEST(InferPlan, PlanIsReusableAndMatchesColdRuns) {
  const FlatModel m = residual_graph(66);
  InferPlan plan(m, 2, 3, 16, 16);
  Rng rng(9, 1);
  const Tensor a = random_input(rng, {2, 3, 16, 16});
  const Tensor b = random_input(rng, {2, 3, 16, 16});
  const Tensor ya1 = plan.run(a);
  const Tensor yb = plan.run(b);   // arena reused in between
  const Tensor ya2 = plan.run(a);  // must be untouched by b's run
  EXPECT_EQ(max_abs_diff(ya1, ya2), 0.0f);
  EXPECT_GT(max_abs_diff(ya1, yb), 0.0f);
}

TEST(InferPlan, RejectsGeometryMismatches) {
  const FlatModel m = residual_graph(77);
  // Plan/run input mismatch.
  InferPlan plan(m, 1, 3, 16, 16);
  Tensor wrong({1, 3, 20, 20});
  EXPECT_THROW(plan.run(wrong), std::runtime_error);
  // First conv expects 3 input channels.
  EXPECT_THROW(InferPlan(m, 1, 4, 16, 16), std::runtime_error);
  // Empty program.
  FlatModel empty;
  EXPECT_THROW(InferPlan(empty, 1, 3, 16, 16), std::runtime_error);
  // ADD without SAVE fails at plan time.
  FlatModel bad;
  bad.push(make_marker(OpKind::add_saved));
  EXPECT_THROW(InferPlan(bad, 1, 3, 8, 8), std::runtime_error);
}

TEST(InferPlan, ForwardAfterPushRunsTheLongerProgram) {
  Rng rng(5, 2);
  FlatModel m;
  m.set_input(12, 3);
  m.push(make_conv(rng, 3, 8, 3, 1, 1, FlatAct::relu6, true));
  Rng xr(8, 1);
  const Tensor x = random_input(xr, {1, 3, 12, 12});
  const Tensor y1 = m.forward(x, Backend::fast);
  // Same input geometry, longer program: forward runs the program as it is
  // now.
  m.push(make_conv(rng, 8, 8, 3, 1, 8, FlatAct::identity, true));
  const Tensor y2 = m.forward(x, Backend::fast);
  EXPECT_GT(max_abs_diff(y1, y2), 0.0f);
  EXPECT_LT(max_abs_diff(y2, m.forward(x, Backend::reference)), 1e-5f);
}

TEST(InferPlan, ForwardMatchesReferenceAcrossShapeChanges) {
  const FlatModel m = residual_graph(88);
  Rng rng(31, 1);
  const Tensor a = random_input(rng, {1, 3, 16, 16});
  const Tensor b = random_input(rng, {2, 3, 16, 16});
  // Alternating shapes; results must stay correct.
  for (int round = 0; round < 2; ++round) {
    EXPECT_LT(max_abs_diff(m.forward(a, Backend::fast),
                           m.forward(a, Backend::reference)),
              1e-5f);
    EXPECT_LT(max_abs_diff(m.forward(b, Backend::fast),
                           m.forward(b, Backend::reference)),
              1e-5f);
  }
}

TEST(InferPlan, ConcurrentForwardOnSharedModelMatchesSerial) {
  // forward is stateless (a one-shot plan per call), so one const model is
  // safe to share across threads on both planned backends.
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  const FlatModel m = residual_graph(61);
  Rng rng(62, 1);
  const Tensor x = random_input(rng, {2, 3, 16, 16});
  const Tensor fast = m.forward(x, Backend::fast);
  const Tensor q = m.forward(x, Backend::int8);

  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        if (!bitwise_equal(m.forward(x, Backend::fast), fast)) ++mismatches[t];
        if (!bitwise_equal(m.forward(x, Backend::int8), q)) ++mismatches[t];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << "t=" << t;
}

TEST(InferPlan, LinearHeadMatchesReferenceBitwiseForEveryRowRemainder) {
  // The float head accumulates four output rows per pass over an input row
  // and finishes the last cout % 4 rows one at a time. Every row keeps the
  // reference interpreter's ascending-k double chain, so at batch > 1 the
  // logits must agree to the bit for each remainder 0..3.
  for (int64_t classes = 5; classes <= 8; ++classes) {
    Rng rng(700 + static_cast<uint64_t>(classes), 7);
    FlatModel m;
    m.set_input(9, 3);
    m.push(make_conv(rng, 3, 37, 3, 2, 1, FlatAct::relu6, true));
    m.push(make_marker(OpKind::gap));
    m.push(make_linear(rng, 37, classes));
    const Tensor x = random_input(rng, {3, 3, 9, 9});
    EXPECT_TRUE(bitwise_equal(m.forward(x, Backend::fast),
                              m.forward(x, Backend::reference)))
        << "classes=" << classes;
  }
}

// ---------------------------------------------------------------------------
// True int8 backend: the contract is memcmp equality against the QModel
// integer oracle — exact int32 accumulation makes bitwise the natural unit
// of agreement, not a tolerance.

TEST(Int8Plan, MatchesQModelBitwiseOnResidualGraph) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    const FlatModel m = residual_graph(seed);
    const QModel oracle(m);
    Rng rng(100 + seed, 1);
    const Tensor x = random_input(rng, {2, 3, 16, 16});
    EXPECT_TRUE(bitwise_equal(m.forward(x, Backend::int8), oracle.forward(x)))
        << "seed=" << seed;
  }
}

TEST(Int8Plan, MatchesQModelOnRandomizedGraphsAtOddSizes) {
  // Randomized grouped/depthwise/residual graphs, each ending in a grouped
  // pointwise conv, over odd, non-square inputs and batches 1..8: every
  // lowering shape (fringe tiles, K % 4, group slices, direct 1x1 panels,
  // residual joins) must still land memcmp-equal. Depthwise
  // steps draw k in {3, 5, 7} at stride 1 or 2 (residual ones at stride
  // 1); the twelve trials draw all six (k, s) pairs.
  Rng graph_rng(271, 3);
  const int64_t batches[] = {1, 2, 5, 8};
  for (int trial = 0; trial < 12; ++trial) {
    FlatModel m;
    m.set_input(0, 4);
    int64_t c = 4;
    const int64_t depth = 2 + graph_rng.randint(4);
    for (int64_t d = 0; d < depth; ++d) {
      const int64_t pick = graph_rng.randint(4);
      const auto act = static_cast<FlatAct>(graph_rng.randint(3));
      const bool bias = graph_rng.bernoulli(0.5f);
      if (pick == 0) {
        const int64_t cout = 4 + 4 * graph_rng.randint(5);
        m.push(make_conv(graph_rng, c, cout, 1, 1, 1, act, bias));
        c = cout;
      } else if (pick == 1) {
        const int64_t k = 3 + 2 * graph_rng.randint(3);
        m.push(make_conv(graph_rng, c, c, k, 1 + graph_rng.randint(2), c, act,
                         bias));
      } else if (pick == 2) {
        m.push(make_conv(graph_rng, c, c * 2, 3, 1, 2, act, bias));
        c *= 2;
      } else {
        m.push(make_marker(OpKind::save));
        const int64_t k = 3 + 2 * graph_rng.randint(3);
        m.push(make_conv(graph_rng, c, c, k, 1, c, act, bias));
        m.push(make_marker(OpKind::add_saved));
      }
    }
    // A grouped pointwise conv (the direct lowering, one GEMM per group),
    // from its own stream so the draws above stay as they were.
    Rng tail_rng(800 + static_cast<uint64_t>(trial), 3);
    m.push(make_conv(tail_rng, c, c, 1, 1, 2 << (trial % 2), FlatAct::relu,
                     false));
    m.push(make_marker(OpKind::gap));
    m.push(make_linear(graph_rng, c, 7));

    const QModel oracle(m);
    const int64_t batch = batches[trial % 4];
    Rng rng(600 + static_cast<uint64_t>(trial), 1);
    const Tensor x = random_input(rng, {batch, 4, 13, 11});
    InferPlan plan(m, batch, 4, 13, 11, Backend::int8);
    EXPECT_TRUE(bitwise_equal(plan.run(x), oracle.forward(x)))
        << "trial=" << trial << " batch=" << batch;
  }
}

TEST(Int8Plan, QModelMatchesReferenceBitwiseOnPow2Scales) {
  // Grounding: with power-of-two activation scales and these reduction
  // sizes, every float product and partial sum in the reference interpreter
  // is exact, and scale * act_scale is an exact pow2 rescale — so the
  // integer oracle and the float reference compute the same reals, rounded
  // identically. This pins QModel's semantics to the established oracle
  // instead of only to itself.
  for (uint64_t seed : {11u, 34u}) {
    const FlatModel m = residual_graph(seed);
    const QModel oracle(m);
    Rng rng(300 + seed, 1);
    const Tensor x = random_input(rng, {2, 3, 16, 16});
    EXPECT_TRUE(
        bitwise_equal(oracle.forward(x), m.forward(x, Backend::reference)))
        << "seed=" << seed;
  }
}

TEST(Int8Plan, BitwiseInvariantAcrossThreadCounts) {
  ThreadPool one(0);
  ThreadPool four(3);
  const FlatModel m = residual_graph(33);
  Rng rng(42, 1);
  const Tensor x = random_input(rng, {4, 3, 16, 16});
  InferPlan plan(m, 4, 3, 16, 16, Backend::int8);
  Tensor y1, y4;
  {
    PoolOverride po(one);
    y1 = plan.run(x);
  }
  {
    PoolOverride po(four);
    y4 = plan.run(x);
  }
  EXPECT_TRUE(bitwise_equal(y1, y4));
}

TEST(Int8Plan, SaturatedInputsAndExtremeScalesMatchQModel) {
  // Saturation corners: inputs far past the activation grid (every level
  // clamps to +-127) against per-channel weight scales at representable
  // extremes. Exactness of the integer core is scale-independent, so the
  // memcmp contract must survive even where the float values blow up to
  // inf — both sides compute them through the same epilogue. The extreme
  // conv is last so no non-finite value is ever re-quantized.
  Rng rng(2026, 7);
  FlatModel m;
  m.set_input(9, 4);
  m.push(synth::make_conv(rng, 4, 8, 3, 1, 1, FlatAct::relu6, true,
                          1.0f / 16.0f));
  FlatOp extreme = synth::make_conv(rng, 8, 8, 3, 1, 2, FlatAct::identity,
                                    true, 1.0f / 16.0f);
  for (size_t o = 0; o < extreme.conv.weight_scales.size(); ++o) {
    extreme.conv.weight_scales[o] = (o % 2 == 0) ? 1e-30f : 1e30f;
  }
  m.push(std::move(extreme));
  const QModel oracle(m);

  Tensor x({2, 4, 9, 9});
  float* p = x.data();
  for (int64_t i = 0; i < x.numel(); ++i) {
    p[i] = (i % 3 == 0) ? 1e6f : -1e6f;  // saturates every level to +-127
  }
  EXPECT_TRUE(bitwise_equal(m.forward(x, Backend::int8), oracle.forward(x)));
}

TEST(Int8Plan, RejectsUncalibratedPrograms) {
  Rng rng(5, 2);
  // act_scale == 0 (uncalibrated) must fail at plan-build time.
  {
    FlatModel m;
    m.set_input(8, 3);
    m.push(synth::make_conv(rng, 3, 8, 3, 1, 1, FlatAct::relu6, true, 0.0f));
    EXPECT_FALSE(int8_compatible(m));
    EXPECT_THROW(InferPlan(m, 1, 3, 8, 8, Backend::int8), std::runtime_error);
    // The same program still plans fine as a float fast-path model.
    InferPlan ok(m, 1, 3, 8, 8, Backend::fast);
  }
  // act_bits > 8 cannot feed the byte pipeline.
  {
    FlatModel m;
    m.set_input(8, 3);
    FlatOp op =
        synth::make_conv(rng, 3, 8, 3, 1, 1, FlatAct::relu6, true, 0.5f);
    op.conv.act_bits = 16;
    m.push(std::move(op));
    std::string reason;
    EXPECT_FALSE(int8_compatible(m, &reason));
    EXPECT_NE(reason.find("act_bits"), std::string::npos);
    EXPECT_THROW(InferPlan(m, 1, 3, 8, 8, Backend::int8), std::runtime_error);
    EXPECT_THROW(QModel{m}, std::runtime_error);
  }
}

TEST(Int8Plan, StatsReportBackendAndByteArena) {
  const FlatModel m = residual_graph(21);
  InferPlan f(m, 2, 3, 16, 16);
  EXPECT_EQ(f.stats().backend, Backend::fast);
  EXPECT_EQ(f.stats().arena_int8_bytes, 0);
  EXPECT_GT(f.stats().cols_floats, 0);

  InferPlan q(m, 2, 3, 16, 16, Backend::int8);
  EXPECT_EQ(q.stats().backend, Backend::int8);
  EXPECT_GT(q.stats().arena_int8_bytes, 0);
  // The float cols region is replaced by the byte panel: the int8 plan's
  // float arena is strictly smaller.
  EXPECT_EQ(q.stats().cols_floats, 0);
  EXPECT_LT(q.stats().arena_floats, f.stats().arena_floats);
}

TEST(Int8Plan, AlternatingBackendsAreBitwiseReproducible) {
  const FlatModel m = residual_graph(88);
  Rng rng(31, 1);
  const Tensor x = random_input(rng, {2, 3, 16, 16});
  const Tensor fast1 = m.forward(x, Backend::fast);
  const Tensor q1 = m.forward(x, Backend::int8);
  // Alternating backends must not cross-contaminate: each backend's result
  // is bitwise reproducible.
  EXPECT_TRUE(bitwise_equal(fast1, m.forward(x, Backend::fast)));
  EXPECT_TRUE(bitwise_equal(q1, m.forward(x, Backend::int8)));
}

}  // namespace
}  // namespace nb::exporter
