// Tests for the batched conv lowering (src/export/infer_plan.cpp): a
// micro-batch runs ONE packed GEMM per conv step (im2col columns of every
// image side by side, activations kept batch-interleaved between steps so
// the GEMM output is directly the next conv's input), and the result must
// be BITWISE identical to running each image through a batch-1 plan — the
// invariant Engine micro-batching and Session batching rest on. Also pins
// the arena planner's batched accounting: every buffer scales exactly
// x batch (cols panels included, no staging buffer), the arena equals
// peak-live on the shipped graphs, and one shared weight copy serves
// batched sessions.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "export/flat_model.h"
#include "export/flat_synth.h"
#include "export/infer_plan.h"
#include "export/qmodel.h"
#include "runtime/compiled_model.h"
#include "runtime/session.h"
#include "tensor/rng.h"
#include "tensor/tensor_ops.h"
#include "tensor/threadpool.h"

namespace nb::exporter {
namespace {

FlatOp make_conv(Rng& rng, int64_t cin, int64_t cout, int64_t k,
                 int64_t stride, int64_t groups, FlatAct act, bool bias) {
  const float act_scale = synth::pow2_act_scale(rng);
  return synth::make_conv(rng, cin, cout, k, stride, groups, act, bias,
                          act_scale);
}

/// Randomized flat graph over a 4-channel input: pointwise / depthwise /
/// grouped convs and residual save/add pairs, ending in a grouped pointwise
/// conv (the direct, im2col-free lowering, one GEMM per group) and GAP +
/// linear — every op kind the batched lowering has to scatter correctly.
FlatModel random_graph(uint64_t seed) {
  Rng rng(seed, 5);
  FlatModel m;
  m.set_input(0, 4);  // non-square inputs are chosen by the caller
  int64_t c = 4;
  const int64_t depth = 2 + rng.randint(4);
  for (int64_t d = 0; d < depth; ++d) {
    const int64_t pick = rng.randint(4);
    const auto act = static_cast<FlatAct>(rng.randint(3));
    const bool bias = rng.bernoulli(0.5f);
    if (pick == 0) {  // pointwise, channel change
      const int64_t cout = 4 + 4 * rng.randint(5);
      m.push(make_conv(rng, c, cout, 1, 1, 1, act, bias));
      c = cout;
    } else if (pick == 1) {  // depthwise
      m.push(make_conv(rng, c, c, 3, 1 + rng.randint(2), c, act, bias));
    } else if (pick == 2) {  // grouped
      m.push(make_conv(rng, c, c * 2, 3, 1, 2, act, bias));
      c *= 2;
    } else {  // residual pair around a depthwise
      m.push(synth::make_marker(OpKind::save));
      m.push(make_conv(rng, c, c, 3, 1, c, act, bias));
      m.push(synth::make_marker(OpKind::add_saved));
    }
  }
  // Grouped pointwise, 2 or 4 groups (c is a multiple of 4).
  m.push(make_conv(rng, c, c * 2, 1, 1, 2 << rng.randint(2), FlatAct::relu6,
                   true));
  c *= 2;
  m.push(synth::make_marker(OpKind::gap));
  m.push(synth::make_linear(rng, c, 7, synth::pow2_act_scale(rng)));
  return m;
}

Tensor random_input(Rng& rng, std::vector<int64_t> shape) {
  Tensor x(std::move(shape));
  fill_uniform(x, rng, -1.0f, 1.0f);
  return x;
}

/// Runs each image of `x` alone through a batch-1 plan (the sequential
/// oracle) and concatenates the logits rows.
Tensor run_sequential(const InferPlan& plan1, const Tensor& x) {
  const int64_t batch = x.size(0);
  const int64_t chw = x.numel() / batch;
  Tensor xi({1, x.size(1), x.size(2), x.size(3)});
  std::vector<Tensor> rows;
  for (int64_t i = 0; i < batch; ++i) {
    std::memcpy(xi.data(), x.data() + i * chw,
                static_cast<size_t>(chw) * sizeof(float));
    rows.push_back(plan1.run(xi));
  }
  const int64_t row = rows.front().numel();
  std::vector<int64_t> shape = {batch};
  for (int64_t d = 1; d < rows.front().dim(); ++d) {
    shape.push_back(rows.front().size(d));
  }
  Tensor out(shape);
  for (int64_t i = 0; i < batch; ++i) {
    std::memcpy(out.data() + i * row, rows[static_cast<size_t>(i)].data(),
                static_cast<size_t>(row) * sizeof(float));
  }
  return out;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

class PoolOverride {
 public:
  explicit PoolOverride(ThreadPool& pool) {
    ThreadPool::set_global_override(&pool);
  }
  ~PoolOverride() { ThreadPool::set_global_override(nullptr); }
};

// ---------------------------------------------------------------------------
// Batched-equivalence property test

TEST(BatchedLowering, BitwiseEqualsSequentialOnRandomGraphs) {
  // Odd, non-square spatial sizes and batches 2..8: the scatter epilogue
  // must land every (image, channel, pixel) exactly where the per-image
  // GEMM put it — bitwise, not approximately.
  const int64_t kH = 13, kW = 11;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const FlatModel m = random_graph(seed);
    const auto panels = WeightPanels::build(m, Backend::fast);
    const int64_t batch = 2 + static_cast<int64_t>(seed - 1) % 7;
    Rng rng(900 + seed, 1);
    const Tensor x = random_input(rng, {batch, 4, kH, kW});

    const InferPlan planb(m, panels, batch, 4, kH, kW);
    const InferPlan plan1(m, panels, 1, 4, kH, kW);
    const Tensor batched = planb.run(x);
    const Tensor sequential = run_sequential(plan1, x);
    EXPECT_TRUE(bitwise_equal(batched, sequential))
        << "seed=" << seed << " batch=" << batch;

    // And the batched result still agrees with the reference interpreter
    // (pow2 activation scales make the products exact).
    EXPECT_LT(max_abs_diff(batched, m.forward(x, Backend::reference)), 1e-5f)
        << "seed=" << seed;
  }
}

TEST(BatchedLowering, BitwiseEqualsSequentialAtBatchBoundaries) {
  // batch == 1 must keep the direct-store path; batch == 8 is the Engine's
  // default max_batch.
  const FlatModel m = random_graph(42);
  const auto panels = WeightPanels::build(m, Backend::fast);
  Rng rng(17, 1);
  const Tensor x = random_input(rng, {8, 4, 9, 15});
  const InferPlan plan8(m, panels, 8, 4, 9, 15);
  const InferPlan plan1(m, panels, 1, 4, 9, 15);
  EXPECT_TRUE(bitwise_equal(plan8.run(x), run_sequential(plan1, x)));
}

TEST(BatchedLowering, ThreadCountInvariantAtBatchAboveOne) {
  ThreadPool one(0);
  ThreadPool four(3);
  const FlatModel m = random_graph(7);
  Rng rng(23, 1);
  const Tensor x = random_input(rng, {6, 4, 13, 11});
  const InferPlan plan(m, 6, 4, 13, 11);
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

// ---------------------------------------------------------------------------
// Arena-planner batched accounting

TEST(BatchedLowering, ArenaScalesAsDocumentedWithBatch) {
  const FlatModel m = random_graph(3);
  const auto panels = WeightPanels::build(m, Backend::fast);
  const InferPlan plan1(m, panels, 1, 4, 13, 11);
  const PlanStats& s1 = plan1.stats();
  EXPECT_GT(s1.cols_floats, 0);

  for (const int64_t b : {2, 4, 8}) {
    const InferPlan planb(m, panels, b, 4, 13, 11);
    const PlanStats& sb = planb.stats();
    // Every buffer holds the whole micro-batch: activations, residual
    // copies and the side-by-side cols panels all scale exactly x batch,
    // and because the batched GEMM writes the next activation's layout
    // directly there is NO staging buffer — the arena is exactly batch x
    // the batch-1 plan.
    EXPECT_EQ(sb.cols_floats, b * s1.cols_floats) << "batch=" << b;
    EXPECT_EQ(sb.arena_floats, b * s1.arena_floats) << "batch=" << b;
    // Planner invariants hold at every batch: the arena covers peak-live
    // and still beats a no-reuse executor.
    EXPECT_GE(sb.arena_floats, sb.peak_live_floats) << "batch=" << b;
    EXPECT_LT(sb.arena_floats, sb.no_reuse_floats) << "batch=" << b;
  }
}

TEST(BatchedLowering, DepthwiseOnlyGraphPlansNoColsPanel) {
  Rng rng(31, 5);
  FlatModel m;
  m.set_input(0, 6);
  m.push(make_conv(rng, 6, 6, 3, 1, 6, FlatAct::relu6, true));
  m.push(make_conv(rng, 6, 6, 3, 1, 6, FlatAct::identity, false));
  const InferPlan plan(m, 4, 6, 13, 11);
  // Depthwise groups never lower through the GEMM, so no cols panel is
  // planned at any batch.
  EXPECT_EQ(plan.stats().cols_floats, 0);
}

TEST(BatchedLowering, BatchedSessionsShareOneWeightCopy) {
  const FlatModel m = random_graph(12);
  auto compiled = runtime::CompiledModel::compile(m);
  runtime::Session a(compiled);
  runtime::Session b(compiled);
  Rng rng(77, 1);
  (void)a.run(random_input(rng, {4, 4, 13, 11}));
  (void)a.run(random_input(rng, {1, 4, 13, 11}));
  (void)b.run(random_input(rng, {8, 4, 13, 11}));

  const auto ma = a.memory();
  const auto mb = b.memory();
  // Batched plans cost arena memory per session (two geometries cached in
  // a, one in b)...
  EXPECT_EQ(ma.cached_plans, 2u);
  EXPECT_EQ(mb.cached_plans, 1u);
  EXPECT_GT(ma.owned_arena_floats, 0);
  EXPECT_GT(mb.owned_arena_floats, 0);
  // ...but exactly ONE weight copy exists across all of them.
  EXPECT_EQ(ma.weight_panel_addr, mb.weight_panel_addr);
  EXPECT_EQ(ma.borrowed_weight_floats, mb.borrowed_weight_floats);
  EXPECT_EQ(ma.borrowed_weight_floats, compiled->weight_panel_floats());
}

TEST(WeightPanels, HoldOnlyTheirBackendsEncoding) {
  // A fast model's panels carry float levels only and an int8 model's raw
  // int8 levels only; scales and bias are kept for both.
  const FlatModel m = random_graph(23);
  const auto fast = runtime::CompiledModel::compile(m, Backend::fast);
  const auto int8 = runtime::CompiledModel::compile(m, Backend::int8);
  int64_t levels = 0;
  int64_t side = 0;  // scale and bias floats
  for (size_t i = 0; i < m.ops().size(); ++i) {
    const OpPanel& f = fast->panels()->at(i);
    const OpPanel& q = int8->panels()->at(i);
    EXPECT_TRUE(f.wq.empty()) << "op " << i;
    EXPECT_TRUE(q.wf.empty()) << "op " << i;
    EXPECT_EQ(f.wf.size(), q.wq.size()) << "op " << i;
    EXPECT_EQ(f.scales, q.scales) << "op " << i;
    EXPECT_EQ(f.bias, q.bias) << "op " << i;
    levels += static_cast<int64_t>(q.wq.size());
    side += static_cast<int64_t>(q.scales.size() + q.bias.size());
  }
  ASSERT_GT(levels, 0);
  // No float level is counted in an int8 model's panel bytes.
  EXPECT_EQ(int8->weight_panel_bytes(), levels + 4 * side);
  EXPECT_EQ(fast->weight_panel_bytes(), 4 * (levels + side));
}

TEST(WeightPanels, PlanRejectsPanelsWithoutItsBackendsEncoding) {
  const FlatModel m = random_graph(24);
  for (const Backend built : {Backend::fast, Backend::int8}) {
    const Backend wanted =
        built == Backend::fast ? Backend::int8 : Backend::fast;
    const std::string expected =
        std::string("lack the ") +
        (wanted == Backend::int8 ? "int8" : "fast") + " backend";
    try {
      const InferPlan plan(m, WeightPanels::build(m, built), 1, 4, 13, 11,
                           wanted);
      ADD_FAILURE() << "plan accepted panels without its encoding";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
          << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// Int8 batched lowering: the one-GEMM-per-conv batching must hold on the
// integer path too — and there "bitwise" is not a property to defend but a
// consequence of exact int32 accumulation, so any mismatch is a scatter or
// quantization bug, never rounding.

TEST(BatchedLowering, Int8BitwiseEqualsSequentialOnRandomGraphs) {
  const int64_t kH = 13, kW = 11;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const FlatModel m = random_graph(seed);
    const auto panels = WeightPanels::build(m, Backend::int8);
    const QModel oracle(m);
    const int64_t batch = 1 + static_cast<int64_t>(seed - 1) % 8;
    Rng rng(1300 + seed, 1);
    const Tensor x = random_input(rng, {batch, 4, kH, kW});

    const InferPlan planb(m, panels, batch, 4, kH, kW, Backend::int8);
    const InferPlan plan1(m, panels, 1, 4, kH, kW, Backend::int8);
    const Tensor batched = planb.run(x);
    EXPECT_TRUE(bitwise_equal(batched, run_sequential(plan1, x)))
        << "seed=" << seed << " batch=" << batch;
    // The batched int8 result is also memcmp-equal to the QModel oracle:
    // batching and quantized lowering are proven exact at once.
    EXPECT_TRUE(bitwise_equal(batched, oracle.forward(x)))
        << "seed=" << seed << " batch=" << batch;
  }
}

TEST(BatchedLowering, Int8ThreadCountInvariantAtBatchAboveOne) {
  ThreadPool one(0);
  ThreadPool four(3);
  const FlatModel m = random_graph(7);
  Rng rng(23, 1);
  const Tensor x = random_input(rng, {6, 4, 13, 11});
  const InferPlan plan(m, 6, 4, 13, 11, Backend::int8);
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

TEST(BatchedLowering, Int8ArenaScalesAsDocumentedWithBatch) {
  const FlatModel m = random_graph(3);
  const auto panels = WeightPanels::build(m, Backend::int8);
  const InferPlan plan1(m, panels, 1, 4, 13, 11, Backend::int8);
  const PlanStats& s1 = plan1.stats();
  EXPECT_EQ(s1.cols_floats, 0);
  EXPECT_GT(s1.arena_int8_bytes, 0);
  for (const int64_t b : {2, 4, 8}) {
    const InferPlan planb(m, panels, b, 4, 13, 11, Backend::int8);
    const PlanStats& sb = planb.stats();
    // The byte arena (quantized input + u8 cols panel) scales exactly
    // x batch, same as every float region.
    EXPECT_EQ(sb.arena_int8_bytes, b * s1.arena_int8_bytes) << "batch=" << b;
    EXPECT_EQ(sb.arena_floats, b * s1.arena_floats) << "batch=" << b;
  }
}

TEST(BatchedLowering, ArenaCoversPeakLiveOnSynthGraphsAndBothBackends) {
  // Live-range placement reaches the peak-live lower bound exactly on the
  // shipped graph shapes, on both backends and at every batch. An int8
  // plan's im2col panel lives in its byte arena, so it must not count
  // toward the float peak.
  struct Graph {
    std::string name;
    FlatModel model;
    int64_t res;
  };
  Rng rng(20260730);
  std::vector<Graph> graphs;
  graphs.push_back({"mbv2_w035_r96", synth::make_mbv2_flat(rng, 0.35f, 96, 100),
                    96});
  graphs.push_back({"mcunet_r96", synth::make_mcunet_flat(rng, 96, 100), 96});
  graphs.push_back({"mbv2_w100_r160",
                    synth::make_mbv2_flat(rng, 1.0f, 160, 1000), 160});
  graphs.push_back({"mcunet_r176", synth::make_mcunet_flat(rng, 176, 1000),
                    176});
  for (const Graph& g : graphs) {
    for (const Backend backend : {Backend::fast, Backend::int8}) {
      for (const int64_t b : {1, 8}) {
        const PlanStats st =
            plan_tables(InferPlan(g.model, b, 3, g.res, g.res, backend));
        EXPECT_EQ(st.arena_floats, st.peak_live_floats)
            << g.name << (backend == Backend::int8 ? " int8" : " fast")
            << " b" << b;
      }
    }
  }
  // The int8 plans must also stay memcmp-equal to QModel on real-shaped
  // graphs; mbv2's K = 336 projection convs span two 256-deep GEMM K
  // blocks, so the GEMM's requantize epilogue runs after resumed partial
  // sums (mcunet_r96's largest reduction, 192, fits one block).
  for (size_t i = 0; i < 2; ++i) {
    const QModel oracle(graphs[i].model);
    for (const int64_t b : {1, 8}) {
      const InferPlan plan(graphs[i].model, b, 3, 96, 96, Backend::int8);
      const Tensor x = random_input(rng, {b, 3, 96, 96});
      EXPECT_TRUE(bitwise_equal(plan.run(x), oracle.forward(x)))
          << graphs[i].name << " b" << b;
    }
  }
}

TEST(BatchedLowering, Int8SessionBatchedRunMatchesQModel) {
  // End to end through the serving tier on the integer backend: compile
  // with Backend::int8, run a stacked batch, and demand memcmp equality
  // against both single-image sessions and the QModel oracle.
  const FlatModel m = random_graph(19);
  auto compiled = runtime::CompiledModel::compile(m, Backend::int8);
  EXPECT_EQ(compiled->backend(), Backend::int8);
  const QModel oracle(m);
  runtime::Session batched(compiled);
  runtime::Session single(compiled);
  Rng rng(41, 1);
  const Tensor x = random_input(rng, {5, 4, 13, 11});
  const Tensor out = batched.run(x);
  EXPECT_TRUE(bitwise_equal(out, oracle.forward(x)));

  const int64_t chw = x.numel() / x.size(0);
  const int64_t row = out.numel() / out.size(0);
  Tensor xi({1, 4, 13, 11});
  for (int64_t i = 0; i < x.size(0); ++i) {
    std::memcpy(xi.data(), x.data() + i * chw,
                static_cast<size_t>(chw) * sizeof(float));
    const Tensor yi = single.run(xi);
    ASSERT_EQ(yi.numel(), row);
    EXPECT_EQ(std::memcmp(yi.data(), out.data() + i * row,
                          static_cast<size_t>(row) * sizeof(float)),
              0)
        << "image " << i;
  }
}

TEST(BatchedLowering, CompileRejectsReferenceBackend) {
  const FlatModel m = random_graph(5);
  EXPECT_THROW(runtime::CompiledModel::compile(m, Backend::reference),
               std::runtime_error);
}

TEST(BatchedLowering, SessionBatchedRunBitwiseEqualsSingleImageRuns) {
  // End to end through the serving tier: one Session fed a stacked batch
  // must produce the same rows as single-image submissions.
  const FlatModel m = random_graph(19);
  auto compiled = runtime::CompiledModel::compile(m);
  runtime::Session batched(compiled);
  runtime::Session single(compiled);
  Rng rng(41, 1);
  const Tensor x = random_input(rng, {5, 4, 13, 11});
  const Tensor out = batched.run(x);

  const int64_t chw = x.numel() / x.size(0);
  const int64_t row = out.numel() / out.size(0);
  Tensor xi({1, 4, 13, 11});
  for (int64_t i = 0; i < x.size(0); ++i) {
    std::memcpy(xi.data(), x.data() + i * chw,
                static_cast<size_t>(chw) * sizeof(float));
    const Tensor yi = single.run(xi);
    ASSERT_EQ(yi.numel(), row);
    EXPECT_EQ(std::memcmp(yi.data(), out.data() + i * row,
                          static_cast<size_t>(row) * sizeof(float)),
              0)
        << "image " << i;
  }
}

}  // namespace
}  // namespace nb::exporter
