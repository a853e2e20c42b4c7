// Tests for cross-geometry batch bucketing (src/runtime/bucketing.h and
// the Engine/Session/InferPlan plumbing around it). The properties pinned
// here are the whole contract the serving tier rests on:
//
//   * ladder validation — only strictly-increasing-in-both-dims ladders
//     register; everything else throws at register_model time.
//   * assignment — deterministic, returns the FIRST covering rung, never
//     pads past the waste cap, and is monotone in (h, w): growing a
//     request never shrinks its rung (randomized ladders + geometries).
//   * padding — pad_to_geometry preserves the source window bitwise and
//     zero-fills exactly the bottom/right remainder.
//   * exactness — a mixed-geometry batch run through ONE bucket-geometry
//     plan is memcmp-identical, row for row, to Session::run_padded of
//     each image alone (float and int8 backends, batch 1..8, randomized
//     graphs/geometries). This is the PR 5 batched-lowering invariance
//     carried across geometries.
//   * valid region — InferPlan::valid_output_region really bounds padding
//     contamination: corrupting everything OUTSIDE the valid input window
//     cannot change any output element INSIDE the reported region.
//   * verifier — verify_bucket_plan proves a rung plan is a sound padded
//     twin of an exact-geometry plan, and mutation tests pin the
//     bucket_plan_mismatch diagnostics.
//   * engine — mixed-resolution submits of one rung coalesce into one
//     mixed batch whose replies match the run_padded oracle, with
//     padded_accepted / mixed_geometry_batches accounted; requests past
//     the waste cap execute at their exact geometry.
//
// This suite runs under the TSan CI leg: the engine-level tests double as
// a race check on the bucketed admission path.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "export/flat_model.h"
#include "export/flat_synth.h"
#include "export/infer_plan.h"
#include "export/plan_verify.h"
#include "runtime/bucketing.h"
#include "runtime/compiled_model.h"
#include "runtime/engine.h"
#include "runtime/session.h"
#include "tensor/rng.h"
#include "tensor/tensor_ops.h"

namespace nb::runtime {
namespace {

using exporter::Backend;
using exporter::FlatAct;
using exporter::FlatModel;
using exporter::FlatOp;
using exporter::InferPlan;
using exporter::OpKind;
using exporter::PlanDiag;
using exporter::PlanTables;
using exporter::PlanValidRegion;
using exporter::VerifyReport;

FlatOp make_conv(Rng& rng, int64_t cin, int64_t cout, int64_t k,
                 int64_t stride, int64_t groups, FlatAct act, bool bias) {
  return exporter::synth::make_conv(rng, cin, cout, k, stride, groups, act,
                                    bias,
                                    exporter::synth::pow2_act_scale(rng));
}

/// Randomized classifier over a 4-channel input (same op coverage as the
/// batched-lowering suite: pointwise / depthwise / grouped / residual,
/// GAP + linear tail) — the graph the exactness property runs over.
FlatModel random_graph(uint64_t seed) {
  Rng rng(seed, 5);
  FlatModel m;
  m.set_input(0, 4);
  int64_t c = 4;
  const int64_t depth = 2 + rng.randint(3);
  for (int64_t d = 0; d < depth; ++d) {
    const int64_t pick = rng.randint(4);
    const auto act = static_cast<FlatAct>(rng.randint(3));
    const bool bias = rng.bernoulli(0.5f);
    if (pick == 0) {
      const int64_t cout = 4 + 4 * rng.randint(4);
      m.push(make_conv(rng, c, cout, 1, 1, 1, act, bias));
      c = cout;
    } else if (pick == 1) {
      m.push(make_conv(rng, c, c, 3, 1 + rng.randint(2), c, act, bias));
    } else if (pick == 2) {
      m.push(make_conv(rng, c, c * 2, 3, 1, 2, act, bias));
      c *= 2;
    } else {
      m.push(exporter::synth::make_marker(OpKind::save));
      m.push(make_conv(rng, c, c, 3, 1, c, act, bias));
      m.push(exporter::synth::make_marker(OpKind::add_saved));
    }
  }
  m.push(exporter::synth::make_marker(OpKind::gap));
  m.push(exporter::synth::make_linear(
      rng, c, 7, exporter::synth::pow2_act_scale(rng)));
  return m;
}

Tensor random_input(Rng& rng, std::vector<int64_t> shape) {
  Tensor x(std::move(shape));
  fill_uniform(x, rng, -1.0f, 1.0f);
  return x;
}

/// A random ladder strictly increasing in both dims, 1..4 rungs.
BucketingConfig random_ladder(Rng& rng) {
  BucketingConfig cfg;
  const int64_t rungs = 1 + rng.randint(4);
  int64_t h = 4 + rng.randint(8);
  int64_t w = 4 + rng.randint(8);
  for (int64_t i = 0; i < rungs; ++i) {
    cfg.ladder.push_back({h, w});
    h += 1 + rng.randint(10);
    w += 1 + rng.randint(10);
  }
  cfg.max_pad_ratio = 1.0 + 0.25 * static_cast<double>(rng.randint(9));
  return cfg;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// ---------------------------------------------------------------------------
// Ladder validation

TEST(BucketingValidate, AcceptsEmptyAndStrictLadders) {
  EXPECT_NO_THROW(validate_bucketing(BucketingConfig{}));
  BucketingConfig cfg;
  cfg.ladder = {{8, 8}, {16, 12}, {32, 32}};
  EXPECT_NO_THROW(validate_bucketing(cfg));
}

TEST(BucketingValidate, RejectsNonMonotoneLadders) {
  // w must grow with h: equal or shrinking in EITHER dim breaks the
  // suffix-covering property assignment's monotonicity rests on.
  for (const std::vector<BucketSpec>& bad :
       {std::vector<BucketSpec>{{16, 16}, {16, 32}},
        std::vector<BucketSpec>{{16, 16}, {32, 16}},
        std::vector<BucketSpec>{{16, 16}, {32, 8}},
        std::vector<BucketSpec>{{16, 16}, {8, 32}}}) {
    BucketingConfig cfg;
    cfg.ladder = bad;
    EXPECT_THROW(validate_bucketing(cfg), std::runtime_error);
  }
}

TEST(BucketingValidate, RejectsNonPositiveRungsAndSubUnityWasteCap) {
  BucketingConfig cfg;
  cfg.ladder = {{0, 8}};
  EXPECT_THROW(validate_bucketing(cfg), std::runtime_error);
  cfg.ladder = {{8, -1}};
  EXPECT_THROW(validate_bucketing(cfg), std::runtime_error);
  cfg.ladder = {{8, 8}};
  cfg.max_pad_ratio = 0.5;
  EXPECT_THROW(validate_bucketing(cfg), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Assignment properties (randomized)

TEST(BucketingAssign, DeterministicFirstCoveringRungWithinWasteCap) {
  Rng rng(1, 0xbcd);
  for (int trial = 0; trial < 200; ++trial) {
    const BucketingConfig cfg = random_ladder(rng);
    const int64_t h = 1 + rng.randint(48);
    const int64_t w = 1 + rng.randint(48);
    const BucketSpec got = assign_bucket(cfg, h, w);
    // Deterministic: a second call agrees exactly.
    const BucketSpec again = assign_bucket(cfg, h, w);
    EXPECT_EQ(got.h, again.h);
    EXPECT_EQ(got.w, again.w);

    // Oracle: scan the ladder by hand for the first covering rung, then
    // apply the cap. The first covering rung has the smallest area of all
    // covering rungs (ladder strictly increasing), so if IT busts the cap
    // every covering rung does.
    BucketSpec expect{};
    for (const BucketSpec& rung : cfg.ladder) {
      if (rung.h >= h && rung.w >= w) {
        const double padded = static_cast<double>(rung.h * rung.w);
        const double area = static_cast<double>(h * w);
        if (padded <= cfg.max_pad_ratio * area) expect = rung;
        break;
      }
    }
    EXPECT_EQ(got.h, expect.h) << "trial " << trial << " h=" << h
                               << " w=" << w;
    EXPECT_EQ(got.w, expect.w) << "trial " << trial;
    if (got.valid()) {
      EXPECT_GE(got.h, h);
      EXPECT_GE(got.w, w);
      EXPECT_LE(static_cast<double>(got.h * got.w),
                cfg.max_pad_ratio * static_cast<double>(h * w));
    }
  }
}

TEST(BucketingAssign, MonotoneInBothDimensionsOverAssignedRequests) {
  Rng rng(2, 0xbcd);
  for (int trial = 0; trial < 200; ++trial) {
    const BucketingConfig cfg = random_ladder(rng);
    const int64_t h1 = 1 + rng.randint(40);
    const int64_t w1 = 1 + rng.randint(40);
    const int64_t h2 = h1 + rng.randint(8);
    const int64_t w2 = w1 + rng.randint(8);
    const BucketSpec small = assign_bucket(cfg, h1, w1);
    const BucketSpec large = assign_bucket(cfg, h2, w2);
    if (small.valid() && large.valid()) {
      // (h1, w1) <= (h2, w2) componentwise: the larger request can never
      // land on a smaller rung.
      EXPECT_GE(large.h, small.h) << "trial " << trial;
      EXPECT_GE(large.w, small.w) << "trial " << trial;
    }
  }
}

TEST(BucketingAssign, ExactFitRungAlwaysAssignsRegardlessOfCap) {
  BucketingConfig cfg;
  cfg.ladder = {{8, 8}, {16, 16}};
  cfg.max_pad_ratio = 1.0;  // tightest legal cap: only exact fits pass
  const BucketSpec got = assign_bucket(cfg, 16, 16);
  EXPECT_EQ(got.h, 16);
  EXPECT_EQ(got.w, 16);
  // One pixel short in one dim busts the 1.0 cap -> no bucket.
  EXPECT_FALSE(assign_bucket(cfg, 16, 15).valid());
}

TEST(BucketingAssign, EmptyLadderAndUncoveredGeometriesGetNoBucket) {
  EXPECT_FALSE(assign_bucket(BucketingConfig{}, 16, 16).valid());
  BucketingConfig cfg;
  cfg.ladder = {{8, 8}};
  EXPECT_FALSE(assign_bucket(cfg, 9, 4).valid());
  EXPECT_FALSE(assign_bucket(cfg, 4, 9).valid());
}

// ---------------------------------------------------------------------------
// Padding

TEST(BucketingPad, PreservesSourceWindowBitwiseAndZeroFillsRemainder) {
  Rng rng(3, 1);
  const int64_t n = 2, c = 3, h = 5, w = 7, bh = 8, bw = 11;
  const Tensor x = random_input(rng, {n, c, h, w});
  const Tensor padded = pad_to_geometry(x, bh, bw);
  ASSERT_EQ(padded.size(0), n);
  ASSERT_EQ(padded.size(1), c);
  ASSERT_EQ(padded.size(2), bh);
  ASSERT_EQ(padded.size(3), bw);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t ch = 0; ch < c; ++ch) {
      for (int64_t r = 0; r < bh; ++r) {
        for (int64_t col = 0; col < bw; ++col) {
          const float got =
              padded.data()[((i * c + ch) * bh + r) * bw + col];
          if (r < h && col < w) {
            EXPECT_EQ(got, x.data()[((i * c + ch) * h + r) * w + col])
                << i << "," << ch << "," << r << "," << col;
          } else {
            EXPECT_EQ(got, 0.0f) << i << "," << ch << "," << r << "," << col;
          }
        }
      }
    }
  }
}

TEST(BucketingPad, NoOpGeometryReturnsIndependentClone) {
  Rng rng(4, 1);
  const Tensor x = random_input(rng, {1, 2, 4, 4});
  const Tensor same = pad_to_geometry(x, 4, 4);
  EXPECT_TRUE(bitwise_equal(x, same));
  EXPECT_NE(x.data(), same.data());  // never aliases the input
}

TEST(BucketingPad, RejectsShrinkingTargets) {
  Rng rng(5, 1);
  const Tensor x = random_input(rng, {1, 2, 4, 4});
  EXPECT_THROW(pad_to_geometry(x, 3, 8), std::runtime_error);
  EXPECT_THROW(pad_to_geometry(x, 8, 3), std::runtime_error);
}

// ---------------------------------------------------------------------------
// The exactness contract: mixed-geometry batches vs sequential padded runs

void expect_batched_matches_sequential_padded(Backend backend,
                                              uint64_t seed) {
  const FlatModel m = random_graph(seed);
  const auto compiled = CompiledModel::compile(m, backend);
  const int64_t bh = 17, bw = 19;  // odd non-square rung
  const int64_t batch = 1 + static_cast<int64_t>(seed % 8);
  Rng rng(700 + seed, 1);

  // One image per slot at a random geometry under the rung.
  std::vector<Tensor> images;
  Tensor stacked({batch, 4, bh, bw});  // Tensor() zero-fills
  for (int64_t i = 0; i < batch; ++i) {
    const int64_t h = bh - rng.randint(5);
    const int64_t w = bw - rng.randint(5);
    images.push_back(random_input(rng, {1, 4, h, w}));
    pad_block_into(images.back().data(), 4, h, w,
                   stacked.data() + i * 4 * bh * bw, bh, bw);
  }

  const InferPlan plan(m, compiled->panels(), batch, 4, bh, bw, backend);
  const Tensor batched = plan.run(stacked);
  ASSERT_EQ(batched.size(0), batch);
  const int64_t row = batched.numel() / batch;

  Session oracle(compiled);
  for (int64_t i = 0; i < batch; ++i) {
    const Tensor yi =
        oracle.run_padded(images[static_cast<size_t>(i)], bh, bw);
    ASSERT_EQ(yi.numel(), row);
    EXPECT_EQ(std::memcmp(yi.data(), batched.data() + i * row,
                          static_cast<size_t>(row) * sizeof(float)),
              0)
        << "seed=" << seed << " image=" << i;
  }
}

TEST(BucketingExactness, MixedBatchMemcmpEqualsRunPaddedFloat) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    expect_batched_matches_sequential_padded(Backend::fast, seed);
  }
}

TEST(BucketingExactness, MixedBatchMemcmpEqualsRunPaddedInt8) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    expect_batched_matches_sequential_padded(Backend::int8, seed);
  }
}

TEST(BucketingExactness, RunPaddedCachesOnePlanAcrossExactGeometries) {
  // The rung-keyed plan cache is the point of run_padded: many exact
  // geometries under one rung must share ONE cached plan.
  const FlatModel m = random_graph(9);
  Session s(CompiledModel::compile(m));
  Rng rng(11, 1);
  for (const auto& [h, w] : {std::pair<int64_t, int64_t>{13, 15},
                            {14, 16},
                            {17, 19},
                            {12, 12}}) {
    (void)s.run_padded(random_input(rng, {1, 4, h, w}), 17, 19);
  }
  EXPECT_EQ(s.memory().cached_plans, 1u);
  EXPECT_EQ(s.runs(), 4);
}

TEST(BucketingExactness, RunPaddedRejectsTargetsBelowTheInput) {
  const FlatModel m = random_graph(9);
  Session s(CompiledModel::compile(m));
  Rng rng(12, 1);
  const Tensor x = random_input(rng, {1, 4, 16, 16});
  EXPECT_THROW((void)s.run_padded(x, 15, 16), std::runtime_error);
  EXPECT_THROW((void)s.run_padded(x, 16, 15), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Valid-region arithmetic

/// Spatially-ending conv stack (no GAP), so the output keeps an (h, w)
/// plane the valid region can be checked against empirically.
FlatModel spatial_graph(uint64_t seed) {
  Rng rng(seed, 6);
  FlatModel m;
  m.set_input(0, 3);
  m.push(make_conv(rng, 3, 8, 3, 1, 1, FlatAct::relu, true));
  m.push(make_conv(rng, 8, 8, 3, 2, 8, FlatAct::relu6, false));
  m.push(make_conv(rng, 8, 6, 3, 1, 1, FlatAct::identity, true));
  return m;
}

TEST(BucketingValidRegion, GarbageOutsideValidWindowCannotReachTheRegion) {
  // The empirical meaning of valid_output_region: two embeddings of the
  // SAME top-left content — zero padding vs garbage — must agree bitwise
  // on every output element inside the reported region. If any reported
  // element read a padding tap, the garbage run would differ there.
  const FlatModel m = spatial_graph(1);
  const int64_t H = 20, W = 18, vh = 13, vw = 11;
  const InferPlan plan(m, 1, 3, H, W);
  Rng rng(21, 1);

  Tensor zeros({1, 3, H, W});
  Tensor garbage = random_input(rng, {1, 3, H, W});
  const Tensor content = random_input(rng, {1, 3, vh, vw});
  for (Tensor* x : {&zeros, &garbage}) {
    for (int64_t c = 0; c < 3; ++c) {
      for (int64_t r = 0; r < vh; ++r) {
        std::memcpy(x->data() + (c * H + r) * W,
                    content.data() + (c * vh + r) * vw,
                    static_cast<size_t>(vw) * sizeof(float));
      }
    }
  }

  const Tensor y0 = plan.run(zeros);
  const Tensor y1 = plan.run(garbage);
  ASSERT_EQ(y0.dim(), 4);
  const int64_t oh = y0.size(2), ow = y0.size(3), cout = y0.size(1);

  const PlanValidRegion region = plan.valid_output_region(vh, vw);
  EXPECT_TRUE(region.spatial);
  EXPECT_GT(region.h, 0);
  EXPECT_GT(region.w, 0);
  EXPECT_LE(region.h, oh);
  EXPECT_LE(region.w, ow);
  for (int64_t c = 0; c < cout; ++c) {
    for (int64_t r = 0; r < region.h; ++r) {
      EXPECT_EQ(std::memcmp(y0.data() + (c * oh + r) * ow,
                            y1.data() + (c * oh + r) * ow,
                            static_cast<size_t>(region.w) * sizeof(float)),
                0)
          << "c=" << c << " row=" << r;
    }
  }
  // Teeth: the garbage really did change the output somewhere.
  EXPECT_FALSE(bitwise_equal(y0, y1));
}

TEST(BucketingValidRegion, MonotoneClampedAndExhaustsAtFullWindow) {
  const FlatModel m = spatial_graph(2);
  const int64_t H = 24, W = 20;
  const InferPlan plan(m, 1, 3, H, W);
  Rng rng(22, 1);
  PlanValidRegion prev{0, 0, true};
  for (int step = 0; step < 40; ++step) {
    const int64_t vh = 1 + (step * H) / 40;
    const int64_t vw = 1 + (step * W) / 40;
    const PlanValidRegion cur = plan.valid_output_region(vh, vw);
    EXPECT_TRUE(cur.spatial);
    // Growing the valid window never shrinks the valid output.
    EXPECT_GE(cur.h, prev.h) << "step " << step;
    EXPECT_GE(cur.w, prev.w) << "step " << step;
    prev = cur;
  }
  // The full window's region is clamped to the planned output extent.
  const PlanValidRegion full = plan.valid_output_region(H, W);
  Tensor probe({1, 3, H, W});
  const Tensor y = plan.run(probe);
  EXPECT_LE(full.h, y.size(2));
  EXPECT_LE(full.w, y.size(3));
  EXPECT_GT(full.h, 0);
  EXPECT_GT(full.w, 0);
}

TEST(BucketingValidRegion, GapCollapsesTheRegionToNonSpatial) {
  const FlatModel m = random_graph(3);  // ends in GAP + linear
  const InferPlan plan(m, 1, 4, 16, 16);
  const PlanValidRegion region = plan.valid_output_region(12, 12);
  EXPECT_FALSE(region.spatial);
  EXPECT_EQ(region.h, 0);
  EXPECT_EQ(region.w, 0);
}

TEST(BucketingValidRegion, RejectsWindowsOutsideThePlannedGeometry) {
  const FlatModel m = spatial_graph(3);
  const InferPlan plan(m, 1, 3, 16, 16);
  EXPECT_THROW((void)plan.valid_output_region(0, 8), std::runtime_error);
  EXPECT_THROW((void)plan.valid_output_region(8, 17), std::runtime_error);
}

// ---------------------------------------------------------------------------
// verify_bucket_plan: proof on sound twins, typed findings on mutants

bool has_bucket_finding(const VerifyReport& r) {
  for (const auto& f : r.findings) {
    if (f.diag != PlanDiag::bucket_plan_mismatch) return false;
  }
  return !r.findings.empty();
}

TEST(BucketingVerify, ProvesASoundRungPlanAgainstItsExactTwin) {
  const FlatModel m = random_graph(5);
  const auto panels = exporter::WeightPanels::build(m, Backend::fast);
  const InferPlan bucket(m, panels, 4, 4, 16, 16);
  const InferPlan exact(m, panels, 4, 4, 13, 15);
  const VerifyReport r = exporter::verify_bucket_plan(
      plan_tables(bucket), plan_tables(exact), 2.0);
  EXPECT_TRUE(r.ok()) << (r.findings.empty() ? "" : r.findings[0].detail);
  EXPECT_GE(r.proved.size(), 4u);
}

TEST(BucketingVerify, FlagsDifferentProgramsAndStructureMutations) {
  const FlatModel m = random_graph(5);
  const auto panels = exporter::WeightPanels::build(m, Backend::fast);
  const PlanTables bucket = plan_tables(InferPlan(m, panels, 2, 4, 16, 16));
  const PlanTables exact = plan_tables(InferPlan(m, panels, 2, 4, 13, 15));

  // A different program (different step count) is never a twin.
  const FlatModel other = random_graph(6);
  const PlanTables foreign =
      plan_tables(InferPlan(other, 2, 4, 13, 15));
  if (foreign.steps.size() != bucket.steps.size()) {
    EXPECT_TRUE(has_bucket_finding(
        exporter::verify_bucket_plan(bucket, foreign, 4.0)));
  }

  // Mutating any structural field of one step breaks the proof.
  PlanTables mutant = bucket;
  mutant.steps[0].stride += 1;
  EXPECT_TRUE(has_bucket_finding(
      exporter::verify_bucket_plan(mutant, exact, 2.0)));
  mutant = bucket;
  mutant.steps.back().kind = OpKind::save;
  EXPECT_TRUE(has_bucket_finding(
      exporter::verify_bucket_plan(mutant, exact, 2.0)));
}

TEST(BucketingVerify, FlagsCoverWasteAndArenaViolations) {
  const FlatModel m = random_graph(5);
  const auto panels = exporter::WeightPanels::build(m, Backend::fast);
  const PlanTables bucket = plan_tables(InferPlan(m, panels, 2, 4, 16, 16));
  const PlanTables exact = plan_tables(InferPlan(m, panels, 2, 4, 13, 15));

  // Cover: a "rung" smaller than the exact geometry in either dim.
  PlanTables mutant = bucket;
  mutant.in_h = 12;
  EXPECT_TRUE(has_bucket_finding(
      exporter::verify_bucket_plan(mutant, exact, 4.0)));

  // Waste cap: 16*16 / (13*15) ~ 1.31, so a 1.2 cap must fail and the
  // sound 2.0 cap must pass (checked in the proof test above).
  EXPECT_TRUE(has_bucket_finding(
      exporter::verify_bucket_plan(bucket, exact, 1.2)));

  // Arena monotonicity: a rung plan claiming a smaller arena than its
  // exact twin would under-allocate.
  mutant = bucket;
  mutant.arena_floats = exact.arena_floats - 1;
  EXPECT_TRUE(has_bucket_finding(
      exporter::verify_bucket_plan(mutant, exact, 2.0)));

  // Degenerate cap is rejected outright.
  EXPECT_TRUE(has_bucket_finding(
      exporter::verify_bucket_plan(bucket, exact, 0.9)));
}

// ---------------------------------------------------------------------------
// Engine integration: mixed-resolution submits through one rung

/// Blocks every batch on a gate until release() (same idiom as the serving
/// suite): pins the worker so queue states are reproducible.
class GateInjector : public FaultInjector {
 public:
  void on_batch_execute(const std::string&, int64_t) override {
    std::unique_lock<std::mutex> lock(mu_);
    ++started_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return released_; });
  }
  void wait_started(int64_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return started_ >= n; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int64_t started_ = 0;
  bool released_ = false;
};

TEST(BucketingEngine, MixedGeometrySubmitsCoalesceAndMatchRunPaddedOracle) {
  const FlatModel m = random_graph(7);
  auto compiled = CompiledModel::compile(m);
  auto gate = std::make_shared<GateInjector>();
  EngineOptions opts;
  opts.batching.max_batch = 8;
  opts.batching.max_wait_us = 0;  // gather only what is already queued
  opts.workers = 1;
  opts.fault_injector = gate;
  Engine engine(opts);
  ModelQos qos;
  qos.bucketing.ladder = {{16, 16}};
  qos.bucketing.max_pad_ratio = 2.0;
  engine.register_model("m", compiled, qos);

  Rng rng(31, 1);
  // Pin the worker with an 8x8 request: 16x16 would waste 4x, past the
  // cap, so it executes at its exact geometry (and is not padded).
  const Tensor pin = random_input(rng, {4, 8, 8});
  auto pin_future = engine.submit("m", pin);
  gate->wait_started(1);

  // Six mixed geometries, all assigned to the 16x16 rung, queue behind it.
  const std::vector<std::pair<int64_t, int64_t>> geos = {
      {13, 15}, {14, 16}, {16, 14}, {15, 13}, {16, 16}, {13, 13}};
  std::vector<Tensor> images;
  std::vector<std::future<Tensor>> futures;
  for (const auto& [h, w] : geos) {
    images.push_back(random_input(rng, {4, h, w}));
    futures.push_back(engine.submit("m", images.back()));
  }
  gate->release();

  Session oracle(compiled);
  const Tensor pin_logits = pin_future.get();
  {
    Tensor x4({1, 4, 8, 8});
    std::memcpy(x4.data(), pin.data(),
                static_cast<size_t>(pin.numel()) * sizeof(float));
    EXPECT_TRUE(bitwise_equal(pin_logits, oracle.run(x4)));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    const Tensor got = futures[i].get();
    Tensor x4({1, 4, geos[i].first, geos[i].second});
    std::memcpy(x4.data(), images[i].data(),
                static_cast<size_t>(images[i].numel()) * sizeof(float));
    EXPECT_TRUE(bitwise_equal(got, oracle.run_padded(x4, 16, 16)))
        << "image " << i;
  }

  const Engine::Stats st = engine.stats();
  EXPECT_EQ(st.completed, 7);
  // Every submit except the pin and the exact-fit 16x16 was padded.
  EXPECT_EQ(st.padded_accepted, 5);
  // The six rung requests launched as ONE batch (pin was its own), and
  // that batch mixed distinct exact geometries.
  EXPECT_EQ(st.batches, 2);
  EXPECT_EQ(st.mixed_geometry_batches, 1);
}

TEST(BucketingEngine, WasteCapKeepsOversizedPaddingOffTheHotPath) {
  const FlatModel m = random_graph(8);
  auto compiled = CompiledModel::compile(m);
  Engine engine;
  ModelQos qos;
  qos.bucketing.ladder = {{32, 32}};
  qos.bucketing.max_pad_ratio = 1.2;
  engine.register_model("m", compiled, qos);

  Rng rng(33, 1);
  const Tensor image = random_input(rng, {4, 16, 16});  // 4x waste: exact
  const Tensor got = engine.submit("m", image).get();
  Session oracle(compiled);
  Tensor x4({1, 4, 16, 16});
  std::memcpy(x4.data(), image.data(),
              static_cast<size_t>(image.numel()) * sizeof(float));
  EXPECT_TRUE(bitwise_equal(got, oracle.run(x4)));
  EXPECT_EQ(engine.stats().padded_accepted, 0);
}

TEST(BucketingEngine, RegisterModelRejectsInvalidBucketing) {
  const FlatModel m = random_graph(8);
  auto compiled = CompiledModel::compile(m);
  Engine engine;
  ModelQos qos;
  qos.bucketing.ladder = {{16, 16}, {16, 32}};  // h not strictly increasing
  EXPECT_THROW(engine.register_model("m", compiled, qos),
               std::runtime_error);
  qos.bucketing.ladder = {{16, 16}};
  qos.bucketing.max_pad_ratio = 0.75;
  EXPECT_THROW(engine.register_model("m", compiled, qos),
               std::runtime_error);
}

}  // namespace
}  // namespace nb::runtime
