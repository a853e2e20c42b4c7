// Tests for the static plan verifier (src/export/plan_verify.h): it must
// pass every shipped geometry (mbv2/mcunet skeletons, float and int8,
// batch 1..8) including the exact batch-scaling law, and REJECT seeded
// corruptions of each region/step-table field with the expected typed
// diagnostic — the mutation-testing contract that keeps the verifier
// honest (a checker that accepts a corrupted table proves nothing).
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "export/flat_model.h"
#include "export/flat_synth.h"
#include "export/infer_plan.h"
#include "export/plan_verify.h"
#include "runtime/compiled_model.h"
#include "runtime/session.h"
#include "tensor/rng.h"
#include "tensor/tensor_ops.h"

namespace nb::exporter {
namespace {

FlatModel mbv2(uint64_t seed) {
  Rng rng(seed, 5);
  return synth::make_mbv2_flat(rng, 0.35f, 32, 10);
}

FlatModel mcunet(uint64_t seed) {
  Rng rng(seed, 6);
  return synth::make_mcunet_flat(rng, 32, 10);
}

bool has_diag(const VerifyReport& r, PlanDiag diag) {
  for (const PlanFinding& f : r.findings) {
    if (f.diag == diag) return true;
  }
  return false;
}

std::string diag_list(const VerifyReport& r) {
  std::string s;
  for (const PlanFinding& f : r.findings) {
    s += std::string(to_string(f.diag)) + ": " + f.detail + "\n";
  }
  return s;
}

/// First step index matching `pred`, or -1.
int64_t find_step(const PlanTables& t,
                  const std::function<bool(const StepTable&)>& pred) {
  for (size_t i = 0; i < t.steps.size(); ++i) {
    if (pred(t.steps[i])) return static_cast<int64_t>(i);
  }
  return -1;
}

TEST(PlanVerify, PassesEveryShippedGeometryFloatAndInt8) {
  for (const auto& [name, model] :
       {std::pair<const char*, FlatModel>{"mbv2", mbv2(31)},
        std::pair<const char*, FlatModel>{"mcunet", mcunet(32)}}) {
    for (Backend backend : {Backend::fast, Backend::int8}) {
      const auto panels = WeightPanels::build(model, backend);
      for (int64_t batch : {1, 2, 4, 8}) {
        const InferPlan plan(model, panels, batch, 3, 32, 32, backend);
        const VerifyReport r = verify_plan(plan);
        EXPECT_TRUE(r.ok()) << name << " batch=" << batch << " backend="
                            << (backend == Backend::int8 ? "int8" : "fast")
                            << "\n" << diag_list(r);
        EXPECT_FALSE(r.proved.empty());
      }
    }
  }
}

TEST(PlanVerify, ProvesExactBatchScalingLaw) {
  const FlatModel model = mbv2(33);
  for (Backend backend : {Backend::fast, Backend::int8}) {
    const auto panels = WeightPanels::build(model, backend);
    const InferPlan unit(model, panels, 1, 3, 32, 32, backend);
    for (int64_t batch : {2, 5, 8}) {
      const InferPlan plan(model, panels, batch, 3, 32, 32, backend);
      const VerifyReport r =
          verify_batch_scaling(plan_tables(plan), plan_tables(unit));
      EXPECT_TRUE(r.ok()) << diag_list(r);
      EXPECT_FALSE(r.proved.empty());
    }
  }
}

TEST(PlanVerify, CheckPlanIsSilentOnSoundPlans) {
  const FlatModel model = mcunet(34);
  const InferPlan plan(model, 4, 3, 32, 32, Backend::int8);
  EXPECT_NO_THROW(check_plan(plan));
}

// ---- seeded mutation classes: each corrupts ONE table field and must be
// rejected with the matching typed diagnostic -------------------------------

class PlanVerifyMutation : public ::testing::Test {
 protected:
  void SetUp() override {
    model_ = mbv2(40);
    plan_ = std::make_unique<InferPlan>(model_, 2, 3, 32, 32, Backend::fast);
    tables_ = plan_tables(*plan_);
    ASSERT_TRUE(verify_tables(tables_).ok());
  }

  FlatModel model_;
  std::unique_ptr<InferPlan> plan_;
  PlanTables tables_;
};

TEST_F(PlanVerifyMutation, RejectsBrokenDataflowChain) {
  // A conv made to read a region the previous step did not produce.
  const int64_t i = find_step(
      tables_, [](const StepTable& s) { return s.kind == OpKind::conv; });
  ASSERT_GE(i, 0);
  tables_.steps[static_cast<size_t>(i)].in_off += 1;
  const VerifyReport r = verify_tables(tables_);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(has_diag(r, PlanDiag::dataflow_broken)) << diag_list(r);
}

TEST_F(PlanVerifyMutation, RejectsGeometryDivergingFromConvArithmetic) {
  const int64_t i = find_step(
      tables_, [](const StepTable& s) { return s.kind == OpKind::conv; });
  ASSERT_GE(i, 0);
  tables_.steps[static_cast<size_t>(i)].out_h += 1;
  const VerifyReport r = verify_tables(tables_);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(has_diag(r, PlanDiag::geometry_broken)) << diag_list(r);
}

TEST_F(PlanVerifyMutation, RejectsRegionEscapingTheArena) {
  const int64_t i = find_step(
      tables_, [](const StepTable& s) { return s.kind == OpKind::conv; });
  ASSERT_GE(i, 0);
  // Push the output interval past arena_floats.
  tables_.steps[static_cast<size_t>(i)].out_off =
      tables_.arena_floats -
      tables_.steps[static_cast<size_t>(i)].out_floats + 1;
  const VerifyReport r = verify_tables(tables_);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(has_diag(r, PlanDiag::offset_out_of_bounds)) << diag_list(r);
}

TEST_F(PlanVerifyMutation, RejectsInputOutputAliasing) {
  const int64_t i = find_step(
      tables_, [](const StepTable& s) { return s.kind == OpKind::conv; });
  ASSERT_GE(i, 0);
  StepTable& s = tables_.steps[static_cast<size_t>(i)];
  s.out_off = s.in_off;  // write the conv straight over its own input
  const VerifyReport r = verify_tables(tables_);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(has_diag(r, PlanDiag::region_overlap)) << diag_list(r);
}

TEST_F(PlanVerifyMutation, RejectsWriteClobberingLiveResidual) {
  // Find a conv sitting strictly between a save and its add_saved, then
  // aim its output at the live save slot.
  const int64_t save = find_step(
      tables_, [](const StepTable& s) { return s.kind == OpKind::save; });
  ASSERT_GE(save, 0);
  int64_t conv = -1;
  for (size_t i = static_cast<size_t>(save) + 1; i < tables_.steps.size();
       ++i) {
    if (tables_.steps[i].kind == OpKind::add_saved) break;
    if (tables_.steps[i].kind == OpKind::conv) {
      conv = static_cast<int64_t>(i);
      break;
    }
  }
  ASSERT_GE(conv, 0) << "graph has no conv inside a residual body";
  tables_.steps[static_cast<size_t>(conv)].out_off =
      tables_.steps[static_cast<size_t>(save)].save_off;
  const VerifyReport r = verify_tables(tables_);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(has_diag(r, PlanDiag::save_clobbered)) << diag_list(r);
}

TEST_F(PlanVerifyMutation, RejectsMismatchedSaveStack) {
  const int64_t add = find_step(tables_, [](const StepTable& s) {
    return s.kind == OpKind::add_saved;
  });
  ASSERT_GE(add, 0);
  tables_.steps[static_cast<size_t>(add)].save_off += 1;
  const VerifyReport r = verify_tables(tables_);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(has_diag(r, PlanDiag::save_stack_broken)) << diag_list(r);
}

TEST_F(PlanVerifyMutation, RejectsInconsistentPublishedStats) {
  tables_.cols_floats += 1;
  const VerifyReport r = verify_tables(tables_);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(has_diag(r, PlanDiag::stats_inconsistent)) << diag_list(r);
}

TEST_F(PlanVerifyMutation, RejectsBrokenBatchScaling) {
  const InferPlan unit(model_, 1, 3, 32, 32, Backend::fast);
  PlanTables u = plan_tables(unit);
  u.arena_floats -= 1;  // arena(2) != 2 * (arena(1) - 1)
  const VerifyReport r = verify_batch_scaling(tables_, u);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(has_diag(r, PlanDiag::batch_scaling_broken)) << diag_list(r);
}

// Int8-specific mutation classes: the byte arena and the in-place
// requantize epilogue.

class PlanVerifyInt8Mutation : public ::testing::Test {
 protected:
  void SetUp() override {
    model_ = mcunet(41);
    plan_ = std::make_unique<InferPlan>(model_, 2, 3, 32, 32, Backend::int8);
    tables_ = plan_tables(*plan_);
    ASSERT_TRUE(verify_tables(tables_).ok());
  }

  FlatModel model_;
  std::unique_ptr<InferPlan> plan_;
  PlanTables tables_;
};

TEST_F(PlanVerifyInt8Mutation, RejectsQuantizedInputOverrunningByteCols) {
  tables_.qcols_off -= 1;  // largest quantized input no longer fits
  const VerifyReport r = verify_tables(tables_);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(has_diag(r, PlanDiag::qarena_out_of_bounds)) << diag_list(r);
}

TEST_F(PlanVerifyInt8Mutation, RejectsByteColsEscapingInt8Arena) {
  tables_.arena_int8_bytes -= 1;
  const VerifyReport r = verify_tables(tables_);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(has_diag(r, PlanDiag::qarena_out_of_bounds)) << diag_list(r);
}

TEST_F(PlanVerifyInt8Mutation, RejectsTruncatedRequantizeScaleTable) {
  const int64_t i = find_step(
      tables_, [](const StepTable& s) { return s.kind == OpKind::conv; });
  ASSERT_GE(i, 0);
  tables_.steps[static_cast<size_t>(i)].eff_count -= 1;
  const VerifyReport r = verify_tables(tables_);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(has_diag(r, PlanDiag::epilogue_broken)) << diag_list(r);
}

TEST_F(PlanVerifyInt8Mutation, RejectsEpilogueWithoutActivationScale) {
  const int64_t i = find_step(
      tables_, [](const StepTable& s) { return s.kind == OpKind::linear; });
  ASSERT_GE(i, 0);
  tables_.steps[static_cast<size_t>(i)].act_scale = 0.0f;
  const VerifyReport r = verify_tables(tables_);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(has_diag(r, PlanDiag::epilogue_broken)) << diag_list(r);
}

// ---- runtime wiring -------------------------------------------------------

TEST(PlanVerify, SessionOptionVerifiesEveryBuiltPlan) {
  const FlatModel model = mbv2(50);
  auto compiled = runtime::CompiledModel::compile(model, Backend::int8);
  runtime::SessionOptions opts;
  opts.verify_plans = true;
  runtime::Session session(compiled, opts);
  Rng rng(51, 1);
  for (int64_t batch : {1, 3}) {
    Tensor x({batch, 3, 32, 32});
    fill_uniform(x, rng, -1.0f, 1.0f);
    EXPECT_NO_THROW((void)session.run(x)) << "batch=" << batch;
  }
}

TEST(PlanVerify, CheckPlanThrowsTypedErrorWithFirstDiag) {
  // check_plan's exception carries the first finding's PlanDiag; prove the
  // typed propagation through verify_tables' report ordering.
  const FlatModel model = mbv2(52);
  const InferPlan plan(model, 2, 3, 32, 32, Backend::fast);
  PlanTables t = plan_tables(plan);
  t.steps.front().in_off += 1;
  const VerifyReport r = verify_tables(t);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.findings.front().diag, PlanDiag::dataflow_broken);
  EXPECT_STREQ(to_string(r.findings.front().diag), "dataflow_broken");
}

}  // namespace
}  // namespace nb::exporter
