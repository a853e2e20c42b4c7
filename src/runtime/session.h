// Session — cheap per-stream execution state over a shared CompiledModel.
//
// A Session owns only what one stream needs: a small LRU cache of
// geometry-keyed InferPlans (each plan = arena + step table, borrowing the
// model's weight panels). Creating a Session never copies weights;
// MemoryStats splits owned arena floats from borrowed panel floats so the
// zero-duplication invariant is assertable.
//
// Concurrency model: one Session per stream. run() is thread-confined (no
// internal lock — call it from one thread at a time), but any number of
// Sessions over the same CompiledModel run() concurrently and produce
// bitwise-identical results to a single-threaded run. Each run executes
// entirely on its calling thread (an nb::SerialScope), so N streams scale
// without contending on the process-wide pool.
#pragma once

#include <cstdint>
#include <list>
#include <memory>

#include "export/infer_plan.h"
#include "runtime/compiled_model.h"
#include "tensor/tensor.h"

namespace nb::runtime {

struct SessionOptions {
  /// Plans kept per session before the least-recently-used is evicted
  /// (each distinct input geometry needs one plan).
  size_t max_cached_plans = 4;

  /// Run the static plan verifier (export/plan_verify.h) on every plan this
  /// session builds, in ANY build type; a violated arena invariant throws a
  /// typed exporter::PlanVerifyError out of run() before the plan ever
  /// executes. Debug builds verify at plan construction regardless; this
  /// opts a Release serving process into the same proof.
  bool verify_plans = false;
};

class Session {
 public:
  explicit Session(std::shared_ptr<const CompiledModel> model,
                   SessionOptions options = {});

  /// Runs one [N, C, H, W] batch and returns logits. Plans are keyed on
  /// the FULL batch geometry — an Engine worker serving micro-batches
  /// caches its batch-4/8 plans (one GEMM per conv across the batch)
  /// alongside the batch-1 plan — built on first sight and reused after;
  /// results are bitwise independent of the batch size the images arrive
  /// in and of other sessions. A geometry the planner rejects throws out of
  /// run() and leaves the plan cache as it was.
  Tensor run(const Tensor& input);

  /// Zero-pads `input` ([N, C, H, W]) bottom/right to (target_h, target_w)
  /// and runs the padded batch; the plan cache is keyed at the TARGET
  /// geometry, so a stream serving one bucket rung reuses a single plan
  /// across every exact input size under it. This is the sequential half
  /// of the Engine's pad-to-bucket exactness contract: a bucketed batched
  /// submit resolves bitwise-identically to run_padded of the same image
  /// at the rung geometry (see runtime/bucketing.h).
  Tensor run_padded(const Tensor& input, int64_t target_h, int64_t target_w);

  const CompiledModel& model() const { return *model_; }
  const SessionOptions& options() const { return options_; }

  /// Owned-vs-borrowed memory accounting (PlanStats-style).
  struct MemoryStats {
    /// Arena floats this session owns across its cached plans.
    int64_t owned_arena_floats = 0;
    /// Weight-panel floats the plans execute against — borrowed from the
    /// shared CompiledModel, NOT owned; identical for every session on it.
    int64_t borrowed_weight_floats = 0;
    /// Identity of the borrowed panels (equal across sessions on one
    /// model — the zero-duplication assertion).
    const void* weight_panel_addr = nullptr;
    size_t cached_plans = 0;
  };
  MemoryStats memory() const;

  /// Total run() calls served by this session.
  int64_t runs() const { return runs_; }

 private:
  const exporter::InferPlan& plan_for(int64_t batch, int64_t channels,
                                      int64_t h, int64_t w);

  std::shared_ptr<const CompiledModel> model_;
  SessionOptions options_;
  // MRU-first plan cache; geometry lives in each plan's stats.
  std::list<exporter::InferPlan> plans_;
  int64_t runs_ = 0;
};

}  // namespace nb::runtime
