// Per-kernel replay of an inference plan.
//
// The benchmark cannot time inside InferPlan::run (nothing under src/ is
// instrumented), so it reads each planned step's geometry from the built
// plan's own tables (exporter::plan_tables) and calls the kernels that step
// would call, at that geometry, on inputs drawn from the step's activation
// range:
//
//   fast:  fake_quant_buffer, im2col_batched + gemm, depthwise_plane
//   int8:  quantize_levels_u8, im2col_s8_batched + gemm_s8,
//          depthwise_plane_s8, requantize_row
//
// Plan time minus the replayed kernels is the plan's glue (epilogue,
// save/add, GAP, linear, layout conversion).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "export/infer_plan.h"
#include "runtime/compiled_model.h"
#include "trace.h"

namespace pb {

/// One replay config: a compiled model at one batch geometry.
struct ReplayConfig {
  std::string name;  // e.g. mbv2_fast, r32b8_fast
  std::shared_ptr<const nb::runtime::CompiledModel> model;
  int64_t batch = 1;
  int64_t h = 0, w = 0;
};

struct StepRow {
  size_t step = 0;
  std::string what;
  double ms = 0.0;
  int64_t macs = 0;
};

struct ReplayReport {
  std::string cfg;
  bool int8 = false;
  int64_t passes = 0;
  double plan_run_ms = 0.0;
  double session_run_ms = 0.0;
  double plan_build_ms = 0.0;
  double act_quant_ms = 0.0, im2col_ms = 0.0, gemm_ms = 0.0;
  double depthwise_ms = 0.0, requant_ms = 0.0, glue_ms = 0.0;
  int64_t act_bytes = 0, gemm_macs = 0, depthwise_macs = 0;
  int64_t arena_bytes = 0;
  std::vector<StepRow> steps;  // per-step replayed time, sorted by ms

  // What the self-test compares against the plan: the planned steps the
  // replay walked, the conv MACs its kernel calls covered, and the largest
  // im2col panel and quantized input it lowered.
  nb::exporter::PlanStats stats;
  int64_t steps_walked = 0;
  int64_t executed_macs = 0;
  int64_t cols_max = 0, qin_max = 0;
};

/// Replays `cfg` for about `budget_s` seconds (at least a few passes),
/// recording every kernel call as a span, and reduces the passes to the
/// per-config layer figures (medians over passes of per-pass sums).
ReplayReport replay_config(const ReplayConfig& cfg, Tracer& tracer,
                           double budget_s, uint64_t seed);

/// Adds the report's per-layer metrics to `result` and prints its layer
/// table (sorted by share of plan time) into the result's context lines.
void report_replay(const ReplayReport& r, Result& result);

/// The five replay configs, compiled from the same seeded programs the
/// workloads run: mbv2_fast, mbv2_int8, mcunet_fast, mcunet_int8 (batch 1,
/// infer_b1) and r32b8_fast (the 32x32 rung at batch 8, serve_mixed_r32).
std::vector<ReplayConfig> replay_configs(uint64_t seed);

/// Replays every config for about `budget_s` seconds each and reports it.
void run_replay(const Args& args, double budget_s, Tracer& tracer,
                Result& result);

}  // namespace pb
