// Ahead-of-time inference plan for FlatModel — the GEMM-backed "fast"
// backend of the deployment runtime.
//
// A plan is built once per (batch, channels, height, width) input geometry.
// plan_program() walks the op list once, shapes every intermediate, and
// gives each float buffer a live range [first step, last step]: the entry
// input; each op output (conv, GAP and linear write a new buffer, residual
// add and activation fake-quant work in place); one copy per residual
// `save`, live until its `add_saved`; and, on the fast backend, one im2col
// panel per non-direct lowered conv, live for its step. The panel holds the
// columns of every image side by side ([K, batch*out_h*out_w]), so ONE
// packed GEMM per conv (per group) lowers the whole batch. Buffers are
// placed in ONE reusable arena greedy by size (Pisarchyk & Lee 2020, the
// TFLite planner): largest first, each into the best-fitting gap among the
// placed buffers it is live with. Sizes scale with the batch and placement
// only compares them, so arena(batch) == batch * arena(1) exactly;
// PlanStats::peak_live_floats sums the same ranges, and on the shipped
// graphs the arena equals it. `save` copies instead of aliasing because the
// conv after it fake-quantizes its input in place, and the residual must
// add the value from before that.
//
// Direct 1x1 lowering: for a 1x1, stride-1, unpadded conv the group's
// slice of the batch-interleaved input already IS that panel, value for
// value, so the GEMM reads the input region as its B operand, no im2col
// runs (on int8, the quantized byte region) and no panel is placed.
// PlanStats::cols_floats and arena_int8_bytes still size a panel for
// every lowered conv, direct ones included: the repository benchmark's
// kernel replay (perfbench/replay.cpp), lowering every conv through a
// panel, checks them against the panel it sizes.
//
// Batched activation layout: inside the arena every spatial activation is
// kept BATCH-INTERLEAVED — [channels, batch*H*W], each channel holding the
// batch's planes side by side — instead of NCHW. That is exactly the
// [cout, batch*out_h*out_w] panel the batched GEMM emits, so each conv's
// output is already the next conv's input and no staging buffer or
// scatter-back pass exists anywhere in the hot loop; NCHW is converted to
// the interleaved form once on entry and back once on exit (only when the
// program ends spatially). At batch == 1 the two layouts coincide, so the
// single-image plan is the same code path with no conversion cost.
//
// Because the packed GEMM's per-element rounding is independent of M and N
// (one continuous ascending K chain) and every other kernel is applied
// per-plane or per-element, the batched lowering is bitwise identical to
// running each image through its own batch-1 plan — micro-batching is
// purely a throughput decision, never a semantics change (test-enforced in
// tests/test_batched_lowering.cpp).
//
// Weights come from a shared WeightPanels built for the plan's backend
// (the constructor checks): for Backend::fast, int8 levels dequantized once
// to exact float integers (scales are NOT folded in), so the packed nb::gemm
// over them produces the same products as the reference int8 interpreter
// and the per-channel scale + bias + activation clamp are applied in one
// fused pass over the output store. Depthwise groups run through the direct
// nb::depthwise_plane path; everything parallelizes over output rows /
// (image, channel) planes via the threadpool, and because nb::gemm is
// bitwise thread-invariant the whole plan is too.
//
// Backend::int8 builds the same plan over the TRUE integer path: before
// each conv/linear the float activation is quantized once to offset-u8
// levels (shared quantize_levels_u8, the same rounding fake-quant applies),
// the byte im2col + gemm_s8 accumulate exact int32, and the requantize
// expression — one inline definition (tensor/requantize.h), the one the
// QModel oracle runs — rescales per channel: inside gemm_s8's final store
// for lowered convs, through requantize_row in place for the depthwise and
// requantize_linear_row for the head (see qmodel.h). Int32 accumulators
// live IN the float arena's output region (4 bytes per element either
// way); the plan additionally owns a small byte arena
// [ quantized input | byte cols ] and places no float panels. Because
// every accumulation is an exact integer sum, thread-count and
// batched-vs-sequential invariance are bitwise by construction, and the
// whole backend is memcmp-equal to the scalar QModel oracle (enforced in
// tests/test_infer_runtime.cpp).
//
// A plan BORROWS its weight panels (it holds a shared_ptr keeping them
// alive but owns no weight copies); what it owns is only the per-geometry
// arena and step tables, so building one plan per concurrent stream costs
// arena memory, never weight memory. run() reuses the arena, so a single
// plan must not be invoked from two threads at once — runtime::Session
// wraps one plan cache per stream.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "export/flat_model.h"
#include "export/weight_panels.h"

namespace nb::exporter {

/// The output spatial extent provably untouched by bucket padding — see
/// InferPlan::valid_output_region. `spatial` flips false once a GAP or
/// linear collapses the plane (their outputs aggregate the WHOLE padded
/// plane, so no sub-region of them is padding-free; the pad-to-bucket
/// contract for such programs is exactness w.r.t. the padded geometry,
/// not the original one).
struct PlanValidRegion {
  int64_t h = 0;
  int64_t w = 0;
  bool spatial = false;
};

/// Memory-planner accounting, all in float counts (4 bytes each).
struct PlanStats {
  /// Which execution mode this plan was built for (fast or int8; a plan is
  /// never built for the reference interpreter).
  Backend backend = Backend::fast;
  int64_t batch = 0;
  int64_t channels = 0;
  int64_t in_h = 0;
  int64_t in_w = 0;
  int64_t ops = 0;
  /// The float arena every buffer is placed in — the memory the plan
  /// OWNS. Every buffer holds the whole micro-batch, so the arena scales
  /// exactly x batch (assertable: arena_floats(batch) ==
  /// batch * arena_floats(1)).
  int64_t arena_floats = 0;
  /// The largest im2col B panel any lowered conv reads, with every image
  /// side by side — scales exactly x batch. A direct 1x1 conv's panel is
  /// its input, and it counts here too (see the header comment). Zero on
  /// int8 plans, whose panels live in the byte arena.
  int64_t cols_floats = 0;
  /// What a no-reuse executor allocates: every buffer the plan places
  /// (input copy, op outputs, residual copies, im2col panels), summed.
  int64_t no_reuse_floats = 0;
  /// Max floats simultaneously live at any single step, summed from the
  /// buffers' live ranges — a lower bound for any planner's float arena;
  /// arena_floats lands between this and no_reuse_floats.
  int64_t peak_live_floats = 0;
  /// Weight-panel floats the plan executes against (dequantized levels on
  /// fast panels, scales and bias on both). BORROWED from the shared
  /// WeightPanels, not owned: every plan (and session) on the same compiled
  /// model reports the same figure for the same bytes.
  int64_t weight_cache_floats = 0;
  /// Byte arena owned by an int8 plan on top of the float arena: the
  /// quantized-input region (largest conv/linear input, one byte per
  /// element) plus the byte im2col cols panel (largest lowered conv, the
  /// direct ones included). Zero for float plans.
  int64_t arena_int8_bytes = 0;

  int64_t arena_bytes() const { return arena_floats * 4; }
  int64_t no_reuse_bytes() const { return no_reuse_floats * 4; }
  int64_t peak_live_bytes() const { return peak_live_floats * 4; }
};

/// One step's row of the plan tables: plain values, no borrowed pointers,
/// so verification — and the mutation tests that corrupt rows — operate
/// on data.
struct StepTable {
  OpKind kind = OpKind::save;
  bool depthwise = false;
  int64_t stride = 1, pad = 0, groups = 1, cout = 0, cin = 0, kernel = 1;
  float act_scale = 0.0f;
  int64_t eff_count = 0;  // per-channel requantize scales (int8 plans)
  // Input/output activation geometry (out_h/out_w unused for 2-D shapes).
  int64_t in_c = 0, in_h = 0, in_w = 0;
  int64_t out_h = 0, out_w = 0;
  int64_t in_floats = 0, out_floats = 0;
  // Float-arena offsets: the activation read and written (equal for
  // in-place steps), the fast plan's own im2col panel (non-direct lowered
  // convs only, else 0) and the residual copy a `save` writes and its
  // `add_saved` reads (else 0).
  int64_t in_off = 0, out_off = 0, cols_off = 0, save_off = 0;
};

/// What plan_program computes: the published accounting, where the entry
/// input and the final activation sit, and one row per program op.
struct PlanTables : PlanStats {
  int64_t in_off = 0;     // float offset of the entry input
  int64_t out_off = 0;    // float offset of the final activation
  int64_t qcols_off = 0;  // byte offset of the int8 cols panel in qarena
  std::vector<int64_t> out_shape;
  std::vector<StepTable> steps;
};

/// The planner: shapes `model` for an [batch, channels, in_h, in_w] input
/// and places every float buffer by live range (see the header comment),
/// allocating no arena. Throws on geometry mismatches (e.g. first conv
/// cin != channels, an op producing an empty spatial output, a residual
/// join of two shapes), on Backend::reference (plans ARE the
/// non-reference runtime) and, for Backend::int8, on a program that is not
/// int8_compatible (naming the offending op). weight_cache_floats is left
/// 0: the tables know no panels.
PlanTables plan_program(const FlatModel& model, int64_t batch,
                        int64_t channels, int64_t in_h, int64_t in_w,
                        Backend backend = Backend::fast);

class InferPlan;
/// A built plan's tables — what it runs from and what plan_verify.h
/// proves safe.
const PlanTables& plan_tables(const InferPlan& plan);

class InferPlan {
 public:
  /// Plans the whole program for an [batch, channels, in_h, in_w] input
  /// (plan_program, which throws on what it rejects) against an existing
  /// set of shared weight panels (the zero-copy path used by
  /// runtime::Session) and allocates the arena. `backend` selects the
  /// execution mode: Backend::fast runs the float fast path over
  /// dequantized weight levels; Backend::int8 runs the true integer path
  /// (quantized activations, gemm_s8, fused requantize). Panels built for
  /// another backend are rejected (they lack this backend's weight
  /// encoding).
  InferPlan(const FlatModel& model,
            std::shared_ptr<const WeightPanels> panels, int64_t batch,
            int64_t channels, int64_t in_h, int64_t in_w,
            Backend backend = Backend::fast);

  /// Convenience: builds (and solely owns) fresh panels for `model`.
  InferPlan(const FlatModel& model, int64_t batch, int64_t channels,
            int64_t in_h, int64_t in_w, Backend backend = Backend::fast);

  /// Executes the program. `input` must match the planned geometry exactly.
  /// Reuses the internal arena; not safe to call concurrently on one plan.
  Tensor run(const Tensor& input) const;

  const PlanStats& stats() const { return tables_; }

  /// Valid-region epilogue arithmetic for pad-to-bucket serving: given
  /// that only the top-left (valid_h, valid_w) window of the planned
  /// (in_h, in_w) input holds real pixels (the rest is bucket-introduced
  /// zero padding), returns the output extent whose every element is a
  /// pure function of the valid window — i.e. no conv tap of any
  /// contributing window ever read a bucket-padding element. Taps in a
  /// conv's OWN zero padding (pad > 0) are model semantics and don't
  /// count. Conservative by construction: at valid == planned geometry it
  /// can still report fewer columns than the full output (the model's
  /// right-edge padding credit is not claimable without knowing the
  /// padding is semantic), and it is monotone in (valid_h, valid_w).
  PlanValidRegion valid_output_region(int64_t valid_h, int64_t valid_w) const;

  /// The shared weight panels this plan borrows (identity comparable:
  /// two plans on one compiled model return the same pointer).
  const std::shared_ptr<const WeightPanels>& panels() const {
    return panels_;
  }

 private:
  friend const PlanTables& plan_tables(const InferPlan& plan);

  // What running a step needs beyond its table row.
  struct Step {
    FlatAct act = FlatAct::identity;
    int act_bits = 8;
    // Borrowed views into the shared WeightPanels (kept alive by panels_).
    const float* wf = nullptr;      // int8 levels as exact float integers
    const int8_t* wq = nullptr;     // the same levels raw (int8 panels only)
    const float* scales = nullptr;  // per output channel
    const float* bias = nullptr;    // nullptr => zero bias
    // Int8 effective requantize scales, scales[o] * act_scale (empty for
    // float plans). Owned by the step: per-plan, not per-panel, because it
    // folds in the per-op activation scale.
    std::vector<float> eff;
  };

  void run_conv(const StepTable& t, const Step& s, const float* in,
                float* out, float* cols) const;
  void run_gap(const StepTable& t, const float* in, float* out) const;
  void run_linear(const StepTable& t, const Step& s, const float* in,
                  float* out) const;
  // Int8 twins: `in` is the quantized offset-u8 activation, the int32
  // accumulators land in (and are requantized in place over) the float
  // arena's output region, and `cols` is the byte im2col panel.
  void run_conv_s8(const StepTable& t, const Step& s, const uint8_t* in,
                   float* out, uint8_t* cols) const;
  void run_linear_s8(const StepTable& t, const Step& s, const uint8_t* in,
                     float* out) const;

  std::shared_ptr<const WeightPanels> panels_;
  PlanTables tables_;
  std::vector<Step> steps_;  // one per tables_.steps row
  mutable std::vector<float> arena_;
  // Byte arena for Backend::int8: [ quantized input | byte im2col cols ].
  // Empty for float plans.
  mutable std::vector<uint8_t> qarena_;
};

}  // namespace nb::exporter
