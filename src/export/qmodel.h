// QModel — the integer-exact oracle for the true int8 inference path
// (Backend::int8). It executes a FlatModel with REAL int8 semantics: every
// conv/linear input is quantized to integer levels, products accumulate in
// int32, and one float requantize maps the accumulator back to real values.
// No GEMM, no im2col, no threading — the obviously-correct scalar loops.
//
// The bit-exactness contract with the fast int8 backend:
//
//   * Activation levels come from quantize_levels_u8 (one shared function),
//     so both sides round identically.
//   * The int32 accumulator is the EXACT integer sum of w * level. Integer
//     sums are order-invariant, so the packed GEMM's blocking/threading and
//     this oracle's naive loop produce the same int32 bit pattern.
//   * The float epilogue is ONE expression, act(float(acc) * eff + bias),
//     with one inline definition (tensor/requantize.h) compiled only in
//     -ffp-contract=off library sources. The oracle reaches it through
//     requantize_row / requantize_linear_row below; InferPlan reaches it
//     through the int8 depthwise entry (nb::depthwise_blocks_s8, which
//     stores through nb::requantize_row, the function requantize_row below
//     wraps, or requantize in its block lanes), requantize_linear_row (the
//     linear head) and the gemm_s8 epilogue, which applies it in each GEMM
//     tile's final store. No copy can contract the multiply-add into an
//     FMA, so every path rounds the same way.
//   * Residual add, GAP and the entry layout conversion stay float with the
//     same scalar expressions as InferPlan.
//
// Together these make `InferPlan(int8).run(x)` memcmp-equal to
// `QModel(model).forward(x)` — enforced in tests/test_infer_runtime.cpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "export/flat_model.h"
#include "tensor/gemm_s8.h"

namespace nb::exporter {

/// The int8 conv epilogue over one contiguous run of outputs:
/// out[i] = act_clamp((float)acc[i] * scale + bias), the requantize
/// expression of tensor/requantize.h, run by nb::requantize_row with the
/// program activation. `scale` is the per-channel effective scale
/// weight_scale * act_scale. Safe when out and acc alias elementwise
/// (element i is read before it is written).
void requantize_row(float* out, const int32_t* acc, int64_t n, float scale,
                    float bias, FlatAct act);

/// Linear-head epilogue over one image's logit row:
/// out[o] = (float)acc[o] * eff[o] + bias[o] (bias == nullptr reads 0), the
/// same expression with the identity activation.
void requantize_linear_row(float* out, const int32_t* acc, const float* eff,
                           const float* bias, int64_t n);

/// The epilogue activation for a program activation (same values).
inline EpilogueAct epilogue_act(FlatAct act) {
  static_assert(static_cast<int>(FlatAct::identity) ==
                        static_cast<int>(EpilogueAct::identity) &&
                    static_cast<int>(FlatAct::relu) ==
                        static_cast<int>(EpilogueAct::relu) &&
                    static_cast<int>(FlatAct::relu6) ==
                        static_cast<int>(EpilogueAct::relu6),
                "FlatAct and EpilogueAct must share their values");
  return static_cast<EpilogueAct>(act);
}

/// Whether every conv/linear in `model` can run on the true int8 backend:
/// calibrated act_scale > 0 and act_bits in [2, 8] (activation levels must
/// fit the unsigned-byte pipeline; weight levels already fit by the load
/// validation). On failure returns false and, when `reason` is non-null,
/// stores which op and field disqualified the program.
bool int8_compatible(const FlatModel& model, std::string* reason = nullptr);

/// The oracle itself. Borrows `model` (no weight copies); the FlatModel
/// must outlive the QModel. Construction validates int8_compatible and the
/// K <= 2^17 exactness bound per op.
class QModel {
 public:
  explicit QModel(const FlatModel& model);

  /// Int8-semantics inference. `input` is [N, C, H, W]; returns logits (or
  /// the final spatial activation for headless programs).
  Tensor forward(const Tensor& input) const;

 private:
  const FlatModel* model_;
  // Per op, per output channel: weight_scales[o] * act_scale, precomputed
  // with the same single float multiply InferPlan uses.
  std::vector<std::vector<float>> eff_;
};

}  // namespace nb::exporter
