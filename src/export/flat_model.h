// Deployable model artifact: a single binary file holding the contracted,
// int8-quantized TNN as a flat instruction list, plus a self-contained
// reference runtime to execute it. This is the artifact an MCU toolchain
// would consume — real int8 weight storage (not fake-quant floats), explicit
// execution order, no dependency on the training stack: the runtime needs
// only nb_tensor.
//
//   writer:  models::MobileNetV2 (after quant::quantize_for_deployment)
//            --> write_flat_model(model, path)
//   runtime: FlatModel::load(path);  model.forward(nchw, backend) -> logits
//
// Format (little-endian):
//   magic "NBFM" | u32 version | i64 input_res | i64 input_channels |
//   u32 op_count | op records...
// Op records:
//   kSave                      -- push current activation (residual source)
//   kAddSaved                  -- pop and add (residual join)
//   kConv: u8 act | i64 stride,pad,groups,cout,cin,k | u8 weight_bits |
//          i8 weights[cout*cin/g*k*k] | f32 weight_scales[cout] |
//          u8 has_bias | f32 bias[cout] | f32 act_scale | u8 act_bits
//   kGap                       -- global average pool to [N, C]
//   kLinear: i64 in,out | u8 weight_bits | i8 weights[out*in] |
//            f32 weight_scales[out] | f32 bias[out] | f32 act_scale |
//            u8 act_bits
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace nb::exporter {

constexpr uint32_t kFlatVersion = 1;

/// Which runtime executes FlatModel::forward.
///   reference — the scalar direct-convolution interpreter: allocates every
///               intermediate, single-threaded, kept as the semantic oracle.
///   fast      — the planned arena runtime (see infer_plan.h): im2col +
///               packed GEMM, direct depthwise, fused epilogues, threaded.
///   int8      — the planned runtime over TRUE int8 execution: activations
///               quantized to integer levels, int8xint8->int32 packed GEMM
///               (gemm_s8), per-channel requantize fused into the output
///               store. Requires a fully calibrated program (act_scale > 0,
///               act_bits <= 8 everywhere; see int8_compatible in qmodel.h)
///               and is bit-exact against the QModel integer oracle.
enum class Backend : uint8_t { reference = 0, fast = 1, int8 = 2 };

enum class OpKind : uint8_t {
  save = 0,
  add_saved = 1,
  conv = 2,
  gap = 3,
  linear = 4,
};

/// Activation applied after a conv/linear op.
enum class FlatAct : uint8_t { identity = 0, relu = 1, relu6 = 2 };

struct FlatConv {
  FlatAct act = FlatAct::identity;
  int64_t stride = 1;
  int64_t pad = 0;
  int64_t groups = 1;
  int64_t cout = 0;
  int64_t cin = 0;  // full input channels (not per group)
  int64_t kernel = 1;
  uint8_t weight_bits = 8;
  std::vector<int8_t> weights;       // [cout, cin/groups, k, k]
  std::vector<float> weight_scales;  // per output channel
  bool has_bias = false;
  std::vector<float> bias;  // [cout] when has_bias
  float act_scale = 0.0f;   // input-activation quantization scale
  uint8_t act_bits = 8;
};

struct FlatLinear {
  int64_t in = 0;
  int64_t out = 0;
  uint8_t weight_bits = 8;
  std::vector<int8_t> weights;  // [out, in]
  std::vector<float> weight_scales;
  std::vector<float> bias;  // [out]
  float act_scale = 0.0f;
  uint8_t act_bits = 8;
};

struct FlatOp {
  OpKind kind = OpKind::save;
  FlatConv conv;      // when kind == conv
  FlatLinear linear;  // when kind == linear
};

/// A loaded (or about-to-be-written) flat model: a plain program value.
/// It holds only the op list and input geometry; compiled state (weight
/// panels, plans, arenas) lives in the runtime that executes it
/// (InferPlan, runtime::CompiledModel / Session), never in the program.
class FlatModel {
 public:
  static FlatModel load(const std::string& path);
  /// Parses an NBFM image straight from memory (blob store, embedded
  /// artifact, network buffer) — same validation as load(path), no temp
  /// files. The bytes are copied out; the buffer may be freed afterwards.
  static FlatModel load_from_buffer(const uint8_t* data, size_t size);

  /// Inference on the selected backend. Both backends re-quantize
  /// activations at each conv exactly as the training-side fake-quant
  /// pipeline does and agree within float accumulation-order rounding.
  /// Input is [N, C, H, W]; returns logits.
  ///
  /// Backend::reference runs the scalar interpreter. Backend::fast and
  /// Backend::int8 build a one-shot InferPlan (weight panels + arena) for
  /// the input geometry and run it: stateless, so concurrent calls on one
  /// model are safe, but every call pays the compile. Repeated or
  /// concurrent serving compiles once into a runtime::CompiledModel and
  /// runs one runtime::Session per stream.
  Tensor forward(const Tensor& input, Backend backend) const;

  const std::vector<FlatOp>& ops() const { return ops_; }
  int64_t input_resolution() const { return input_res_; }
  int64_t input_channels() const { return input_channels_; }
  /// Total serialized weight payload in bytes (int8 weights + f32 scales).
  int64_t weight_bytes() const;

  // Writer-side mutators (used by write_flat_model).
  void set_input(int64_t resolution, int64_t channels);
  void push(FlatOp op);
  void save(const std::string& path) const;

 private:
  std::vector<FlatOp> ops_;
  int64_t input_res_ = 0;
  int64_t input_channels_ = 3;
};

}  // namespace nb::exporter
