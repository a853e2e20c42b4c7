// Symmetric uniform quantization primitives for post-training quantization
// (PTQ). NetBooster's pitch is IoT deployment; the deployment path for the
// contracted TNN is fold-BN -> int8 weights (per output channel) -> int8
// activations (per tensor, calibrated). Everything here is "fake quant":
// values are rounded to the integer grid and immediately rescaled to float,
// which reproduces int8 inference numerics exactly while the substrate stays
// float32 (integer products up to 2^24 are exact in float arithmetic).
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace nb::quant {

/// Largest representable magnitude of a signed `bits`-bit integer grid
/// (symmetric, no zero-point): 2^(bits-1) - 1.
int64_t qmax_for_bits(int bits);

/// Scale mapping [-absmax, absmax] onto the integer grid; returns a tiny
/// positive scale for absmax == 0 so division is always safe.
float scale_from_absmax(float absmax, int bits);

/// Rounds every element to the grid: x -> clamp(round(x/s), -q, q) * s.
void fake_quant_(Tensor& t, float scale, int bits);

/// Raw-buffer core of fake_quant_, for runtimes that keep activations in a
/// planned arena rather than in Tensors (see src/export/infer_plan.h).
/// Defined for every float, bit for bit as the scalar expression (the AVX2
/// instance included): NaN propagates unchanged (payload kept), +-inf
/// becomes +-q*scale, and -0.0 is kept (any x in (-scale/2, 0) becomes
/// -0.0 too).
void fake_quant_buffer(float* data, int64_t n, float scale, int bits);

/// Quantizes float activations to offset-u8 levels for the true int8 path:
/// dst[i] = clamp(round(src[i]/scale), -q, q) + 128, bits <= 8. The rounding
/// expression is the SAME as fake_quant_buffer's, so the integer level here
/// equals the level a fake-quantized float value implies — this is what makes
/// the int8 backend bit-exact against the fake-quant oracle. Inputs must be
/// finite (a float->int cast of NaN is undefined); every value a NetBooster
/// graph produces is, since weights/bias/activations are finite by
/// construction. Offset-u8 (level + 128) rather than int8 because the packed
/// GEMM consumes unsigned activations; level 0 is byte 128.
void quantize_levels_u8(const float* src, uint8_t* dst, int64_t n, float scale,
                        int bits);

/// Converts serialized integer weight levels to float, one float per level.
/// Scales are deliberately NOT applied: keeping the levels exact integers in
/// float lets a GEMM over them produce the same products as an int8 MAC
/// pipeline, with the per-channel scale applied once after accumulation.
std::vector<float> dequantize_levels(const int8_t* levels, size_t count);

/// Max |w| per output channel (dim 0) of a conv/linear weight.
std::vector<float> per_channel_absmax(const Tensor& weight);

/// Per-output-channel fake quantization (scales.size() == weight.size(0)).
void fake_quant_per_channel_(Tensor& weight, const std::vector<float>& scales,
                             int bits);

/// Mean squared quantization error between a tensor and its quantized copy.
float quantization_mse(const Tensor& original, const Tensor& quantized);

/// Streaming activation-range observer. Tracks the running absmax and a
/// magnitude histogram (range doubles when exceeded, counts merge), so both
/// min-max and clipped percentile calibration come from one pass.
class ActObserver {
 public:
  explicit ActObserver(int num_bins = 1024);

  void observe(const Tensor& x);

  int64_t samples() const { return samples_; }
  float absmax() const { return absmax_; }
  /// Magnitude below which `fraction` of observed |x| falls (histogram
  /// resolution limited). fraction = 1 returns absmax.
  float percentile_absmax(float fraction) const;

 private:
  void grow_range(float needed);

  std::vector<int64_t> bins_;
  float range_ = 0.0f;  // bins cover [0, range_)
  float absmax_ = 0.0f;
  int64_t samples_ = 0;
};

}  // namespace nb::quant
