#include "quant/quantize.h"

#include <algorithm>
#include <cmath>

#include "tensor/requantize.h"

namespace nb::quant {

#if defined(NB_QUANT_AVX2)
namespace detail {
// Each quantizes the leading whole vector blocks and returns how many
// elements that was; the caller's scalar loop does the rest.
int64_t fake_quant_avx2(float* data, int64_t n, float scale, float q);
int64_t quantize_levels_u8_avx2(const float* src, uint8_t* dst, int64_t n,
                                float scale, float q);
}  // namespace detail

namespace {
bool use_avx2() {
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported;
}
}  // namespace
#endif

int64_t qmax_for_bits(int bits) {
  NB_CHECK(bits >= 2 && bits <= 16, "quant: bits must be in [2, 16]");
  return (int64_t{1} << (bits - 1)) - 1;
}

float scale_from_absmax(float absmax, int bits) {
  const float q = static_cast<float>(qmax_for_bits(bits));
  if (absmax <= 0.0f) {
    return 1e-8f;
  }
  return absmax / q;
}

void fake_quant_(Tensor& t, float scale, int bits) {
  fake_quant_buffer(t.data(), t.numel(), scale, bits);
}

void fake_quant_buffer(float* data, int64_t n, float scale, int bits) {
  NB_CHECK(scale > 0.0f, "quant: non-positive scale");
  const float q = static_cast<float>(qmax_for_bits(bits));
  // Every quantize pass of the float plan, the reference interpreter and
  // QuantConv2d runs here; both lane types run the one quantizer of
  // tensor/requantize.h, which quantize_levels_u8 runs too.
  int64_t i = 0;
#if defined(NB_QUANT_AVX2)
  if (use_avx2()) i = detail::fake_quant_avx2(data, n, scale, q);
#endif
  for (; i < n; ++i) data[i] = fake_quant<ScalarLanes>(data[i], scale, q);
}

void quantize_levels_u8(const float* src, uint8_t* dst, int64_t n, float scale,
                        int bits) {
  NB_CHECK(scale > 0.0f, "quant: non-positive scale");
  NB_CHECK(bits <= 8, "quantize_levels_u8: bits must fit int8");
  const float q = static_cast<float>(qmax_for_bits(bits));
  // This pass runs once per conv/linear input on the int8 backend, so it is
  // bandwidth-critical; both lane types run the one quantizer of
  // tensor/requantize.h (see quantize_avx2.cpp).
  int64_t i = 0;
#if defined(NB_QUANT_AVX2)
  if (use_avx2()) i = detail::quantize_levels_u8_avx2(src, dst, n, scale, q);
#endif
  for (; i < n; ++i) {
    const float level = quant_level<ScalarLanes>(src[i], scale, q);
    dst[i] = static_cast<uint8_t>(static_cast<int32_t>(level) + 128);
  }
}

std::vector<float> dequantize_levels(const int8_t* levels, size_t count) {
  std::vector<float> out(count);
  for (size_t i = 0; i < count; ++i) {
    out[i] = static_cast<float>(levels[i]);
  }
  return out;
}

std::vector<float> per_channel_absmax(const Tensor& weight) {
  NB_CHECK(weight.dim() >= 2, "per_channel_absmax expects weight rank >= 2");
  const int64_t cout = weight.size(0);
  const int64_t stride = weight.numel() / cout;
  std::vector<float> out(static_cast<size_t>(cout), 0.0f);
  const float* p = weight.data();
  for (int64_t o = 0; o < cout; ++o) {
    float m = 0.0f;
    const float* row = p + o * stride;
    for (int64_t i = 0; i < stride; ++i) {
      m = std::max(m, std::fabs(row[i]));
    }
    out[static_cast<size_t>(o)] = m;
  }
  return out;
}

void fake_quant_per_channel_(Tensor& weight, const std::vector<float>& scales,
                             int bits) {
  const int64_t cout = weight.size(0);
  NB_CHECK(static_cast<int64_t>(scales.size()) == cout,
           "fake_quant_per_channel_: scale count != out channels");
  const int64_t stride = weight.numel() / cout;
  float* p = weight.data();
  for (int64_t o = 0; o < cout; ++o) {
    const float s = scales[static_cast<size_t>(o)];
    NB_CHECK(s > 0.0f, "fake_quant_per_channel_: non-positive scale");
    fake_quant_buffer(p + o * stride, stride, s, bits);
  }
}

float quantization_mse(const Tensor& original, const Tensor& quantized) {
  NB_CHECK(original.same_shape(quantized), "quantization_mse: shape mismatch");
  const float* a = original.data();
  const float* b = quantized.data();
  double sum = 0.0;
  const int64_t n = original.numel();
  for (int64_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    sum += d * d;
  }
  return n > 0 ? static_cast<float>(sum / static_cast<double>(n)) : 0.0f;
}

ActObserver::ActObserver(int num_bins) {
  NB_CHECK(num_bins >= 16, "ActObserver: need at least 16 bins");
  bins_.assign(static_cast<size_t>(num_bins), 0);
}

void ActObserver::grow_range(float needed) {
  if (range_ == 0.0f) {
    range_ = needed;
    return;
  }
  // Double the covered range (merging bin pairs) until `needed` fits, so
  // earlier counts stay in the right magnitude buckets.
  while (range_ < needed) {
    const size_t n = bins_.size();
    for (size_t i = 0; i < n / 2; ++i) {
      bins_[i] = bins_[2 * i] + bins_[2 * i + 1];
    }
    std::fill(bins_.begin() + static_cast<int64_t>(n / 2), bins_.end(),
              int64_t{0});
    range_ *= 2.0f;
  }
}

void ActObserver::observe(const Tensor& x) {
  const float* p = x.data();
  const int64_t n = x.numel();
  float batch_max = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    batch_max = std::max(batch_max, std::fabs(p[i]));
  }
  if (batch_max > absmax_) {
    absmax_ = batch_max;
  }
  if (batch_max > range_) {
    grow_range(batch_max * 1.0001f);  // epsilon so the max lands in-range
  }
  if (range_ == 0.0f) {
    samples_ += n;
    return;  // all zeros: only bin 0 would be hit anyway
  }
  const float inv_width =
      static_cast<float>(bins_.size()) / range_;
  for (int64_t i = 0; i < n; ++i) {
    const float mag = std::fabs(p[i]);
    size_t bin = static_cast<size_t>(mag * inv_width);
    bin = std::min(bin, bins_.size() - 1);
    ++bins_[bin];
  }
  samples_ += n;
}

float ActObserver::percentile_absmax(float fraction) const {
  NB_CHECK(fraction > 0.0f && fraction <= 1.0f,
           "percentile_absmax: fraction in (0, 1]");
  if (samples_ == 0 || range_ == 0.0f) {
    return absmax_;
  }
  if (fraction >= 1.0f) {
    return absmax_;
  }
  // Epsilon guards float-representation drift (0.8f * 5 is 4 + 3e-8, which
  // must still mean "4 samples", not 5).
  const auto target = static_cast<int64_t>(std::ceil(
      static_cast<double>(fraction) * static_cast<double>(samples_) - 1e-6));
  int64_t cumulative = 0;
  const float width = range_ / static_cast<float>(bins_.size());
  for (size_t i = 0; i < bins_.size(); ++i) {
    cumulative += bins_[i];
    if (cumulative >= target) {
      return width * static_cast<float>(i + 1);  // bin upper edge
    }
  }
  return absmax_;
}

}  // namespace nb::quant
