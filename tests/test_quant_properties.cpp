// Property-style sweeps for the quantization primitives: error bounds and
// orderings that must hold for any tensor, bit width, and channel layout.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "quant/quantize.h"
#include "tensor/rng.h"
#include "tensor/tensor_ops.h"

namespace nb::quant {
namespace {

class BitWidthSweep : public ::testing::TestWithParam<int> {};

TEST_P(BitWidthSweep, ErrorBoundedByHalfScale) {
  const int bits = GetParam();
  Rng rng(100 + bits, 1);
  Tensor t({512});
  fill_uniform(t, rng, -2.0f, 2.0f);
  const Tensor original = t.clone();
  const float scale = scale_from_absmax(2.0f, bits);
  fake_quant_(t, scale, bits);
  for (int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_LE(std::fabs(t.data()[i] - original.data()[i]),
              0.5f * scale + 1e-6f);
  }
}

TEST_P(BitWidthSweep, GridValuesAreMultiplesOfScale) {
  const int bits = GetParam();
  Rng rng(200 + bits, 1);
  Tensor t({256});
  fill_uniform(t, rng, -1.0f, 1.0f);
  const float scale = scale_from_absmax(1.0f, bits);
  fake_quant_(t, scale, bits);
  for (int64_t i = 0; i < t.numel(); ++i) {
    const float level = t.data()[i] / scale;
    EXPECT_NEAR(level, std::round(level), 1e-3f);
    EXPECT_LE(std::fabs(level),
              static_cast<float>(qmax_for_bits(bits)) + 0.5f);
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, BitWidthSweep,
                         ::testing::Values(2, 4, 6, 8, 12, 16));

TEST(QuantProperties, PerChannelNeverWorseThanPerTensor) {
  // Give each output channel a very different magnitude: a single
  // per-tensor scale must waste grid range on the small channels.
  Rng rng(11, 1);
  Tensor w({6, 4, 3, 3});
  for (int64_t o = 0; o < 6; ++o) {
    const float magnitude = std::pow(4.0f, static_cast<float>(o) - 3.0f);
    for (int64_t i = 0; i < 36; ++i) {
      w.data()[o * 36 + i] = rng.uniform(-magnitude, magnitude);
    }
  }
  const Tensor original = w.clone();

  Tensor per_tensor = w.clone();
  fake_quant_(per_tensor, scale_from_absmax(per_tensor.abs_max(), 8), 8);

  Tensor per_channel = w.clone();
  const std::vector<float> absmax = per_channel_absmax(per_channel);
  std::vector<float> scales;
  for (float m : absmax) scales.push_back(scale_from_absmax(m, 8));
  fake_quant_per_channel_(per_channel, scales, 8);

  EXPECT_LE(quantization_mse(original, per_channel),
            quantization_mse(original, per_tensor));
  // And strictly better given the engineered magnitude spread.
  EXPECT_LT(quantization_mse(original, per_channel),
            0.5f * quantization_mse(original, per_tensor) + 1e-12f);
}

TEST(QuantProperties, ObserverPercentileMonotoneInFraction) {
  ActObserver obs;
  Rng rng(13, 1);
  Tensor t({8192});
  fill_normal(t, rng, 0.0f, 1.0f);
  obs.observe(t);
  float prev = 0.0f;
  for (float f : {0.5f, 0.9f, 0.99f, 0.999f, 1.0f}) {
    const float v = obs.percentile_absmax(f);
    EXPECT_GE(v, prev - 1e-6f);
    prev = v;
  }
}

TEST(QuantProperties, ObserverScaleInvariantToBatching) {
  // Observing one big batch or the same values split into chunks must give
  // identical min-max statistics (histograms may rebin, absmax never).
  Rng rng(17, 1);
  Tensor all({4096});
  fill_normal(all, rng, 0.0f, 2.0f);
  ActObserver one;
  one.observe(all);
  ActObserver chunked;
  for (int64_t c = 0; c < 4; ++c) {
    chunked.observe(all.narrow0(c * 1024, (c + 1) * 1024));
  }
  EXPECT_FLOAT_EQ(one.absmax(), chunked.absmax());
  EXPECT_EQ(one.samples(), chunked.samples());
}

// Inputs that stress the shared rounding core of the two quantizers at one
// (bits, scale): every grid point k * scale and exact tie (k + 0.5) * scale
// across twice the clamp range (strided beyond 8 bits; pow2 scales make
// x / scale reproduce k + 0.5 exactly), values in (-scale/2, 0) that round
// to a -0.0 level, signed zeros, saturating and denormal magnitudes, then
// seeded uniform values. All finite: quantize_levels_u8 requires it.
std::vector<float> rounding_sweep_inputs(int bits, float scale) {
  const int64_t q = qmax_for_bits(bits);
  std::vector<float> src;
  const auto grid_and_tie = [&](int64_t k) {
    src.push_back((static_cast<float>(k) + 0.5f) * scale);
    src.push_back(static_cast<float>(k) * scale);
  };
  const int64_t step = std::max<int64_t>(1, q / 128);
  for (int64_t k = -2 * q; k <= 2 * q; k += step) grid_and_tie(k);
  for (const int64_t k : {-q - 1, -q, q - 1, q}) grid_and_tie(k);
  for (const float f : {0.25f, 1e-3f, 1e-7f}) src.push_back(-f * scale);
  src.push_back(-std::nextafter(0.5f * scale, 0.0f));
  const float denorm = std::numeric_limits<float>::denorm_min();
  for (const float v : {0.0f, -0.0f, 1e30f, -1e30f, denorm, -denorm, 1e-40f,
                        -1e-40f}) {
    src.push_back(v);
  }
  Rng rng(1234 + bits, 7);
  for (int64_t i = 0; i < 97; ++i) {
    src.push_back((rng.uniform() * 2.0f - 1.0f) * 4.0f *
                  static_cast<float>(q) * scale);
  }
  return src;
}

constexpr float kSweepScales[] = {0.25f, 1.0f / 64.0f, 0.0375f, 3.1f};

float from_bits(uint32_t u) {
  float f;
  std::memcpy(&f, &u, sizeof f);
  return f;
}

uint32_t to_bits(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof u);
  return u;
}

TEST(QuantProperties, OffsetU8LevelsMatchPortableExpressionBitwise) {
  // quantize_levels_u8 dispatches to an AVX2 instance on x86 that MUST be
  // byte-identical to the portable expression
  //   clamp(round(x / scale), -q, q) + 128
  // including round's half-away-from-zero ties (the SIMD round instruction
  // ties to even and is repaired) and the clamp on saturating magnitudes.
  // Buffer lengths run around the 16-wide vector step.
  for (const int bits : {2, 4, 8}) {
    const int64_t q = qmax_for_bits(bits);
    for (const float scale : kSweepScales) {
      const std::vector<float> src = rounding_sweep_inputs(bits, scale);
      // Lengths around the vector width: full 16-blocks plus every tail.
      for (size_t n = src.size() - 19; n <= src.size(); ++n) {
        std::vector<uint8_t> got(n, 0xAA);
        quantize_levels_u8(src.data(), got.data(), static_cast<int64_t>(n),
                           scale, bits);
        for (size_t i = 0; i < n; ++i) {
          const float level = std::round(src[i] / scale);
          const float clamped =
              std::clamp(level, -static_cast<float>(q), static_cast<float>(q));
          const auto want =
              static_cast<uint8_t>(static_cast<int32_t>(clamped) + 128);
          ASSERT_EQ(got[i], want)
              << "x=" << src[i] << " scale=" << scale << " bits=" << bits
              << " i=" << i << " n=" << n;
        }
      }
    }
  }
}

TEST(QuantProperties, FakeQuantMatchesPortableExpressionBitwise) {
  // fake_quant_buffer dispatches to an AVX2 instance on x86 that shares
  // quantize_levels_u8's rounding core but, unlike it, hands -0.0, NaN and
  // +-inf results back to the caller. It must reproduce
  //   clamp(round(x / scale), -q, q) * scale
  // to the bit for every float: the tie repair must not turn a -0.0 level
  // into +0.0, and the clamp must pass a NaN through with its payload.
  // The float plan and the reference interpreter both run this function,
  // so their agreement cannot catch a divergence here — this sweep does.
  const std::vector<float> specials = {
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      from_bits(0x7fc12345u),  // quiet NaN with a payload
      from_bits(0xffc0abcdu),  // negative quiet NaN with a payload
      from_bits(0x7f812345u),  // signaling NaN (quieted by the division)
  };
  for (const int bits : {2, 4, 8, 12, 16}) {
    const float q = static_cast<float>(qmax_for_bits(bits));
    for (const float scale : kSweepScales) {
      // The non-finite values go first, so they run through the vector
      // body at every length below, not only through the scalar tail.
      std::vector<float> src = specials;
      const std::vector<float> sweep = rounding_sweep_inputs(bits, scale);
      src.insert(src.end(), sweep.begin(), sweep.end());
      // Lengths around the vector width: full 8-blocks plus every tail.
      for (size_t n = src.size() - 19; n <= src.size(); ++n) {
        std::vector<float> got(src.begin(),
                               src.begin() + static_cast<int64_t>(n));
        fake_quant_buffer(got.data(), static_cast<int64_t>(n), scale, bits);
        for (size_t i = 0; i < n; ++i) {
          const float want = std::clamp(std::round(src[i] / scale), -q, q) *
                             scale;
          ASSERT_EQ(to_bits(got[i]), to_bits(want))
              << "x=" << src[i] << " (0x" << std::hex << to_bits(src[i])
              << std::dec << ") scale=" << scale << " bits=" << bits
              << " i=" << i << " n=" << n << " got=" << got[i]
              << " want=" << want;
        }
      }
    }
  }
}

}  // namespace
}  // namespace nb::quant
