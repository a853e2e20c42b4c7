// Property-style sweeps for the quantization primitives: error bounds and
// orderings that must hold for any tensor, bit width, and channel layout.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "quant/quantize.h"
#include "tensor/requantize.h"
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
  // ties to even, so the vector lanes round in trunc form) and the clamp on
  // saturating magnitudes.
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
  // to the bit for every float: the rounding must not turn a -0.0 level
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

// ---- the one quantizer core -----------------------------------------------

// Holds every implementation of the quantizer to the scalar std::
// expression over x at (scale, bits), bit for bit: fake_quant_buffer (on a
// CPU with AVX2 its vector body is fake_quant<Avx2Lanes>; since x.size() is
// not a multiple of 8, its scalar tail runs too), fake_quant<ScalarLanes>
// and, when `levels_u8` (bits <= 8, finite x), quantize_levels_u8, whose
// vector body is quant_level<Avx2Lanes>. Returns the mismatch count and
// reports the first few.
int64_t check_quantizer_core(const std::vector<float>& x, float scale,
                             int bits, bool levels_u8) {
  const float q = static_cast<float>(qmax_for_bits(bits));
  const size_t n = x.size();
  thread_local std::vector<float> buffer;
  thread_local std::vector<uint8_t> bytes;
  buffer.assign(x.begin(), x.end());
  fake_quant_buffer(buffer.data(), static_cast<int64_t>(n), scale, bits);
  bytes.assign(n, 0);
  if (levels_u8) {
    quantize_levels_u8(x.data(), bytes.data(), static_cast<int64_t>(n), scale,
                       bits);
  }
  int64_t bad = 0;
  const auto expect_bits = [&](const char* what, size_t i, uint32_t got,
                               uint32_t want) {
    if (got == want) return;
    if (++bad <= 5) {
      ADD_FAILURE() << what << ": x=" << x[i] << " (0x" << std::hex
                    << to_bits(x[i]) << ") got 0x" << got << " want 0x"
                    << want << std::dec << " scale=" << scale
                    << " bits=" << bits;
    }
  };
  for (size_t i = 0; i < n; ++i) {
    const float level = std::clamp(std::round(x[i] / scale), -q, q);
    const uint32_t want = to_bits(level * scale);
    expect_bits("fake_quant_buffer", i, to_bits(buffer[i]), want);
    expect_bits("fake_quant<ScalarLanes>", i,
                to_bits(fake_quant<ScalarLanes>(x[i], scale, q)), want);
    if (levels_u8) {
      expect_bits("quantize_levels_u8", i, bytes[i],
                  static_cast<uint32_t>(static_cast<int32_t>(level) + 128));
    }
  }
  return bad;
}

// Runs check_quantizer_core over the floats with bit patterns [lo, hi],
// with the sign bit `sign`, in batches whose length leaves a scalar tail.
int64_t check_quantizer_range(uint32_t lo, uint32_t hi, uint32_t sign,
                              float scale, int bits, bool levels_u8) {
  constexpr uint32_t kBatch = (1u << 16) + 3;
  int64_t bad = 0;
  std::vector<float> x;
  for (uint64_t u = lo; u <= hi; u += kBatch) {
    const uint64_t end = std::min<uint64_t>(hi + uint64_t{1}, u + kBatch);
    x.resize(static_cast<size_t>(end - u));
    for (size_t j = 0; j < x.size(); ++j) {
      x[j] = from_bits(sign | static_cast<uint32_t>(u + j));
    }
    bad += check_quantizer_core(x, scale, bits, levels_u8);
  }
  return bad;
}

// Runs check_quantizer_core at scale 1/4 (a power of two, so x / scale is t
// exactly) over the 256 quotients on either side of every tie k + 0.5 with
// k <= q, both signs; the windows at k = q cross the clamp at q + 0.5.
int64_t check_tie_windows(int bits) {
  const int64_t q = qmax_for_bits(bits);
  int64_t bad = 0;
  std::vector<float> x;
  for (int64_t k = 0; k <= q; ++k) {
    const uint32_t tie = to_bits(static_cast<float>(k) + 0.5f);
    for (uint32_t u = tie - 256; u <= tie + 256; ++u) {
      x.push_back(from_bits(u) * 0.25f);
      x.push_back(-from_bits(u) * 0.25f);
    }
    if (x.size() >= (1u << 16)) {
      bad += check_quantizer_core(x, 0.25f, bits, bits <= 8);
      x.clear();
    }
  }
  x.push_back(0.0f);  // an odd length leaves a scalar tail
  return bad + check_quantizer_core(x, 0.25f, bits, bits <= 8);
}

TEST(QuantProperties, QuantizerCoreMatchesScalarNearEveryTieAndOnSpecials) {
  // The quantizer of tensor/requantize.h rounds half away from zero as
  // trunc(t + copysign(0x1.fffffep-2f, t)) on AVX2 lanes and with
  // std::round on scalar lanes; every quantize pass runs it. At bits 16 the scale is 1, so the inputs are the quotients t
  // themselves: every float with |t| in [0.25, 8]. At bits 2 to 8 and 16
  // the inputs are the tie windows of check_tie_windows. Then +-0,
  // subnormals, +-inf and NaN payloads at three scales. The three large
  // sweeps (each sign of [0.25, 8], the bits-16 windows) run on threads of
  // their own (the checks keep their buffers thread-local), so the ~120 M
  // quotients take about a second. An exhaustive run over all 2^32
  // quotients at q = 1, 7, 127 and 32767 is recorded in CHANGES.md.
  int64_t bad_positive = 0, bad_negative = 0, bad_ties16 = 0;
  {
    std::jthread positive([&] {
      bad_positive = check_quantizer_range(to_bits(0.25f), to_bits(8.0f), 0u,
                                           1.0f, 16, false);
    });
    std::jthread negative([&] {
      bad_negative = check_quantizer_range(
          to_bits(0.25f), to_bits(8.0f), 0x80000000u, 1.0f, 16, false);
    });
    std::jthread ties16([&] { bad_ties16 = check_tie_windows(16); });
  }
  int64_t bad = bad_positive + bad_negative + bad_ties16;
  for (const int bits : {2, 3, 4, 5, 6, 7, 8}) bad += check_tie_windows(bits);
  const float denorm = std::numeric_limits<float>::denorm_min();
  const std::vector<float> finite = {0.0f,    -0.0f,   denorm,
                                     -denorm, 1e-40f,  -1e-40f,
                                     from_bits(0x007fffffu),
                                     from_bits(0x807fffffu),
                                     std::numeric_limits<float>::max(),
                                     std::numeric_limits<float>::lowest(),
                                     from_bits(0x00800000u)};
  std::vector<float> specials = finite;
  for (const uint32_t u : {0x7f800000u, 0xff800000u, 0x7fc12345u, 0xffc0abcdu,
                           0x7f812345u, 0xff800001u, 0x7fffffffu}) {
    specials.push_back(from_bits(u));
  }
  for (const int bits : {2, 8, 16}) {
    for (const float scale : {1.0f, 0.0375f, 3.1f}) {
      // Repeated so the specials run through the vector bodies too.
      std::vector<float> x;
      for (int r = 0; r < 3; ++r) {
        x.insert(x.end(), specials.begin(), specials.end());
      }
      bad += check_quantizer_core(x, scale, bits, false);
      std::vector<float> y;
      for (int r = 0; r < 3; ++r) y.insert(y.end(), finite.begin(), finite.end());
      bad += check_quantizer_core(y, scale, bits, bits <= 8);
    }
  }
  EXPECT_EQ(bad, 0);
}

}  // namespace
}  // namespace nb::quant
