// Kernel sweep for the depthwise planes, both element types. Every
// instance this CPU runs — the int8 generic scalar, AVX2 and VNNI
// phase-plane kernels, and the float scalar template and AVX2 phase-plane
// kernel — is checked over every kernel size, stride, padding, width and
// height class the inference plans can produce: each int8 instance must be
// memcmp-equal to a naive bounds-checked loop, and each float instance,
// like the routed depthwise_plane, memcmp-equal to the scalar template
// (whose rounding chain depthwise.h specifies). The block entry's
// instances (eight planes to a vector) are held to the same scalar
// templates plane by plane, the int8 one followed by requantize_row, at
// every lane count and at one and four threads. Each input sits in an
// exactly sized heap buffer and each output in an exactly sized one, so
// a sanitizer build turns any over-read or over-write of the caller's
// memory into a failure; in plain builds, sentinel words after the outputs
// catch stray writes.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "export/qmodel.h"
#include "tensor/depthwise.h"
#include "tensor/im2col.h"
#include "tensor/requantize.h"
#include "tensor/rng.h"
#include "tensor/threadpool.h"
#include "test_util.h"

namespace nb {
namespace {

void naive_depthwise_s8(const uint8_t* img, const int8_t* ker, int32_t* out,
                        int64_t h, int64_t w, int64_t oh, int64_t ow,
                        int64_t k, int64_t s, int64_t pad) {
  for (int64_t oy = 0; oy < oh; ++oy) {
    for (int64_t ox = 0; ox < ow; ++ox) {
      int32_t acc = 0;
      for (int64_t ki = 0; ki < k; ++ki) {
        for (int64_t kj = 0; kj < k; ++kj) {
          const int64_t iy = oy * s + ki - pad;
          const int64_t ix = ox * s + kj - pad;
          if (iy < 0 || iy >= h || ix < 0 || ix >= w) continue;
          acc += ker[ki * k + kj] * (img[iy * w + ix] - 128);
        }
      }
      out[oy * ow + ox] = acc;
    }
  }
}

constexpr size_t kGuard = 8;  // sentinel words after every output

enum class Fill { kRandom, kZeroBytes, kFullBytes, kAlternating };

const char* fill_name(Fill f) {
  switch (f) {
    case Fill::kRandom:
      return "random";
    case Fill::kZeroBytes:
      return "all-0 x +127";
    case Fill::kFullBytes:
      return "all-255 x -127";
    case Fill::kAlternating:
      return "0/255 x +-127";
  }
  return "?";
}

// Runs every instance on one geometry and data pattern; returns the number
// of instances that disagreed with the naive loop (each is also reported).
int check_geometry(Rng& rng, int64_t h, int64_t w, int64_t k, int64_t s,
                   int64_t pad, Fill fill) {
  const int64_t oh = conv_out_size(h, k, s, pad);
  const int64_t ow = conv_out_size(w, k, s, pad);
  if (oh <= 0 || ow <= 0) return 0;
  const auto n_in = static_cast<size_t>(h * w);
  const auto n_ker = static_cast<size_t>(k * k);
  const auto n_out = static_cast<size_t>(oh * ow);
  // new[] of exactly n elements: no slack for an over-read to hide in.
  std::unique_ptr<uint8_t[]> img(new uint8_t[n_in]);
  std::unique_ptr<int8_t[]> ker(new int8_t[n_ker]);
  for (size_t i = 0; i < n_in; ++i) {
    switch (fill) {
      case Fill::kRandom:
        img[i] = static_cast<uint8_t>(rng.randint(256));
        break;
      case Fill::kZeroBytes:
        img[i] = 0;
        break;
      case Fill::kFullBytes:
        img[i] = 255;
        break;
      case Fill::kAlternating:
        img[i] = (i % 3 == 0) ? 0 : 255;
        break;
    }
  }
  for (size_t i = 0; i < n_ker; ++i) {
    switch (fill) {
      case Fill::kRandom:
        ker[i] = static_cast<int8_t>(static_cast<int>(rng.randint(256)) - 128);
        break;
      case Fill::kZeroBytes:
        ker[i] = 127;
        break;
      case Fill::kFullBytes:
        ker[i] = -127;
        break;
      case Fill::kAlternating:
        ker[i] = (i % 2 == 0) ? 127 : -127;
        break;
    }
  }
  std::vector<int32_t> want(n_out);
  naive_depthwise_s8(img.get(), ker.get(), want.data(), h, w, oh, ow, k, s,
                     pad);

  constexpr int32_t kSentinel = 0x5a5a5a5a;
  int bad = 0;
  for (int i = 0; i < depthwise_s8_instance_count(); ++i) {
    std::unique_ptr<int32_t[]> got(new int32_t[n_out + kGuard]);
    for (size_t j = 0; j < n_out + kGuard; ++j) got[j] = kSentinel;
    depthwise_s8_run_instance(i, img.get(), ker.get(), got.get(), h, w, oh,
                              ow, k, s, pad);
    const bool equal =
        std::memcmp(got.get(), want.data(), n_out * sizeof(int32_t)) == 0;
    bool guard_ok = true;
    for (size_t j = n_out; j < n_out + kGuard; ++j) {
      guard_ok = guard_ok && got[j] == kSentinel;
    }
    if (!equal || !guard_ok) {
      ++bad;
      ADD_FAILURE() << depthwise_s8_instance_name(i) << " h=" << h
                    << " w=" << w << " k=" << k << " s=" << s
                    << " pad=" << pad << " data=" << fill_name(fill)
                    << (equal ? "" : " (values differ)")
                    << (guard_ok ? "" : " (wrote past the output)");
    }
  }
  return bad;
}

// The geometry sweep both element types run: k in {1,3,5,7} x s in {1,2}
// x pad in {0, (k-1)/2, k-1} x widths 1..40 at heights {1, k, 40} —
// stride-2 parity splits of odd and even widths, planes narrower than one
// vector, and kernels wider than the plane. Stops early once more than 20
// checks have failed; returns the failure count.
template <typename Fn>
int for_each_sweep_geometry(Fn fn) {
  int bad = 0;
  for (int64_t k : {1, 3, 5, 7}) {
    std::vector<int64_t> pads = {0};
    if ((k - 1) / 2 > 0) pads.push_back((k - 1) / 2);
    if (k - 1 > (k - 1) / 2) pads.push_back(k - 1);
    for (int64_t s : {1, 2}) {
      for (int64_t pad : pads) {
        for (int64_t h : {int64_t{1}, k, int64_t{40}}) {
          for (int64_t w = 1; w <= 40; ++w) {
            bad += fn(h, w, k, s, pad);
            if (bad > 20) return bad;
          }
        }
      }
    }
  }
  return bad;
}

TEST(DepthwiseS8, EveryInstanceMatchesNaiveOverTheGeometrySweep) {
  ASSERT_GE(depthwise_s8_instance_count(), 1);
  Rng rng(20261017);
  EXPECT_EQ(for_each_sweep_geometry([&](int64_t h, int64_t w, int64_t k,
                                        int64_t s, int64_t pad) {
              return check_geometry(rng, h, w, k, s, pad, Fill::kRandom);
            }),
            0);
}

TEST(DepthwiseS8, SaturatingDataMatchesNaiveOnEveryInstance) {
  // Extremes of the exact-int32 contract: every activation at level -128
  // or +127 against +-127 kernels, over the same geometry classes as the
  // graphs (square planes from 1x1 to 40x40 at every (k, s, pad)).
  Rng rng(7);
  int bad = 0;
  for (Fill fill : {Fill::kZeroBytes, Fill::kFullBytes, Fill::kAlternating}) {
    for (int64_t k : {1, 3, 5, 7}) {
      for (int64_t s : {1, 2}) {
        for (int64_t pad : {int64_t{0}, (k - 1) / 2, k - 1}) {
          for (int64_t hw = 1; hw <= 40; ++hw) {
            bad += check_geometry(rng, hw, hw, k, s, pad, fill);
            if (bad > 20) FAIL() << "too many mismatches, stopping";
          }
        }
      }
    }
  }
}

TEST(DepthwiseS8, KernelWiderThanPaddedPlaneStillYieldsItsOneOutput) {
  // conv_out_size truncates toward zero, so a 5x5 kernel at stride 2 over
  // an unpadded 4x4 plane has one output whose taps run past the plane;
  // the phase planes must be sized for the kernel, not just the image.
  ASSERT_EQ(conv_out_size(4, 5, 2, 0), 1);
  Rng rng(3);
  for (Fill fill : {Fill::kRandom, Fill::kZeroBytes, Fill::kFullBytes}) {
    EXPECT_EQ(check_geometry(rng, 4, 4, 5, 2, 0, fill), 0);
    EXPECT_EQ(check_geometry(rng, 2, 3, 7, 2, 0, fill), 0);
    EXPECT_EQ(check_geometry(rng, 6, 6, 7, 2, 1, fill), 0);
  }
}

TEST(DepthwiseS8, StridesAndKernelsBeyondTheGraphsStayExact) {
  // The plans only run k in {3,5,7} at s in {1,2}; a loaded model may ask
  // for more. Stride 3 takes the scalar phase copy and k = 9 splits each
  // phase row into two runs; k = 25 exceeds the vector run table and must
  // fall back to the scalar instance.
  Rng rng(5);
  int bad = 0;
  for (int64_t w : {1, 7, 16, 33}) {
    bad += check_geometry(rng, 19, w, 3, 3, 1, Fill::kRandom);
    bad += check_geometry(rng, 19, w, 9, 1, 4, Fill::kRandom);
    bad += check_geometry(rng, 19, w, 9, 2, 4, Fill::kRandom);
    bad += check_geometry(rng, 30, w, 25, 1, 12, Fill::kRandom);
  }
  EXPECT_EQ(bad, 0);
}

TEST(DepthwiseS8, DispatchedKernelIsTheLastListedInstance) {
  ASSERT_GE(depthwise_s8_instance_count(), 1);
  EXPECT_EQ(std::string(depthwise_s8_instance_name(0)), "dw-s8-generic");
  EXPECT_EQ(std::string(depthwise_s8_kernel_name()),
            std::string(depthwise_s8_instance_name(
                depthwise_s8_instance_count() - 1)));
}

// ---------------------------------------------------------------- float

using nb::testing::same_bits;

// Runs every float instance and the routed depthwise_plane on one plane
// and compares each against the scalar template (instance 0); returns how
// many disagreed (each is also reported).
int check_f32(const float* img, const float* ker, float bias, int64_t h,
              int64_t w, int64_t k, int64_t s, int64_t pad,
              const char* data) {
  const int64_t oh = conv_out_size(h, k, s, pad);
  const int64_t ow = conv_out_size(w, k, s, pad);
  if (oh <= 0 || ow <= 0) return 0;
  const auto n_out = static_cast<size_t>(oh * ow);
  const float sentinel = std::numeric_limits<float>::max();
  const auto run = [&](int instance) {
    std::unique_ptr<float[]> out(new float[n_out + kGuard]);
    for (size_t j = 0; j < n_out + kGuard; ++j) out[j] = sentinel;
    if (instance < 0) {
      depthwise_plane(img, ker, out.get(), h, w, oh, ow, k, s, pad, bias);
    } else {
      depthwise_run_instance(instance, img, ker, out.get(), h, w, oh, ow, k,
                             s, pad, bias);
    }
    return out;
  };
  const std::unique_ptr<float[]> want = run(0);
  int bad = 0;
  for (int i = -1; i < depthwise_instance_count(); ++i) {
    const std::unique_ptr<float[]> got = run(i);
    bool equal = true;
    for (size_t j = 0; j < n_out; ++j) {
      equal = equal && same_bits(got[j], want[j]);
    }
    bool guard_ok = true;
    for (size_t j = n_out; j < n_out + kGuard; ++j) {
      guard_ok = guard_ok && got[j] == sentinel;
    }
    if (!equal || !guard_ok) {
      ++bad;
      ADD_FAILURE() << (i < 0 ? "depthwise_plane" : depthwise_instance_name(i))
                    << " h=" << h << " w=" << w << " k=" << k << " s=" << s
                    << " pad=" << pad << " bias=" << bias << " data=" << data
                    << (equal ? "" : " (values differ)")
                    << (guard_ok ? "" : " (wrote past the output)");
    }
  }
  return bad;
}

// Random non-power-of-two inputs, kernel and a nonzero bias, so every
// product and partial sum rounds.
int check_f32_random(Rng& rng, int64_t h, int64_t w, int64_t k, int64_t s,
                     int64_t pad) {
  std::unique_ptr<float[]> img(new float[static_cast<size_t>(h * w)]);
  std::unique_ptr<float[]> ker(new float[static_cast<size_t>(k * k)]);
  for (int64_t i = 0; i < h * w; ++i) img[i] = rng.normal() * 1.7f;
  for (int64_t i = 0; i < k * k; ++i) ker[i] = rng.normal() * 0.3f;
  const float bias = rng.normal() + 0.1f;
  return check_f32(img.get(), ker.get(), bias, h, w, k, s, pad, "random");
}

TEST(Depthwise, EveryInstanceMatchesScalarTemplateOverTheGeometrySweep) {
  ASSERT_GE(depthwise_instance_count(), 1);
  Rng rng(20261017);
  EXPECT_EQ(for_each_sweep_geometry([&](int64_t h, int64_t w, int64_t k,
                                        int64_t s, int64_t pad) {
              return check_f32_random(rng, h, w, k, s, pad);
            }),
            0);
}

TEST(Depthwise, SpecialValuesMatchScalarTemplateBitwise) {
  // NaN, +-inf, -0.0 and denormals in every pixel within k of a border, so
  // each one meets the border taps the scalar template skips and the phase
  // layout adds as ker * +0.0. Three chains per plane: a +0.0 bias (the
  // plan's), a -0.0 bias, and a kernel with one inf or NaN tap — the last
  // two are the chains a zero border tap would change, which the vector
  // instance must hand to the scalar template.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float specials[] = {nan,    -nan,          inf,   -inf,  -0.0f,
                            0.0f,   denorm * 3.0f, -denorm, 1e-39f, -3e-39f,
                            -1.25f, 0.7f};
  constexpr size_t kSpecials = sizeof(specials) / sizeof(specials[0]);
  Rng rng(99);
  size_t cursor = 0;
  EXPECT_EQ(
      for_each_sweep_geometry([&](int64_t h, int64_t w, int64_t k, int64_t s,
                                  int64_t pad) {
        std::unique_ptr<float[]> img(new float[static_cast<size_t>(h * w)]);
        for (int64_t y = 0; y < h; ++y) {
          for (int64_t x = 0; x < w; ++x) {
            const bool near_border = std::min({y, x, h - 1 - y, w - 1 - x}) < k;
            img[y * w + x] = near_border ? specials[cursor++ % kSpecials]
                                         : rng.normal() * 0.9f;
          }
        }
        std::unique_ptr<float[]> ker(new float[static_cast<size_t>(k * k)]);
        for (int64_t i = 0; i < k * k; ++i) ker[i] = rng.normal() * 0.4f;
        int bad = check_f32(img.get(), ker.get(), 0.0f, h, w, k, s, pad,
                            "specials");
        bad += check_f32(img.get(), ker.get(), -0.0f, h, w, k, s, pad,
                         "specials");
        ker[static_cast<size_t>(rng.randint(static_cast<uint64_t>(k * k)))] =
            (cursor % 2 == 0) ? inf : nan;
        bad += check_f32(img.get(), ker.get(), 0.5f, h, w, k, s, pad,
                         "specials, non-finite tap");
        return bad;
      }),
      0);
}

TEST(Depthwise, NegativeZeroChainsKeepTheirSign) {
  // An all -0.0 plane against a positive kernel: every product is -0.0, so
  // a -0.0 bias keeps every output at -0.0 in the scalar template, and a
  // +0.0 border tap would flip the edge outputs to +0.0. The +0.0-bias
  // plane must stay +0.0 throughout.
  for (int64_t k : {3, 5, 7}) {
    for (int64_t s : {1, 2}) {
      for (int64_t hw : {int64_t{4}, int64_t{9}, int64_t{23}}) {
        std::vector<float> img(static_cast<size_t>(hw * hw), -0.0f);
        std::vector<float> ker(static_cast<size_t>(k * k), 0.75f);
        const int64_t pad = (k - 1) / 2;
        const int64_t o = conv_out_size(hw, k, s, pad);
        for (float bias : {-0.0f, 0.0f}) {
          EXPECT_EQ(check_f32(img.data(), ker.data(), bias, hw, hw, k, s, pad,
                              "all -0.0"),
                    0);
          std::vector<float> out(static_cast<size_t>(o * o));
          depthwise_plane(img.data(), ker.data(), out.data(), hw, hw, o, o, k,
                          s, pad, bias);
          for (float v : out) {
            ASSERT_EQ(v, 0.0f);
            ASSERT_EQ(std::signbit(v), std::signbit(bias));
          }
        }
      }
    }
  }
}

TEST(Depthwise, KernelsWiderThanThePlaneAndBeyondTheGraphsMatch) {
  // One output whose taps run past an unpadded plane, stride 3 (the scalar
  // phase scatter), k = 9 and k = 15 (long tap tables) and k = 17, whose
  // 289 taps exceed the vector tap table and must take the scalar instance.
  Rng rng(5);
  int bad = 0;
  bad += check_f32_random(rng, 4, 4, 5, 2, 0);
  bad += check_f32_random(rng, 2, 3, 7, 2, 0);
  bad += check_f32_random(rng, 6, 6, 7, 2, 1);
  for (int64_t w : {1, 7, 16, 33}) {
    bad += check_f32_random(rng, 19, w, 3, 3, 1);
    bad += check_f32_random(rng, 19, w, 9, 1, 4);
    bad += check_f32_random(rng, 19, w, 9, 2, 4);
    bad += check_f32_random(rng, 30, w, 15, 1, 7);
    bad += check_f32_random(rng, 30, w, 17, 1, 8);
  }
  EXPECT_EQ(bad, 0);
}

TEST(Depthwise, EpilogueMatchesPlaneThenEpilogueOnEveryInstance) {
  // Every float instance and the routed depthwise_plane, with an epilogue,
  // must store what the same entry stores without one, mapped through the
  // scalar expression act(acc * scale + bias) per output. The planes cover
  // the scalar route (at most 8 outputs), the vector route with rows
  // narrower and wider than a vector, k in {3, 5, 7} and s in {1, 2}; the
  // chains cover the plan's +0.0 start, a -0.0 start and a non-finite tap
  // (the vector instance's two fallbacks to the scalar template), and NaN,
  // +-inf and -0.0 pixels. Scales are not powers of two, so the multiply
  // rounds and a fused multiply-add would differ.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {nan, inf, -inf, -0.0f};
  const EpilogueAct acts[] = {EpilogueAct::identity, EpilogueAct::relu,
                              EpilogueAct::relu6};
  Rng rng(20261019);
  int case_idx = 0;
  int bad = 0;
  for (int64_t k : {3, 5, 7}) {
    for (int64_t s : {1, 2}) {
      const int64_t pad = (k - 1) / 2;
      for (int64_t hw : {int64_t{2}, int64_t{3}, int64_t{5}, int64_t{9},
                         int64_t{14}, int64_t{23}}) {
        const int64_t o = conv_out_size(hw, k, s, pad);
        const auto n_in = static_cast<size_t>(hw * hw);
        const auto n_out = static_cast<size_t>(o * o);
        for (int chain = 0; chain < 3; ++chain) {
          std::unique_ptr<float[]> img(new float[n_in]);
          for (size_t i = 0; i < n_in; ++i) {
            img[i] = rng.randint(16) == 0 ? specials[rng.randint(4)]
                                          : rng.normal() * 1.3f;
          }
          std::vector<float> ker(static_cast<size_t>(k * k));
          for (float& v : ker) v = rng.normal() * 0.4f;
          if (chain == 2) ker[static_cast<size_t>(k)] = inf;
          const float start = chain == 1 ? -0.0f : 0.0f;
          DepthwiseEpilogue epi;
          epi.scale = (rng.randint(2) == 0 ? 1.0f : -1.0f) *
                      rng.uniform(0.5f, 1.5f) * 0.0371f;
          epi.bias = case_idx % 4 == 3 ? -0.0f : rng.uniform(-2.0f, 2.0f);
          epi.act = acts[case_idx % 3];
          ++case_idx;
          for (int i = -1; i < depthwise_instance_count(); ++i) {
            std::vector<float> want(n_out + kGuard, 7.0f);
            std::vector<float> got(n_out + kGuard, 7.0f);
            if (i < 0) {
              depthwise_plane(img.get(), ker.data(), want.data(), hw, hw, o,
                              o, k, s, pad, start);
              depthwise_plane(img.get(), ker.data(), got.data(), hw, hw, o,
                              o, k, s, pad, start, &epi);
            } else {
              depthwise_run_instance(i, img.get(), ker.data(), want.data(),
                                     hw, hw, o, o, k, s, pad, start);
              depthwise_run_instance(i, img.get(), ker.data(), got.data(),
                                     hw, hw, o, o, k, s, pad, start, &epi);
            }
            for (size_t j = 0; j < n_out; ++j) {
              want[j] = scale_bias_act<ScalarLanes>(want[j], epi.scale,
                                                    epi.bias, epi.act);
            }
            bool equal = true;
            for (size_t j = 0; j < want.size(); ++j) {
              equal = equal && same_bits(got[j], want[j]);
            }
            if (!equal) {
              ++bad;
              ADD_FAILURE()
                  << (i < 0 ? "depthwise_plane" : depthwise_instance_name(i))
                  << " hw=" << hw << " k=" << k << " s=" << s
                  << " chain=" << chain
                  << " act=" << static_cast<int>(epi.act);
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(bad, 0);
}

TEST(Depthwise, DispatchedKernelIsTheLastListedInstance) {
  ASSERT_GE(depthwise_instance_count(), 1);
  const int last = depthwise_instance_count() - 1;
  EXPECT_EQ(std::string(depthwise_instance_name(0)), "dw-f32-generic");
  EXPECT_EQ(std::string(depthwise_kernel_name()),
            std::string(depthwise_instance_name(last)));
  // Routing picks the scalar template or the dispatched instance, nothing
  // else, by output plane size: planes of more than one vector of outputs
  // take the dispatched one, smaller ones the scalar template.
  for (int64_t oh = 1; oh <= 40; ++oh) {
    for (int64_t ow = 1; ow <= 40; ++ow) {
      const int r = depthwise_route(oh, ow);
      EXPECT_TRUE(r == 0 || r == last) << r;
    }
  }
  EXPECT_EQ(depthwise_route(40, 40), last);
  EXPECT_EQ(depthwise_route(3, 3), last);
  EXPECT_EQ(depthwise_route(1, 9), last);
  EXPECT_EQ(depthwise_route(2, 4), 0);
  EXPECT_EQ(depthwise_route(1, 1), 0);
}

// ---------------------------------------------------------------- blocks

const float kNan = std::numeric_limits<float>::quiet_NaN();
const float kInf = std::numeric_limits<float>::infinity();

// One block-entry case: `count` planes of one geometry over `channels`
// channels, `run` consecutive planes per channel (depthwise.h).
struct BlockCase {
  DepthwisePlanes g;
  const char* layout;
};

// Lanes as channels (NCHW at batch 1, or the plans at batch 1), lanes as
// one channel's images (the plans at batch >= 8), and a mix of both (the
// plans at batch 2, or NCHW at small channel counts), by `layout_idx`.
BlockCase block_case(int64_t h, int64_t w, int64_t k, int64_t s, int64_t pad,
                     int64_t count, int layout_idx) {
  BlockCase c;
  c.g.count = count;
  c.g.h = h;
  c.g.w = w;
  c.g.k = k;
  c.g.s = s;
  c.g.pad = pad;
  c.g.oh = conv_out_size(h, k, s, pad);
  c.g.ow = conv_out_size(w, k, s, pad);
  switch (layout_idx % 3) {
    case 0:
      c.g.channels = count;
      c.g.run = 1;
      c.layout = "channels";
      break;
    case 1:
      c.g.channels = 1;
      c.g.run = count;
      c.layout = "images";
      break;
    default:
      c.g.channels = 3;
      c.g.run = 2;
      c.layout = "mixed";
      break;
  }
  return c;
}

// Float inputs for one case: pixels and taps with NaN, +-inf, -0.0 and
// denormals sprinkled in (every 1 in `special_every`), channel chain
// starts that include +-0.0, and an epilogue with non-power-of-two scales.
struct BlockData {
  std::unique_ptr<float[]> img, ker;
  std::vector<float> bias, scale, shift;
};

BlockData block_data(Rng& rng, const DepthwisePlanes& g,
                     uint64_t special_every) {
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float specials[] = {kNan, -kNan, kInf, -kInf, -0.0f, 0.0f,
                            denorm * 3.0f, -denorm};
  const auto pick = [&](float normal) {
    return rng.randint(special_every) == 0 ? specials[rng.randint(8)]
                                           : normal;
  };
  BlockData d;
  const int64_t n_img = g.count * g.h * g.w;
  const int64_t n_ker = g.channels * g.k * g.k;
  d.img.reset(new float[static_cast<size_t>(n_img)]);
  d.ker.reset(new float[static_cast<size_t>(n_ker)]);
  for (int64_t i = 0; i < n_img; ++i) d.img[i] = pick(rng.normal() * 1.7f);
  for (int64_t i = 0; i < n_ker; ++i) {
    d.ker[i] = rng.randint(4 * special_every) == 0 ? (i % 2 ? kInf : kNan)
                                                   : rng.normal() * 0.3f;
  }
  const float starts[] = {0.0f, -0.0f};
  for (int64_t c = 0; c < g.channels; ++c) {
    d.bias.push_back(rng.randint(3) == 0 ? starts[rng.randint(2)]
                                         : rng.normal() + 0.1f);
    d.scale.push_back((rng.randint(2) == 0 ? 1.0f : -1.0f) *
                      rng.uniform(0.5f, 1.5f) * 0.0371f);
    d.shift.push_back(rng.randint(4) == 0 ? -0.0f : rng.uniform(-2.0f, 2.0f));
  }
  return d;
}

// Name of block instance i, or of the routed entry for i == count.
std::string block_path_name(int i) {
  return i < depthwise_block_instance_count() ? depthwise_block_instance_name(i)
                                              : "entry";
}

// Runs every float block instance and the routed entry on one case and
// compares each plane, bit for bit (NaNs as a class), with the scalar
// template (plane instance 0) under the same chain start and epilogue;
// returns how many of them disagreed (each is also reported).
int check_block_f32(const BlockCase& bc, const BlockData& d,
                    const GemmEpilogue* epi) {
  const DepthwisePlanes& g = bc.g;
  if (g.oh <= 0 || g.ow <= 0) return 0;
  const int64_t hw = g.h * g.w, plane = g.oh * g.ow, taps = g.k * g.k;
  const auto n_out = static_cast<size_t>(g.count * plane);
  std::vector<float> want(n_out);
  for (int64_t p = 0; p < g.count; ++p) {
    const int64_t c = g.channel(p);
    DepthwiseEpilogue e;
    if (epi != nullptr) e = {epi->scale[c], epi->bias[c], epi->act};
    depthwise_run_instance(0, d.img.get() + p * hw, d.ker.get() + c * taps,
                           want.data() + p * plane, g.h, g.w, g.oh, g.ow, g.k,
                           g.s, g.pad, d.bias[static_cast<size_t>(c)],
                           epi == nullptr ? nullptr : &e);
  }
  const float sentinel = std::numeric_limits<float>::max();
  int bad = 0;
  for (int i = 0; i <= depthwise_block_instance_count(); ++i) {
    std::unique_ptr<float[]> got(new float[n_out + kGuard]);
    for (size_t j = 0; j < n_out + kGuard; ++j) got[j] = sentinel;
    if (i < depthwise_block_instance_count()) {
      depthwise_blocks_run_instance(i, g, d.img.get(), d.ker.get(),
                                    d.bias.data(), got.get(), epi);
    } else {
      depthwise_blocks(g, d.img.get(), d.ker.get(), d.bias.data(), got.get(),
                       epi);
    }
    bool equal = true;
    for (size_t j = 0; j < n_out; ++j) {
      equal = equal && same_bits(got[j], want[j]);
    }
    bool guard_ok = true;
    for (size_t j = n_out; j < n_out + kGuard; ++j) {
      guard_ok = guard_ok && got[j] == sentinel;
    }
    if (!equal || !guard_ok) {
      ++bad;
      ADD_FAILURE() << block_path_name(i) << " h=" << g.h
                    << " w=" << g.w << " k=" << g.k << " s=" << g.s
                    << " pad=" << g.pad << " planes=" << g.count << " ("
                    << bc.layout << ")" << (epi ? " epilogue" : "")
                    << (equal ? "" : " (values differ)")
                    << (guard_ok ? "" : " (wrote past the output)");
    }
  }
  return bad;
}

// The block sweep: k in {1,3,5,7} x s in {1,2} x pad in {0, (k-1)/2, k-1}
// x planes from 1x1 to 12x12 (square, and h + w = 13), with 1 to 8 planes
// cycling through the three lane layouts. Returns the failure count,
// stopping early past 20.
template <typename Fn>
int for_each_block_case(Fn fn) {
  int bad = 0;
  int64_t lanes = 0;
  int layout = 0;
  for (int64_t k : {1, 3, 5, 7}) {
    std::vector<int64_t> pads = {0};
    if ((k - 1) / 2 > 0) pads.push_back((k - 1) / 2);
    if (k - 1 > (k - 1) / 2) pads.push_back(k - 1);
    for (int64_t s : {1, 2}) {
      for (int64_t pad : pads) {
        for (int64_t hw = 1; hw <= 12; ++hw) {
          for (const int64_t w : {hw, 13 - hw}) {
            lanes = lanes % kDepthwiseLanes + 1;
            bad += fn(block_case(hw, w, k, s, pad, lanes, layout++));
            if (bad > 20) return bad;
          }
        }
      }
    }
  }
  return bad;
}

TEST(DepthwiseBlocks, FloatMatchesScalarTemplateWithAndWithoutEpilogue) {
  // Every lane keeps the scalar template's chain: out-of-bounds taps are
  // skipped, not added as zeros, so -0.0 starts, non-finite taps and NaN
  // and +-inf pixels near the borders all keep their bits. Scales are not
  // powers of two, so a fused multiply-add anywhere would differ.
  ASSERT_GE(depthwise_block_instance_count(), 1);
  const EpilogueAct acts[] = {EpilogueAct::identity, EpilogueAct::relu,
                              EpilogueAct::relu6};
  Rng rng(20261020);
  int case_idx = 0;
  EXPECT_EQ(for_each_block_case([&](const BlockCase& bc) {
              const BlockData d = block_data(rng, bc.g, 6);
              const GemmEpilogue epi{d.scale.data(), d.shift.data(),
                                     acts[case_idx++ % 3]};
              return check_block_f32(bc, d, nullptr) +
                     check_block_f32(bc, d, &epi);
            }),
            0);
}

TEST(DepthwiseBlocks, FloatEdgeChainsKeepNegativeZeroAndSkipNonFiniteTaps) {
  // All -0.0 planes against positive kernels under a -0.0 start: every
  // in-bounds product is -0.0, so every output stays -0.0, where adding a
  // +0.0 border tap would flip the edge outputs to +0.0. And an inf tap
  // that only ever meets out-of-bounds pixels must leave the edge outputs
  // finite. Both at 5x5 and 1x1 planes, k 3 to 7.
  for (int64_t k : {3, 5, 7}) {
    for (int64_t hw : {int64_t{1}, int64_t{5}}) {
      const BlockCase bc = block_case(hw, hw, k, 1, (k - 1) / 2, 8, 0);
      const DepthwisePlanes& g = bc.g;
      const int64_t taps = k * k;
      std::vector<float> img(static_cast<size_t>(g.count * hw * hw), -0.0f);
      std::vector<float> ker(static_cast<size_t>(g.channels * taps), 0.75f);
      for (int64_t c = 0; c < g.channels; ++c) ker[c * taps] = kInf;
      const std::vector<float> start(static_cast<size_t>(g.channels), -0.0f);
      const int64_t n_out = g.count * g.oh * g.ow;
      for (int i = 0; i < depthwise_block_instance_count(); ++i) {
        std::vector<float> out(static_cast<size_t>(n_out), 1.0f);
        depthwise_blocks_run_instance(i, g, img.data(), ker.data(),
                                      start.data(), out.data());
        for (int64_t j = 0; j < n_out; ++j) {
          const int64_t oy = j % (g.oh * g.ow) / g.ow;
          const int64_t ox = j % g.ow;
          // Tap (0, 0) is in bounds only where both coordinates pass pad.
          if (oy >= g.pad && ox >= g.pad) continue;
          ASSERT_EQ(out[static_cast<size_t>(j)], 0.0f)
              << depthwise_block_instance_name(i) << " k=" << k;
          ASSERT_TRUE(std::signbit(out[static_cast<size_t>(j)]))
              << depthwise_block_instance_name(i) << " k=" << k;
        }
      }
    }
  }
}

// Runs every int8 block instance and the routed entry on one case and
// compares each plane with the generic depthwise_plane_s8 followed by
// exporter::requantize_row; returns how many of them disagreed.
int check_block_s8(Rng& rng, const BlockCase& bc, Fill fill, bool with_bias,
                   EpilogueAct act) {
  const DepthwisePlanes& g = bc.g;
  if (g.oh <= 0 || g.ow <= 0) return 0;
  const int64_t hw = g.h * g.w, plane = g.oh * g.ow, taps = g.k * g.k;
  const auto n_img = static_cast<size_t>(g.count * hw);
  const auto n_ker = static_cast<size_t>(g.channels * taps);
  const auto n_out = static_cast<size_t>(g.count * plane);
  std::unique_ptr<uint8_t[]> img(new uint8_t[n_img]);
  std::unique_ptr<int8_t[]> ker(new int8_t[n_ker]);
  for (size_t i = 0; i < n_img; ++i) {
    img[i] = fill == Fill::kRandom      ? static_cast<uint8_t>(rng.randint(256))
             : fill == Fill::kFullBytes ? uint8_t{255}
                                        : uint8_t{0};
  }
  for (size_t i = 0; i < n_ker; ++i) {
    ker[i] = fill == Fill::kRandom
                 ? static_cast<int8_t>(static_cast<int>(rng.randint(256)) - 128)
                 : static_cast<int8_t>(i % 2 == 0 ? -127 : 127);
  }
  std::vector<float> eff, bias;
  for (int64_t c = 0; c < g.channels; ++c) {
    eff.push_back(rng.uniform(0.5f, 1.5f) * 3.1e-4f);
    bias.push_back(c % 4 == 3 ? -0.0f : rng.uniform(-1.0f, 1.0f));
  }
  const GemmS8Epilogue epi{eff.data(), with_bias ? bias.data() : nullptr, act};
  std::vector<float> want(n_out);
  std::vector<int32_t> acc(static_cast<size_t>(plane));
  for (int64_t p = 0; p < g.count; ++p) {
    const int64_t c = g.channel(p);
    depthwise_s8_run_instance(0, img.get() + p * hw, ker.get() + c * taps,
                              acc.data(), g.h, g.w, g.oh, g.ow, g.k, g.s,
                              g.pad);
    exporter::requantize_row(want.data() + p * plane, acc.data(), plane,
                             eff[static_cast<size_t>(c)],
                             with_bias ? bias[static_cast<size_t>(c)] : 0.0f,
                             static_cast<exporter::FlatAct>(act));
  }
  const float sentinel = std::numeric_limits<float>::max();
  int bad = 0;
  for (int i = 0; i <= depthwise_block_instance_count(); ++i) {
    std::unique_ptr<float[]> got(new float[n_out + kGuard]);
    for (size_t j = 0; j < n_out + kGuard; ++j) got[j] = sentinel;
    if (i < depthwise_block_instance_count()) {
      depthwise_blocks_s8_run_instance(i, g, img.get(), ker.get(), got.get(),
                                       epi);
    } else {
      depthwise_blocks_s8(g, img.get(), ker.get(), got.get(), epi);
    }
    const bool equal =
        std::memcmp(got.get(), want.data(), n_out * sizeof(float)) == 0;
    bool guard_ok = true;
    for (size_t j = n_out; j < n_out + kGuard; ++j) {
      guard_ok = guard_ok && got[j] == sentinel;
    }
    if (!equal || !guard_ok) {
      ++bad;
      ADD_FAILURE() << block_path_name(i) << " h=" << g.h
                    << " w=" << g.w << " k=" << g.k << " s=" << g.s
                    << " pad=" << g.pad << " planes=" << g.count << " ("
                    << bc.layout << ") data=" << fill_name(fill)
                    << (equal ? "" : " (values differ)")
                    << (guard_ok ? "" : " (wrote past the output)");
    }
  }
  return bad;
}

TEST(DepthwiseBlocks, Int8MatchesPlaneThenRequantizeRow) {
  // Random levels, and the extremes of the exact sums: every pixel at
  // level -128 or +127 against +-127 taps, with and without a bias.
  ASSERT_GE(depthwise_block_instance_count(), 1);
  const EpilogueAct acts[] = {EpilogueAct::identity, EpilogueAct::relu,
                              EpilogueAct::relu6};
  const Fill fills[] = {Fill::kRandom, Fill::kZeroBytes, Fill::kFullBytes};
  Rng rng(20261021);
  int case_idx = 0;
  EXPECT_EQ(for_each_block_case([&](const BlockCase& bc) {
              const int i = case_idx++;
              return check_block_s8(rng, bc, fills[i % 3], i % 4 != 1,
                                    acts[i % 3]);
            }),
            0);
}

TEST(DepthwiseBlocks, KernelsAndStridesBeyondTheGraphsStayExact) {
  // A kernel past the block's tap bound (k = 17) and strides 3 and 4 take
  // the generic instance; k = 9 runs the runtime-sized kernel loop.
  Rng rng(31);
  int bad = 0;
  for (const auto& [hw, k, s, pad] :
       {std::array<int64_t, 4>{19, 17, 1, 8}, {19, 9, 2, 4}, {14, 3, 3, 1},
        {12, 5, 4, 5}}) {
    const BlockCase bc = block_case(hw, hw, k, s, pad, 5, 2);
    const BlockData d = block_data(rng, bc.g, 9);
    const GemmEpilogue epi{d.scale.data(), d.shift.data(), EpilogueAct::relu6};
    bad += check_block_f32(bc, d, &epi);
    bad += check_block_s8(rng, bc, Fill::kRandom, true, EpilogueAct::relu);
  }
  EXPECT_EQ(bad, 0);
}

TEST(DepthwiseBlocks, ManyBlocksAreThreadInvariant) {
  // The entry runs in parallel over blocks, each thread in its own scratch:
  // at four threads every output must equal the one-thread run bit for
  // bit, over plane counts that leave a partial last block.
  ThreadPool one(0);
  ThreadPool four(3);
  Rng rng(4040);
  for (const auto& [hw, k, s, count, layout] :
       {std::array<int64_t, 5>{5, 3, 1, 203, 0}, {10, 3, 2, 77, 1},
        {2, 3, 1, 517, 2}, {12, 7, 1, 45, 0}}) {
    const BlockCase bc = block_case(hw, hw, k, s, (k - 1) / 2, count, 0);
    DepthwisePlanes g = bc.g;
    if (layout == 1) {
      g.channels = 3;
      g.run = 8;
    } else if (layout == 2) {
      g.channels = 11;
      g.run = 47;
    }
    const BlockData d = block_data(rng, g, 50);
    const GemmEpilogue epi{d.scale.data(), d.shift.data(), EpilogueAct::relu6};
    const auto n_img = static_cast<size_t>(g.count * g.h * g.w);
    std::vector<uint8_t> qimg(n_img);
    std::vector<int8_t> qker(static_cast<size_t>(g.channels * k * k));
    for (uint8_t& v : qimg) v = static_cast<uint8_t>(rng.randint(256));
    for (int8_t& v : qker) {
      v = static_cast<int8_t>(static_cast<int>(rng.randint(255)) - 127);
    }
    const GemmS8Epilogue qepi{d.scale.data(), d.shift.data(),
                              EpilogueAct::relu};
    const auto n_out = static_cast<size_t>(g.count * g.oh * g.ow);
    const auto run = [&](ThreadPool& pool, bool int8) {
      std::vector<float> out(n_out);
      ThreadPool::set_global_override(&pool);
      if (int8) {
        depthwise_blocks_s8(g, qimg.data(), qker.data(), out.data(), qepi);
      } else {
        depthwise_blocks(g, d.img.get(), d.ker.get(), d.bias.data(),
                         out.data(), &epi);
      }
      ThreadPool::set_global_override(nullptr);
      return out;
    };
    for (const bool int8 : {false, true}) {
      const std::vector<float> a = run(one, int8);
      const std::vector<float> b = run(four, int8);
      EXPECT_EQ(std::memcmp(a.data(), b.data(), n_out * sizeof(float)), 0)
          << "hw=" << hw << " k=" << k << " planes=" << count
          << (int8 ? " int8" : " float");
    }
  }
}

TEST(DepthwiseBlocks, DispatchedKernelIsTheLastListedInstance) {
  ASSERT_GE(depthwise_block_instance_count(), 1);
  const int last = depthwise_block_instance_count() - 1;
  EXPECT_EQ(std::string(depthwise_block_instance_name(0)), "dw-block-generic");
  EXPECT_EQ(std::string(depthwise_block_kernel_name()),
            std::string(depthwise_block_instance_name(last)));
  // Small planes run in blocks, large ones per plane, in both element
  // types; the routes depend on the plane size only.
  for (int64_t o = 1; o <= 40; ++o) {
    EXPECT_EQ(depthwise_block_route(o, o), o <= 12) << o;
    EXPECT_EQ(depthwise_block_route_s8(o, o), o <= 10) << o;
    EXPECT_EQ(depthwise_block_route(1, o * o), o <= 12) << o;
  }
}

}  // namespace
}  // namespace nb
