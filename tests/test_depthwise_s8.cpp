// Kernel sweep for the int8 depthwise plane: every instance this CPU runs
// (generic scalar, AVX2 and VNNI phase-plane kernels) must be memcmp-equal
// to a naive bounds-checked loop over every kernel size, stride, padding,
// width and height class the inference plans can produce. Each input plane
// sits in an exactly sized heap buffer and each output in an exactly sized
// one, so a sanitizer build turns any over-read or over-write of the
// caller's memory into a failure; in plain builds, sentinel words after the
// outputs catch stray writes.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "tensor/depthwise.h"
#include "tensor/im2col.h"
#include "tensor/rng.h"

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
  constexpr size_t kGuard = 8;
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

TEST(DepthwiseS8, EveryInstanceMatchesNaiveOverTheGeometrySweep) {
  // k in {1,3,5,7} x s in {1,2} x pad in {0, (k-1)/2, k-1} x widths 1..40
  // at heights {1, k, 40}: stride-2 parity splits of odd and even widths,
  // planes narrower than one vector, and kernels wider than the plane.
  ASSERT_GE(depthwise_s8_instance_count(), 1);
  Rng rng(20261017);
  int bad = 0;
  for (int64_t k : {1, 3, 5, 7}) {
    std::vector<int64_t> pads = {0};
    if ((k - 1) / 2 > 0) pads.push_back((k - 1) / 2);
    if (k - 1 > (k - 1) / 2) pads.push_back(k - 1);
    for (int64_t s : {1, 2}) {
      for (int64_t pad : pads) {
        for (int64_t h : {int64_t{1}, k, int64_t{40}}) {
          for (int64_t w = 1; w <= 40; ++w) {
            bad += check_geometry(rng, h, w, k, s, pad, Fill::kRandom);
            if (bad > 20) FAIL() << "too many mismatches, stopping";
          }
        }
      }
    }
  }
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

}  // namespace
}  // namespace nb
