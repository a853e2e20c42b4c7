#include "tensor/depthwise.h"

#include <algorithm>
#include <vector>

#include "tensor/depthwise_kernel.h"
#include "tensor/requantize.h"

namespace nb {

namespace {

// K is a compile-time constant for the common kernels so the tap loops fully
// unroll; KRT carries the runtime size for the generic instantiation (K==0).
// `store` maps each finished chain to the value written: the chain itself,
// or its epilogue.
template <int K, class Store>
void dw_plane(const float* img, const float* ker, float* out, int64_t h,
              int64_t w, int64_t oh, int64_t ow, int64_t krt, int64_t s,
              int64_t pad, float bias, const Store& store) {
  const int64_t k = K > 0 ? K : krt;
  // Output columns whose every horizontal tap is in bounds. The last such
  // column satisfies ox*s - pad + k - 1 <= w - 1; the numerator can be
  // negative (kernel wider than the plane), where C++ division truncates
  // toward zero instead of flooring, so guard it explicitly.
  const int64_t ox_lo = std::min(ow, (pad + s - 1) / s);
  const int64_t interior_end = w - k + pad >= 0 ? (w - k + pad) / s + 1 : 0;
  const int64_t ox_hi = std::max(ox_lo, std::min(ow, interior_end));
  for (int64_t oy = 0; oy < oh; ++oy) {
    const int64_t iy0 = oy * s - pad;
    const int64_t ki_lo = std::max<int64_t>(0, -iy0);
    const int64_t ki_hi = std::min<int64_t>(k, h - iy0);
    float* orow = out + oy * ow;
    const auto edge = [&](int64_t ox) {
      float acc = bias;
      for (int64_t ki = ki_lo; ki < ki_hi; ++ki) {
        const float* srow = img + (iy0 + ki) * w;
        const float* krow = ker + ki * k;
        for (int64_t kj = 0; kj < k; ++kj) {
          const int64_t ix = ox * s - pad + kj;
          if (ix >= 0 && ix < w) acc += krow[kj] * srow[ix];
        }
      }
      orow[ox] = store(acc);
    };
    for (int64_t ox = 0; ox < ox_lo; ++ox) edge(ox);
    for (int64_t ox = ox_hi; ox < ow; ++ox) edge(ox);
    // Interior fast path: every tap in bounds, no per-tap branches.
    const float* base = img + iy0 * w - pad;
    for (int64_t ox = ox_lo; ox < ox_hi; ++ox) {
      const float* spix = base + ox * s;
      float acc = bias;
      for (int64_t ki = ki_lo; ki < ki_hi; ++ki) {
        const float* srow = spix + ki * w;
        const float* krow = ker + ki * k;
        for (int64_t kj = 0; kj < (K > 0 ? K : krt); ++kj) {
          acc += krow[kj] * srow[kj];
        }
      }
      orow[ox] = store(acc);
    }
  }
}

// Integer twin of dw_plane for the int8 path: same interior/edge split,
// int32 accumulation of ker * (img - 128), skipped taps contribute nothing
// (offset level 0). Max |acc| is k*k * 127 * 255 — nowhere near int32.
template <int K>
void dw_plane_s8(const uint8_t* img, const int8_t* ker, int32_t* out,
                 int64_t h, int64_t w, int64_t oh, int64_t ow, int64_t krt,
                 int64_t s, int64_t pad) {
  const int64_t k = K > 0 ? K : krt;
  const int64_t ox_lo = std::min(ow, (pad + s - 1) / s);
  const int64_t interior_end = w - k + pad >= 0 ? (w - k + pad) / s + 1 : 0;
  const int64_t ox_hi = std::max(ox_lo, std::min(ow, interior_end));
  for (int64_t oy = 0; oy < oh; ++oy) {
    const int64_t iy0 = oy * s - pad;
    const int64_t ki_lo = std::max<int64_t>(0, -iy0);
    const int64_t ki_hi = std::min<int64_t>(k, h - iy0);
    int32_t* orow = out + oy * ow;
    const auto edge = [&](int64_t ox) {
      int32_t acc = 0;
      for (int64_t ki = ki_lo; ki < ki_hi; ++ki) {
        const uint8_t* srow = img + (iy0 + ki) * w;
        const int8_t* krow = ker + ki * k;
        for (int64_t kj = 0; kj < k; ++kj) {
          const int64_t ix = ox * s - pad + kj;
          if (ix >= 0 && ix < w) acc += krow[kj] * (srow[ix] - 128);
        }
      }
      orow[ox] = acc;
    };
    for (int64_t ox = 0; ox < ox_lo; ++ox) edge(ox);
    for (int64_t ox = ox_hi; ox < ow; ++ox) edge(ox);
    const uint8_t* base = img + iy0 * w - pad;
    for (int64_t ox = ox_lo; ox < ox_hi; ++ox) {
      const uint8_t* spix = base + ox * s;
      int32_t acc = 0;
      for (int64_t ki = ki_lo; ki < ki_hi; ++ki) {
        const uint8_t* srow = spix + ki * w;
        const int8_t* krow = ker + ki * k;
        for (int64_t kj = 0; kj < (K > 0 ? K : krt); ++kj) {
          acc += krow[kj] * (srow[kj] - 128);
        }
      }
      orow[ox] = acc;
    }
  }
}

template <class Store>
void dw_plane_any(const float* img, const float* ker, float* out, int64_t h,
                  int64_t w, int64_t oh, int64_t ow, int64_t k, int64_t s,
                  int64_t pad, float bias, const Store& store) {
  switch (k) {
    case 3:
      dw_plane<3>(img, ker, out, h, w, oh, ow, k, s, pad, bias, store);
      break;
    case 5:
      dw_plane<5>(img, ker, out, h, w, oh, ow, k, s, pad, bias, store);
      break;
    default:
      dw_plane<0>(img, ker, out, h, w, oh, ow, k, s, pad, bias, store);
      break;
  }
}

}  // namespace

namespace detail {

void depthwise_plane_generic(const float* img, const float* ker, float* out,
                             int64_t h, int64_t w, int64_t oh, int64_t ow,
                             int64_t k, int64_t s, int64_t pad, float bias,
                             const DepthwiseEpilogue* epi) {
  if (epi == nullptr) {
    dw_plane_any(img, ker, out, h, w, oh, ow, k, s, pad, bias,
                 [](float acc) { return acc; });
    return;
  }
  const DepthwiseEpilogue e = *epi;
  dw_plane_any(img, ker, out, h, w, oh, ow, k, s, pad, bias,
               [e](float acc) {
                 return scale_bias_act<ScalarLanes>(acc, e.scale, e.bias,
                                                    e.act);
               });
}

void depthwise_plane_s8_generic(const uint8_t* img, const int8_t* ker,
                                int32_t* out, int64_t h, int64_t w,
                                int64_t oh, int64_t ow, int64_t k, int64_t s,
                                int64_t pad) {
  switch (k) {
    case 3:
      dw_plane_s8<3>(img, ker, out, h, w, oh, ow, k, s, pad);
      break;
    case 5:
      dw_plane_s8<5>(img, ker, out, h, w, oh, ow, k, s, pad);
      break;
    default:
      dw_plane_s8<0>(img, ker, out, h, w, oh, ow, k, s, pad);
      break;
  }
}

}  // namespace detail

namespace {

using DwFn = void (*)(const float*, const float*, float*, int64_t, int64_t,
                      int64_t, int64_t, int64_t, int64_t, int64_t, float,
                      const DepthwiseEpilogue*);
using DwS8Fn = void (*)(const uint8_t*, const int8_t*, int32_t*, int64_t,
                        int64_t, int64_t, int64_t, int64_t, int64_t, int64_t);

template <typename Fn>
struct Instance {
  const char* name;
  Fn fn;
};

// Every compiled instance this CPU can execute, generic first; the last
// entry is the fastest and is the one the public kernel dispatches to.
// All instances of one element type return the same bits, so routing is a
// pure performance decision.
const std::vector<Instance<DwFn>>& dw_instances() {
  static const std::vector<Instance<DwFn>> list = [] {
    std::vector<Instance<DwFn>> v;
    v.push_back({"dw-f32-generic", &detail::depthwise_plane_generic});
#if defined(NB_DW_AVX2)
    if (__builtin_cpu_supports("avx2")) {
      v.push_back({"dw-f32-avx2", &detail::depthwise_plane_avx2});
    }
#endif
    return v;
  }();
  return list;
}

const std::vector<Instance<DwS8Fn>>& dw_s8_instances() {
  static const std::vector<Instance<DwS8Fn>> list = [] {
    std::vector<Instance<DwS8Fn>> v;
    v.push_back({"dw-s8-generic", &detail::depthwise_plane_s8_generic});
#if defined(NB_DW_AVX2)
    if (__builtin_cpu_supports("avx2")) {
      v.push_back({"dw-s8-avx2", &detail::depthwise_plane_s8_avx2});
    }
#endif
#if defined(NB_DW_S8_VNNI)
    if (__builtin_cpu_supports("avx512vnni") &&
        __builtin_cpu_supports("avx512vl")) {
      v.push_back({"dw-s8-vnni", &detail::depthwise_plane_s8_vnni});
    }
#endif
    return v;
  }();
  return list;
}

int dw_active() {
  static const int active = static_cast<int>(dw_instances().size()) - 1;
  return active;
}

const Instance<DwS8Fn>& dw_s8_active() {
  static const Instance<DwS8Fn>& active = dw_s8_instances().back();
  return active;
}

// The float vector instance pays a fixed per-plane setup (tap table, phase
// fill, row placement, compaction) and computes whole vectors of eight
// flat outputs, so on the smallest output planes the scalar template wins.
// bench_substrate_report's depthwise routing table (BENCH_substrate.json)
// times both on every depthwise geometry of the graphs: every plane with
// more than one vector of outputs ran faster on the vector instance, and
// every smaller one ran no faster. The figures are in src/tensor/README.md.
constexpr int64_t kScalarMaxOutputs = 8;

}  // namespace

void depthwise_plane(const float* img, const float* ker, float* out,
                     int64_t h, int64_t w, int64_t oh, int64_t ow, int64_t k,
                     int64_t s, int64_t pad, float bias,
                     const DepthwiseEpilogue* epi) {
  dw_instances()[static_cast<size_t>(depthwise_route(oh, ow))].fn(
      img, ker, out, h, w, oh, ow, k, s, pad, bias, epi);
}

const char* depthwise_kernel_name() {
  return dw_instances()[static_cast<size_t>(dw_active())].name;
}

int depthwise_instance_count() {
  return static_cast<int>(dw_instances().size());
}

const char* depthwise_instance_name(int i) {
  return dw_instances()[static_cast<size_t>(i)].name;
}

void depthwise_run_instance(int i, const float* img, const float* ker,
                            float* out, int64_t h, int64_t w, int64_t oh,
                            int64_t ow, int64_t k, int64_t s, int64_t pad,
                            float bias, const DepthwiseEpilogue* epi) {
  dw_instances()[static_cast<size_t>(i)].fn(img, ker, out, h, w, oh, ow, k, s,
                                            pad, bias, epi);
}

int depthwise_route(int64_t oh, int64_t ow) {
  return oh * ow > kScalarMaxOutputs ? dw_active() : 0;
}

void depthwise_plane_s8(const uint8_t* img, const int8_t* ker, int32_t* out,
                        int64_t h, int64_t w, int64_t oh, int64_t ow,
                        int64_t k, int64_t s, int64_t pad) {
  dw_s8_active().fn(img, ker, out, h, w, oh, ow, k, s, pad);
}

const char* depthwise_s8_kernel_name() { return dw_s8_active().name; }

int depthwise_s8_instance_count() {
  return static_cast<int>(dw_s8_instances().size());
}

const char* depthwise_s8_instance_name(int i) {
  return dw_s8_instances()[static_cast<size_t>(i)].name;
}

void depthwise_s8_run_instance(int i, const uint8_t* img, const int8_t* ker,
                               int32_t* out, int64_t h, int64_t w, int64_t oh,
                               int64_t ow, int64_t k, int64_t s, int64_t pad) {
  dw_s8_instances()[static_cast<size_t>(i)].fn(img, ker, out, h, w, oh, ow, k,
                                               s, pad);
}

}  // namespace nb
