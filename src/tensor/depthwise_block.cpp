// The depthwise step entries (depthwise.h): the routes that run a step's
// planes in blocks or one at a time, the block instances' generic pair and
// the dispatch between instances, and the parallel loops over blocks and
// over planes.
#include <algorithm>
#include <cstddef>

#include "tensor/depthwise.h"
#include "tensor/depthwise_kernel.h"
#include "tensor/requantize.h"
#include "tensor/threadpool.h"

namespace nb {

namespace {

using PlaneFn = void (*)(const float*, const float*, float*, int64_t,
                         int64_t, int64_t, int64_t, int64_t, int64_t, int64_t,
                         float, const DepthwiseEpilogue*);
using PlaneS8Fn = void (*)(const uint8_t*, const int8_t*, int32_t*, int64_t,
                           int64_t, int64_t, int64_t, int64_t, int64_t,
                           int64_t);

// Plane p of g, of channel c, through one per-plane float instance with
// the channel's bias and epilogue.
void run_plane(PlaneFn plane, const DepthwisePlanes& g, int64_t p, int64_t c,
               const float* img, const float* ker, const float* bias,
               float* out, const GemmEpilogue* epi) {
  DepthwiseEpilogue e;
  if (epi != nullptr) {
    e = {epi->scale[c], epi->bias == nullptr ? 0.0f : epi->bias[c], epi->act};
  }
  plane(img + p * g.h * g.w, ker + c * g.k * g.k, out + p * g.oh * g.ow, g.h,
        g.w, g.oh, g.ow, g.k, g.s, g.pad, bias == nullptr ? 0.0f : bias[c],
        epi == nullptr ? nullptr : &e);
}

// Plane p of g, of channel c, through one per-plane int8 instance, which
// leaves its exact sums in the plane's own output floats (both are four
// bytes); requantize_row then rewrites them in place.
void run_plane_s8(PlaneS8Fn plane, const DepthwisePlanes& g, int64_t p,
                  int64_t c, const uint8_t* img, const int8_t* ker,
                  float* out, const GemmS8Epilogue& epi) {
  const int64_t n = g.oh * g.ow;
  float* o = out + p * n;
  auto* acc = reinterpret_cast<int32_t*>(o);
  plane(img + p * g.h * g.w, ker + c * g.k * g.k, acc, g.h, g.w, g.oh, g.ow,
        g.k, g.s, g.pad);
  requantize_row(o, acc, n, epi.eff[c],
                 epi.bias == nullptr ? 0.0f : epi.bias[c], epi.act);
}

}  // namespace

namespace detail {

void depthwise_block_generic(const DepthwisePlanes& g,
                             const DepthwiseLanes& ln, const float* img,
                             const float* ker, const float* bias, float* out,
                             const GemmEpilogue* epi) {
  for (int64_t l = 0; l < ln.live; ++l) {
    run_plane(&depthwise_plane_generic, g, ln.plane[l], ln.channel[l], img,
              ker, bias, out, epi);
  }
}

void depthwise_block_s8_generic(const DepthwisePlanes& g,
                                const DepthwiseLanes& ln, const uint8_t* img,
                                const int8_t* ker, float* out,
                                const GemmS8Epilogue& epi) {
  for (int64_t l = 0; l < ln.live; ++l) {
    run_plane_s8(&depthwise_plane_s8_generic, g, ln.plane[l], ln.channel[l],
                 img, ker, out, epi);
  }
}

}  // namespace detail

namespace {

using BlockFn = void (*)(const DepthwisePlanes&, const detail::DepthwiseLanes&,
                         const float*, const float*, const float*, float*,
                         const GemmEpilogue*);
using BlockS8Fn = void (*)(const DepthwisePlanes&,
                           const detail::DepthwiseLanes&, const uint8_t*,
                           const int8_t*, float*, const GemmS8Epilogue&);

// The block instances come in pairs, one per element type.
struct BlockInstance {
  const char* name;
  BlockFn f32;
  BlockS8Fn s8;
};

// Every compiled instance this CPU can execute, generic first; the last is
// the one both entries dispatch to.
struct BlockInstances {
  BlockInstance list[2];
  int count = 0;

  const BlockInstance& operator[](int i) const {
    return list[static_cast<size_t>(i)];
  }
};

const BlockInstances& block_instances() {
  static const BlockInstances all = [] {
    BlockInstances v;
    v.list[v.count++] = {"dw-block-generic", &detail::depthwise_block_generic,
                         &detail::depthwise_block_s8_generic};
#if defined(NB_DW_AVX2)
    if (__builtin_cpu_supports("avx2")) {
      v.list[v.count++] = {"dw-block-avx2", &detail::depthwise_block_avx2,
                           &detail::depthwise_block_s8_avx2};
    }
#endif
    return v;
  }();
  return all;
}

// Work items per parallel chunk: about 16K outputs of `items` planes each.
int64_t grain(const DepthwisePlanes& g, int64_t items) {
  return std::max<int64_t>(1, (int64_t{1} << 14) / (items * g.oh * g.ow));
}

// Runs fn(p, c) for every plane p of g and its channel c, in parallel over
// planes.
template <class Fn>
void for_each_plane(const DepthwisePlanes& g, const Fn& fn) {
  if (g.count <= 0 || g.oh <= 0 || g.ow <= 0) return;
  parallel_for(g.count, grain(g, 1), [&](int64_t p0, int64_t p1) {
    for (int64_t p = p0; p < p1; ++p) fn(p, g.channel(p));
  });
}

// Runs fn(lanes) for every block of g, in parallel over blocks. Each chunk
// finds its first plane's channel, (p / run) % channels, with one division
// and then advances it plane by plane: at the graphs' smallest planes a
// division per lane would cost as much as the block's arithmetic.
template <class Fn>
void for_each_block(const DepthwisePlanes& g, const Fn& fn) {
  if (g.count <= 0 || g.oh <= 0 || g.ow <= 0) return;
  const int64_t blocks = (g.count + kDepthwiseLanes - 1) / kDepthwiseLanes;
  parallel_for(blocks, grain(g, kDepthwiseLanes), [&](int64_t b0, int64_t b1) {
    int64_t p = b0 * kDepthwiseLanes;
    const int64_t q = p / g.run;
    int64_t r = p - q * g.run;
    int64_t c = q % g.channels;
    const auto advance = [&] {
      ++p;
      if (++r == g.run) {
        r = 0;
        if (++c == g.channels) c = 0;
      }
    };
    detail::DepthwiseLanes ln;
    for (int64_t b = b0; b < b1; ++b) {
      ln.live = std::min(kDepthwiseLanes, g.count - p);
      for (int64_t l = 0; l < kDepthwiseLanes; ++l) {
        ln.plane[l] = p;
        ln.channel[l] = c;
        if (l + 1 < ln.live) advance();
      }
      fn(ln);
      advance();  // past the last live plane: the next block's first
    }
  });
}

// The routes: output planes of at most this many elements run in blocks.
// bench_substrate_report's depthwise routing table (BENCH_substrate.json)
// times both paths on every depthwise geometry of the graphs, on one
// thread. In int8 the blocks won up to 10x10 outputs (1.04-3.49x) and the
// per-plane VNNI kernel with requantize_row won from 11x11 up. In float
// the blocks won on every plane up to 11x11 (1.12-2.29x, mcunet's k5 and
// k7 steps included); above that the table is mixed (blocks faster on 5
// of 9 geometries, up to 1.39x on mbv2_w100_r160's 80x80 stride-2 step,
// slower on 4 by up to 13.5%), so the float crossover is set end to end:
// with every float plane in blocks, infer_b1_mbv2_fast's p50 rose from
// 6.70 to 6.82 ms (7 alternating 20 s pairs, 2 won) and its peak RSS by
// 0.3 MiB, the block buffers of the 80x80 planes. The figures are in
// src/tensor/README.md.
constexpr int64_t kBlockMaxOutputs = 144;
constexpr int64_t kBlockMaxOutputsS8 = 100;

}  // namespace

void depthwise_blocks(const DepthwisePlanes& g, const float* img,
                      const float* ker, const float* bias, float* out,
                      const GemmEpilogue* epi) {
  if (!depthwise_block_route(g.oh, g.ow)) {
    for_each_plane(g, [&](int64_t p, int64_t c) {
      run_plane(&depthwise_plane, g, p, c, img, ker, bias, out, epi);
    });
    return;
  }
  depthwise_blocks_run_instance(block_instances().count - 1, g, img, ker, bias,
                                out, epi);
}

void depthwise_blocks_s8(const DepthwisePlanes& g, const uint8_t* img,
                         const int8_t* ker, float* out,
                         const GemmS8Epilogue& epi) {
  if (!depthwise_block_route_s8(g.oh, g.ow)) {
    for_each_plane(g, [&](int64_t p, int64_t c) {
      run_plane_s8(&depthwise_plane_s8, g, p, c, img, ker, out, epi);
    });
    return;
  }
  depthwise_blocks_s8_run_instance(block_instances().count - 1, g, img, ker,
                                   out, epi);
}

bool depthwise_block_route(int64_t oh, int64_t ow) {
  return oh * ow <= kBlockMaxOutputs;
}

bool depthwise_block_route_s8(int64_t oh, int64_t ow) {
  return oh * ow <= kBlockMaxOutputsS8;
}

const char* depthwise_block_kernel_name() {
  const BlockInstances& all = block_instances();
  return all[all.count - 1].name;
}

int depthwise_block_instance_count() { return block_instances().count; }

const char* depthwise_block_instance_name(int i) {
  return block_instances()[i].name;
}

void depthwise_blocks_run_instance(int i, const DepthwisePlanes& g,
                                   const float* img, const float* ker,
                                   const float* bias, float* out,
                                   const GemmEpilogue* epi) {
  const BlockFn fn = block_instances()[i].f32;
  for_each_block(g, [&](const detail::DepthwiseLanes& ln) {
    fn(g, ln, img, ker, bias, out, epi);
  });
}

void depthwise_blocks_s8_run_instance(int i, const DepthwisePlanes& g,
                                      const uint8_t* img, const int8_t* ker,
                                      float* out, const GemmS8Epilogue& epi) {
  const BlockS8Fn fn = block_instances()[i].s8;
  for_each_block(g, [&](const detail::DepthwiseLanes& ln) {
    fn(g, ln, img, ker, out, epi);
  });
}

}  // namespace nb
