// Substrate performance report. Times the packed GEMM on shapes drawn from
// MobileNetV2 / MCUNet layers at one and four threads, the depthwise
// routing table and the training layer table, and writes machine-readable
// BENCH_substrate.json. No Google Benchmark dependency.
//
// Its depthwise routing table times every path a depthwise plane can take
// on every depthwise geometry of the graphs the repo runs — mbv2_w100_r160
// and mcunet_r176 at batch 1, the mbv2_w035_r32 serving rung at batch 8,
// and the expanded r20 mbv2-tiny training giant at its batch of 32: in
// float the per-plane scalar template and vector instance and the block
// instance, in int8 the per-plane kernel with requantize_row and the block
// instance. It records the route the depthwise entries (depthwise_blocks /
// depthwise_blocks_s8, which the plans and Conv2d run) take on each
// geometry; their crossovers in tensor/depthwise_block.cpp are read off
// this table.
//
// Its train_step table times the training passes of that same giant on its
// own units, at batch 32: forward and backward of every BatchNorm2d,
// Activation, PltActivation and Conv2d (pointwise, kxk, depthwise), each
// fed the geometry it sees in training, summed per pass kind with each
// kind's share of the step's layer time.
//
// Usage: bench_substrate_report [--quick] [--out <path>] (--help describes both)
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_report.h"
#include "core/netbooster.h"
#include "export/flat_synth.h"
#include "export/infer_plan.h"
#include "models/profiler.h"
#include "models/registry.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "tensor/depthwise.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/requantize.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "tensor/threadpool.h"

namespace {

using namespace nb;
using namespace nb::bench;

// One timed GEMM shape at one thread count.
struct GemmRow {
  std::string name;
  int64_t threads = 1;
  double ms = 0.0;
  double gflops = 0.0;
};

struct GemmShape {
  std::string name;
  int64_t m, n, k;
};

void bench_gemm(const GemmShape& shape, PoolSet& pools, const Budget& budget,
                std::vector<GemmRow>& out) {
  Rng rng(101);
  std::vector<float> a(static_cast<size_t>(shape.m * shape.k));
  std::vector<float> b(static_cast<size_t>(shape.k * shape.n));
  std::vector<float> c(static_cast<size_t>(shape.m * shape.n));
  for (float& v : a) v = rng.normal();
  for (float& v : b) v = rng.normal();
  const double flops = 2.0 * static_cast<double>(shape.m) *
                       static_cast<double>(shape.n) *
                       static_cast<double>(shape.k);
  for (const int64_t threads : pools.counts()) {
    ThreadPool::set_global_override(&pools.get(threads));
    const double s = bench_seconds(budget, [&] {
      gemm(false, false, shape.m, shape.n, shape.k, 1.0f, a.data(), b.data(),
           0.0f, c.data());
    });
    ThreadPool::set_global_override(nullptr);
    out.push_back({shape.name + "_t" + std::to_string(threads), threads,
                   s * 1e3, flops / s / 1e9});
  }
}

// ----------------------------------------------------------------------
// Depthwise routing table.

// One depthwise geometry of one graph: every layer with this plane shape,
// kernel, stride and pad, over all of its channels and batch images.
struct DwGeometry {
  std::string graph;
  int64_t h = 0, w = 0, k = 0, s = 0, pad = 0;
  int64_t planes = 0;  // channel planes per pass (channels x batch)
  double scalar_ms = 0.0;   // depthwise_plane's scalar template
  double vector_ms = 0.0;   // depthwise_plane's vector instance
  double block_ms = 0.0;     // the dispatched block instance
  double s8_plane_ms = 0.0;  // depthwise_plane_s8 + requantize_row
  double s8_block_ms = 0.0;  // the dispatched int8 block instance
  bool blocks = false;       // depthwise_block_route's choice
  bool s8_blocks = false;    // depthwise_block_route_s8's choice
  std::string plane_route;   // depthwise_plane's instance for this plane
};

void add_geometry(std::vector<DwGeometry>& out, const std::string& graph,
                  int64_t h, int64_t w, int64_t k, int64_t s, int64_t pad,
                  int64_t planes) {
  for (DwGeometry& g : out) {
    if (g.graph == graph && g.h == h && g.w == w && g.k == k && g.s == s &&
        g.pad == pad) {
      g.planes += planes;
      return;
    }
  }
  DwGeometry g;
  g.graph = graph;
  g.h = h;
  g.w = w;
  g.k = k;
  g.s = s;
  g.pad = pad;
  g.planes = planes;
  out.push_back(g);
}

// The depthwise steps of a fast plan, read from the planner's tables.
void add_plan_geometries(std::vector<DwGeometry>& out,
                         const std::string& graph,
                         const exporter::FlatModel& model, int64_t batch,
                         int64_t res) {
  for (const exporter::StepTable& st :
       exporter::plan_program(model, batch, 3, res, res).steps) {
    if (!st.depthwise) continue;
    add_geometry(out, graph, st.in_h, st.in_w, st.kernel, st.stride, st.pad,
                 st.cout * batch);
  }
}

// The training giant: mbv2-tiny expanded by the default NetBooster recipe,
// at the r20 resolution and batch 32 of the training workload, after the
// profiler's dummy forward has recorded each conv's input size.
constexpr int64_t kTrainBatch = 32;
constexpr int64_t kTrainRes = 20;

std::shared_ptr<nn::Module> training_giant() {
  auto giant = models::make_model("mbv2-tiny", 100, 7);
  const core::NetBooster booster(giant, core::NetBoosterConfig{});
  (void)models::profile_model(*giant, kTrainRes);
  return giant;
}

// Every depthwise geometry the routing rule has to serve.
std::vector<DwGeometry> depthwise_geometries() {
  std::vector<DwGeometry> out;
  Rng rng(20261017);
  add_plan_geometries(out, "mbv2_w100_r160",
                      exporter::synth::make_mbv2_flat(rng, 1.0f, 160, 1000),
                      1, 160);
  add_plan_geometries(out, "mcunet_r176",
                      exporter::synth::make_mcunet_flat(rng, 176, 1000), 1,
                      176);
  add_plan_geometries(out, "mbv2_w035_r32_b8",
                      exporter::synth::make_mbv2_flat(rng, 0.35f, 32, 100), 8,
                      32);
  // The training giant: Conv2d::forward_depthwise runs every (image,
  // channel) plane.
  auto giant = training_giant();
  giant->apply([&](nn::Module& m) {
    const auto* conv = dynamic_cast<const nn::Conv2d*>(&m);
    if (conv == nullptr || !conv->is_depthwise()) return;
    const nn::Conv2dOptions& o = conv->options();
    add_geometry(out, "mbv2_tiny_giant_r20_b32", conv->last_input_h(),
                 conv->last_input_w(), o.kernel, o.stride, o.padding,
                 o.out_channels * kTrainBatch);
  });
  return out;
}

// Times, in alternating windows on one thread, every path a plane of each
// geometry can take: depthwise_plane's scalar template (instance 0) and
// dispatched vector instance, and the dispatched block instance, in float;
// and in int8 the per-plane kernel followed by requantize_row against the
// dispatched block instance. The depthwise entries' routes are read off
// these rows (tensor/depthwise_block.cpp).
void bench_depthwise_routes(const Budget& budget,
                            std::vector<DwGeometry>& rows) {
  const int vec = depthwise_instance_count() - 1;
  const int block = depthwise_block_instance_count() - 1;
  Rng rng(404);
  for (DwGeometry& g : rows) {
    const int64_t oh = conv_out_size(g.h, g.k, g.s, g.pad);
    const int64_t ow = conv_out_size(g.w, g.k, g.s, g.pad);
    const int64_t hw = g.h * g.w, taps = g.k * g.k, plane = oh * ow;
    std::vector<float> in(static_cast<size_t>(g.planes * hw));
    std::vector<float> ker(static_cast<size_t>(g.planes * taps));
    std::vector<float> out(static_cast<size_t>(g.planes * plane));
    std::vector<uint8_t> qin(in.size());
    std::vector<int8_t> qker(ker.size());
    std::vector<float> scale(static_cast<size_t>(g.planes));
    std::vector<float> bias(scale.size());
    for (float& v : in) v = rng.normal();
    for (float& v : ker) v = rng.normal() * 0.3f;
    for (uint8_t& v : qin) v = static_cast<uint8_t>(rng.randint(256));
    for (int8_t& v : qker) {
      v = static_cast<int8_t>(static_cast<int>(rng.randint(255)) - 127);
    }
    for (float& v : scale) v = rng.uniform(0.5f, 1.5f) * 3e-4f;
    for (float& v : bias) v = rng.normal();
    // One channel per plane, as the plans lay out batch 1.
    DepthwisePlanes dp;
    dp.count = g.planes;
    dp.channels = g.planes;
    dp.h = g.h;
    dp.w = g.w;
    dp.oh = oh;
    dp.ow = ow;
    dp.k = g.k;
    dp.s = g.s;
    dp.pad = g.pad;
    const GemmEpilogue epi{scale.data(), bias.data(), EpilogueAct::relu6};
    const GemmS8Epilogue qepi{scale.data(), bias.data(), EpilogueAct::relu6};
    const auto pass = [&](int instance) {
      for (int64_t p = 0; p < g.planes; ++p) {
        depthwise_run_instance(instance, in.data() + p * hw,
                               ker.data() + p * taps, out.data() + p * plane,
                               g.h, g.w, oh, ow, g.k, g.s, g.pad, 0.0f);
      }
    };
    const auto s8_pass = [&] {
      for (int64_t p = 0; p < g.planes; ++p) {
        float* o = out.data() + p * plane;
        auto* acc = reinterpret_cast<int32_t*>(o);
        depthwise_plane_s8(qin.data() + p * hw, qker.data() + p * taps, acc,
                           g.h, g.w, oh, ow, g.k, g.s, g.pad);
        requantize_row(o, acc, plane, scale[static_cast<size_t>(p)],
                       bias[static_cast<size_t>(p)], EpilogueAct::relu6);
      }
    };
    const std::vector<double> t = bench_alternating_seconds(
        budget,
        {[&] { pass(0); }, [&] { pass(vec); },
         [&] {
           depthwise_blocks_run_instance(block, dp, in.data(), ker.data(),
                                         nullptr, out.data(), &epi);
         },
         s8_pass,
         [&] {
           depthwise_blocks_s8_run_instance(block, dp, qin.data(),
                                            qker.data(), out.data(), qepi);
         }});
    g.scalar_ms = t[0] * 1e3;
    g.vector_ms = t[1] * 1e3;
    g.block_ms = t[2] * 1e3;
    g.s8_plane_ms = t[3] * 1e3;
    g.s8_block_ms = t[4] * 1e3;
    g.blocks = depthwise_block_route(oh, ow);
    g.s8_blocks = depthwise_block_route_s8(oh, ow);
    g.plane_route = depthwise_instance_name(depthwise_route(oh, ow));
    std::fprintf(stderr,
                 "  dw %-24s %3lldx%-3lld k%lld s%lld p%lld x%-5lld scalar "
                 "%7.4f  vector %7.4f  block %7.4f | s8 plane %7.4f  block "
                 "%7.4f ms  -> %s | %s\n",
                 g.graph.c_str(), static_cast<long long>(g.h),
                 static_cast<long long>(g.w), static_cast<long long>(g.k),
                 static_cast<long long>(g.s), static_cast<long long>(g.pad),
                 static_cast<long long>(g.planes), g.scalar_ms, g.vector_ms,
                 g.block_ms, g.s8_plane_ms, g.s8_block_ms,
                 g.blocks ? "blocks" : g.plane_route.c_str(),
                 g.s8_blocks ? "blocks" : depthwise_s8_kernel_name());
  }
}

// ----------------------------------------------------------------------
// Training layer table.

// One unit of the giant with an input and an output gradient of the shape
// it sees in training.
struct TrainUnit {
  nn::Module* module = nullptr;
  Tensor x;
  Tensor grad;
};

// One pass kind: its units and their summed forward and backward times.
struct TrainRow {
  std::string pass;
  std::vector<TrainUnit> units;
  double forward_ms = 0.0;
  double backward_ms = 0.0;
};

// The table's rows, in order.
enum TrainPass { kBatchNorm, kActivation, kPlt, kPointwise, kKxk, kDepthwise };

// Reads the geometry of every trained unit off the giant. The pre-order
// walk visits each BatchNorm2d and activation right after the conv that
// feeds it (ConvBnAct's conv -> bn -> act), so they take that conv's output
// shape.
std::vector<TrainRow> train_step_rows(nn::Module& giant) {
  std::vector<TrainRow> rows;
  for (const char* pass : {"BatchNorm2d", "Activation", "PltActivation",
                           "Conv2d pointwise", "Conv2d kxk",
                           "Conv2d depthwise"}) {
    rows.push_back({pass, {}});
  }
  Rng rng(505);
  const auto add = [&](TrainPass row, nn::Module& m, std::vector<int64_t> in,
                       std::vector<int64_t> out) {
    TrainUnit u;
    u.module = &m;
    u.x = Tensor(std::move(in));
    u.grad = Tensor(std::move(out));
    fill_normal(u.x, rng, 0.0f, 1.0f);
    fill_normal(u.grad, rng, 0.0f, 1.0f);
    rows[row].units.push_back(std::move(u));
  };
  std::vector<int64_t> produced;  // the last conv's output shape
  giant.apply([&](nn::Module& m) {
    if (auto* conv = dynamic_cast<nn::Conv2d*>(&m)) {
      const nn::Conv2dOptions& o = conv->options();
      const int64_t h = conv->last_input_h(), w = conv->last_input_w();
      produced = {kTrainBatch, o.out_channels,
                  conv_out_size(h, o.kernel, o.stride, o.padding),
                  conv_out_size(w, o.kernel, o.stride, o.padding)};
      const TrainPass row = conv->is_depthwise()   ? kDepthwise
                            : conv->is_pointwise() ? kPointwise
                                                   : kKxk;
      add(row, m, {kTrainBatch, o.in_channels, h, w}, produced);
    } else if (auto* bn = dynamic_cast<nn::BatchNorm2d*>(&m)) {
      NB_CHECK(produced.size() == 4 && produced[1] == bn->channels(),
               "train_step: a BatchNorm2d does not follow its conv");
      add(kBatchNorm, m, produced, produced);
    } else if (dynamic_cast<nn::Activation*>(&m) != nullptr) {
      NB_CHECK(produced.size() == 4, "train_step: an activation before any conv");
      add(kActivation, m, produced, produced);
    } else if (dynamic_cast<nn::PltActivation*>(&m) != nullptr) {
      NB_CHECK(produced.size() == 4, "train_step: an activation before any conv");
      add(kPlt, m, produced, produced);
    }
  });
  return rows;
}

// Times every row's forward pass (each unit on its input, in training mode)
// and backward pass (each unit on its gradient after that forward) on the
// calling thread.
std::vector<TrainRow> bench_train_step(const Budget& budget) {
  auto giant = training_giant();
  giant->set_training(true);
  std::vector<TrainRow> rows = train_step_rows(*giant);
  for (TrainRow& row : rows) {
    const auto forward = [&] {
      for (TrainUnit& u : row.units) (void)u.module->forward(u.x);
    };
    const auto backward = [&] {
      for (TrainUnit& u : row.units) (void)u.module->backward(u.grad);
    };
    row.forward_ms = bench_seconds(budget, forward) * 1e3;
    forward();  // leaves every unit's cache on its own input
    row.backward_ms = bench_seconds(budget, backward) * 1e3;
    std::fprintf(stderr, "  train %-17s x%-3zu forward %8.3f ms  backward %8.3f ms\n",
                 row.pass.c_str(), row.units.size(), row.forward_ms,
                 row.backward_ms);
  }
  return rows;
}

// ----------------------------------------------------------------------

void write_json(const std::string& path, bool quick,
                const std::vector<int64_t>& threads_tested,
                const std::vector<GemmRow>& gemms,
                const std::vector<DwGeometry>& routes,
                const std::vector<TrainRow>& train) {
  JsonWriter w(path);
  w.str("schema", "nb-bench-substrate-v2");
  w.str("bench", "substrate");
  w.boolean("quick", quick);
  w.integer("hardware_threads", std::thread::hardware_concurrency());
  write_provenance(w);
  w.array("threads_tested", /*one_line=*/true);
  for (const int64_t t : threads_tested) w.integer(nullptr, t);
  w.end();
  // Per-graph totals: what each path alone would cost, and what the routed
  // steps cost (each geometry at its route's time): in float, blocks at or
  // below the crossover and depthwise_plane's own route above it; in int8,
  // blocks or the per-plane kernel plus requantize_row.
  std::vector<std::string> graphs;
  for (const DwGeometry& g : routes) {
    if (std::find(graphs.begin(), graphs.end(), g.graph) == graphs.end()) {
      graphs.push_back(g.graph);
    }
  }
  const auto routed = [](const DwGeometry& g) {
    if (g.blocks) return g.block_ms;
    return g.plane_route == depthwise_instance_name(0) ? g.scalar_ms
                                                       : g.vector_ms;
  };
  const auto s8_routed = [](const DwGeometry& g) {
    return g.s8_blocks ? g.s8_block_ms : g.s8_plane_ms;
  };
  w.object("depthwise_routing");
  w.integer("threads", 1);
  w.array("totals");
  for (const std::string& graph : graphs) {
    double scalar = 0.0, vector = 0.0, block = 0.0, total = 0.0;
    double s8_plane = 0.0, s8_block = 0.0, s8_total = 0.0;
    for (const DwGeometry& g : routes) {
      if (g.graph != graph) continue;
      scalar += g.scalar_ms;
      vector += g.vector_ms;
      block += g.block_ms;
      total += routed(g);
      s8_plane += g.s8_plane_ms;
      s8_block += g.s8_block_ms;
      s8_total += s8_routed(g);
    }
    w.row();
    w.str("graph", graph);
    w.num("scalar_ms", scalar);
    w.num("vector_ms", vector);
    w.num("block_ms", block);
    w.num("routed_ms", total);
    w.num("speedup_routed_vs_scalar", scalar / total);
    w.num("s8_plane_ms", s8_plane);
    w.num("s8_block_ms", s8_block);
    w.num("s8_routed_ms", s8_total);
    w.end();
  }
  w.end();
  w.array("rows");
  for (const DwGeometry& g : routes) {
    w.row();
    w.str("graph", g.graph);
    w.integer("h", g.h);
    w.integer("w", g.w);
    w.integer("k", g.k);
    w.integer("s", g.s);
    w.integer("pad", g.pad);
    w.integer("planes", g.planes);
    w.num("scalar_ms", g.scalar_ms, "%.5f");
    w.num("vector_ms", g.vector_ms, "%.5f");
    w.num("block_ms", g.block_ms, "%.5f");
    w.num("s8_plane_ms", g.s8_plane_ms, "%.5f");
    w.num("s8_block_ms", g.s8_block_ms, "%.5f");
    w.str("route", g.blocks ? depthwise_block_kernel_name()
                            : g.plane_route.c_str());
    w.str("s8_route", g.s8_blocks ? depthwise_block_kernel_name()
                                  : depthwise_s8_kernel_name());
    w.end();
  }
  w.end();
  w.end();
  double train_total = 0.0;
  for (const TrainRow& r : train) train_total += r.forward_ms + r.backward_ms;
  w.object("train_step");
  w.str("graph", "mbv2_tiny_giant_r" + std::to_string(kTrainRes) + "_b" +
                     std::to_string(kTrainBatch));
  w.integer("threads", 1);
  w.num("total_ms", train_total);
  w.array("rows");
  for (const TrainRow& r : train) {
    w.row();
    w.str("pass", r.pass);
    w.integer("units", static_cast<int64_t>(r.units.size()));
    w.num("forward_ms", r.forward_ms);
    w.num("backward_ms", r.backward_ms);
    w.num("share", (r.forward_ms + r.backward_ms) / train_total);
    w.end();
  }
  w.end();
  w.end();
  w.array("results");
  for (const GemmRow& r : gemms) {
    w.row();
    w.str("name", r.name);
    w.integer("threads", r.threads);
    w.num("ms", r.ms, "%.6f");
    w.num("gflops", r.gflops);
    w.end();
  }
  w.end();
  w.finish();
}

}  // namespace

int main(int argc, char** argv) {
  const auto [quick, out_path] = parse_report_args(
      argc, argv, "bench_substrate_report", "BENCH_substrate.json",
      "shorter timing windows and fewer shapes (the CI setting)");
  const Budget budget = quick ? Budget{0.03, 2} : Budget{0.15, 4};

  PoolSet pools;
  std::vector<GemmRow> gemms;

  // GEMM: the 256^3 headline plus pointwise-conv shapes (M=cout, N=oh*ow,
  // K=cin) from MobileNetV2 (28^2 plane) and an MCUNet-scale 14^2 plane.
  std::vector<GemmShape> shapes = {
      {"sgemm_256", 256, 256, 256},
      {"sgemm_mbv2_pw_96x784x144", 96, 784, 144},
      {"sgemm_mcunet_pw_48x196x96", 48, 196, 96},
  };
  if (!quick) shapes.push_back({"sgemm_512", 512, 512, 512});
  for (size_t i = 0; i < shapes.size(); ++i) {
    bench_gemm(shapes[i], pools, budget, gemms);
    std::fprintf(stderr, "  [%zu/%zu] %s done\n", i + 1, shapes.size(),
                 shapes[i].name.c_str());
  }

  // Both tables run on one thread: the block entry runs its blocks through
  // parallel_for, the per-plane passes plane by plane on the caller.
  ThreadPool::set_global_override(&pools.get(1));
  std::vector<DwGeometry> routes = depthwise_geometries();
  bench_depthwise_routes(budget, routes);
  const std::vector<TrainRow> train = bench_train_step(budget);
  ThreadPool::set_global_override(nullptr);

  write_json(out_path, quick, pools.counts(), gemms, routes, train);
  std::fprintf(stderr, "wrote %s (%zu GEMM rows, kernel=%s)\n",
               out_path.c_str(), gemms.size(), gemm_kernel_name());
  return 0;
}
