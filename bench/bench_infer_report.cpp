// FlatModel inference-runtime report. Builds synthetic MobileNetV2- and
// MCUNet-structured flat graphs (random int8 levels, variance-preserving
// per-channel scales, relu6 activations — the op mix and shapes of the real
// exports without needing the training stack), then times the planned fast
// backend against the reference scalar interpreter across batch sizes and
// writes machine-readable BENCH_infer.json: fast-vs-reference speedup,
// output agreement, and the memory planner's arena accounting. The header
// records the float GEMM kernel and depthwise instance the fast backend
// dispatched to ("kernel", "dw_kernel").
//
// Usage: bench_infer_report [--quick] [--out <path>] (--help describes both)
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_report.h"
#include "export/flat_model.h"
#include "export/flat_synth.h"
#include "export/infer_plan.h"
#include "tensor/depthwise.h"
#include "tensor/gemm.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "tensor/threadpool.h"

namespace {

using namespace nb;
using namespace nb::bench;
using namespace nb::exporter;

using synth::make_mbv2_flat;
using synth::make_mcunet_flat;

// Timing (bench_report.h): best-of repeated windows for the fast backend;
// the reference interpreter is orders of magnitude slower, so it gets one
// plain run instead of a filled window.

struct Result {
  std::string graph;
  int64_t batch = 1;
  int64_t threads = 1;
  double fast_ms = 0.0;
  double fast_images_per_s = 0.0;
  double reference_ms = 0.0;  // 0 when the reference was not timed
  double speedup = 0.0;       // reference_ms / fast_ms
  double max_abs_diff = -1.0; // fast vs reference output; -1 when not checked
  int64_t arena_bytes = 0;
  int64_t no_reuse_bytes = 0;
  int64_t peak_live_bytes = 0;
  int64_t ops = 0;
};

void bench_graph(const std::string& name, const FlatModel& model, int64_t res,
                 const std::vector<int64_t>& batches, PoolSet& pools,
                 const Budget& budget, std::vector<Result>& out) {
  Rng rng(4242);
  for (size_t bi = 0; bi < batches.size(); ++bi) {
    const int64_t batch = batches[bi];
    Tensor x({batch, 3, res, res});
    fill_uniform(x, rng, -1.0f, 1.0f);
    const InferPlan plan(model, batch, 3, res, res);

    // Reference interpreter and agreement, single thread, first batch only
    // for the (slow) diff run at larger batches.
    ThreadPool::set_global_override(&pools.get(1));
    const double ref_s = time_once([&] { (void)model.forward(x, Backend::reference); });
    double diff = -1.0;
    if (bi == 0) {
      diff = max_abs_diff(model.forward(x, Backend::reference), plan.run(x));
    }
    ThreadPool::set_global_override(nullptr);

    for (const int64_t threads : pools.counts()) {
      ThreadPool::set_global_override(&pools.get(threads));
      const double fast_s = bench_seconds(budget, [&] { (void)plan.run(x); });
      ThreadPool::set_global_override(nullptr);
      Result r;
      r.graph = name;
      r.batch = batch;
      r.threads = threads;
      r.fast_ms = fast_s * 1e3;
      r.fast_images_per_s = static_cast<double>(batch) / fast_s;
      if (threads == 1) {
        r.reference_ms = ref_s * 1e3;
        r.speedup = ref_s / fast_s;
        r.max_abs_diff = diff;
      }
      r.arena_bytes = plan.stats().arena_bytes();
      r.no_reuse_bytes = plan.stats().no_reuse_bytes();
      r.peak_live_bytes = plan.stats().peak_live_bytes();
      r.ops = plan.stats().ops;
      out.push_back(r);
      std::fprintf(stderr, "  %s b%lld t%lld: fast %.3f ms%s\n", name.c_str(),
                   static_cast<long long>(batch),
                   static_cast<long long>(threads), r.fast_ms,
                   threads == 1
                       ? (" | ref " + std::to_string(r.reference_ms) +
                          " ms | speedup " + std::to_string(r.speedup))
                             .c_str()
                       : "");
    }
  }
}

void write_json(const std::string& path, bool quick,
                const std::vector<Result>& results) {
  // Headline: MobileNetV2-flat, batch 1, single thread.
  const Result* headline = nullptr;
  for (const Result& r : results) {
    if (r.graph.rfind("mbv2", 0) == 0 && r.batch == 1 && r.threads == 1) {
      headline = &r;
      break;
    }
  }
  JsonWriter w(path);
  w.str("schema", "nb-bench-infer-v1");
  w.str("bench", "infer");
  w.boolean("quick", quick);
  w.str("kernel", gemm_kernel_name());
  w.str("dw_kernel", depthwise_kernel_name());
  w.integer("hardware_threads", std::thread::hardware_concurrency());
  write_provenance(w);
  if (headline != nullptr) {
    w.object("mbv2_b1_t1");
    w.num("fast_ms", headline->fast_ms);
    w.num("reference_ms", headline->reference_ms);
    w.num("speedup_fast_vs_reference", headline->speedup);
    w.num("max_abs_diff", headline->max_abs_diff, "%.3g");
    w.integer("arena_bytes", headline->arena_bytes);
    w.integer("no_reuse_bytes", headline->no_reuse_bytes);
    w.end();
  }
  w.array("results");
  for (const Result& r : results) {
    w.row();
    w.str("graph", r.graph);
    w.integer("batch", r.batch);
    w.integer("threads", r.threads);
    w.integer("ops", r.ops);
    w.num("fast_ms", r.fast_ms);
    w.num("fast_images_per_s", r.fast_images_per_s, "%.2f");
    if (r.reference_ms > 0.0) {
      w.num("reference_ms", r.reference_ms);
      w.num("speedup", r.speedup);
    }
    if (r.max_abs_diff >= 0.0) w.num("max_abs_diff", r.max_abs_diff, "%.3g");
    w.integer("arena_bytes", r.arena_bytes);
    w.integer("no_reuse_bytes", r.no_reuse_bytes);
    w.integer("peak_live_bytes", r.peak_live_bytes);
    w.end();
  }
  w.end();
  w.finish();
}

}  // namespace

int main(int argc, char** argv) {
  const auto [quick, out_path] = parse_report_args(
      argc, argv, "bench_infer_report", "BENCH_infer.json",
      "small graphs, fewer batches, short windows (the CI setting)");
  const Budget budget = quick ? Budget{0.05, 2} : Budget{0.3, 4};

  PoolSet pools;
  std::vector<Result> results;
  Rng rng(20260730);

  if (quick) {
    // Scaled-down graphs so the CI leg stays in seconds: the op mix is
    // identical, only widths/resolutions shrink.
    const FlatModel mbv2 = make_mbv2_flat(rng, 0.35f, 96, 100);
    bench_graph("mbv2_w035_r96", mbv2, 96, {1, 4}, pools, budget, results);
    const FlatModel mcunet = make_mcunet_flat(rng, 96, 100);
    bench_graph("mcunet_r96", mcunet, 96, {1, 4}, pools, budget, results);
  } else {
    const FlatModel mbv2 = make_mbv2_flat(rng, 1.0f, 160, 1000);
    bench_graph("mbv2_w100_r160", mbv2, 160, {1, 8, 32}, pools, budget,
                results);
    const FlatModel mcunet = make_mcunet_flat(rng, 176, 1000);
    bench_graph("mcunet_r176", mcunet, 176, {1, 8, 32}, pools, budget,
                results);
  }

  write_json(out_path, quick, results);
  std::fprintf(stderr, "wrote %s (%zu results)\n", out_path.c_str(),
               results.size());
  return 0;
}
