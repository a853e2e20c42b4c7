// True-int8 inference-path report. Builds the same synthetic MobileNetV2-
// and MCUNet-structured flat graphs as bench_infer_report, then times the
// Backend::int8 plan (offset-u8 quantize + packed int8 GEMM with fused
// per-channel requantization) against the float fast backend across batch
// sizes and thread counts, and writes machine-readable BENCH_int8.json.
//
// Two claims are recorded per geometry:
//   * throughput: int8_ms vs fast_ms and their ratio (speedup_int8_vs_fast)
//   * exactness:  the int8 output is memcmp-identical to the QModel integer
//     oracle (reported as "exact_vs_qmodel") — not a tolerance check.
// The int8 and fast sides of each row are timed in alternating windows of
// the same length and count, so both see the same host state. The selected
// GEMM micro-kernel (s8-vnni / s8-avx2 / s8-generic) and depthwise instance
// (dw-s8-vnni / dw-s8-avx2 / dw-s8-generic) are reported so regressions can
// be attributed to dispatch changes.
//
// Usage: bench_int8_report [--quick] [--out <path>] (--help describes both)
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_report.h"
#include "export/flat_model.h"
#include "export/flat_synth.h"
#include "export/infer_plan.h"
#include "export/qmodel.h"
#include "tensor/depthwise.h"
#include "tensor/gemm_s8.h"
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

struct Result {
  std::string graph;
  int64_t batch = 1;
  int64_t threads = 1;
  double int8_ms = 0.0;
  double int8_images_per_s = 0.0;
  double fast_ms = 0.0;
  double speedup = 0.0;        // fast_ms / int8_ms
  int exact_vs_qmodel = -1;    // 1 = memcmp equal, 0 = mismatch, -1 = not run
  int64_t arena_bytes = 0;       // float arena of the int8 plan
  int64_t arena_int8_bytes = 0;  // byte arena (quantized input + u8 cols)
  int64_t fast_arena_bytes = 0;  // float fast plan, for the memory delta
  int64_t ops = 0;
};

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

void bench_graph(const std::string& name, const FlatModel& model, int64_t res,
                 const std::vector<int64_t>& batches, PoolSet& pools,
                 const Budget& budget, std::vector<Result>& out) {
  Rng rng(4242);
  const QModel oracle(model);
  for (size_t bi = 0; bi < batches.size(); ++bi) {
    const int64_t batch = batches[bi];
    Tensor x({batch, 3, res, res});
    fill_uniform(x, rng, -1.0f, 1.0f);
    const InferPlan plan_i8(model, batch, 3, res, res, Backend::int8);
    const InferPlan plan_f32(model, batch, 3, res, res, Backend::fast);

    // Exactness vs the scalar integer oracle: first batch only (the oracle
    // is a deliberately slow per-tap interpreter).
    int exact = -1;
    if (bi == 0) {
      ThreadPool::set_global_override(&pools.get(1));
      exact = bitwise_equal(plan_i8.run(x), oracle.forward(x)) ? 1 : 0;
      ThreadPool::set_global_override(nullptr);
    }

    for (const int64_t threads : pools.counts()) {
      ThreadPool::set_global_override(&pools.get(threads));
      const auto [i8_s, f32_s] =
          bench_pair_seconds(budget, [&] { (void)plan_i8.run(x); },
                             [&] { (void)plan_f32.run(x); });
      ThreadPool::set_global_override(nullptr);
      Result r;
      r.graph = name;
      r.batch = batch;
      r.threads = threads;
      r.int8_ms = i8_s * 1e3;
      r.int8_images_per_s = static_cast<double>(batch) / i8_s;
      r.fast_ms = f32_s * 1e3;
      r.speedup = f32_s / i8_s;
      r.exact_vs_qmodel = threads == 1 ? exact : -1;
      r.arena_bytes = plan_i8.stats().arena_bytes();
      r.arena_int8_bytes = plan_i8.stats().arena_int8_bytes;
      r.fast_arena_bytes = plan_f32.stats().arena_bytes();
      r.ops = plan_i8.stats().ops;
      out.push_back(r);
      std::fprintf(stderr,
                   "  %s b%lld t%lld: int8 %.3f ms | fast %.3f ms | "
                   "speedup %.2fx%s\n",
                   name.c_str(), static_cast<long long>(batch),
                   static_cast<long long>(threads), r.int8_ms, r.fast_ms,
                   r.speedup,
                   r.exact_vs_qmodel == 1   ? " | exact"
                   : r.exact_vs_qmodel == 0 ? " | MISMATCH"
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
  w.str("schema", "nb-bench-int8-v1");
  w.str("bench", "int8");
  w.boolean("quick", quick);
  w.str("kernel", gemm_s8_kernel_name());
  w.str("dw_kernel", depthwise_s8_kernel_name());
  w.integer("hardware_threads", std::thread::hardware_concurrency());
  write_provenance(w);
  if (headline != nullptr) {
    w.object("mbv2_b1_t1");
    w.num("int8_ms", headline->int8_ms);
    w.num("fast_ms", headline->fast_ms);
    w.num("speedup_int8_vs_fast", headline->speedup);
    w.boolean("exact_vs_qmodel", headline->exact_vs_qmodel == 1);
    w.integer("arena_bytes", headline->arena_bytes);
    w.integer("arena_int8_bytes", headline->arena_int8_bytes);
    w.integer("fast_arena_bytes", headline->fast_arena_bytes);
    w.end();
  }
  w.array("results");
  for (const Result& r : results) {
    w.row();
    w.str("graph", r.graph);
    w.integer("batch", r.batch);
    w.integer("threads", r.threads);
    w.integer("ops", r.ops);
    w.num("int8_ms", r.int8_ms);
    w.num("int8_images_per_s", r.int8_images_per_s, "%.2f");
    w.num("fast_ms", r.fast_ms);
    w.num("speedup", r.speedup);
    if (r.exact_vs_qmodel >= 0) {
      w.boolean("exact_vs_qmodel", r.exact_vs_qmodel == 1);
    }
    w.integer("arena_bytes", r.arena_bytes);
    w.integer("arena_int8_bytes", r.arena_int8_bytes);
    w.integer("fast_arena_bytes", r.fast_arena_bytes);
    w.end();
  }
  w.end();
  w.finish();
}

}  // namespace

int main(int argc, char** argv) {
  const auto [quick, out_path] = parse_report_args(
      argc, argv, "bench_int8_report", "BENCH_int8.json",
      "small graphs, fewer batches, short windows (the CI setting)");
  // Full mode uses many best-of windows: single-core containers see heavy
  // tenancy noise, and the int8-vs-float ratio is only trustworthy when both
  // sides report their genuine best window.
  const Budget budget = quick ? Budget{0.05, 2} : Budget{0.25, 10};

  std::fprintf(stderr, "int8 GEMM kernel: %s, depthwise kernel: %s\n",
               gemm_s8_kernel_name(), depthwise_s8_kernel_name());
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
