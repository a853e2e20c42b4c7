// Inference report: the planned fast and int8 backends and the reference
// interpreter, on the same plans. Builds synthetic MobileNetV2- and
// MCUNet-structured flat graphs (random int8 levels, variance-preserving
// per-channel scales, relu6 activations — the op mix and shapes of the real
// exports without needing the training stack) and, for each batch size,
// builds the Backend::fast and Backend::int8 plans once. Writes
// machine-readable BENCH_infer.json. Each row records:
//   * speed: int8_ms vs fast_ms at every thread count, timed in alternating
//     windows of the same length and count so both sides see the same host
//     state (speedup_int8_vs_fast), and, on each graph's first batch at one
//     thread, the reference interpreter's best of three runs after a
//     warmup (speedup_fast_vs_reference);
//   * agreement, on each graph's first batch: max |fast - reference|, and
//     whether the int8 output is memcmp-identical to the QModel integer
//     oracle ("exact_vs_qmodel") — not a tolerance check;
//   * memory: each plan's float arena against its peak-live lower bound,
//     the fast plan's no-reuse total, and the int8 plan's byte arena.
// The dispatched GEMM and depthwise instances of both backends are in
// "provenance", so regressions can be attributed to dispatch changes.
//
// Usage: bench_infer_report [--quick] [--out <path>] (--help describes both)
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
  double fast_ms = 0.0;
  double int8_ms = 0.0;
  PlanStats fast;
  PlanStats int8;
  double reference_ms = 0.0;   // 0 when the reference was not timed
  double max_abs_diff = -1.0;  // fast vs reference; -1 when not checked
  int exact_vs_qmodel = -1;    // 1 = memcmp equal, 0 = mismatch, -1 = not run
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
    const InferPlan fast(model, batch, 3, res, res, Backend::fast);
    const InferPlan int8(model, batch, 3, res, res, Backend::int8);

    // The reference interpreter is orders of magnitude slower than a plan,
    // so on the first batch only it gets a warmup and the best of three
    // single runs instead of filled windows; it and the QModel oracle (a
    // deliberately slow per-tap interpreter) check the outputs there too.
    double ref_s = 0.0;
    double diff = -1.0;
    int exact = -1;
    if (bi == 0) {
      ThreadPool::set_global_override(&pools.get(1));
      Tensor ref;
      ref_s = bench_seconds(Budget{0.0, 3}, [&] {
        ref = model.forward(x, Backend::reference);
      });
      diff = max_abs_diff(ref, fast.run(x));
      exact = bitwise_equal(int8.run(x), oracle.forward(x)) ? 1 : 0;
      ThreadPool::set_global_override(nullptr);
    }

    for (const int64_t threads : pools.counts()) {
      ThreadPool::set_global_override(&pools.get(threads));
      const std::vector<double> s = bench_alternating_seconds(
          budget, {[&] { (void)int8.run(x); }, [&] { (void)fast.run(x); }});
      const double int8_s = s[0], fast_s = s[1];
      ThreadPool::set_global_override(nullptr);
      Result r{name, batch, threads, fast_s * 1e3, int8_s * 1e3,
               fast.stats(), int8.stats()};
      std::fprintf(stderr,
                   "  %s b%lld t%lld: fast %.3f ms | int8 %.3f ms (%.2fx)",
                   name.c_str(), static_cast<long long>(batch),
                   static_cast<long long>(threads), r.fast_ms, r.int8_ms,
                   fast_s / int8_s);
      if (threads == 1 && bi == 0) {
        r.reference_ms = ref_s * 1e3;
        r.max_abs_diff = diff;
        r.exact_vs_qmodel = exact;
        std::fprintf(stderr, " | ref %.1f ms (%.1fx)%s", r.reference_ms,
                     ref_s / fast_s,
                     exact == 1 ? " | exact" : " | MISMATCH");
      }
      std::fputc('\n', stderr);
      out.push_back(r);
    }
  }
}

// One result as a one-line object: a results row, or (with a key) the
// headline.
void write_result(JsonWriter& w, const char* key, const Result& r) {
  w.row(key);
  w.str("graph", r.graph);
  w.integer("batch", r.batch);
  w.integer("threads", r.threads);
  w.integer("ops", r.fast.ops);
  w.num("fast_ms", r.fast_ms);
  w.num("int8_ms", r.int8_ms);
  w.num("speedup_int8_vs_fast", r.fast_ms / r.int8_ms);
  if (r.reference_ms > 0.0) {
    w.num("reference_ms", r.reference_ms);
    w.num("speedup_fast_vs_reference", r.reference_ms / r.fast_ms);
  }
  if (r.max_abs_diff >= 0.0) w.num("max_abs_diff", r.max_abs_diff, "%.3g");
  if (r.exact_vs_qmodel >= 0) {
    w.boolean("exact_vs_qmodel", r.exact_vs_qmodel == 1);
  }
  w.integer("arena_bytes", r.fast.arena_bytes());
  w.integer("peak_live_bytes", r.fast.peak_live_bytes());
  w.integer("no_reuse_bytes", r.fast.no_reuse_bytes());
  w.integer("int8_arena_bytes", r.int8.arena_bytes());
  w.integer("int8_peak_live_bytes", r.int8.peak_live_bytes());
  w.integer("int8_byte_arena_bytes", r.int8.arena_int8_bytes);
  w.end();
}

void write_json(const std::string& path, bool quick,
                const std::vector<Result>& results) {
  JsonWriter w(path);
  w.str("schema", "nb-bench-infer-v2");
  w.str("bench", "infer");
  w.boolean("quick", quick);
  w.integer("hardware_threads", std::thread::hardware_concurrency());
  write_provenance(w);
  // Headline: MobileNetV2-flat, batch 1, single thread.
  for (const Result& r : results) {
    if (r.graph.rfind("mbv2", 0) == 0 && r.batch == 1 && r.threads == 1) {
      write_result(w, "mbv2_b1_t1", r);
      break;
    }
  }
  w.array("results");
  for (const Result& r : results) write_result(w, nullptr, r);
  w.end();
  w.finish();
}

}  // namespace

int main(int argc, char** argv) {
  const auto [quick, out_path] = parse_report_args(
      argc, argv, "bench_infer_report", "BENCH_infer.json",
      "small graphs, fewer batches, short windows (the CI setting)");
  // Both modes take the best of many alternating windows: shared hosts see
  // heavy tenancy noise, and the int8-vs-float ratio is only trustworthy
  // when both sides report their genuine best window. The quick rows run
  // eight short windows per side, so one slow spell cannot cover every
  // window of one side (with two 50 ms windows, CI's headline guard once
  // read 0.90x on a tree whose median is 1.34x).
  const Budget budget = quick ? Budget{0.025, 8} : Budget{0.25, 10};

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
