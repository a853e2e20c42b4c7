// Deployment-artifact inspector and inference driver: loads an NBFM file,
// prints the program summary and the memory planner's arena accounting,
// then times inference on the chosen backend. With --sessions N it runs N
// concurrent serving streams (one runtime::Session per thread, all sharing
// one CompiledModel's weight panels) and reports per-session latency
// percentiles plus aggregate throughput.
//
// Usage: flat_infer <model.nbfm> [--batch N] [--res R]
//                   [--backend fast|int8|reference] [--repeat K]
//                   [--sessions N] [--threads T] [--verify]
//   --verify   runs the static plan verifier (export/plan_verify.h) over
//              the built plan and prints each proven invariant (dataflow,
//              live-range disjointness, bounds, epilogue legality, exact
//              arena(batch) == batch*arena(1) scaling); exits nonzero if
//              any obligation fails.
//   --res      defaults to the resolution recorded in the artifact header.
//   --backend  fast (float over dequantized panels), int8 (true integer
//              path: quantized activations + packed s8 GEMM with fused
//              requantization; requires a calibrated artifact), or the
//              reference interpreter. int8 works in both plan and
//              --sessions modes. fast and int8 print the GEMM and
//              depthwise kernels they dispatch to.
//   --batch    plans the batched one-GEMM-per-conv lowering at this size;
//              for N > 1 the fast backend also times the N images run one
//              at a time through a batch-1 plan and prints per-image vs
//              per-batch latency, the batched speedup, and a bitwise
//              cross-check of the two outputs.
//   --sessions closed-loop concurrent streams (default 1 = single-stream
//              plan timing, the pre-serving behavior).
//   --threads  shared-pool size for the process (default: NB_THREADS
//              semantics). Multi-session runs execute serially per stream
//              regardless, so streams scale without pool contention.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "export/flat_model.h"
#include "export/infer_plan.h"
#include "export/plan_verify.h"
#include "runtime/compiled_model.h"
#include "runtime/percentile.h"
#include "runtime/session.h"
#include "tensor/depthwise.h"
#include "tensor/gemm.h"
#include "tensor/gemm_s8.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "tensor/threadpool.h"

using namespace nb;
using namespace nb::exporter;
using nb::runtime::percentile_sorted;

int main(int argc, char** argv) {
  std::string path;
  int64_t batch = 1;
  int64_t res = 0;
  int repeat = 10;
  int64_t sessions = 1;
  int64_t threads = 0;  // 0 = leave the global pool as NB_THREADS sized it
  bool verify = false;
  Backend backend = Backend::fast;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--batch" && i + 1 < argc) {
      batch = std::atoll(argv[++i]);
    } else if (arg == "--verify") {
      verify = true;
    } else if (arg == "--res" && i + 1 < argc) {
      res = std::atoll(argv[++i]);
    } else if (arg == "--repeat" && i + 1 < argc) {
      repeat = std::atoi(argv[++i]);
    } else if (arg == "--sessions" && i + 1 < argc) {
      sessions = std::atoll(argv[++i]);
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = std::atoll(argv[++i]);
    } else if (arg == "--backend" && i + 1 < argc) {
      const std::string b = argv[++i];
      if (b == "fast") {
        backend = Backend::fast;
      } else if (b == "int8") {
        backend = Backend::int8;
      } else if (b == "reference") {
        backend = Backend::reference;
      } else {
        std::fprintf(stderr, "unknown backend: %s\n", b.c_str());
        return 2;
      }
    } else if (path.empty() && arg[0] != '-') {
      path = arg;
    } else {
      std::fprintf(stderr,
                   "usage: flat_infer <model.nbfm> [--batch N] [--res R] "
                   "[--backend fast|int8|reference] [--repeat K] "
                   "[--sessions N] [--threads T] [--verify]\n");
      return 2;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "flat_infer: no model file given\n");
    return 2;
  }
  if (sessions < 1 || repeat < 1) {
    std::fprintf(stderr, "flat_infer: --sessions and --repeat must be >= 1\n");
    return 2;
  }
  if (sessions > 1 && backend == Backend::reference) {
    std::fprintf(stderr,
                 "flat_infer: --sessions drives the serving runtime; "
                 "--backend reference is not supported with it\n");
    return 2;
  }

  const FlatModel model = FlatModel::load(path);
  if (res == 0) res = model.input_resolution();
  if (res == 0) {
    std::fprintf(stderr,
                 "flat_infer: artifact has no recorded resolution; pass "
                 "--res\n");
    return 2;
  }
  const int64_t channels = model.input_channels();
  std::printf("model:        %s\n", path.c_str());
  std::printf("ops:          %lld\n",
              static_cast<long long>(model.ops().size()));
  std::printf("weight bytes: %lld\n",
              static_cast<long long>(model.weight_bytes()));
  std::printf("input:        [%lld, %lld, %lld, %lld]\n",
              static_cast<long long>(batch), static_cast<long long>(channels),
              static_cast<long long>(res), static_cast<long long>(res));

  // Optional shared-pool resize for this process (workers = threads - 1).
  std::unique_ptr<ThreadPool> pool;
  if (threads > 0) {
    pool = std::make_unique<ThreadPool>(threads - 1);
    ThreadPool::set_global_override(pool.get());
  }

  // Compile the panels once; the inspection, verification and sequential
  // plans borrow them. The plan is built for the requested backend
  // (reference gets a fast plan purely for the arena printout — plans
  // reject Backend::reference by design).
  const Backend plan_backend =
      backend == Backend::reference ? Backend::fast : backend;
  const auto panels = WeightPanels::build(model, plan_backend);
  const InferPlan plan(model, panels, batch, channels, res, res,
                       plan_backend);
  const PlanStats& st = plan.stats();
  std::printf("planner:      arena %lld B, peak live %lld B (no-reuse %lld "
              "B)\n",
              static_cast<long long>(st.arena_bytes()),
              static_cast<long long>(st.peak_live_bytes()),
              static_cast<long long>(st.no_reuse_bytes()));
  std::printf("weight cache: %lld B (%s panels, shared across sessions)\n",
              static_cast<long long>(panels->total_bytes()),
              plan_backend == Backend::int8 ? "int8" : "dequantized float");
  if (plan_backend == Backend::int8) {
    std::printf("int8 arena:   %lld B (quantized activations + byte im2col; "
                "kernel %s, depthwise %s)\n",
                static_cast<long long>(st.arena_int8_bytes),
                gemm_s8_kernel_name(), depthwise_s8_kernel_name());
  } else if (backend == Backend::fast) {
    std::printf("kernels:      gemm %s, depthwise %s\n", gemm_kernel_name(),
                depthwise_kernel_name());
  }

  if (verify) {
    // Static proof over the built plan's tables, plus the exact-batch-
    // scaling check against a freshly planned batch-1 twin.
    VerifyReport report = verify_plan(plan);
    if (report.ok() && batch > 1) {
      const InferPlan unit(model, panels, 1, channels, res, res,
                           plan_backend);
      VerifyReport scale =
          verify_batch_scaling(plan_tables(plan), plan_tables(unit));
      report.proved.insert(report.proved.end(), scale.proved.begin(),
                           scale.proved.end());
      report.findings.insert(report.findings.end(), scale.findings.begin(),
                             scale.findings.end());
    }
    if (!report.ok()) {
      for (const PlanFinding& f : report.findings) {
        std::fprintf(stderr, "verify:       FAILED [%s%s%s] %s\n",
                     to_string(f.diag), f.step >= 0 ? " @ step " : "",
                     f.step >= 0 ? std::to_string(f.step).c_str() : "",
                     f.detail.c_str());
      }
      ThreadPool::set_global_override(nullptr);
      return 1;
    }
    for (const std::string& p : report.proved) {
      std::printf("verify:       proven — %s\n", p.c_str());
    }
  }

  Rng rng(1);
  Tensor x({batch, channels, res, res});
  fill_uniform(x, rng, -1.0f, 1.0f);

  if (sessions > 1) {
    // Serving mode: N closed-loop streams over one shared CompiledModel.
    auto compiled = runtime::CompiledModel::compile(model, backend);
    std::vector<std::vector<double>> lat_ms(static_cast<size_t>(sessions));
    std::vector<std::thread> streams;
    const auto t0 = std::chrono::steady_clock::now();
    for (int64_t sidx = 0; sidx < sessions; ++sidx) {
      streams.emplace_back([&, sidx] {
        runtime::Session session(compiled);
        Tensor input = x.clone();
        (void)session.run(input);  // warmup / plan build
        auto& lat = lat_ms[static_cast<size_t>(sidx)];
        lat.reserve(static_cast<size_t>(repeat));
        for (int r = 0; r < repeat; ++r) {
          const auto s0 = std::chrono::steady_clock::now();
          (void)session.run(input);
          lat.push_back(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - s0)
                            .count());
        }
      });
    }
    for (std::thread& t : streams) t.join();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::printf("sessions:     %lld concurrent (serial per-stream, shared "
                "weight panels: %lld B once)\n",
                static_cast<long long>(sessions),
                static_cast<long long>(compiled->weight_panel_bytes()));
    std::vector<double> all;
    for (int64_t sidx = 0; sidx < sessions; ++sidx) {
      auto& lat = lat_ms[static_cast<size_t>(sidx)];
      std::sort(lat.begin(), lat.end());
      all.insert(all.end(), lat.begin(), lat.end());
      std::printf(
          "  session %lld: p50 %.3f ms  p90 %.3f ms  p99 %.3f ms (%d runs)\n",
          static_cast<long long>(sidx), percentile_sorted(lat, 0.50),
          percentile_sorted(lat, 0.90), percentile_sorted(lat, 0.99), repeat);
    }
    std::sort(all.begin(), all.end());
    const double images =
        static_cast<double>(sessions) * repeat * static_cast<double>(batch);
    std::printf("aggregate:    p50 %.3f ms  p99 %.3f ms  %.1f images/s\n",
                percentile_sorted(all, 0.50), percentile_sorted(all, 0.99),
                images / wall);
    ThreadPool::set_global_override(nullptr);
    return 0;
  }

  const bool planned = backend != Backend::reference;
  Tensor y = planned ? plan.run(x) : model.forward(x, Backend::reference);
  double best = 1e100;
  for (int r = 0; r < repeat; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    y = planned ? plan.run(x) : model.forward(x, Backend::reference);
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    best = std::min(best, s);
  }
  const std::vector<int64_t> pred = y.dim() == 2 ? argmax_rows(y)
                                                 : std::vector<int64_t>{};
  std::printf("backend:      %s\n", backend == Backend::fast   ? "fast"
                                    : backend == Backend::int8 ? "int8"
                                                               : "reference");
  std::printf("latency:      %.3f ms per batch of %lld (best of %d), "
              "%.3f ms per image, %.1f images/s\n",
              best * 1e3, static_cast<long long>(batch), repeat,
              best * 1e3 / static_cast<double>(batch),
              static_cast<double>(batch) / best);

  if (batch > 1 && planned) {
    // Per-image sequential baseline over a batch-1 plan: what the same
    // images cost without the batched one-GEMM-per-conv lowering — the
    // amortization the CLI exists to make inspectable. Runs on the same
    // backend as the batched plan, so for int8 the bitwise cross-check also
    // witnesses the integer path's batched-vs-sequential exactness.
    const InferPlan plan1(model, panels, 1, channels, res, res,
                          plan_backend);
    Tensor xi({1, channels, res, res});
    const int64_t chw = xi.numel();
    std::vector<Tensor> rows;
    double seq_best = 1e100;
    for (int r = 0; r < repeat; ++r) {
      rows.clear();
      const auto t0 = std::chrono::steady_clock::now();
      for (int64_t i = 0; i < batch; ++i) {
        std::memcpy(xi.data(), x.data() + i * chw,
                    static_cast<size_t>(chw) * sizeof(float));
        rows.push_back(plan1.run(xi));
      }
      const double s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      seq_best = std::min(seq_best, s);
    }
    bool bitwise = true;
    const int64_t row = y.numel() / batch;
    for (int64_t i = 0; i < batch && bitwise; ++i) {
      bitwise = std::memcmp(y.data() + i * row,
                            rows[static_cast<size_t>(i)].data(),
                            static_cast<size_t>(row) * sizeof(float)) == 0;
    }
    std::printf("sequential:   %.3f ms for %lld images one at a time "
                "(%.3f ms per image)\n",
                seq_best * 1e3, static_cast<long long>(batch),
                seq_best * 1e3 / static_cast<double>(batch));
    std::printf("batched:      %.2fx vs sequential, outputs %s\n",
                seq_best / best,
                bitwise ? "bitwise identical" : "DIVERGED (bug!)");
  }
  if (!pred.empty()) {
    std::printf("argmax[0]:    %lld\n", static_cast<long long>(pred[0]));
  }
  ThreadPool::set_global_override(nullptr);
  return 0;
}
