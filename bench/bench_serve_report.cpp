// Serving-runtime report: exercises the Engine/Session/CompiledModel stack
// on a synthetic MobileNetV2-flat (and MCUNet-flat in the full run) and
// writes machine-readable BENCH_serve.json:
//
//   * session scaling — N closed-loop streams, one Session per thread, all
//     borrowing ONE CompiledModel's weight panels: aggregate throughput,
//     per-request p50/p99, and the owned-vs-shared memory split.
//   * batching policy — closed-loop clients against an Engine under
//     sequential (max_batch=1) and micro-batching (max_batch 4/8)
//     policies, plus a workers {2,4} sweep of the micro-batch-8 policy
//     with 8 clients per worker: throughput, latency percentiles, achieved
//     batch size.
//   * workers sweep (open loop) — seeded Poisson arrivals at a FIXED
//     offered load (fraction of measured capacity) with a mid-window burst,
//     per-request SLO deadlines, workers {1,2,4}: goodput, shed rate and
//     p99-of-accepted under load the server does not control.
//   * overload — offered load 2x the closed-loop capacity of the same
//     engine (micro-batch 8, workers 2, batches kept full) against a
//     bounded queue with deadlines: the engine must shed (typed
//     rejections) while p99 of ACCEPTED requests stays within the SLO and
//     every future resolves. This is the graceful-degradation contract.
//   * mixed geometry — the same seeded arrival schedule drawing from eight
//     near-32x32 geometries, run twice: once with a {32,32} bucket ladder
//     (pad-to-bucket coalescing) and once without. Near capacity the
//     bucketed engine forms cross-geometry batches inside the wait window
//     while the unbucketed one fragments into per-geometry singles and
//     thrashes its plan cache, so bucketed goodput must be strictly
//     higher. CI guards the ratio.
//
// The headline numbers are micro-batch throughput over sequential
// (mbv2_batching, unchanged) and the overload row's bounded-p99 + shed
// rate.
//
// Usage: bench_serve_report [--quick] [--out <path>] (--help describes both)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_report.h"
#include "export/flat_model.h"
#include "export/flat_synth.h"
#include "runtime/compiled_model.h"
#include "runtime/engine.h"
#include "runtime/loadgen.h"
#include "runtime/percentile.h"
#include "runtime/session.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace {

using namespace nb;
using namespace nb::bench;
using namespace nb::runtime;
using Clock = std::chrono::steady_clock;

struct SessionResult {
  std::string graph;
  int64_t sessions = 0;
  int64_t requests = 0;
  double images_per_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  int64_t owned_arena_bytes_per_session = 0;
  int64_t shared_weight_bytes = 0;
};

/// N closed-loop streams, each its own serial Session over one shared
/// CompiledModel, running until the window closes.
SessionResult bench_sessions(const std::string& graph,
                             std::shared_ptr<const CompiledModel> model,
                             int64_t sessions, double window_s) {
  const int64_t res = model->input_resolution();
  const int64_t channels = model->input_channels();
  std::vector<std::vector<double>> lat(static_cast<size_t>(sessions));
  std::vector<int64_t> owned(static_cast<size_t>(sessions), 0);
  std::vector<std::thread> threads;
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration<double>(window_s);
  for (int64_t s = 0; s < sessions; ++s) {
    threads.emplace_back([&, s] {
      Session session(model);  // default: serial per-stream execution
      Rng rng(100 + static_cast<uint64_t>(s));
      Tensor image({1, channels, res, res});
      fill_uniform(image, rng, -1.0f, 1.0f);
      (void)session.run(image);  // warmup: builds the plan
      auto& mine = lat[static_cast<size_t>(s)];
      while (Clock::now() < deadline) {
        const auto t0 = Clock::now();
        (void)session.run(image);
        mine.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count());
      }
      owned[static_cast<size_t>(s)] = session.memory().owned_arena_floats * 4;
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall =
      std::chrono::duration<double>(Clock::now() - t0).count();

  SessionResult r;
  r.graph = graph;
  r.sessions = sessions;
  std::vector<double> all;
  for (auto& v : lat) {
    r.requests += static_cast<int64_t>(v.size());
    all.insert(all.end(), v.begin(), v.end());
  }
  std::sort(all.begin(), all.end());
  r.images_per_s = static_cast<double>(r.requests) / wall;
  r.p50_ms = percentile_sorted(all, 0.50);
  r.p99_ms = percentile_sorted(all, 0.99);
  r.owned_arena_bytes_per_session = owned.empty() ? 0 : owned[0];
  r.shared_weight_bytes = model->weight_panel_bytes();
  return r;
}

struct EngineResult {
  std::string graph;
  std::string policy;
  int64_t max_batch = 0;
  int64_t max_wait_us = 0;
  int64_t clients = 0;
  int64_t workers = 0;
  int64_t requests = 0;
  double images_per_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double avg_batch = 0.0;
  int64_t batches = 0;
};

/// Closed-loop clients against one Engine under the given batching policy
/// and worker count.
EngineResult bench_engine(const std::string& graph,
                          std::shared_ptr<const CompiledModel> model,
                          const std::string& policy, int64_t max_batch,
                          int64_t max_wait_us, int64_t clients,
                          int64_t workers, double window_s) {
  EngineOptions opts;
  opts.batching.max_batch = max_batch;
  opts.batching.max_wait_us = max_wait_us;
  opts.workers = workers;

  const int64_t res = model->input_resolution();
  const int64_t channels = model->input_channels();

  EngineResult r;
  r.graph = graph;
  r.policy = policy;
  r.max_batch = max_batch;
  r.max_wait_us = max_wait_us;
  r.clients = clients;
  r.workers = workers;
  {
    Engine engine(opts);
    engine.register_model("m", model);
    // Warmup one request so the worker's session plans both geometries the
    // window will see (batch 1 and batch max).
    {
      Rng rng(7);
      Tensor image({channels, res, res});
      fill_uniform(image, rng, -1.0f, 1.0f);
      (void)engine.submit("m", image).get();
    }

    std::atomic<bool> stop{false};
    std::atomic<int64_t> done{0};
    std::vector<std::thread> threads;
    const auto t0 = Clock::now();
    for (int64_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        Rng rng(300 + static_cast<uint64_t>(c));
        Tensor image({channels, res, res});
        fill_uniform(image, rng, -1.0f, 1.0f);
        while (!stop.load(std::memory_order_relaxed)) {
          (void)engine.submit("m", image).get();
          done.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(window_s));
    stop.store(true);
    for (std::thread& t : threads) t.join();
    const double wall =
        std::chrono::duration<double>(Clock::now() - t0).count();

    const Engine::Stats st = engine.stats();
    r.requests = done.load();
    r.images_per_s = static_cast<double>(r.requests) / wall;
    r.p50_ms = st.p50_ms;
    r.p99_ms = st.p99_ms;
    r.avg_batch = st.avg_batch;
    r.batches = st.batches;
  }
  return r;
}

struct OpenLoopRow {
  std::string graph;
  std::string mode;  // "fixed_load" | "overload"
  int64_t workers = 0;
  int64_t queue_depth = 0;
  int64_t slo_ms = 0;
  double offered_per_s = 0.0;
  double capacity_per_s = 0.0;  // the closed-loop measurement it scales from
  int64_t offered = 0;
  int64_t completed = 0;
  int64_t completed_within_slo = 0;
  int64_t rejected_queue_full = 0;
  int64_t dropped_deadline = 0;
  int64_t shed = 0;
  int64_t unresolved = 0;  // must be 0: every request got an outcome
  double goodput_per_s = 0.0;
  double shed_rate = 0.0;
  double p50_accepted_ms = 0.0;
  double p99_accepted_ms = 0.0;
  double max_lag_ms = 0.0;
};

/// Seeded open-loop run: Poisson arrivals (optionally with a burst window)
/// against a bounded-queue, deadline-enforcing Engine.
OpenLoopRow bench_open_loop(const std::string& graph,
                            std::shared_ptr<const CompiledModel> model,
                            const std::string& mode, int64_t workers,
                            double offered_per_s, double capacity_per_s,
                            int64_t queue_depth, int64_t slo_ms,
                            const std::vector<BurstSpec>& bursts,
                            double window_s, uint64_t seed) {
  EngineOptions opts;
  opts.batching.max_batch = 8;
  opts.batching.max_wait_us = 2000;
  opts.workers = workers;
  opts.default_qos.max_queue_depth = queue_depth;

  OpenLoopRow row;
  row.graph = graph;
  row.mode = mode;
  row.workers = workers;
  row.queue_depth = queue_depth;
  row.slo_ms = slo_ms;
  row.offered_per_s = offered_per_s;
  row.capacity_per_s = capacity_per_s;

  Engine engine(opts);
  engine.register_model("m", model);
  const int64_t res = model->input_resolution();
  Rng rng(42);
  Tensor image({model->input_channels(), res, res});
  fill_uniform(image, rng, -1.0f, 1.0f);
  // Warmup so plan compilation doesn't eat the first arrivals' budget.
  (void)engine.submit("m", image).get();

  OpenLoopSpec spec;
  spec.rate_per_s = offered_per_s;
  spec.duration_s = window_s;
  spec.seed = seed;
  spec.bursts = bursts;
  const OpenLoopResult r = run_open_loop(
      engine, {{"m", image, {}}}, spec, slo_ms * 1000);
  const Engine::Stats st = engine.stats();

  row.offered = r.offered;
  row.completed = r.completed;
  row.completed_within_slo = st.completed_within_deadline;
  row.rejected_queue_full = r.rejected_queue_full;
  row.dropped_deadline = r.dropped_deadline + r.rejected_deadline;
  row.shed = r.shed();
  row.unresolved = r.offered - r.completed - r.shed() - r.faulted;
  row.goodput_per_s = r.goodput_per_s();
  row.shed_rate = r.shed_rate();
  row.p50_accepted_ms = st.p50_ms;
  row.p99_accepted_ms = st.p99_ms;
  row.max_lag_ms = r.max_lag_s * 1e3;
  return row;
}

/// One row of the mixed-geometry comparison: the same seeded open-loop
/// schedule over eight near-32x32 geometries, with or without a bucket
/// ladder. Both rows use identical engine/session knobs; only the ladder
/// differs.
struct MixedGeoRow {
  bool bucketed = false;
  int64_t workers = 0;
  int64_t queue_depth = 0;
  int64_t slo_ms = 0;
  double offered_per_s = 0.0;
  double capacity_per_s = 0.0;
  int64_t offered = 0;
  int64_t completed = 0;
  int64_t shed = 0;
  int64_t unresolved = 0;
  int64_t padded_accepted = 0;
  int64_t mixed_geometry_batches = 0;
  int64_t batches = 0;
  double avg_batch = 0.0;
  double goodput_per_s = 0.0;
  double shed_rate = 0.0;
  double p50_accepted_ms = 0.0;
  double p99_accepted_ms = 0.0;
};

/// Geometry mix for the bucketed-vs-unbucketed comparison: sixteen
/// geometries within pad ratio 1.19 of the 32x32 rung, so every request
/// is bucket-eligible and the pad waste stays honest. Sixteen distinct
/// shapes means an unbucketed queue of comparable depth holds roughly one
/// request per geometry — exactly the fragmentation buckets exist to fix.
const std::vector<std::pair<int64_t, int64_t>> kMixedGeometries{
    {27, 32}, {28, 31}, {28, 32}, {29, 30}, {29, 31}, {29, 32},
    {30, 29}, {30, 30}, {30, 31}, {30, 32}, {31, 29}, {31, 30},
    {31, 31}, {31, 32}, {32, 27}, {32, 32}};

MixedGeoRow bench_mixed_geometry(std::shared_ptr<const CompiledModel> model,
                                 bool bucketed, double offered_per_s,
                                 double capacity_per_s, int64_t queue_depth,
                                 int64_t slo_ms, double window_s,
                                 uint64_t seed) {
  EngineOptions opts;
  opts.batching.max_batch = 8;
  opts.batching.max_wait_us = 2000;
  opts.workers = 1;
  opts.default_qos.max_queue_depth = queue_depth;
  // Same cache budget for both rows: the unbucketed row genuinely pays
  // for eight geometry x batch-size plan families under this budget.
  opts.session.max_cached_plans = 16;
  if (bucketed) {
    opts.default_qos.bucketing.ladder = {{32, 32}};
    opts.default_qos.bucketing.max_pad_ratio = 1.2;
  }

  MixedGeoRow row;
  row.bucketed = bucketed;
  row.workers = opts.workers;
  row.queue_depth = queue_depth;
  row.slo_ms = slo_ms;
  row.offered_per_s = offered_per_s;
  row.capacity_per_s = capacity_per_s;

  Engine engine(opts);
  engine.register_model("m", model);
  Rng rng(42);
  std::vector<Tensor> geo_images;
  for (const auto& [h, w] : kMixedGeometries) {
    Tensor t({model->input_channels(), h, w});
    fill_uniform(t, rng, -1.0f, 1.0f);
    geo_images.push_back(std::move(t));
  }
  // Warm every geometry's batch-1 plan in BOTH rows so the measured
  // window compares steady-state batching, not first-arrival compiles.
  for (const Tensor& t : geo_images) (void)engine.submit("m", t).get();

  OpenLoopSpec spec;
  spec.rate_per_s = offered_per_s;
  spec.duration_s = window_s;
  spec.seed = seed;
  spec.geo_weights.assign(kMixedGeometries.size(), 1.0);
  const OpenLoopResult r = run_open_loop(
      engine, {{"m", geo_images.front(), geo_images}}, spec, slo_ms * 1000);
  const Engine::Stats st = engine.stats();

  row.offered = r.offered;
  row.completed = r.completed;
  row.shed = r.shed();
  row.unresolved = r.offered - r.completed - r.shed() - r.faulted;
  row.padded_accepted = st.padded_accepted;
  row.mixed_geometry_batches = st.mixed_geometry_batches;
  row.batches = st.batches;
  row.avg_batch = st.avg_batch;
  row.goodput_per_s = r.goodput_per_s();
  row.shed_rate = r.shed_rate();
  row.p50_accepted_ms = st.p50_ms;
  row.p99_accepted_ms = st.p99_ms;
  return row;
}

void write_mixed_geo_row(JsonWriter& w, const MixedGeoRow& r) {
  w.boolean("bucketed", r.bucketed);
  w.integer("workers", r.workers);
  w.integer("queue_depth", r.queue_depth);
  w.integer("slo_ms", r.slo_ms);
  w.num("offered_per_s", r.offered_per_s, "%.2f");
  w.num("capacity_per_s", r.capacity_per_s, "%.2f");
  w.integer("offered", r.offered);
  w.integer("completed", r.completed);
  w.integer("shed", r.shed);
  w.integer("unresolved", r.unresolved);
  w.integer("padded_accepted", r.padded_accepted);
  w.integer("mixed_geometry_batches", r.mixed_geometry_batches);
  w.integer("batches", r.batches);
  w.num("avg_batch", r.avg_batch, "%.2f");
  w.num("goodput_per_s", r.goodput_per_s, "%.2f");
  w.num("shed_rate", r.shed_rate);
  w.num("p50_accepted_ms", r.p50_accepted_ms);
  w.num("p99_accepted_ms", r.p99_accepted_ms);
}

/// Per-graph batching headline: best micro-batching policy vs that same
/// graph's sequential baseline.
struct BatchingHeadline {
  std::string graph;
  const EngineResult* seq = nullptr;
  const EngineResult* best = nullptr;
  double speedup() const { return best->images_per_s / seq->images_per_s; }
};

void write_headline(JsonWriter& w, const BatchingHeadline& h) {
  w.str("graph", h.graph);
  w.num("sequential_images_per_s", h.seq->images_per_s, "%.2f");
  w.str("best_policy", h.best->policy);
  w.num("best_policy_images_per_s", h.best->images_per_s, "%.2f");
  w.num("speedup_microbatch_vs_sequential", h.speedup());
  w.num("best_policy_avg_batch", h.best->avg_batch, "%.2f");
}

void write_open_loop_row(JsonWriter& w, const OpenLoopRow& r) {
  w.str("graph", r.graph);
  w.str("mode", r.mode);
  w.integer("workers", r.workers);
  w.integer("queue_depth", r.queue_depth);
  w.integer("slo_ms", r.slo_ms);
  w.num("offered_per_s", r.offered_per_s, "%.2f");
  w.num("capacity_per_s", r.capacity_per_s, "%.2f");
  w.integer("offered", r.offered);
  w.integer("completed", r.completed);
  w.integer("completed_within_slo", r.completed_within_slo);
  w.integer("rejected_queue_full", r.rejected_queue_full);
  w.integer("dropped_deadline", r.dropped_deadline);
  w.integer("shed", r.shed);
  w.integer("unresolved", r.unresolved);
  w.num("goodput_per_s", r.goodput_per_s, "%.2f");
  w.num("shed_rate", r.shed_rate);
  w.num("p50_accepted_ms", r.p50_accepted_ms);
  w.num("p99_accepted_ms", r.p99_accepted_ms);
  w.num("max_lag_ms", r.max_lag_ms);
}

void write_json(const std::string& path, bool quick,
                const std::vector<SessionResult>& sessions,
                const std::vector<EngineResult>& engines,
                const std::vector<OpenLoopRow>& sweep,
                const OpenLoopRow* overload,
                const std::vector<MixedGeoRow>& mixed_geometry) {
  // Batching headlines, one per graph: best micro-batching policy
  // (batch <= 8) vs sequential throughput ON THE SAME GRAPH, both at
  // workers = 1. `mbv2_batching`
  // is the best MobileNetV2-flat geometry — with the batched one-GEMM-per-
  // conv lowering that is the small-resolution serving graph, whose
  // per-image GEMMs are too small to saturate the kernel alone (the
  // NetBooster/NetDistiller deployment regime); the big-resolution rows
  // stay in `batching_by_graph` to show the kernel-saturated end.
  std::vector<BatchingHeadline> headlines;
  for (const EngineResult& r : engines) {
    BatchingHeadline* h = nullptr;
    for (BatchingHeadline& existing : headlines) {
      if (existing.graph == r.graph) h = &existing;
    }
    if (h == nullptr) {
      headlines.push_back({r.graph, nullptr, nullptr});
      h = &headlines.back();
    }
    // Policies compare at one worker; the workers sweep adds clients too.
    if (r.workers != 1) continue;
    if (r.policy == "sequential") {
      h->seq = &r;
    } else if (h->best == nullptr ||
               r.images_per_s > h->best->images_per_s) {
      h->best = &r;
    }
  }
  std::erase_if(headlines, [](const BatchingHeadline& h) {
    return h.seq == nullptr || h.best == nullptr;
  });
  const BatchingHeadline* mbv2 = nullptr;
  for (const BatchingHeadline& h : headlines) {
    if (h.graph.rfind("mbv2", 0) != 0) continue;
    if (mbv2 == nullptr || h.speedup() > mbv2->speedup()) mbv2 = &h;
  }

  JsonWriter w(path);
  w.str("schema", "nb-bench-serve-v3");
  w.str("bench", "serve");
  w.boolean("quick", quick);
  w.integer("hardware_threads", std::thread::hardware_concurrency());
  write_provenance(w);
  if (mbv2 != nullptr) {
    w.object("mbv2_batching");
    write_headline(w, *mbv2);
    w.end();
  }
  if (overload != nullptr) {
    w.row("overload");
    write_open_loop_row(w, *overload);
    w.end();
  }
  if (!mixed_geometry.empty()) {
    const MixedGeoRow* with = nullptr;
    const MixedGeoRow* without = nullptr;
    for (const MixedGeoRow& r : mixed_geometry) {
      (r.bucketed ? with : without) = &r;
    }
    w.object("mixed_geometry");
    w.str("graph", "mbv2_w035_r32");
    w.str("bucket_ladder", "32x32");
    w.integer("geometries", static_cast<int64_t>(kMixedGeometries.size()));
    if (with != nullptr && without != nullptr &&
        without->goodput_per_s > 0.0) {
      w.num("goodput_ratio_bucketed_vs_unbucketed",
            with->goodput_per_s / without->goodput_per_s);
    }
    w.array("rows");
    for (const MixedGeoRow& r : mixed_geometry) {
      w.row();
      write_mixed_geo_row(w, r);
      w.end();
    }
    w.end();
    w.end();
  }
  w.array("workers_sweep");
  for (const OpenLoopRow& r : sweep) {
    w.row();
    write_open_loop_row(w, r);
    w.end();
  }
  w.end();
  w.array("batching_by_graph");
  for (const BatchingHeadline& h : headlines) {
    w.row();
    write_headline(w, h);
    w.end();
  }
  w.end();
  w.array("session_scaling");
  for (const SessionResult& r : sessions) {
    w.row();
    w.str("graph", r.graph);
    w.integer("sessions", r.sessions);
    w.integer("requests", r.requests);
    w.num("images_per_s", r.images_per_s, "%.2f");
    w.num("p50_ms", r.p50_ms);
    w.num("p99_ms", r.p99_ms);
    w.integer("owned_arena_bytes_per_session",
              r.owned_arena_bytes_per_session);
    w.integer("shared_weight_bytes", r.shared_weight_bytes);
    w.end();
  }
  w.end();
  w.array("engine");
  for (const EngineResult& r : engines) {
    w.row();
    w.str("graph", r.graph);
    w.str("policy", r.policy);
    w.integer("max_batch", r.max_batch);
    w.integer("max_wait_us", r.max_wait_us);
    w.integer("clients", r.clients);
    w.integer("workers", r.workers);
    w.integer("requests", r.requests);
    w.num("images_per_s", r.images_per_s, "%.2f");
    w.num("p50_ms", r.p50_ms);
    w.num("p99_ms", r.p99_ms);
    w.num("avg_batch", r.avg_batch, "%.2f");
    w.integer("batches", r.batches);
    w.end();
  }
  w.end();
  w.finish();
}

}  // namespace

int main(int argc, char** argv) {
  const auto [quick, out_path] = parse_report_args(
      argc, argv, "bench_serve_report", "BENCH_serve.json",
      "small graph, short windows (the CI setting)");
  const double window_s = quick ? 0.4 : 2.0;
  const double open_loop_window_s = quick ? 1.0 : 3.0;
  const int64_t clients = 8;
  const uint64_t seed = 20260807;

  Rng rng(20260730);
  std::vector<std::pair<std::string, std::shared_ptr<const CompiledModel>>>
      graphs;
  // r32 is the tiny-serving regime (CIFAR-scale downstream deployment)
  // where per-image GEMMs cannot saturate the kernel and the batched
  // lowering pays off most; r96 shows the kernel-saturated end.
  graphs.emplace_back(
      "mbv2_w035_r32",
      CompiledModel::compile(exporter::synth::make_mbv2_flat(
          rng, 0.35f, 32, 100)));
  graphs.emplace_back(
      "mbv2_w035_r96",
      CompiledModel::compile(exporter::synth::make_mbv2_flat(
          rng, 0.35f, 96, 100)));
  if (!quick) {
    graphs.emplace_back("mcunet_r96",
                        CompiledModel::compile(
                            exporter::synth::make_mcunet_flat(rng, 96, 100)));
  }

  std::vector<SessionResult> session_results;
  std::vector<EngineResult> engine_results;
  const unsigned hw = std::thread::hardware_concurrency();
  std::vector<int64_t> session_counts{1, 2};
  if (hw >= 4) session_counts.push_back(4);

  for (auto& [name, model] : graphs) {
    for (const int64_t n : session_counts) {
      SessionResult r = bench_sessions(name, model, n, window_s);
      session_results.push_back(r);
      std::fprintf(stderr,
                   "  %s sessions=%lld: %.1f images/s p50 %.3f ms p99 %.3f "
                   "ms (weights shared: %lld B)\n",
                   name.c_str(), static_cast<long long>(n), r.images_per_s,
                   r.p50_ms, r.p99_ms,
                   static_cast<long long>(r.shared_weight_bytes));
    }
    // Policy sweep at workers=1 (the historical baseline), then the
    // micro-batch-8 policy across the workers sweep, with `clients` per
    // worker so every worker can fill its batches.
    for (const auto& [policy, max_batch, wait_us, workers] :
         std::vector<std::tuple<std::string, int64_t, int64_t, int64_t>>{
             {"sequential", 1, 0, 1},
             {"microbatch4", 4, 2000, 1},
             {"microbatch8", 8, 2000, 1},
             {"microbatch8_w2", 8, 2000, 2},
             {"microbatch8_w4", 8, 2000, 4}}) {
      EngineResult r = bench_engine(name, model, policy, max_batch, wait_us,
                                    clients * workers, workers, window_s);
      engine_results.push_back(r);
      std::fprintf(stderr,
                   "  %s %s: %.1f images/s p50 %.3f ms p99 %.3f ms avg "
                   "batch %.2f (workers %lld)\n",
                   name.c_str(), policy.c_str(), r.images_per_s, r.p50_ms,
                   r.p99_ms, r.avg_batch, static_cast<long long>(workers));
    }
  }

  // Open-loop rows run on the tiny-serving graph (the regime the Engine
  // targets). Capacity = the best closed-loop throughput measured above at
  // workers=1, so offered loads are defined relative to THIS machine.
  const std::string ol_graph = "mbv2_w035_r32";
  std::shared_ptr<const CompiledModel> ol_model = graphs.front().second;
  double capacity = 0.0;
  for (const EngineResult& r : engine_results) {
    if (r.graph == ol_graph && r.workers == 1) {
      capacity = std::max(capacity, r.images_per_s);
    }
  }

  // Fixed offered load at 60% of capacity with a 3x burst through the
  // middle fifth of the window: the sweep shows what extra workers buy in
  // tail latency / burst absorption at the SAME offered load.
  std::vector<OpenLoopRow> sweep;
  {
    const double rate = 0.6 * capacity;
    const int64_t depth = 256;
    const int64_t slo = 500;  // generous: shedding here comes only from
                              // the burst window (3x on 0.6 = 1.8x capacity)
    const std::vector<BurstSpec> bursts{
        {0.4 * open_loop_window_s, 0.2 * open_loop_window_s, 3.0}};
    for (const int64_t workers : {int64_t{1}, int64_t{2}, int64_t{4}}) {
      OpenLoopRow r =
          bench_open_loop(ol_graph, ol_model, "fixed_load", workers, rate,
                          capacity, depth, slo, bursts, open_loop_window_s,
                          seed);
      sweep.push_back(r);
      std::fprintf(stderr,
                   "  open-loop fixed %.0f/s w%lld: goodput %.1f/s shed "
                   "%.1f%% p99 %.3f ms (lag max %.2f ms)\n",
                   rate, static_cast<long long>(workers), r.goodput_per_s,
                   r.shed_rate * 100.0, r.p99_accepted_ms, r.max_lag_ms);
    }
  }

  // Overload: 2x capacity against a bounded queue with an SLO sized at 4x
  // the workers=1 full-queue drain time — the engine must shed the excess
  // with typed rejections while accepted work stays within the SLO. The
  // capacity it doubles is the closed-loop throughput of the overload
  // row's own engine (micro-batch 8, 2 ms wait, workers 2), with enough
  // clients to keep both workers' batches full, as an overloaded queue
  // does. The workers=1 rows undercount two workers, so doubling them
  // could leave the engine under capacity.
  const int64_t ol_workers = 2;
  const int64_t ol_max_batch = 8;
  const double ol_capacity =
      bench_engine(ol_graph, ol_model, "overload_capacity", ol_max_batch,
                   2000, 2 * ol_workers * ol_max_batch, ol_workers, window_s)
          .images_per_s;
  const int64_t ol_depth = 64;
  const int64_t ol_slo_ms = std::max<int64_t>(
      100, static_cast<int64_t>(4.0 * 1000.0 *
                                static_cast<double>(ol_depth) /
                                std::max(capacity, 1.0)));
  OpenLoopRow overload = bench_open_loop(
      ol_graph, ol_model, "overload", ol_workers, 2.0 * ol_capacity,
      ol_capacity, ol_depth, ol_slo_ms, {}, open_loop_window_s, seed + 1);
  std::fprintf(stderr,
               "  open-loop OVERLOAD %.0f/s (2x w2 capacity) w2: goodput "
               "%.1f/s shed %.1f%% p99(accepted) %.3f ms (slo %lld ms, "
               "unresolved %lld)\n",
               2.0 * ol_capacity, overload.goodput_per_s,
               overload.shed_rate * 100.0, overload.p99_accepted_ms,
               static_cast<long long>(ol_slo_ms),
               static_cast<long long>(overload.unresolved));

  // Mixed geometry: the same seeded schedule over eight near-32x32
  // geometries at 90% of capacity — enough pressure that batch formation
  // inside the wait window decides goodput. The bucketed row coalesces
  // everything onto the 32x32 rung; the unbucketed row fragments into
  // per-geometry singles and churns eight plan families through the
  // shared 16-entry cache.
  const int64_t mg_depth = 16;
  const int64_t mg_slo_ms = std::max<int64_t>(
      100, static_cast<int64_t>(4.0 * 1000.0 *
                                static_cast<double>(mg_depth) /
                                std::max(capacity, 1.0)));
  std::vector<MixedGeoRow> mixed_geometry;
  for (const bool bucketed : {true, false}) {
    MixedGeoRow r =
        bench_mixed_geometry(ol_model, bucketed, 1.1 * capacity, capacity,
                             mg_depth, mg_slo_ms, open_loop_window_s,
                             seed + 2);
    mixed_geometry.push_back(r);
    std::fprintf(stderr,
                 "  mixed-geometry %s %.0f/s: goodput %.1f/s shed %.1f%% "
                 "avg batch %.2f (%lld padded, %lld mixed batches, "
                 "unresolved %lld)\n",
                 bucketed ? "BUCKETED" : "unbucketed", 1.1 * capacity,
                 r.goodput_per_s, r.shed_rate * 100.0, r.avg_batch,
                 static_cast<long long>(r.padded_accepted),
                 static_cast<long long>(r.mixed_geometry_batches),
                 static_cast<long long>(r.unresolved));
  }

  write_json(out_path, quick, session_results, engine_results, sweep,
             &overload, mixed_geometry);
  std::fprintf(stderr,
               "wrote %s (%zu session rows, %zu engine rows, %zu open-loop "
               "rows + overload + %zu mixed-geometry rows)\n",
               out_path.c_str(), session_results.size(),
               engine_results.size(), sweep.size(), mixed_geometry.size());
  return 0;
}
