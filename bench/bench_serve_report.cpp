// Serving-runtime report: exercises the Engine/Session/CompiledModel stack
// on a synthetic MobileNetV2-flat (and MCUNet-flat in the full run) and
// writes machine-readable BENCH_serve.json. runtime::loadgen drives every
// Engine row:
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
//   * mixed geometry — the same seeded arrival schedules drawing from
//     sixteen near-32x32 geometries, replayed against two engines in
//     alternating rounds: one with a {32,32} bucket ladder (pad-to-bucket
//     coalescing) and one without. Near capacity the
//     bucketed engine forms cross-geometry batches inside the wait window
//     while the unbucketed one fragments into per-geometry singles and
//     thrashes its plan cache, so bucketed goodput must be strictly
//     higher. CI guards the ratio.
//
// The headline numbers are micro-batch throughput over sequential
// (mbv2_batching, unchanged) and the overload row's bounded-p99 + shed
// rate. A faulted request (a bug, not load) exits 1.
//
// Usage: bench_serve_report [--quick] [--out <path>] (--help describes both)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
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
  // Every weight byte the compiled model holds, counted once
  // (WeightPanels::total_bytes).
  int64_t shared_weight_bytes = 0;
};

/// A uniform [-1, 1) image at `model`'s recorded resolution.
Tensor random_image(const CompiledModel& model, uint64_t seed) {
  Rng rng(seed);
  const int64_t res = model.input_resolution();
  Tensor image({1, model.input_channels(), res, res});
  fill_uniform(image, rng, -1.0f, 1.0f);
  return image;
}

/// N closed-loop streams, each its own serial Session over one shared
/// CompiledModel, running until the window closes.
SessionResult bench_sessions(const std::string& graph,
                             std::shared_ptr<const CompiledModel> model,
                             int64_t sessions, double window_s) {
  std::vector<std::vector<double>> lat(static_cast<size_t>(sessions));
  std::vector<int64_t> owned(static_cast<size_t>(sessions), 0);
  std::vector<std::thread> threads;
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration<double>(window_s);
  for (int64_t s = 0; s < sessions; ++s) {
    threads.emplace_back([&, s] {
      Session session(model);  // default: serial per-stream execution
      const Tensor image = random_image(*model, 100 + static_cast<uint64_t>(s));
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

/// A fault is a bug in the engine or the model, not load: stop the report.
void require_no_faults(const LoadResult& load, const std::string& row) {
  if (load.faulted == 0) return;
  std::fprintf(stderr, "bench_serve_report: %s: %lld requests faulted\n",
               row.c_str(), static_cast<long long>(load.faulted));
  std::exit(1);
}

/// One batching-policy row: closed-loop clients against one Engine.
/// `load` is what the clients saw, `stats` the engine's books afterwards.
struct EngineRow {
  std::string graph;
  std::string policy;
  int64_t max_batch = 0;
  int64_t max_wait_us = 0;
  int64_t clients = 0;
  int64_t workers = 0;
  LoadResult load;
  Engine::Stats stats;
  double images_per_s() const { return load.goodput_per_s(); }
};

/// Closed-loop clients against one Engine under the given batching policy
/// and worker count.
EngineRow bench_engine(const std::string& graph,
                       std::shared_ptr<const CompiledModel> model,
                       const std::string& policy, int64_t max_batch,
                       int64_t max_wait_us, int64_t clients, int64_t workers,
                       double window_s) {
  EngineOptions opts;
  opts.batching.max_batch = max_batch;
  opts.batching.max_wait_us = max_wait_us;
  opts.workers = workers;
  Engine engine(opts);
  engine.register_model("m", model);
  const Tensor image = random_image(*model, 7);
  // Warmup one request so the worker's session plans both geometries the
  // window will see (batch 1 and batch max).
  (void)engine.submit("m", image).get();

  const LoadResult load =
      run_closed_loop(engine, {{"m", image, {}}}, clients, window_s);
  require_no_faults(load, graph + " " + policy);
  return {graph, policy, max_batch, max_wait_us, clients, workers, load,
          engine.stats()};
}

/// One open-loop row: a workers-sweep, overload or mixed-geometry run.
/// `load` is what the generator saw, `stats` the engine's books afterwards.
struct OpenLoopRow {
  std::string graph;
  std::string mode;  // "fixed_load" | "overload" | "mixed_geometry"
  bool bucketed = false;
  int64_t workers = 0;
  int64_t queue_depth = 0;
  int64_t slo_ms = 0;
  double offered_per_s = 0.0;
  double capacity_per_s = 0.0;  // the closed-loop measurement it scales from
  LoadResult load{};
  Engine::Stats stats{};
};

void print_open_loop_row(const OpenLoopRow& r) {
  std::fprintf(stderr,
               "  open-loop %s%s w%lld %.0f/s: goodput %.1f/s shed %.1f%% "
               "p99(accepted) %.3f ms (slo %lld ms), avg batch %.2f, %lld "
               "padded, %lld mixed batches, lag max %.2f ms\n",
               r.mode.c_str(), r.bucketed ? " BUCKETED" : "",
               static_cast<long long>(r.workers), r.offered_per_s,
               r.load.goodput_per_s(), r.load.shed_rate() * 100.0,
               r.stats.p99_ms, static_cast<long long>(r.slo_ms),
               r.stats.avg_batch,
               static_cast<long long>(r.stats.padded_accepted),
               static_cast<long long>(r.stats.mixed_geometry_batches),
               r.load.max_lag_s * 1e3);
}

/// Geometry mix for the bucketed-vs-unbucketed comparison: sixteen
/// geometries within pad ratio 1.19 of the 32x32 rung, so every request
/// is bucket-eligible and the pad waste stays honest. Sixteen distinct
/// shapes means an unbucketed queue of comparable depth holds roughly one
/// request per geometry — exactly the fragmentation buckets exist to fix.
const std::vector<std::pair<int64_t, int64_t>> kMixedGeometries{
    {27, 32}, {28, 31}, {28, 32}, {29, 30}, {29, 31}, {29, 32},
    {30, 29}, {30, 30}, {30, 31}, {30, 32}, {31, 29}, {31, 30},
    {31, 31}, {31, 32}, {32, 27}, {32, 32}};

/// Runs each of `rows` on its own micro-batch-8 engine (2 ms wait, the
/// row's workers and queue depth, a {32,32} bucket ladder when bucketed)
/// over the same seeded schedules: `rounds` rounds of spec.duration_s /
/// rounds each, round r replaying spec.seed + r at each row's offered rate
/// and SLO. The row that goes first rotates, so the rows see the same host
/// state. Every engine first serves each of `images` once so the windows
/// measure steady-state batching, not first-arrival plan builds; more than
/// one image makes a geometry mix of equal weights. Each row's load sums
/// its rounds; its stats are its engine's over all of them.
void bench_open_loop(std::vector<OpenLoopRow>& rows,
                     const std::shared_ptr<const CompiledModel>& model,
                     const std::vector<Tensor>& images, OpenLoopSpec spec,
                     int64_t rounds) {
  const bool geo_mix = images.size() > 1;
  std::vector<std::unique_ptr<Engine>> engines;
  for (const OpenLoopRow& row : rows) {
    EngineOptions opts;
    opts.batching.max_batch = 8;
    opts.batching.max_wait_us = 2000;
    opts.workers = row.workers;
    opts.default_qos.max_queue_depth = row.queue_depth;
    // Same cache budget for both mixed-geometry rows: the unbucketed row
    // genuinely pays for sixteen geometry x batch-size plan families.
    if (geo_mix) opts.session.max_cached_plans = 16;
    if (row.bucketed) {
      opts.default_qos.bucketing.ladder = {{32, 32}};
      opts.default_qos.bucketing.max_pad_ratio = 1.2;
    }
    engines.push_back(std::make_unique<Engine>(opts));
    engines.back()->register_model("m", model);
    for (const Tensor& image : images) {
      (void)engines.back()->submit("m", image).get();
    }
  }
  const std::vector<ModelTraffic> traffic{
      {"m", images.front(), geo_mix ? images : std::vector<Tensor>{}}};
  if (geo_mix) spec.geo_weights.assign(images.size(), 1.0);
  spec.duration_s /= static_cast<double>(rounds);
  const uint64_t seed = spec.seed;
  for (int64_t r = 0; r < rounds; ++r) {
    spec.seed = seed + static_cast<uint64_t>(r);
    for (size_t k = 0; k < rows.size(); ++k) {
      const size_t i = (k + static_cast<size_t>(r)) % rows.size();
      spec.rate_per_s = rows[i].offered_per_s;
      rows[i].load += run_open_loop(*engines[i], traffic, spec,
                                    rows[i].slo_ms * 1000);
    }
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i].stats = engines[i]->stats();
    require_no_faults(rows[i].load, rows[i].mode);
    print_open_loop_row(rows[i]);
  }
}

void write_open_loop_row(JsonWriter& w, const OpenLoopRow& r) {
  const LoadResult& l = r.load;
  const Engine::Stats& st = r.stats;
  w.str("graph", r.graph);
  w.str("mode", r.mode);
  w.boolean("bucketed", r.bucketed);
  w.integer("workers", r.workers);
  w.integer("queue_depth", r.queue_depth);
  w.integer("slo_ms", r.slo_ms);
  w.num("offered_per_s", r.offered_per_s, "%.2f");
  w.num("capacity_per_s", r.capacity_per_s, "%.2f");
  w.integer("offered", l.offered);
  w.integer("completed", l.completed);
  w.integer("completed_within_slo", st.completed_within_deadline);
  w.integer("rejected_queue_full", l.rejected_queue_full);
  w.integer("dropped_deadline", l.dropped_deadline + l.rejected_deadline);
  w.integer("shed", l.shed());
  w.integer("unresolved", l.unresolved);
  w.integer("padded_accepted", st.padded_accepted);
  w.integer("mixed_geometry_batches", st.mixed_geometry_batches);
  w.integer("batches", st.batches);
  w.num("avg_batch", st.avg_batch, "%.2f");
  w.num("goodput_per_s", l.goodput_per_s(), "%.2f");
  w.num("shed_rate", l.shed_rate());
  w.num("p50_accepted_ms", st.p50_ms);
  w.num("p99_accepted_ms", st.p99_ms);
  w.num("max_lag_ms", l.max_lag_s * 1e3);
}

/// Per-graph batching headline: best micro-batching policy vs that same
/// graph's sequential baseline.
struct BatchingHeadline {
  std::string graph;
  const EngineRow* seq = nullptr;
  const EngineRow* best = nullptr;
  double speedup() const {
    return best->images_per_s() / seq->images_per_s();
  }
};

void write_headline(JsonWriter& w, const BatchingHeadline& h) {
  w.str("graph", h.graph);
  w.num("sequential_images_per_s", h.seq->images_per_s(), "%.2f");
  w.str("best_policy", h.best->policy);
  w.num("best_policy_images_per_s", h.best->images_per_s(), "%.2f");
  w.num("speedup_microbatch_vs_sequential", h.speedup());
  w.num("best_policy_avg_batch", h.best->stats.avg_batch, "%.2f");
}

void write_json(const std::string& path, bool quick,
                const std::vector<SessionResult>& sessions,
                const std::vector<EngineRow>& engines,
                const std::vector<OpenLoopRow>& sweep,
                const OpenLoopRow& overload,
                const std::vector<OpenLoopRow>& mixed_geometry) {
  // Batching headlines, one per graph: best micro-batching policy
  // (batch <= 8) vs sequential throughput ON THE SAME GRAPH, both at
  // workers = 1. `mbv2_batching`
  // is the best MobileNetV2-flat geometry — with the batched one-GEMM-per-
  // conv lowering that is the small-resolution serving graph, whose
  // per-image GEMMs are too small to saturate the kernel alone (the
  // NetBooster/NetDistiller deployment regime); the big-resolution rows
  // stay in `batching_by_graph` to show the kernel-saturated end.
  std::vector<BatchingHeadline> headlines;
  for (const EngineRow& r : engines) {
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
               r.images_per_s() > h->best->images_per_s()) {
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
  w.row("overload");
  write_open_loop_row(w, overload);
  w.end();
  // mixed_geometry holds the bucketed row, then the unbucketed one.
  w.object("mixed_geometry");
  w.str("graph", mixed_geometry[0].graph);
  w.str("bucket_ladder", "32x32");
  w.integer("geometries", static_cast<int64_t>(kMixedGeometries.size()));
  const double unbucketed = mixed_geometry[1].load.goodput_per_s();
  if (unbucketed > 0.0) {
    w.num("goodput_ratio_bucketed_vs_unbucketed",
          mixed_geometry[0].load.goodput_per_s() / unbucketed);
  }
  w.array("rows");
  for (const OpenLoopRow& r : mixed_geometry) {
    w.row();
    write_open_loop_row(w, r);
    w.end();
  }
  w.end();
  w.end();
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
  for (const EngineRow& r : engines) {
    w.row();
    w.str("graph", r.graph);
    w.str("policy", r.policy);
    w.integer("max_batch", r.max_batch);
    w.integer("max_wait_us", r.max_wait_us);
    w.integer("clients", r.clients);
    w.integer("workers", r.workers);
    w.integer("requests", r.load.completed);
    w.num("images_per_s", r.images_per_s(), "%.2f");
    w.num("p50_ms", r.stats.p50_ms);
    w.num("p99_ms", r.stats.p99_ms);
    w.num("avg_batch", r.stats.avg_batch, "%.2f");
    w.integer("batches", r.stats.batches);
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
  std::vector<EngineRow> engine_rows;
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
      const EngineRow& r = engine_rows.emplace_back(
          bench_engine(name, model, policy, max_batch, wait_us,
                       clients * workers, workers, window_s));
      std::fprintf(stderr,
                   "  %s %s: %.1f images/s p50 %.3f ms p99 %.3f ms avg "
                   "batch %.2f (workers %lld)\n",
                   name.c_str(), policy.c_str(), r.images_per_s(),
                   r.stats.p50_ms, r.stats.p99_ms, r.stats.avg_batch,
                   static_cast<long long>(workers));
    }
  }

  // Open-loop rows run on the tiny-serving graph (the regime the Engine
  // targets). Capacity = the best closed-loop throughput measured above at
  // workers=1, so offered loads are defined relative to THIS machine.
  const std::string ol_graph = "mbv2_w035_r32";
  std::shared_ptr<const CompiledModel> ol_model = graphs.front().second;
  double capacity = 0.0;
  for (const EngineRow& r : engine_rows) {
    if (r.graph == ol_graph && r.workers == 1) {
      capacity = std::max(capacity, r.images_per_s());
    }
  }
  // The SLO for a bounded queue of `depth`: 4x its full-queue drain time at
  // the workers=1 capacity, and at least 100 ms.
  const auto slo_for = [&](int64_t depth) {
    return std::max<int64_t>(
        100, static_cast<int64_t>(4.0 * 1000.0 * static_cast<double>(depth) /
                                  std::max(capacity, 1.0)));
  };

  // Fixed offered load at 60% of capacity with a 3x burst through the
  // middle fifth of the window: the sweep shows what extra workers buy in
  // tail latency / burst absorption at the SAME offered load. The 500 ms
  // SLO is generous: shedding here comes only from the burst window (3x on
  // 0.6 = 1.8x capacity).
  const std::vector<Tensor> image{random_image(*ol_model, 42)};
  std::vector<OpenLoopRow> sweep;
  for (const int64_t workers : {int64_t{1}, int64_t{2}, int64_t{4}}) {
    sweep.push_back({.graph = ol_graph, .mode = "fixed_load",
                     .workers = workers, .queue_depth = 256, .slo_ms = 500,
                     .offered_per_s = 0.6 * capacity,
                     .capacity_per_s = capacity});
  }
  OpenLoopSpec spec;
  spec.duration_s = open_loop_window_s;
  spec.seed = seed;
  spec.bursts = {{0.4 * open_loop_window_s, 0.2 * open_loop_window_s, 3.0}};
  bench_open_loop(sweep, ol_model, image, spec, /*rounds=*/1);

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
          .images_per_s();
  const int64_t ol_depth = 64;
  std::vector<OpenLoopRow> overload{
      {.graph = ol_graph, .mode = "overload", .workers = ol_workers,
       .queue_depth = ol_depth, .slo_ms = slo_for(ol_depth),
       .offered_per_s = 2.0 * ol_capacity, .capacity_per_s = ol_capacity}};
  spec.seed = seed + 1;
  spec.bursts.clear();
  bench_open_loop(overload, ol_model, image, spec, /*rounds=*/1);

  // Mixed geometry: the same seeded schedules over sixteen near-32x32
  // geometries at 110% of capacity — enough pressure that batch formation
  // inside the wait window decides goodput. The bucketed row coalesces
  // everything onto the 32x32 rung; the unbucketed row fragments into
  // per-geometry singles and churns sixteen plan families through the
  // shared 16-entry cache. Both modes replay 3 s per row in four
  // alternating rounds: the margin is ~1.2x once batch-1 plans stop packing
  // weights per call, and one 1 s window per row, run back to back, read
  // below 1.0 in 3 of 10 --quick runs on a shared host.
  Rng geo_rng(42);
  std::vector<Tensor> geo_images;
  for (const auto& [h, w] : kMixedGeometries) {
    Tensor t({ol_model->input_channels(), h, w});
    fill_uniform(t, geo_rng, -1.0f, 1.0f);
    geo_images.push_back(std::move(t));
  }
  const int64_t mg_depth = 16;
  const OpenLoopRow mixed{.graph = ol_graph, .mode = "mixed_geometry",
                          .workers = 1, .queue_depth = mg_depth,
                          .slo_ms = slo_for(mg_depth),
                          .offered_per_s = 1.1 * capacity,
                          .capacity_per_s = capacity};
  // The bucketed row, then the unbucketed one.
  std::vector<OpenLoopRow> mixed_geometry{mixed, mixed};
  mixed_geometry[0].bucketed = true;
  spec.duration_s = 3.0;
  spec.seed = seed + 2;
  bench_open_loop(mixed_geometry, ol_model, geo_images, spec, /*rounds=*/4);

  write_json(out_path, quick, session_results, engine_rows, sweep,
             overload.front(), mixed_geometry);
  std::fprintf(stderr,
               "wrote %s (%zu session rows, %zu engine rows, %zu open-loop "
               "rows + overload + %zu mixed-geometry rows)\n",
               out_path.c_str(), session_results.size(), engine_rows.size(),
               sweep.size(), mixed_geometry.size());
  return 0;
}
