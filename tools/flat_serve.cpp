// Load generator for the serving Engine, in two modes, both driven by
// runtime::loadgen:
//
//   closed-loop (default) — N client threads each submit one image and
//     wait for the future: measures capacity (offered rate collapses to
//     whatever the engine sustains, queues stay short). A rejected submit
//     is retried at once and counted, so a queue too shallow for the
//     clients shows in the shed line.
//   open-loop (--open-loop) — seeded Poisson arrivals at a fixed offered
//     rate with optional burst replay, per-request SLO deadlines and a
//     priority-lane share: measures overload behavior. Same --seed, same
//     schedule, on every machine — overload runs are comparable across
//     commits.
//
// Both modes print one report: offered load, goodput, the typed shed
// breakdown, latency of ACCEPTED work, batching and buckets. Exits 1 when
// any request faulted (a model or worker error, not a rejection), 2 on a
// usage error.
//
// Usage: flat_serve <model.nbfm> | --synth [--mix]
//          [--clients N] [--seconds S] [--max-batch B] [--max-wait-us U]
//          [--workers W] [--res R] [--queue-depth D] [--deadline-ms MS]
//          [--open-loop --rate R [--seed S] [--slo-ms MS]
//           [--burst START:DUR:MULT]... [--high-lane-frac F]]
//          [--geo-mix GEO:W,GEO:W,...] [--buckets GEO,GEO,...]
//          [--bucket-waste F] [--drop-on-shutdown] [--save <path>]
//
//   --clients         closed-loop clients (default 8)
//   --seconds         measurement window (default 3)
//   --max-batch       batching policy: largest coalesced batch (default 8)
//   --max-wait-us     how long the queue head waits for peers (default 1000)
//   --workers         engine dispatcher threads (default 1)
//   --queue-depth     per-model admission bound (default 256)
//   --deadline-ms     per-model default deadline (default none)
//   --open-loop       switch to open-loop arrivals
//   --rate            open-loop offered load, images/s (default 200)
//   --seed            schedule seed (default 1); same seed = same schedule
//   --slo-ms          per-request deadline anchored to the scheduled
//                     arrival (default none)
//   --burst           rate multiplier window, e.g. 1.0:0.5:4 = 4x offered
//                     load for 0.5 s starting at t=1 s; repeatable
//   --high-lane-frac  fraction of arrivals on Lane::high (default 0)
//   --geo-mix         weighted input-geometry mix, e.g.
//                     30x32:1,31x32:1,32:2 — every stream draws each
//                     request's geometry from this distribution (GEO is
//                     HxW or a square R). Overrides --res.
//   --buckets         resolution-bucket ladder applied to every model,
//                     e.g. 32,64x48,96 (GEO as above, strictly increasing
//                     in both dims): same-rung requests of different
//                     geometries are padded and batched together
//   --bucket-waste    bucket waste cap, max padded/exact area ratio
//                     (default 1.5)
//   --drop-on-shutdown  resolve still-queued requests with ShuttingDown
//                     instead of draining them
//   --synth           serve a synthetic MobileNetV2-flat (w0.35, r96, 100
//                     classes) instead of a file
//   --mix             with --synth: serve TWO models (r32 tiny-serving +
//                     r96) with a 3:1 open-loop traffic mix
//   --save <path>     with --synth: also write the artifact as NBFM
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "export/flat_model.h"
#include "export/flat_synth.h"
#include "runtime/compiled_model.h"
#include "runtime/engine.h"
#include "runtime/loadgen.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

using namespace nb;
using namespace nb::runtime;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: flat_serve <model.nbfm> | --synth [--mix] [--clients N] "
      "[--seconds S]\n"
      "         [--max-batch B] [--max-wait-us U] [--workers W] [--res R]\n"
      "         [--queue-depth D] [--deadline-ms MS] [--drop-on-shutdown]\n"
      "         [--open-loop --rate R [--seed S] [--slo-ms MS]\n"
      "          [--burst START:DUR:MULT]... [--high-lane-frac F]]\n"
      "         [--geo-mix GEO:W,GEO:W,...] [--buckets GEO,GEO,...]\n"
      "         [--bucket-waste F] [--save <path>]\n");
  return 2;
}

/// GEO is "HxW" or a square "R".
bool parse_geometry(const std::string& s, int64_t& h, int64_t& w) {
  const size_t x = s.find('x');
  if (x == std::string::npos) {
    h = w = std::atoll(s.c_str());
  } else {
    h = std::atoll(s.substr(0, x).c_str());
    w = std::atoll(s.substr(x + 1).c_str());
  }
  return h > 0 && w > 0;
}

/// "GEO:W,GEO:W,..." -> parallel geometry / weight lists.
bool parse_geo_mix(const std::string& s,
                   std::vector<std::pair<int64_t, int64_t>>& geos,
                   std::vector<double>& weights) {
  size_t pos = 0;
  while (pos < s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    const std::string item = s.substr(pos, comma - pos);
    const size_t colon = item.rfind(':');
    if (colon == std::string::npos) return false;
    int64_t h = 0, w = 0;
    if (!parse_geometry(item.substr(0, colon), h, w)) return false;
    const double weight = std::atof(item.substr(colon + 1).c_str());
    if (weight <= 0) return false;
    geos.emplace_back(h, w);
    weights.push_back(weight);
    pos = comma + 1;
  }
  return !geos.empty();
}

/// "GEO,GEO,..." -> bucket ladder rungs (validated at register time).
bool parse_buckets(const std::string& s, std::vector<BucketSpec>& ladder) {
  size_t pos = 0;
  while (pos < s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    int64_t h = 0, w = 0;
    if (!parse_geometry(s.substr(pos, comma - pos), h, w)) return false;
    ladder.push_back({h, w});
    pos = comma + 1;
  }
  return !ladder.empty();
}

bool parse_burst(const std::string& s, BurstSpec& out) {
  const size_t a = s.find(':');
  const size_t b = s.find(':', a + 1);
  if (a == std::string::npos || b == std::string::npos) return false;
  out.start_s = std::atof(s.substr(0, a).c_str());
  out.duration_s = std::atof(s.substr(a + 1, b - a - 1).c_str());
  out.multiplier = std::atof(s.substr(b + 1).c_str());
  return out.duration_s > 0 && out.multiplier > 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::string save_path;
  bool synth = false;
  bool mix = false;
  bool open_loop = false;
  bool drop_on_shutdown = false;
  int64_t clients = 8;
  double seconds = 3.0;
  int64_t res = 0;
  double rate = 200.0;
  uint64_t seed = 1;
  int64_t slo_ms = 0;
  double high_lane_frac = 0.0;
  std::vector<BurstSpec> bursts;
  std::vector<std::pair<int64_t, int64_t>> geo_mix;
  std::vector<double> geo_weights;
  EngineOptions opts;
  opts.batching.max_batch = 8;
  opts.batching.max_wait_us = 1000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--clients" && i + 1 < argc) {
      clients = std::atoll(argv[++i]);
    } else if (arg == "--seconds" && i + 1 < argc) {
      seconds = std::atof(argv[++i]);
    } else if (arg == "--max-batch" && i + 1 < argc) {
      opts.batching.max_batch = std::atoll(argv[++i]);
    } else if (arg == "--max-wait-us" && i + 1 < argc) {
      opts.batching.max_wait_us = std::atoll(argv[++i]);
    } else if (arg == "--workers" && i + 1 < argc) {
      opts.workers = std::atoll(argv[++i]);
    } else if (arg == "--res" && i + 1 < argc) {
      res = std::atoll(argv[++i]);
    } else if (arg == "--queue-depth" && i + 1 < argc) {
      opts.default_qos.max_queue_depth = std::atoll(argv[++i]);
    } else if (arg == "--deadline-ms" && i + 1 < argc) {
      opts.default_qos.default_deadline_us = std::atoll(argv[++i]) * 1000;
    } else if (arg == "--open-loop") {
      open_loop = true;
    } else if (arg == "--rate" && i + 1 < argc) {
      rate = std::atof(argv[++i]);
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "--slo-ms" && i + 1 < argc) {
      slo_ms = std::atoll(argv[++i]);
    } else if (arg == "--high-lane-frac" && i + 1 < argc) {
      high_lane_frac = std::atof(argv[++i]);
    } else if (arg == "--burst" && i + 1 < argc) {
      BurstSpec b;
      if (!parse_burst(argv[++i], b)) {
        std::fprintf(stderr, "flat_serve: bad --burst '%s' "
                     "(want START:DUR:MULT)\n", argv[i]);
        return 2;
      }
      bursts.push_back(b);
    } else if (arg == "--geo-mix" && i + 1 < argc) {
      if (!parse_geo_mix(argv[++i], geo_mix, geo_weights)) {
        std::fprintf(stderr, "flat_serve: bad --geo-mix '%s' "
                     "(want GEO:W,GEO:W,... with GEO = HxW or R)\n",
                     argv[i]);
        return 2;
      }
    } else if (arg == "--buckets" && i + 1 < argc) {
      if (!parse_buckets(argv[++i], opts.default_qos.bucketing.ladder)) {
        std::fprintf(stderr, "flat_serve: bad --buckets '%s' "
                     "(want GEO,GEO,... with GEO = HxW or R)\n", argv[i]);
        return 2;
      }
    } else if (arg == "--bucket-waste" && i + 1 < argc) {
      opts.default_qos.bucketing.max_pad_ratio = std::atof(argv[++i]);
    } else if (arg == "--drop-on-shutdown") {
      drop_on_shutdown = true;
    } else if (arg == "--synth") {
      synth = true;
    } else if (arg == "--mix") {
      mix = true;
    } else if (arg == "--save" && i + 1 < argc) {
      save_path = argv[++i];
    } else if (path.empty() && arg[0] != '-') {
      path = arg;
    } else {
      return usage();
    }
  }
  if (path.empty() && !synth) {
    std::fprintf(stderr, "flat_serve: pass a model file or --synth\n");
    return 2;
  }
  if (mix && !synth) {
    std::fprintf(stderr, "flat_serve: --mix requires --synth\n");
    return 2;
  }
  if (clients < 1) {
    std::fprintf(stderr, "flat_serve: --clients must be >= 1\n");
    return 2;
  }
  if (drop_on_shutdown) opts.on_shutdown = DrainPolicy::drop;

  // Resolve the model (or the --mix pair) into registry entries.
  struct Served {
    std::string name;
    std::shared_ptr<const CompiledModel> model;
    double weight;
  };
  std::vector<Served> served;
  if (synth) {
    Rng rng(20260730);
    exporter::FlatModel flat =
        exporter::synth::make_mbv2_flat(rng, 0.35f, 96, 100);
    if (!save_path.empty()) {
      flat.save(save_path);
      std::printf("saved synthetic artifact to %s\n", save_path.c_str());
    }
    if (mix) {
      Rng rng32(20260731);
      served.push_back({"mbv2_r32",
                        CompiledModel::compile(exporter::synth::make_mbv2_flat(
                            rng32, 0.35f, 32, 100)),
                        3.0});
      served.push_back({"mbv2_r96", CompiledModel::compile(std::move(flat)),
                        1.0});
    } else {
      served.push_back(
          {"m", CompiledModel::compile(std::move(flat)), 1.0});
    }
  } else {
    served.push_back({"m", CompiledModel::compile_file(path), 1.0});
  }

  Engine engine(opts);
  std::vector<ModelTraffic> traffic;
  for (const Served& s : served) {
    engine.register_model(s.name, s.model);
    int64_t r = res != 0 ? res : s.model->input_resolution();
    if (r == 0) {
      std::fprintf(stderr,
                   "flat_serve: artifact has no recorded resolution; pass "
                   "--res\n");
      return 2;
    }
    Rng rng(77);
    Tensor image({s.model->input_channels(), r, r});
    fill_uniform(image, rng, -1.0f, 1.0f);
    std::vector<Tensor> geo_images;
    for (const auto& [gh, gw] : geo_mix) {
      Tensor gi({s.model->input_channels(), gh, gw});
      fill_uniform(gi, rng, -1.0f, 1.0f);
      geo_images.push_back(std::move(gi));
    }
    traffic.push_back({s.name, std::move(image), std::move(geo_images)});
    std::printf("model %-9s %s (%lld ops, %lld B shared weights)\n",
                s.name.c_str(),
                synth ? "synthetic mbv2-flat w0.35" : path.c_str(),
                static_cast<long long>(s.model->op_count()),
                static_cast<long long>(s.model->weight_panel_bytes()));
  }
  std::printf("policy:        max_batch %lld, max_wait %lld us, %lld "
              "worker%s, queue depth %lld%s\n",
              static_cast<long long>(opts.batching.max_batch),
              static_cast<long long>(opts.batching.max_wait_us),
              static_cast<long long>(opts.workers),
              opts.workers == 1 ? "" : "s",
              static_cast<long long>(opts.default_qos.max_queue_depth),
              drop_on_shutdown ? ", drop-on-shutdown" : "");
  if (opts.default_qos.bucketing.enabled()) {
    std::printf("buckets:      ");
    for (const BucketSpec& b : opts.default_qos.bucketing.ladder) {
      std::printf(" %lldx%lld", static_cast<long long>(b.h),
                  static_cast<long long>(b.w));
    }
    std::printf(" (waste cap %.2fx)\n",
                opts.default_qos.bucketing.max_pad_ratio);
  }
  if (!geo_mix.empty()) {
    std::printf("geo mix:      ");
    for (size_t g = 0; g < geo_mix.size(); ++g) {
      std::printf(" %lldx%lld:%.3g",
                  static_cast<long long>(geo_mix[g].first),
                  static_cast<long long>(geo_mix[g].second), geo_weights[g]);
    }
    std::printf("\n");
  }

  LoadResult r;
  if (open_loop) {
    OpenLoopSpec spec;
    spec.rate_per_s = rate;
    spec.duration_s = seconds;
    spec.seed = seed;
    spec.bursts = bursts;
    spec.high_lane_fraction = high_lane_frac;
    spec.geo_weights = geo_weights;
    if (served.size() > 1) {
      for (const Served& s : served) spec.mix_weights.push_back(s.weight);
    }
    std::printf("open loop:     %.1f images/s offered for %.1f s, seed "
                "%llu, %zu burst%s, slo %lld ms, high-lane %.0f%%\n",
                rate, seconds, static_cast<unsigned long long>(seed),
                bursts.size(), bursts.size() == 1 ? "" : "s",
                static_cast<long long>(slo_ms), high_lane_frac * 100.0);
    r = run_open_loop(engine, traffic, spec, slo_ms * 1000);
  } else {
    std::printf("closed loop:   %lld clients for %.1f s, a rejected submit "
                "is retried at once\n",
                static_cast<long long>(clients), seconds);
    r = run_closed_loop(engine, traffic, clients, seconds);
  }
  engine.shutdown();
  const Engine::Stats st = engine.stats();
  std::printf("offered:       %lld requests in %.2f s",
              static_cast<long long>(r.offered), r.wall_s);
  if (open_loop) std::printf(" (max generator lag %.3f ms)", r.max_lag_s * 1e3);
  std::printf("\n");
  std::printf("goodput:       %lld completed -> %.1f images/s "
              "(within-SLO completions: %lld)\n",
              static_cast<long long>(r.completed), r.goodput_per_s(),
              static_cast<long long>(st.completed_within_deadline));
  std::printf("shed:          %lld (%.1f%%) — queue-full %lld, "
              "deadline@admit %lld, deadline@launch %lld, shutdown %lld, "
              "other %lld, faulted %lld\n",
              static_cast<long long>(r.shed()), r.shed_rate() * 100.0,
              static_cast<long long>(r.rejected_queue_full),
              static_cast<long long>(r.rejected_deadline),
              static_cast<long long>(r.dropped_deadline),
              static_cast<long long>(r.rejected_shutdown + r.dropped_shutdown),
              static_cast<long long>(r.rejected_other),
              static_cast<long long>(r.faulted));
  std::printf("latency:       accepted p50 %.3f ms  p99 %.3f ms  max %.3f ms "
              "(queue avg %.3f ms)\n",
              st.p50_ms, st.p99_ms, st.max_ms, st.avg_queue_ms);
  std::printf("batching:      %lld batches, avg batch %.2f\n",
              static_cast<long long>(st.batches), st.avg_batch);
  if (opts.default_qos.bucketing.enabled()) {
    std::printf("buckets:       %lld padded admissions, %lld "
                "mixed-geometry batches\n",
                static_cast<long long>(st.padded_accepted),
                static_cast<long long>(st.mixed_geometry_batches));
  }
  if (r.faulted > 0) {
    std::fprintf(stderr, "flat_serve: %lld requests faulted\n",
                 static_cast<long long>(r.faulted));
    return 1;
  }
  return 0;
}
