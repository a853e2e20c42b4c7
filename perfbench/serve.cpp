#include "serve.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <thread>

#include "export/flat_synth.h"
#include "runtime/bucketing.h"
#include "runtime/compiled_model.h"
#include "runtime/session.h"
#include "tensor/rng.h"
#include "tensor/tensor_ops.h"

namespace pb {

using nb::Tensor;
using nb::runtime::CompiledModel;
using nb::runtime::Engine;
using nb::runtime::RejectedError;
using nb::runtime::RejectReason;

namespace {

/// Offered loads, frozen so every commit is sent the same traffic: ~0.2x
/// and ~1.4x the capacity of this Engine configuration (~2,350 requests/s
/// on a 4-core AVX-512 Xeon VM) when the benchmark was written. The light
/// rate is low enough to stay light when the shared host runs ~1.8x slower,
/// so its latency is the batcher's wait plus service, not queueing.
constexpr double kLightRate = 500.0;
constexpr double kPeakRate = 3300.0;

/// Each request's deadline: its scheduled arrival plus the SLO.
constexpr auto kSlo = std::chrono::milliseconds(100);

/// The sixteen near-32x32 geometries of bench_serve_report's mixed row,
/// all within pad ratio 1.19 of the 32x32 rung.
constexpr int64_t kGeometries[][2] = {
    {27, 32}, {28, 31}, {28, 32}, {29, 30}, {29, 31}, {29, 32},
    {30, 29}, {30, 30}, {30, 31}, {30, 32}, {31, 29}, {31, 30},
    {31, 31}, {31, 32}, {32, 27}, {32, 32}};
constexpr int64_t kImagesPerGeometry = 4;

}  // namespace

nb::exporter::FlatModel make_serve_model(uint64_t seed) {
  nb::Rng rng(seed);
  return nb::exporter::synth::make_mbv2_flat(rng, 0.35f, 32, 100);
}

nb::runtime::EngineOptions serve_engine_options(
    int64_t workers, std::shared_ptr<nb::runtime::FaultInjector> injector) {
  nb::runtime::EngineOptions opts;
  opts.batching.max_batch = 8;
  opts.batching.max_wait_us = 2000;
  opts.workers = workers;
  opts.default_qos.max_queue_depth = 64;
  opts.default_qos.bucketing.ladder = {{32, 32}};
  opts.default_qos.bucketing.max_pad_ratio = 1.2;
  opts.fault_injector = std::move(injector);
  return opts;
}

EngineView read_engine(const Engine& engine) {
  const Engine::Stats s = engine.stats();
  EngineView v;
  v.accepted = s.accepted;
  v.completed = s.completed;
  v.failed = s.failed;
  v.rejected_queue_full = s.rejected_queue_full;
  v.dropped_deadline = s.dropped_deadline;
  v.padded_accepted = s.padded_accepted;
  v.mixed_geometry_batches = s.mixed_geometry_batches;
  v.batches = s.batches;
  v.queue_ms_sum = s.avg_queue_ms * static_cast<double>(s.completed);
  v.p50_ms = s.p50_ms;
  v.p99_ms = s.p99_ms;
  return v;
}

std::vector<Arrival> make_schedule(uint64_t seed, double rate_per_s,
                                   double seconds, int64_t images) {
  SplitMix rng(seed);
  std::vector<Arrival> out;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.uniform()) / rate_per_s;
    if (t >= seconds) break;
    Arrival a;
    a.due_ns = static_cast<int64_t>(t * 1e9);
    a.image = static_cast<int32_t>(rng.below(images));
    out.push_back(a);
  }
  return out;
}

PhaseStats run_phase(Engine& engine, const std::string& name,
                     const std::vector<Tensor>& images,
                     const std::vector<Tensor>& oracle,
                     const std::vector<Arrival>& schedule, double seconds,
                     Tracer& tracer, GeneratorPause pause) {
  PhaseStats st;
  st.name = name;
  st.seconds = seconds;
  st.offered = static_cast<int64_t>(schedule.size());
  const EngineView before = read_engine(engine);
  const nb::runtime::BucketingConfig buckets =
      serve_engine_options().default_qos.bucketing;
  const int32_t phase_span =
      tracer.enabled() ? tracer.open("serve.phase." + name) : -1;

  struct Pending {
    int64_t index = 0;
    Clock::time_point due, submitted;
    std::future<Tensor> result;
  };
  std::mutex mu;
  std::vector<Pending> inbox;  // guarded by mu
  bool sending = true;         // guarded by mu

  // The observer: polls every outstanding future, so a slow request never
  // delays the observation of a faster one behind it.
  PhaseStats seen;
  const auto observe = [&] {
    std::vector<Pending> outstanding;
    while (true) {
      bool last = false;
      {
        std::lock_guard<std::mutex> lock(mu);
        for (Pending& p : inbox) outstanding.push_back(std::move(p));
        inbox.clear();
        last = !sending;
      }
      if (last && outstanding.empty()) return;
      size_t kept = 0;
      for (size_t i = 0; i < outstanding.size(); ++i) {
        Pending& p = outstanding[i];
        if (p.result.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          if (kept != i) outstanding[kept] = std::move(p);
          ++kept;
          continue;
        }
        const Clock::time_point now = Clock::now();
        const int32_t img = schedule[static_cast<size_t>(p.index)].image;
        try {
          const Tensor y = p.result.get();
          if (!bitwise_equal(y, oracle[static_cast<size_t>(img)])) {
            ++seen.wrong;
          } else {
            ++seen.ok;
            seen.ok_within_slo += now <= p.due + kSlo ? 1 : 0;
            seen.latency_ms.push_back(ms_between(p.due, now));
            if (p.index == pause.index) {
              seen.paused_ms = ms_between(p.due, now);
              seen.paused_from_submit_ms = ms_between(p.submitted, now);
            }
            const Tensor& x = images[static_cast<size_t>(img)];
            const int64_t h = x.size(2), w = x.size(3);
            const nb::runtime::BucketSpec b =
                nb::runtime::assign_bucket(buckets, h, w);
            const double exec = b.valid() ? static_cast<double>(b.h * b.w)
                                          : static_cast<double>(h * w);
            seen.exec_pixels += exec;
            seen.pad_pixels += exec - static_cast<double>(h * w);
          }
        } catch (const RejectedError&) {
          ++seen.dropped;  // expired while queued: a typed shed
        } catch (...) {
          ++seen.faulted;
        }
        if (tracer.enabled()) {
          tracer.record("serve.request", p.due, now, phase_span, p.index);
        }
      }
      const bool progressed = kept < outstanding.size();
      outstanding.erase(outstanding.begin() + static_cast<std::ptrdiff_t>(kept),
                        outstanding.end());
      if (!progressed) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
  };
  std::exception_ptr observer_error;
  std::thread observer([&] {
    try {
      observe();
    } catch (...) {
      observer_error = std::current_exception();
    }
  });

  // The generator: this thread, on schedule.
  std::exception_ptr generator_error;
  try {
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(1);
    for (size_t i = 0; i < schedule.size(); ++i) {
      const Arrival& a = schedule[i];
      const Clock::time_point due = start + std::chrono::nanoseconds(a.due_ns);
      std::this_thread::sleep_until(
          static_cast<int64_t>(i) == pause.index
              ? due + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double, std::milli>(pause.ms))
              : due);
      const Clock::time_point t0 = Clock::now();
      st.max_lag_ms = std::max(st.max_lag_ms, ms_between(due, t0));
      nb::runtime::SubmitOptions opts;
      opts.deadline = due + kSlo;
      try {
        std::future<Tensor> f =
            engine.submit("m", images[static_cast<size_t>(a.image)], opts);
        std::lock_guard<std::mutex> lock(mu);
        inbox.push_back({static_cast<int64_t>(i), due, t0, std::move(f)});
      } catch (const RejectedError& e) {
        if (e.reason() == RejectReason::QueueFull) {
          ++st.shed_queue_full;
        } else {
          ++st.rejected_deadline;
        }
      }
      if (tracer.enabled()) {
        const Clock::time_point t1 = Clock::now();
        st.submit_us.push_back(ms_between(t0, t1) * 1e3);
        tracer.record("runtime.submit", t0, t1, phase_span,
                      static_cast<int64_t>(i));
      }
    }
  } catch (...) {
    generator_error = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    sending = false;
  }
  observer.join();
  if (generator_error) std::rethrow_exception(generator_error);
  if (observer_error) std::rethrow_exception(observer_error);
  tracer.close(phase_span);

  st.ok = seen.ok;
  st.ok_within_slo = seen.ok_within_slo;
  st.wrong = seen.wrong;
  st.faulted = seen.faulted;
  st.dropped = seen.dropped;
  st.latency_ms = std::move(seen.latency_ms);
  st.paused_ms = seen.paused_ms;
  st.paused_from_submit_ms = seen.paused_from_submit_ms;
  st.pad_pixels = seen.pad_pixels;
  st.exec_pixels = seen.exec_pixels;
  st.unresolved = st.offered - st.ok - st.wrong - st.faulted - st.dropped -
                  st.shed_queue_full - st.rejected_deadline;

  const EngineView after = read_engine(engine);
  EngineView& d = st.engine;
  d = after;  // latency percentiles: the later read's ring
  d.accepted -= before.accepted;
  d.completed -= before.completed;
  d.failed -= before.failed;
  d.rejected_queue_full -= before.rejected_queue_full;
  d.dropped_deadline -= before.dropped_deadline;
  d.padded_accepted -= before.padded_accepted;
  d.mixed_geometry_batches -= before.mixed_geometry_batches;
  d.batches -= before.batches;
  d.queue_ms_sum -= before.queue_ms_sum;
  return st;
}

std::vector<Tensor> make_serve_images(uint64_t seed) {
  nb::Rng rng(seed);
  std::vector<Tensor> images;
  for (const auto& g : kGeometries) {
    for (int64_t v = 0; v < kImagesPerGeometry; ++v) {
      Tensor t({1, 3, g[0], g[1]});
      nb::fill_uniform(t, rng, -1.0f, 1.0f);
      images.push_back(std::move(t));
    }
  }
  return images;
}

std::vector<Tensor> serve_oracle(
    const std::shared_ptr<const CompiledModel>& model,
    const std::vector<Tensor>& images) {
  nb::runtime::Session session(model);
  std::vector<Tensor> out;
  for (const Tensor& x : images) out.push_back(session.run_padded(x, 32, 32));
  return out;
}

std::unique_ptr<Engine> start_engine(
    const std::shared_ptr<const CompiledModel>& model,
    const std::vector<Tensor>& images,
    const nb::runtime::EngineOptions& options) {
  auto engine = std::make_unique<Engine>(options);
  engine->register_model("m", model);
  for (const Tensor& x : images) (void)engine->submit("m", x).get();
  std::vector<std::future<Tensor>> burst;
  for (int64_t i = 0; i < options.default_qos.max_queue_depth; ++i) {
    burst.push_back(
        engine->submit("m", images[static_cast<size_t>(i) % images.size()]));
  }
  for (auto& f : burst) (void)f.get();
  return engine;
}

void run_serve(const Args& args, double seconds, Tracer& tracer,
               Result& result) {
  const nb::exporter::FlatModel program =
      make_serve_model(derive_seed(args.seed, "serve-weights"));
  const std::vector<Tensor> images =
      make_serve_images(derive_seed(args.seed, "serve-images"));
  const double phase_s = seconds / 2.0;
  const std::vector<Arrival> light = make_schedule(
      derive_seed(args.seed, "serve-light"), kLightRate, phase_s,
      static_cast<int64_t>(images.size()));
  const std::vector<Arrival> peak = make_schedule(
      derive_seed(args.seed, "serve-peak"), kPeakRate, phase_s,
      static_cast<int64_t>(images.size()));
  {
    Hasher w, im, sched;
    w.flat_model(program);
    for (const Tensor& x : images) im.tensor(x);
    for (const auto* s : {&light, &peak}) {
      for (const Arrival& a : *s) sched.pod(a.due_ns), sched.pod(a.image);
    }
    result.fingerprint.emplace_back("serve.weights", w.hex());
    result.fingerprint.emplace_back("serve.images", im.hex());
    result.fingerprint.emplace_back("serve.schedule", sched.hex());
  }

  // Set-up (timed): compile, start the Engine, warm every plan. Repeated;
  // the last repetition's Engine serves the light phase.
  const nb::runtime::EngineOptions options = serve_engine_options();
  std::shared_ptr<const CompiledModel> model;
  std::unique_ptr<Engine> engine;
  std::vector<double> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    engine.reset();
    nb::exporter::FlatModel fresh = fresh_copy(program);
    const auto t0 = Clock::now();
    model = CompiledModel::compile(std::move(fresh));
    engine = start_engine(model, images, options);
    setup.push_back(seconds_since(t0));
  }
  const std::vector<Tensor> oracle = serve_oracle(model, images);
  reset_peak_rss();

  const PhaseStats l =
      run_phase(*engine, "light", images, oracle, light, phase_s, tracer);
  // A fresh Engine per phase keeps each phase's Engine stats its own.
  engine.reset();
  engine = start_engine(model, images, options);
  const PhaseStats p =
      run_phase(*engine, "peak", images, oracle, peak, phase_s, tracer);
  engine.reset();

  int64_t shed = 0;
  for (const PhaseStats* s : {&l, &p}) {
    result.attempted += s->offered;
    result.failed += s->wrong + s->faulted + s->unresolved;
    shed += s->shed_queue_full + s->rejected_deadline + s->dropped;
    result.note(strf(
        "serve %-5s offered %lld ok %lld (within SLO %lld) shed: queue-full "
        "%lld, deadline %lld+%lld | wrong %lld faulted %lld unresolved %lld "
        "| max generator lag %.2f ms",
        s->name.c_str(), static_cast<long long>(s->offered),
        static_cast<long long>(s->ok), static_cast<long long>(s->ok_within_slo),
        static_cast<long long>(s->shed_queue_full),
        static_cast<long long>(s->rejected_deadline),
        static_cast<long long>(s->dropped), static_cast<long long>(s->wrong),
        static_cast<long long>(s->faulted),
        static_cast<long long>(s->unresolved), s->max_lag_ms));
  }
  result.check("serve: every result memcmp-equal to run_padded at 32x32",
               l.wrong + p.wrong == 0);
  result.check("serve: no faulted or unresolved request",
               l.faulted + p.faulted + l.unresolved + p.unresolved == 0);
  result.note(strf("serve failed_frac (sheds + faults + wrong) %.4f of %lld",
                   static_cast<double>(shed + result.failed) /
                       static_cast<double>(result.attempted),
                   static_cast<long long>(result.attempted)));
  result.note(strf("serve light p99 %.3f ms (context only)",
                   percentile(l.latency_ms, 0.99)));

  result.add_e2e("setup_s", median(setup), "s",
                 static_cast<int64_t>(setup.size()));
  result.add_e2e("p50_ms", median(l.latency_ms), "ms",
                 static_cast<int64_t>(l.latency_ms.size()));
  result.add_e2e("tail_ms", percentile(p.latency_ms, 0.99), "ms",
                 static_cast<int64_t>(p.latency_ms.size()));
  result.add_e2e("rate_per_s",
                 static_cast<double>(p.ok_within_slo) / p.seconds, "1/s",
                 p.ok_within_slo);
  if (!tracer.enabled()) return;

  for (const PhaseStats* s : {&l, &p}) {
    const std::string& ph = s->name;
    const EngineView& e = s->engine;
    const auto n = static_cast<int64_t>(s->submit_us.size());
    result.add_layer("runtime.submit_us_p50." + ph, median(s->submit_us),
                     "us", n);
    result.add_layer("runtime.submit_us_p99." + ph,
                     percentile(s->submit_us, 0.99), "us", n);
    result.add_layer("runtime.queue_ms_avg." + ph,
                     e.completed > 0
                         ? e.queue_ms_sum / static_cast<double>(e.completed)
                         : 0.0,
                     "ms", e.completed);
    result.add_layer("runtime.avg_batch." + ph,
                     e.batches > 0 ? static_cast<double>(e.completed + e.failed) /
                                         static_cast<double>(e.batches)
                                   : 0.0,
                     "requests", e.batches);
    result.add_layer("runtime.mixed_batch_frac." + ph,
                     e.batches > 0 ? static_cast<double>(e.mixed_geometry_batches) /
                                         static_cast<double>(e.batches)
                                   : 0.0,
                     "ratio", e.batches);
    result.add_layer("runtime.dropped_deadline." + ph,
                     static_cast<double>(e.dropped_deadline), "count", 1);
    result.add_layer("loadgen.max_lag_ms." + ph, s->max_lag_ms, "ms",
                     s->offered);
  }
  result.add_layer("runtime.engine_p50_ms.light", l.engine.p50_ms, "ms",
                   l.engine.completed);
  result.add_layer("runtime.engine_p99_ms.peak", p.engine.p99_ms, "ms",
                   p.engine.completed);
  result.add_layer("runtime.shed_queue_full.peak",
                   static_cast<double>(p.engine.rejected_queue_full), "count",
                   1);
  const int64_t accepted = l.engine.accepted + p.engine.accepted;
  result.add_layer("runtime.padded_frac",
                   accepted > 0 ? static_cast<double>(l.engine.padded_accepted +
                                                      p.engine.padded_accepted) /
                                      static_cast<double>(accepted)
                                : 0.0,
                   "ratio", accepted);
  result.add_layer("runtime.pad_waste_frac",
                   (l.pad_pixels + p.pad_pixels) /
                       std::max(1.0, l.exec_pixels + p.exec_pixels),
                   "ratio", l.ok + p.ok);
}

}  // namespace pb
