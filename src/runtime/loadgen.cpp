#include "runtime/loadgen.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <future>
#include <thread>

#include "tensor/rng.h"

namespace nb::runtime {

using Clock = std::chrono::steady_clock;

double rate_multiplier_at(const OpenLoopSpec& spec, double t_s) {
  double m = 1.0;
  for (const BurstSpec& b : spec.bursts) {
    if (t_s >= b.start_s && t_s < b.start_s + b.duration_s) {
      m *= b.multiplier;
    }
  }
  return m;
}

namespace {

/// Peak multiplier any instant can reach: the product of every burst's
/// multiplier bounds the overlap case. Floors at 1 so thinning acceptance
/// probabilities stay in (0, 1].
double peak_multiplier(const OpenLoopSpec& spec) {
  double peak = 1.0;
  for (const BurstSpec& b : spec.bursts) {
    if (b.multiplier > 1.0) peak *= b.multiplier;
  }
  return peak;
}

int32_t pick_stream(Rng& rng, const std::vector<double>& weights,
                    double total) {
  if (weights.empty()) return 0;
  // One uniform draw regardless of outcome keeps the draw sequence (and so
  // the rest of the schedule) stable under weight edits.
  const double u = static_cast<double>(rng.uniform()) * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (u < acc) return static_cast<int32_t>(i);
  }
  return static_cast<int32_t>(weights.size() - 1);
}

}  // namespace

std::vector<Arrival> make_open_loop_schedule(const OpenLoopSpec& spec) {
  NB_CHECK(spec.rate_per_s > 0, "loadgen: rate_per_s must be > 0");
  NB_CHECK(spec.duration_s > 0, "loadgen: duration_s must be > 0");
  NB_CHECK(spec.high_lane_fraction >= 0.0 && spec.high_lane_fraction <= 1.0,
           "loadgen: high_lane_fraction must be in [0, 1]");
  double weight_total = 0.0;
  for (const double w : spec.mix_weights) {
    NB_CHECK(w >= 0, "loadgen: mix weights must be >= 0");
    weight_total += w;
  }
  NB_CHECK(spec.mix_weights.empty() || weight_total > 0,
           "loadgen: mix weights must not all be zero");
  double geo_total = 0.0;
  for (const double w : spec.geo_weights) {
    NB_CHECK(w >= 0, "loadgen: geo weights must be >= 0");
    geo_total += w;
  }
  NB_CHECK(spec.geo_weights.empty() || geo_total > 0,
           "loadgen: geo weights must not all be zero");
  for (const BurstSpec& b : spec.bursts) {
    NB_CHECK(b.multiplier > 0, "loadgen: burst multiplier must be > 0");
    NB_CHECK(b.duration_s >= 0, "loadgen: burst duration must be >= 0");
  }

  // Lewis-Shedler thinning: draw a homogeneous Poisson process at the peak
  // rate, keep each candidate with probability rate(t)/peak_rate. Every
  // candidate consumes a fixed number of draws, so the schedule is a pure
  // function of (spec, seed).
  const double peak_rate = spec.rate_per_s * peak_multiplier(spec);
  Rng rng(spec.seed, 0x10adULL);
  std::vector<Arrival> schedule;
  schedule.reserve(static_cast<size_t>(spec.rate_per_s * spec.duration_s));
  double t = 0.0;
  for (;;) {
    const double u = static_cast<double>(rng.uniform());
    t += -std::log1p(-u) / peak_rate;
    if (t >= spec.duration_s) break;
    const double keep = static_cast<double>(rng.uniform());
    if (keep * peak_rate >= spec.rate_per_s * rate_multiplier_at(spec, t)) {
      continue;
    }
    Arrival a;
    a.t_s = t;
    a.stream = pick_stream(rng, spec.mix_weights, weight_total);
    a.lane = static_cast<double>(rng.uniform()) < spec.high_lane_fraction
                 ? Lane::high
                 : Lane::normal;
    // Drawn only when a geometry mix exists, so every pre-geometry
    // (spec, seed) pair replays its exact historical schedule.
    a.geo = pick_stream(rng, spec.geo_weights, geo_total);
    schedule.push_back(a);
  }
  return schedule;
}

LoadResult& LoadResult::operator+=(const LoadResult& other) {
  offered += other.offered;
  rejected_queue_full += other.rejected_queue_full;
  rejected_deadline += other.rejected_deadline;
  rejected_shutdown += other.rejected_shutdown;
  rejected_other += other.rejected_other;
  completed += other.completed;
  dropped_deadline += other.dropped_deadline;
  dropped_shutdown += other.dropped_shutdown;
  faulted += other.faulted;
  wall_s += other.wall_s;
  max_lag_s = std::max(max_lag_s, other.max_lag_s);
  return *this;
}

namespace {

/// Submits one request and counts it as offered. A rejected submit lands
/// in its admission bucket and returns an invalid future.
std::future<Tensor> submit_counted(Engine& engine, const std::string& name,
                                   const Tensor& image,
                                   const SubmitOptions& opts, LoadResult& r) {
  ++r.offered;
  try {
    return engine.submit(name, image, opts);
  } catch (const RejectedError& e) {
    switch (e.reason()) {
      case RejectReason::QueueFull:
        ++r.rejected_queue_full;
        break;
      case RejectReason::Deadline:
        ++r.rejected_deadline;
        break;
      case RejectReason::ShuttingDown:
        ++r.rejected_shutdown;
        break;
      default:
        ++r.rejected_other;
        break;
    }
  }
  return {};
}

/// Waits for an admitted request and counts its outcome.
void resolve_counted(std::future<Tensor>& f, LoadResult& r) {
  try {
    (void)f.get();
    ++r.completed;
  } catch (const RejectedError& e) {
    if (e.reason() == RejectReason::Deadline) {
      ++r.dropped_deadline;
    } else if (e.reason() == RejectReason::ShuttingDown) {
      ++r.dropped_shutdown;
    } else {
      ++r.rejected_other;
    }
  } catch (...) {
    ++r.faulted;
  }
}

}  // namespace

LoadResult run_open_loop(Engine& engine, const std::vector<ModelTraffic>& mix,
                         const OpenLoopSpec& spec, int64_t slo_us) {
  NB_CHECK(!mix.empty(), "loadgen: empty model mix");
  NB_CHECK(spec.mix_weights.empty()
               ? mix.size() == 1
               : mix.size() == spec.mix_weights.size(),
           "loadgen: mix size must match mix_weights");
  for (const ModelTraffic& traffic : mix) {
    NB_CHECK(traffic.geo_images.empty() ||
                 traffic.geo_images.size() == spec.geo_weights.size(),
             "loadgen: geo_images must be empty or match geo_weights");
  }
  const std::vector<Arrival> schedule = make_open_loop_schedule(spec);

  LoadResult r;
  std::vector<std::future<Tensor>> futures;
  futures.reserve(schedule.size());
  const auto t0 = Clock::now();
  for (const Arrival& a : schedule) {
    const auto scheduled =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(a.t_s));
    std::this_thread::sleep_until(scheduled);
    const double lag_s =
        std::chrono::duration<double>(Clock::now() - scheduled).count();
    if (lag_s > r.max_lag_s) r.max_lag_s = lag_s;

    const ModelTraffic& traffic = mix[static_cast<size_t>(a.stream)];
    const Tensor& image =
        traffic.geo_images.empty()
            ? traffic.image
            : traffic.geo_images[static_cast<size_t>(a.geo)];
    SubmitOptions opts;
    opts.lane = a.lane;
    if (slo_us > 0) {
      // Anchored to the scheduled arrival: if the generator (or the queue)
      // runs late, that lateness counts against the SLO.
      opts.deadline = scheduled + std::chrono::microseconds(slo_us);
    }
    std::future<Tensor> f =
        submit_counted(engine, traffic.name, image, opts, r);
    if (f.valid()) futures.push_back(std::move(f));
  }
  for (std::future<Tensor>& f : futures) resolve_counted(f, r);
  r.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return r;
}

LoadResult run_closed_loop(Engine& engine, const std::vector<ModelTraffic>& mix,
                           int64_t clients, double seconds) {
  NB_CHECK(!mix.empty(), "loadgen: empty model mix");
  NB_CHECK(clients >= 1, "loadgen: clients must be >= 1");
  std::vector<LoadResult> per_client(static_cast<size_t>(clients));
  std::vector<std::exception_ptr> errors(per_client.size());
  const auto t0 = Clock::now();
  const auto stop = t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds));
  {
    // Joined when this scope ends, on the exception path too.
    std::vector<std::jthread> threads;
    threads.reserve(per_client.size());
    for (size_t c = 0; c < per_client.size(); ++c) {
      threads.emplace_back([&, c] {
        const ModelTraffic& traffic = mix[c % mix.size()];
        const std::vector<Tensor>& geos = traffic.geo_images;
        LoadResult& r = per_client[c];
        size_t next_geo = c;
        try {
          while (Clock::now() < stop) {
            const Tensor& image =
                geos.empty() ? traffic.image : geos[next_geo++ % geos.size()];
            std::future<Tensor> f =
                submit_counted(engine, traffic.name, image, {}, r);
            if (f.valid()) resolve_counted(f, r);
          }
        } catch (...) {
          // A malformed submit (a caller bug, not a rejection) ends this
          // client; it is rethrown once every client has joined.
          errors[c] = std::current_exception();
        }
      });
    }
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  LoadResult total;
  for (const LoadResult& r : per_client) total += r;
  total.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return total;
}

}  // namespace nb::runtime
