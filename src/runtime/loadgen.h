// Load generation for the serving Engine: every serving number in
// bench/ and tools/ comes from these client loops.
//
// Closed-loop clients (submit, wait, submit again) measure capacity, but
// they can never overload a server: their offered rate collapses to what
// it sustains. Real traffic is open-loop — arrivals happen on the
// *users'* schedule, independent of how the fleet is doing — and that is
// the regime where admission control, deadlines and shedding earn their
// keep. This module supplies:
//
//   * make_open_loop_schedule — a seed-deterministic Poisson arrival
//     schedule with burst replay (rate multipliers over time windows),
//     multi-model mixes and a high-lane fraction. Same seed, same spec ->
//     bit-identical schedule on every platform (PCG32 underneath), so an
//     overload run is comparable across commits.
//   * run_open_loop — replays a schedule against an Engine from one
//     generator thread, each request's absolute deadline anchored to its
//     SCHEDULED arrival (generator lag counts against the SLO, as it would
//     for a real user), then harvests every future.
//   * run_closed_loop — N client threads submitting and waiting until the
//     window closes.
//
// Both loops count every submit in exactly one outcome of the rejection
// taxonomy and return a LoadResult: the goodput, shed rate and lag that
// BENCH_serve.json and tools/flat_serve report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/engine.h"
#include "tensor/tensor.h"

namespace nb::runtime {

/// A burst window: while t in [start_s, start_s + duration_s) the offered
/// rate is scaled by `multiplier` (overlapping bursts multiply).
struct BurstSpec {
  double start_s = 0.0;
  double duration_s = 0.0;
  double multiplier = 1.0;
};

struct OpenLoopSpec {
  /// Base offered rate, all models combined, images/s.
  double rate_per_s = 100.0;
  double duration_s = 1.0;
  /// Seed for the whole schedule (arrival times, model picks, lane picks).
  uint64_t seed = 1;
  std::vector<BurstSpec> bursts;
  /// Relative traffic weight per model stream; empty = one stream.
  std::vector<double> mix_weights;
  /// Probability an arrival rides Lane::high (interactive traffic share).
  double high_lane_fraction = 0.0;
  /// Relative weight per input GEOMETRY within every stream; empty = each
  /// arrival uses its stream's single `image` (Arrival::geo stays 0 and no
  /// extra rng draw happens, so pre-geometry schedules replay
  /// bit-identically). Non-empty = each arrival additionally picks
  /// ModelTraffic::geo_images[geo] — the mixed-resolution traffic the
  /// bucketing bench and overload tests replay.
  std::vector<double> geo_weights;
};

struct Arrival {
  double t_s = 0.0;    // offset from run start
  int32_t stream = 0;  // index into the model mix
  Lane lane = Lane::normal;
  int32_t geo = 0;  // index into the geometry mix (0 when geo_weights empty)
};

/// Instantaneous rate multiplier at time t (1.0 outside every burst).
double rate_multiplier_at(const OpenLoopSpec& spec, double t_s);

/// The seed-deterministic arrival schedule (Poisson via thinning against
/// the burst-peak rate), sorted by time.
std::vector<Arrival> make_open_loop_schedule(const OpenLoopSpec& spec);

/// One model stream of a load mix: every request on this stream submits
/// `image` ([C, H, W]) against `name` — or, when `geo_images` is not empty,
/// one of those [C, H, W] tensors (geometries may differ per entry, which
/// is the whole point). The open loop picks `geo_images[Arrival::geo]`, so
/// there they must match the spec's geo_weights in size; the closed loop
/// walks them round-robin.
struct ModelTraffic {
  std::string name;
  Tensor image;
  std::vector<Tensor> geo_images;
};

/// Outcomes of one load run (or, summed with +=, of several).
struct LoadResult {
  int64_t offered = 0;  // submits attempted
  // Admission-time outcomes (submit threw RejectedError).
  int64_t rejected_queue_full = 0;
  int64_t rejected_deadline = 0;
  int64_t rejected_shutdown = 0;
  int64_t rejected_other = 0;
  // Future outcomes for admitted requests.
  int64_t completed = 0;         // delivered a value
  int64_t dropped_deadline = 0;  // RejectedError{Deadline} while queued
  int64_t dropped_shutdown = 0;  // RejectedError{ShuttingDown} (drop policy)
  int64_t faulted = 0;           // any non-rejection error
  double wall_s = 0.0;     // run start -> last future resolved
  double max_lag_s = 0.0;  // worst open-loop generator lateness
                           // vs the schedule (0 for a closed loop)

  /// Sums the counts and wall times (for runs made back to back) and keeps
  /// the worst lag.
  LoadResult& operator+=(const LoadResult& other);

  int64_t shed() const {
    return rejected_queue_full + rejected_deadline + rejected_shutdown +
           rejected_other + dropped_deadline + dropped_shutdown;
  }
  double shed_rate() const {
    return offered > 0
               ? static_cast<double>(shed()) / static_cast<double>(offered)
               : 0.0;
  }
  double goodput_per_s() const {
    return wall_s > 0 ? static_cast<double>(completed) / wall_s : 0.0;
  }
};

/// Replays `spec` against `engine`. `mix` must have one entry per mix
/// weight (or exactly one when weights are empty). `slo_us` > 0 attaches an
/// absolute deadline of scheduled-arrival + slo_us to every request.
LoadResult run_open_loop(Engine& engine, const std::vector<ModelTraffic>& mix,
                         const OpenLoopSpec& spec, int64_t slo_us);

/// Runs `clients` client threads against `engine` for `seconds`. Client c
/// drives mix[c % mix.size()] (normal lane, no deadline), walking its
/// geo_images round-robin from index c: submit, wait, submit again. A
/// rejected submit is counted and retried at once, so a queue too shallow
/// for the clients shows as shed load. Returns once every future resolved.
LoadResult run_closed_loop(Engine& engine, const std::vector<ModelTraffic>& mix,
                           int64_t clients, double seconds);

}  // namespace nb::runtime
