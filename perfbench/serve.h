// serve_mixed_r32: the open-loop serving workload.
//
// Seeded Poisson arrivals over sixteen near-32x32 geometries are sent to an
// Engine serving the synthetic mbv2_w035_r32 on the fast backend, at two
// frozen rates (light, peak). One generator thread submits on schedule and
// one observer thread polls every outstanding future, so each request is
// timed from its SCHEDULED arrival to the moment its result is observed and
// no request is observed behind an earlier, slower one.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "export/flat_model.h"
#include "runtime/engine.h"
#include "trace.h"

namespace pb {

/// The synthetic serving graph (mbv2, width 0.35, r32, 100 classes).
nb::exporter::FlatModel make_serve_model(uint64_t seed);

/// The Engine settings of the workload; `workers` and `fault_injector`
/// differ only in the self-test.
nb::runtime::EngineOptions serve_engine_options(
    int64_t workers = 2,
    std::shared_ptr<nb::runtime::FaultInjector> fault_injector = nullptr);

/// The one place that reads Engine::stats(): every Engine figure the
/// benchmark reports goes through this adapter.
struct EngineView {
  int64_t accepted = 0, completed = 0, failed = 0;
  int64_t rejected_queue_full = 0, dropped_deadline = 0;
  int64_t padded_accepted = 0, mixed_geometry_batches = 0, batches = 0;
  double queue_ms_sum = 0.0;  // avg_queue_ms x completed
  double p50_ms = 0.0, p99_ms = 0.0;
};
EngineView read_engine(const nb::runtime::Engine& engine);

/// One scheduled request: when it is due (offset from the phase start)
/// and which pooled image it carries.
struct Arrival {
  int64_t due_ns = 0;
  int32_t image = 0;
};

/// Poisson arrivals at `rate_per_s` for `seconds`, each drawing an image
/// uniformly from a pool of `images`, from the seed alone.
std::vector<Arrival> make_schedule(uint64_t seed, double rate_per_s,
                                   double seconds, int64_t images);

/// What the observer saw in one phase.
struct PhaseStats {
  std::string name;
  double seconds = 0.0;
  int64_t offered = 0;
  int64_t ok = 0;  // completed with the oracle's bytes
  int64_t ok_within_slo = 0;
  int64_t wrong = 0;    // completed with other bytes
  int64_t faulted = 0;  // future resolved with a non-typed error
  int64_t shed_queue_full = 0, rejected_deadline = 0, dropped = 0;
  int64_t unresolved = 0;
  std::vector<double> latency_ms;  // completed, from scheduled arrival
  std::vector<double> submit_us;   // wall time inside Engine::submit
  double max_lag_ms = 0.0;         // generator lateness
  // The GeneratorPause request's latency from its scheduled arrival and
  // from its submit call (0 when it did not complete).
  double paused_ms = 0.0, paused_from_submit_ms = 0.0;
  double pad_pixels = 0.0, exec_pixels = 0.0;  // over completed requests
  EngineView engine;  // this phase's Engine counters (after - before)
};

/// Test seam for the self-test: the generator sends request `index` `ms`
/// after it is due (simulated generator lag).
struct GeneratorPause {
  int64_t index = -1;
  double ms = 0.0;
};

/// Drives one open-loop phase against `engine` and waits until every
/// admitted request resolved. `oracle[i]` is the expected logits of
/// `images[i]`.
PhaseStats run_phase(nb::runtime::Engine& engine, const std::string& name,
                     const std::vector<nb::Tensor>& images,
                     const std::vector<nb::Tensor>& oracle,
                     const std::vector<Arrival>& schedule, double seconds,
                     Tracer& tracer, GeneratorPause pause = {});

/// The pooled request images, [1, 3, h, w], geometry-major: every
/// near-32x32 geometry times a few seeded images.
std::vector<nb::Tensor> make_serve_images(uint64_t seed);

/// The serving oracle: Session::run_padded of each image at the 32x32 rung.
std::vector<nb::Tensor> serve_oracle(
    const std::shared_ptr<const nb::runtime::CompiledModel>& model,
    const std::vector<nb::Tensor>& images);

/// Builds a serving Engine for `model` and warms it: every pooled image
/// once, then a queue-filling burst, so each worker holds its batch-1 and
/// full-batch plans before anything is measured.
std::unique_ptr<nb::runtime::Engine> start_engine(
    const std::shared_ptr<const nb::runtime::CompiledModel>& model,
    const std::vector<nb::Tensor>& images,
    const nb::runtime::EngineOptions& options);

/// The workload. Untraced: the end-to-end metrics, `seconds` split between
/// the two phases. Traced: the same phases with spans, plus the runtime and
/// loadgen layer metrics.
void run_serve(const Args& args, double seconds, Tracer& tracer,
               Result& result);

}  // namespace pb
