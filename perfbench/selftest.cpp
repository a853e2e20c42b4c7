#include "selftest.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

#include "common.h"
#include "infer.h"
#include "replay.h"
#include "runtime/compiled_model.h"
#include "serve.h"
#include "trace.h"
#include "train.h"

namespace pb {

namespace {

using nb::Tensor;
using nb::runtime::CompiledModel;
using nb::runtime::Engine;

int g_failed = 0;

void expect(bool ok, const std::string& what) {
  std::printf("selftest %s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
  std::fflush(stdout);
  g_failed += ok ? 0 : 1;
}

/// Sleeps inside the Nth batch executed after it is armed.
class StallOnce : public nb::runtime::FaultInjector {
 public:
  StallOnce(int64_t nth, double ms) : nth_(nth), ms_(ms) {}
  void arm() { armed_ = true; }
  void on_batch_execute(const std::string&, int64_t) override {
    if (armed_ && ++seen_ == nth_) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(ms_));
    }
  }

 private:
  const int64_t nth_;
  const double ms_;
  std::atomic<bool> armed_{false};
  std::atomic<int64_t> seen_{0};
};

/// A one-worker Engine warmed with one sequential request per image, so
/// its admission-timed latency ring holds only short samples.
std::unique_ptr<Engine> quiet_engine(
    const std::shared_ptr<const CompiledModel>& model,
    const std::vector<Tensor>& images,
    std::shared_ptr<nb::runtime::FaultInjector> injector) {
  auto engine = std::make_unique<Engine>(serve_engine_options(1, injector));
  engine->register_model("m", model);
  for (const Tensor& x : images) (void)engine->submit("m", x).get();
  return engine;
}

void test_open_loop_timing() {
  const uint64_t seed = 7;
  const auto model = CompiledModel::compile(make_serve_model(seed));
  const std::vector<Tensor> images = make_serve_images(seed);
  const std::vector<Tensor> oracle = serve_oracle(model, images);
  const std::vector<Arrival> schedule =
      make_schedule(seed, 300.0, 1.5, static_cast<int64_t>(images.size()));
  Tracer off(false);

  constexpr double kStallMs = 80.0;
  auto stall = std::make_shared<StallOnce>(40, kStallMs);
  {
    auto engine = quiet_engine(model, images, stall);
    stall->arm();
    const PhaseStats s =
        run_phase(*engine, "stall", images, oracle, schedule, 1.5, off);
    const double max_ms =
        *std::max_element(s.latency_ms.begin(), s.latency_ms.end());
    expect(s.wrong == 0 && s.faulted == 0 && s.unresolved == 0,
           "stalled phase: every request resolved with the oracle's bytes");
    expect(max_ms >= kStallMs,
           strf("a batch stalled %.0f ms shows in open-loop latency (max "
                "%.1f ms)",
                kStallMs, max_ms));
  }

  constexpr double kPauseMs = 60.0;
  {
    auto engine = quiet_engine(model, images, nullptr);
    const PhaseStats s = run_phase(*engine, "lag", images, oracle, schedule,
                                   1.5, off, {200, kPauseMs});
    expect(s.max_lag_ms >= kPauseMs, strf("generator lag recorded (%.1f ms)",
                                          s.max_lag_ms));
    expect(s.paused_ms >= kPauseMs && s.paused_from_submit_ms < kPauseMs / 2,
           strf("a late send counts from the scheduled arrival (%.1f ms), "
                "not from admission (%.1f ms)",
                s.paused_ms, s.paused_from_submit_ms));
  }
}

/// The replay walks every planned step, its kernel calls cover every conv
/// step's full geometry, and it lowers convs at the planned panel sizes.
void test_replay_covers_plan() {
  Tracer off(false);
  for (const ReplayConfig& cfg : replay_configs(11)) {
    const ReplayReport r = replay_config(cfg, off, 0.0, 11);
    const nb::exporter::PlanStats& ps = r.stats;
    expect(r.steps_walked == ps.ops,
           strf("%s: replay walks the plan's %lld steps", cfg.name.c_str(),
                static_cast<long long>(ps.ops)));
    expect(r.executed_macs == r.gemm_macs + r.depthwise_macs &&
               r.executed_macs > 0,
           strf("%s: replayed kernel calls cover the plan's %lld conv MACs",
                cfg.name.c_str(),
                static_cast<long long>(r.gemm_macs + r.depthwise_macs)));
    const bool panels = r.int8 ? r.qin_max + r.cols_max == ps.arena_int8_bytes
                               : r.cols_max == ps.cols_floats;
    expect(panels && r.arena_bytes == ps.arena_bytes() + ps.arena_int8_bytes,
           strf("%s: replay panels and arena == PlanStats (%lld B)",
                cfg.name.c_str(), static_cast<long long>(r.arena_bytes)));
  }
}

bool metrics_sane(const std::vector<Metric>& metrics, size_t expected) {
  if (metrics.size() != expected) return false;
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) return false;
  }
  return true;
}

void test_smoke() {
  std::vector<std::string> workloads = {"serve_mixed_r32", "train_netbooster"};
  for (const InferConfig& c : infer_configs()) {
    workloads.push_back("infer_b1_" + c.name);
  }
  for (const std::string& w : workloads) {
    Args args;
    args.workload = w;
    args.seed = 3;
    args.seconds = 1.0;
    args.smoke = true;
    Result r;
    Tracer off(false);
    const auto t0 = Clock::now();
    if (w == "serve_mixed_r32") {
      run_serve(args, args.seconds, off, r);
    } else if (w == "train_netbooster") {
      run_train(args, args.seconds, off, r);
    } else {
      for (const InferConfig& c : infer_configs()) {
        if (w == "infer_b1_" + c.name) run_infer(args, c, args.seconds, off, r);
      }
    }
    bool positive = true;
    for (const Metric& m : r.e2e) positive = positive && m.value > 0.0;
    expect(r.correct() && metrics_sane(r.e2e, 4) && positive,
           strf("smoke %s: correct, every end-to-end metric > 0 (%.1f s)",
                w.c_str(), seconds_since(t0)));
  }
  // The traced training pipeline, at smoke scale.
  Args args;
  args.seed = 3;
  args.smoke = true;
  Tracer tracer(true);
  Result r;
  run_train(args, 0.0, tracer, r);
  bool positive = true;
  for (const Metric& m : r.layers) positive = positive && m.value > 0.0;
  expect(r.correct() && metrics_sane(r.layers, 13) && positive,
         "smoke traced train: correct, 13 layer metrics > 0");
}

}  // namespace

int run_selftest() {
  test_replay_covers_plan();
  test_open_loop_timing();
  test_smoke();
  std::printf("selftest: %d failed\n", g_failed);
  return g_failed;
}

}  // namespace pb
