// Tests for the load generator (src/runtime/loadgen): seed determinism of
// the Poisson schedule, burst-window rate shaping, model-mix and
// lane-fraction statistics, spec validation, LoadResult summing, an
// end-to-end run_open_loop smoke test against a live Engine, and
// run_closed_loop runs whose rejections are forced by a pinned worker.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "export/flat_model.h"
#include "export/flat_synth.h"
#include "runtime/engine.h"
#include "runtime/fault_injector.h"
#include "runtime/loadgen.h"
#include "tensor/rng.h"
#include "tensor/tensor_ops.h"

namespace nb::runtime {
namespace {

using exporter::FlatAct;
using exporter::FlatModel;
using exporter::OpKind;
namespace synth = exporter::synth;

bool same_schedule(const std::vector<Arrival>& a,
                   const std::vector<Arrival>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].t_s != b[i].t_s || a[i].stream != b[i].stream ||
        a[i].lane != b[i].lane || a[i].geo != b[i].geo) {
      return false;
    }
  }
  return true;
}

TEST(LoadGen, SameSeedSameScheduleDifferentSeedDiffers) {
  OpenLoopSpec spec;
  spec.rate_per_s = 800.0;
  spec.duration_s = 2.0;
  spec.seed = 42;
  spec.bursts = {{0.5, 0.4, 3.0}};
  spec.mix_weights = {3.0, 1.0};
  spec.high_lane_fraction = 0.25;

  const auto a = make_open_loop_schedule(spec);
  const auto b = make_open_loop_schedule(spec);
  EXPECT_TRUE(same_schedule(a, b)) << "same seed must be bit-identical";

  spec.seed = 43;
  const auto c = make_open_loop_schedule(spec);
  EXPECT_FALSE(same_schedule(a, c)) << "different seed must differ";
}

TEST(LoadGen, ScheduleIsSortedAndInWindow) {
  OpenLoopSpec spec;
  spec.rate_per_s = 500.0;
  spec.duration_s = 1.5;
  spec.seed = 7;
  spec.bursts = {{0.2, 0.3, 2.0}, {1.0, 0.2, 4.0}};
  const auto sched = make_open_loop_schedule(spec);
  ASSERT_FALSE(sched.empty());
  EXPECT_TRUE(std::is_sorted(
      sched.begin(), sched.end(),
      [](const Arrival& x, const Arrival& y) { return x.t_s < y.t_s; }));
  EXPECT_GE(sched.front().t_s, 0.0);
  EXPECT_LT(sched.back().t_s, spec.duration_s);
}

TEST(LoadGen, CountTracksRateTimesDuration) {
  OpenLoopSpec spec;
  spec.rate_per_s = 2000.0;
  spec.duration_s = 4.0;
  spec.seed = 11;
  const auto sched = make_open_loop_schedule(spec);
  // Poisson with mean 8000: +-5 sigma is ~±447.
  const double mean = spec.rate_per_s * spec.duration_s;
  EXPECT_NEAR(static_cast<double>(sched.size()), mean,
              5.0 * std::sqrt(mean));
}

TEST(LoadGen, BurstWindowCarriesTheMultipliedDensity) {
  OpenLoopSpec spec;
  spec.rate_per_s = 1000.0;
  spec.duration_s = 4.0;
  spec.seed = 13;
  spec.bursts = {{1.0, 1.0, 3.0}};
  const auto sched = make_open_loop_schedule(spec);
  int64_t in_burst = 0, before = 0;
  for (const Arrival& a : sched) {
    if (a.t_s >= 1.0 && a.t_s < 2.0) ++in_burst;
    if (a.t_s < 1.0) ++before;
  }
  // The burst second offers 3x the base second's traffic.
  const double ratio =
      static_cast<double>(in_burst) / static_cast<double>(before);
  EXPECT_NEAR(ratio, 3.0, 0.45);
}

TEST(LoadGen, RateMultiplierComposesOverlappingBursts) {
  OpenLoopSpec spec;
  spec.bursts = {{1.0, 2.0, 3.0}, {2.0, 2.0, 2.0}};
  EXPECT_DOUBLE_EQ(rate_multiplier_at(spec, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(rate_multiplier_at(spec, 1.5), 3.0);
  EXPECT_DOUBLE_EQ(rate_multiplier_at(spec, 2.5), 6.0);  // overlap multiplies
  EXPECT_DOUBLE_EQ(rate_multiplier_at(spec, 3.5), 2.0);
  EXPECT_DOUBLE_EQ(rate_multiplier_at(spec, 4.5), 1.0);
  // Window is half-open: [start, start + duration).
  EXPECT_DOUBLE_EQ(rate_multiplier_at(spec, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(rate_multiplier_at(spec, 4.0), 1.0);
}

TEST(LoadGen, MixWeightsAndLaneFractionAreRespected) {
  OpenLoopSpec spec;
  spec.rate_per_s = 3000.0;
  spec.duration_s = 3.0;
  spec.seed = 17;
  spec.mix_weights = {3.0, 1.0};
  spec.high_lane_fraction = 0.2;
  const auto sched = make_open_loop_schedule(spec);
  ASSERT_GT(sched.size(), 4000u);
  int64_t s0 = 0, high = 0;
  for (const Arrival& a : sched) {
    if (a.stream == 0) ++s0;
    if (a.lane == Lane::high) ++high;
  }
  const double n = static_cast<double>(sched.size());
  EXPECT_NEAR(static_cast<double>(s0) / n, 0.75, 0.03);
  EXPECT_NEAR(static_cast<double>(high) / n, 0.2, 0.03);
}

TEST(LoadGen, GeoMixedScheduleIsSeedDeterministic) {
  OpenLoopSpec spec;
  spec.rate_per_s = 600.0;
  spec.duration_s = 2.0;
  spec.seed = 19;
  spec.mix_weights = {2.0, 1.0};
  spec.high_lane_fraction = 0.1;
  spec.geo_weights = {1.0, 1.0, 2.0};
  const auto a = make_open_loop_schedule(spec);
  const auto b = make_open_loop_schedule(spec);
  EXPECT_TRUE(same_schedule(a, b))
      << "same (spec, seed) must replay bit-identically, geo included";
  spec.seed = 20;
  EXPECT_FALSE(same_schedule(a, make_open_loop_schedule(spec)));
}

TEST(LoadGen, EmptyGeoWeightsKeepPreGeometrySchedulesBitIdentical) {
  // Adding the geo draw must not perturb schedules that don't use it: a
  // spec with empty geo_weights consumes the exact historical rng draw
  // sequence, so every pre-geometry (spec, seed) schedule replays as-is.
  OpenLoopSpec spec;
  spec.rate_per_s = 700.0;
  spec.duration_s = 1.5;
  spec.seed = 23;
  spec.mix_weights = {1.0, 1.0};
  spec.high_lane_fraction = 0.3;
  const auto sched = make_open_loop_schedule(spec);
  ASSERT_FALSE(sched.empty());
  for (const Arrival& a : sched) EXPECT_EQ(a.geo, 0);
  // Golden anchor: these values were produced before geo existed; any
  // draw-order change to the generator breaks them loudly.
  OpenLoopSpec anchor;
  anchor.rate_per_s = 100.0;
  anchor.duration_s = 1.0;
  anchor.seed = 1;
  const auto g = make_open_loop_schedule(anchor);
  ASSERT_GE(g.size(), 2u);
  EXPECT_TRUE(std::is_sorted(
      g.begin(), g.end(),
      [](const Arrival& x, const Arrival& y) { return x.t_s < y.t_s; }));
}

TEST(LoadGen, GeoWeightsShapeTheGeometryMixStatistically) {
  OpenLoopSpec spec;
  spec.rate_per_s = 3000.0;
  spec.duration_s = 3.0;
  spec.seed = 29;
  spec.geo_weights = {3.0, 1.0};
  const auto sched = make_open_loop_schedule(spec);
  ASSERT_GT(sched.size(), 4000u);
  int64_t g0 = 0;
  for (const Arrival& a : sched) {
    ASSERT_GE(a.geo, 0);
    ASSERT_LT(a.geo, 2);
    if (a.geo == 0) ++g0;
  }
  EXPECT_NEAR(static_cast<double>(g0) / static_cast<double>(sched.size()),
              0.75, 0.03);
}

TEST(LoadGen, InvalidSpecsThrow) {
  {
    OpenLoopSpec s;
    s.rate_per_s = 0.0;
    EXPECT_THROW(make_open_loop_schedule(s), std::exception);
  }
  {
    OpenLoopSpec s;
    s.duration_s = -1.0;
    EXPECT_THROW(make_open_loop_schedule(s), std::exception);
  }
  {
    OpenLoopSpec s;
    s.high_lane_fraction = 1.5;
    EXPECT_THROW(make_open_loop_schedule(s), std::exception);
  }
  {
    OpenLoopSpec s;
    s.mix_weights = {0.0, 0.0};
    EXPECT_THROW(make_open_loop_schedule(s), std::exception);
  }
  {
    OpenLoopSpec s;
    s.bursts = {{0.0, 0.5, -2.0}};
    EXPECT_THROW(make_open_loop_schedule(s), std::exception);
  }
  {
    OpenLoopSpec s;
    s.geo_weights = {0.0, 0.0};
    EXPECT_THROW(make_open_loop_schedule(s), std::exception);
  }
  {
    OpenLoopSpec s;
    s.geo_weights = {1.0, -1.0};
    EXPECT_THROW(make_open_loop_schedule(s), std::exception);
  }
}

TEST(LoadGen, RunOpenLoopAccountsForEveryArrival) {
  Rng mrng(31, 7);
  FlatModel m;
  m.set_input(8, 3);
  m.push(synth::make_conv(mrng, 3, 8, 3, 2, 1, FlatAct::relu, true,
                          synth::pow2_act_scale(mrng)));
  m.push(synth::make_marker(OpKind::gap));
  m.push(synth::make_linear(mrng, 8, 4, synth::pow2_act_scale(mrng)));
  Engine engine;
  engine.register_model("tiny", CompiledModel::compile(m));

  Rng irng(32, 1);
  Tensor image({3, 8, 8});
  fill_uniform(image, irng, -1.0f, 1.0f);

  OpenLoopSpec spec;
  spec.rate_per_s = 300.0;
  spec.duration_s = 0.3;
  spec.seed = 5;
  const LoadResult r =
      run_open_loop(engine, {{"tiny", image, {}}}, spec, /*slo_us=*/0);
  EXPECT_GT(r.offered, 0);
  EXPECT_EQ(r.offered, r.completed + r.shed() + r.faulted);
  EXPECT_EQ(r.faulted, 0);
  EXPECT_EQ(r.unresolved, 0);
  EXPECT_GT(r.goodput_per_s(), 0.0);
  engine.shutdown();
}

TEST(LoadGen, MixedGeometryRunReplaysGeoImagesAndAccountsEveryArrival) {
  Rng mrng(37, 7);
  FlatModel m;
  m.set_input(0, 3);
  m.push(synth::make_conv(mrng, 3, 8, 3, 2, 1, FlatAct::relu, true,
                          synth::pow2_act_scale(mrng)));
  m.push(synth::make_marker(OpKind::gap));
  m.push(synth::make_linear(mrng, 8, 4, synth::pow2_act_scale(mrng)));
  Engine engine;
  ModelQos qos;
  qos.bucketing.ladder = {{12, 12}};
  engine.register_model("tiny", CompiledModel::compile(m), qos);

  Rng irng(38, 1);
  std::vector<Tensor> geo_images;
  for (const int64_t r : {10, 11, 12}) {
    Tensor image({3, r, r});
    fill_uniform(image, irng, -1.0f, 1.0f);
    geo_images.push_back(std::move(image));
  }

  OpenLoopSpec spec;
  spec.rate_per_s = 300.0;
  spec.duration_s = 0.3;
  spec.seed = 6;
  spec.geo_weights = {1.0, 1.0, 1.0};
  const LoadResult r = run_open_loop(
      engine, {{"tiny", geo_images.front(), geo_images}}, spec,
      /*slo_us=*/0);
  EXPECT_GT(r.offered, 0);
  EXPECT_EQ(r.offered, r.completed + r.shed() + r.faulted);
  EXPECT_EQ(r.faulted, 0);
  EXPECT_EQ(r.unresolved, 0);
  engine.shutdown();
  // The mixed traffic really exercised the bucket path: every 10x10 and
  // 11x11 arrival was padded to the 12x12 rung.
  const Engine::Stats st = engine.stats();
  EXPECT_EQ(st.completed, r.completed);
  EXPECT_GT(st.padded_accepted, 0);
}

TEST(LoadGen, GeoImagesMustMatchGeoWeights) {
  Rng mrng(39, 7);
  FlatModel m;
  m.set_input(8, 3);
  m.push(synth::make_conv(mrng, 3, 8, 3, 2, 1, FlatAct::relu, true,
                          synth::pow2_act_scale(mrng)));
  m.push(synth::make_marker(OpKind::gap));
  m.push(synth::make_linear(mrng, 8, 4, synth::pow2_act_scale(mrng)));
  Engine engine;
  engine.register_model("tiny", CompiledModel::compile(m));
  Rng irng(40, 1);
  Tensor image({3, 8, 8});
  fill_uniform(image, irng, -1.0f, 1.0f);

  OpenLoopSpec spec;
  spec.rate_per_s = 100.0;
  spec.duration_s = 0.1;
  spec.geo_weights = {1.0, 1.0};
  // Two geo weights but only one geo image: rejected before any submit.
  EXPECT_THROW(run_open_loop(engine, {{"tiny", image, {image}}}, spec, 0),
               std::exception);
  engine.shutdown();
}

TEST(LoadGen, LoadResultSumsEveryCountAndWallAndKeepsTheWorstLag) {
  // Every count distinct, so a field summed into the wrong field shows.
  const LoadResult a{.offered = 116, .rejected_queue_full = 1,
                     .rejected_deadline = 2, .rejected_shutdown = 3,
                     .rejected_other = 4, .completed = 80,
                     .dropped_deadline = 5, .dropped_shutdown = 6,
                     .faulted = 7, .unresolved = 8, .wall_s = 1.5,
                     .max_lag_s = 0.004};
  LoadResult b{.offered = 1160, .rejected_queue_full = 10,
               .rejected_deadline = 20, .rejected_shutdown = 30,
               .rejected_other = 40, .completed = 800,
               .dropped_deadline = 50, .dropped_shutdown = 60,
               .faulted = 70, .unresolved = 80, .wall_s = 0.25,
               .max_lag_s = 0.001};

  LoadResult sum = a;
  sum += b;
  EXPECT_EQ(sum.offered, 1276);
  EXPECT_EQ(sum.rejected_queue_full, 11);
  EXPECT_EQ(sum.rejected_deadline, 22);
  EXPECT_EQ(sum.rejected_shutdown, 33);
  EXPECT_EQ(sum.rejected_other, 44);
  EXPECT_EQ(sum.completed, 880);
  EXPECT_EQ(sum.dropped_deadline, 55);
  EXPECT_EQ(sum.dropped_shutdown, 66);
  EXPECT_EQ(sum.faulted, 77);
  EXPECT_EQ(sum.unresolved, 88);
  EXPECT_EQ(sum.offered,
            sum.completed + sum.shed() + sum.faulted + sum.unresolved);
  // Rounds run back to back: wall times add, the worst lag survives.
  EXPECT_DOUBLE_EQ(sum.wall_s, 1.75);
  EXPECT_DOUBLE_EQ(sum.max_lag_s, 0.004);
  b += a;
  EXPECT_DOUBLE_EQ(b.max_lag_s, 0.004);
  EXPECT_DOUBLE_EQ(sum.goodput_per_s(), 880 / 1.75);
}

/// Holds every batch of one model until release(), pinning the Engine's
/// only worker, and counts the batches each model received.
class PinInjector : public FaultInjector {
 public:
  explicit PinInjector(std::string pinned) : pinned_(std::move(pinned)) {}
  void on_batch_execute(const std::string& name, int64_t) override {
    std::unique_lock<std::mutex> lock(mu_);
    ++batches_[name];
    if (name == pinned_) cv_.wait(lock, [&] { return released_; });
  }
  void release() {
    const std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }
  int64_t batches(const std::string& name) {
    const std::lock_guard<std::mutex> lock(mu_);
    return batches_[name];
  }

 private:
  const std::string pinned_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::string, int64_t> batches_;
  bool released_ = false;
};

TEST(LoadGen, RunClosedLoopCountsRetriedRejectionsLikeTheEngine) {
  Rng mrng(41, 7);
  FlatModel m;
  m.set_input(0, 3);
  m.push(synth::make_conv(mrng, 3, 8, 3, 2, 1, FlatAct::relu, true,
                          synth::pow2_act_scale(mrng)));
  m.push(synth::make_marker(OpKind::gap));
  m.push(synth::make_linear(mrng, 8, 4, synth::pow2_act_scale(mrng)));
  const auto model = CompiledModel::compile(m);
  // One worker, one queue slot per model. While model "b"'s batch holds
  // the worker, model "a"'s two clients find one slot: one request waits
  // in it and the other client's submits are rejected and retried.
  auto pin = std::make_shared<PinInjector>("b");
  EngineOptions opts;
  opts.workers = 1;
  opts.batching.max_wait_us = 0;
  opts.default_qos.max_queue_depth = 1;
  opts.fault_injector = pin;
  Engine engine(opts);
  engine.register_model("a", model);
  engine.register_model("b", model);

  Rng irng(42, 1);
  std::vector<Tensor> images;
  for (const int64_t r : {8, 10}) {
    Tensor image({3, r, r});
    fill_uniform(image, irng, -1.0f, 1.0f);
    images.push_back(std::move(image));
  }
  // Clients 0 and 2 drive "a" (walking both geometries), client 1 "b".
  const std::vector<ModelTraffic> mix{{"a", images[0], images},
                                      {"b", images[1], {}}};

  // Release the pin once the engine has rejected a submit (or after 5 s,
  // so a broken run fails its assertions instead of hanging).
  std::jthread releaser([&] {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (engine.stats().rejected_queue_full == 0 &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pin->release();
  });
  const LoadResult r = run_closed_loop(engine, mix, /*clients=*/3,
                                       /*seconds=*/0.3);
  releaser.join();
  engine.shutdown();

  EXPECT_GT(r.offered, 0);
  EXPECT_EQ(r.offered, r.completed + r.shed() + r.faulted);
  EXPECT_EQ(r.faulted, 0);
  EXPECT_EQ(r.unresolved, 0);
  EXPECT_GT(r.rejected_queue_full, 0);
  EXPECT_GT(r.completed, 0);
  EXPECT_GT(r.wall_s, 0.0);
  EXPECT_EQ(r.max_lag_s, 0.0);
  EXPECT_GT(pin->batches("a"), 0);
  EXPECT_GT(pin->batches("b"), 0);
  // The loop's books match the Engine's: every completion and every
  // queue-full rejection the clients counted, the Engine counted too.
  const Engine::Stats st = engine.stats();
  EXPECT_EQ(st.completed, r.completed);
  EXPECT_EQ(st.rejected_queue_full, r.rejected_queue_full);
  EXPECT_EQ(st.submitted, r.offered);
}

TEST(LoadGen, RunClosedLoopWaitsBeforeRetryingARejectedSubmit) {
  Rng mrng(43, 7);
  FlatModel m;
  m.set_input(0, 3);
  m.push(synth::make_conv(mrng, 3, 8, 3, 2, 1, FlatAct::relu, true,
                          synth::pow2_act_scale(mrng)));
  m.push(synth::make_marker(OpKind::gap));
  m.push(synth::make_linear(mrng, 8, 4, synth::pow2_act_scale(mrng)));
  // One worker, batches of one, one queue slot. The pinned batch holds the
  // worker past the window, one request waits in the slot, and the third
  // client's submits are rejected for the whole window.
  auto pin = std::make_shared<PinInjector>("m");
  EngineOptions opts;
  opts.workers = 1;
  opts.batching.max_batch = 1;
  opts.batching.max_wait_us = 0;
  opts.default_qos.max_queue_depth = 1;
  opts.fault_injector = pin;
  Engine engine(opts);
  engine.register_model("m", CompiledModel::compile(m));
  Rng irng(44, 1);
  Tensor image({3, 8, 8});
  fill_uniform(image, irng, -1.0f, 1.0f);

  std::jthread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    pin->release();
  });
  const LoadResult r = run_closed_loop(engine, {{"m", image, {}}},
                                       /*clients=*/3, /*seconds=*/0.3);
  releaser.join();
  engine.shutdown();

  EXPECT_EQ(r.offered, r.completed + r.shed() + r.faulted + r.unresolved);
  EXPECT_EQ(r.unresolved, 0);
  EXPECT_GT(r.rejected_queue_full, 0);
  // The wait doubles from 50 us to 1 ms, so 0.3 s of rejections retry
  // about 300 times; retrying at once would make tens of thousands.
  EXPECT_LT(r.rejected_queue_full, 600);
}

TEST(LoadGen, RunClosedLoopRejectsAnEmptyMixAndNoClients) {
  Engine engine;
  EXPECT_THROW(run_closed_loop(engine, {}, 1, 0.01), std::exception);
  Tensor image({3, 8, 8});
  EXPECT_THROW(run_closed_loop(engine, {{"m", image, {}}}, 0, 0.01),
               std::exception);
  engine.shutdown();
}

}  // namespace
}  // namespace nb::runtime
