// Tests for the serving runtime (src/runtime): CompiledModel weight-panel
// sharing (zero duplication across sessions and FlatModel copies),
// concurrent Session bitwise equivalence with single-threaded execution,
// Engine micro-batching vs sequential equivalence, the model registry, and
// error propagation through request futures — plus the admission-control
// failure modes: typed queue-full rejection, deadline expiry at admission
// and at batch launch, worker faults via FaultInjector, drain-vs-drop
// shutdown, priority-lane and cross-model fairness, the register/submit
// race, the bounded latency reservoir, and a seeded open-loop overload run
// (offered >= 2x capacity) proving graceful degradation end to end.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <future>
#include <iterator>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/fault_injector.h"
#include "runtime/loadgen.h"

#include "export/flat_model.h"
#include "export/flat_synth.h"
#include "export/infer_plan.h"
#include "runtime/compiled_model.h"
#include "runtime/engine.h"
#include "runtime/session.h"
#include "tensor/rng.h"
#include "tensor/tensor_ops.h"

namespace nb::runtime {
namespace {

using exporter::FlatAct;
using exporter::FlatModel;
using exporter::FlatOp;
using exporter::OpKind;
namespace synth = exporter::synth;

/// A small inverted-residual-style graph exercising every op kind, with
/// power-of-two activation scales so agreement bounds are bitwise.
FlatModel small_graph(uint64_t seed, int64_t classes = 10) {
  Rng rng(seed, 7);
  FlatModel m;
  m.set_input(16, 3);
  m.push(synth::make_conv(rng, 3, 16, 3, 2, 1, FlatAct::relu6, true,
                          synth::pow2_act_scale(rng)));
  m.push(synth::make_marker(OpKind::save));
  m.push(synth::make_conv(rng, 16, 48, 1, 1, 1, FlatAct::relu6, false,
                          synth::pow2_act_scale(rng)));
  m.push(synth::make_conv(rng, 48, 48, 3, 1, 48, FlatAct::relu6, true,
                          synth::pow2_act_scale(rng)));
  m.push(synth::make_conv(rng, 48, 16, 1, 1, 1, FlatAct::identity, true,
                          synth::pow2_act_scale(rng)));
  m.push(synth::make_marker(OpKind::add_saved));
  m.push(synth::make_conv(rng, 16, 32, 3, 1, 4, FlatAct::relu, true,
                          synth::pow2_act_scale(rng)));
  m.push(synth::make_conv(rng, 32, 32, 5, 2, 32, FlatAct::relu6, false,
                          synth::pow2_act_scale(rng)));
  m.push(synth::make_marker(OpKind::gap));
  m.push(synth::make_linear(rng, 32, classes, synth::pow2_act_scale(rng)));
  return m;
}

Tensor random_input(uint64_t seed, std::vector<int64_t> shape) {
  Rng rng(seed, 1);
  Tensor x(std::move(shape));
  fill_uniform(x, rng, -1.0f, 1.0f);
  return x;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

TEST(CompiledModel, CompileBufferMatchesFileLoad) {
  const FlatModel m = small_graph(13);
  const std::string path = ::testing::TempDir() + "nb_rt_buffer.nbfm";
  m.save(path);
  const auto from_file = CompiledModel::compile_file(path);
  std::ifstream in(path, std::ios::binary);
  const std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
  in.close();
  std::remove(path.c_str());
  const auto from_buffer =
      CompiledModel::compile_buffer(bytes.data(), bytes.size());

  EXPECT_EQ(from_buffer->op_count(), from_file->op_count());
  EXPECT_EQ(from_buffer->op_count(), static_cast<int64_t>(m.ops().size()));
  EXPECT_EQ(from_buffer->input_resolution(), 16);
  EXPECT_EQ(from_buffer->input_channels(), 3);
  EXPECT_EQ(from_buffer->weight_panel_floats(),
            from_file->weight_panel_floats());
  // Both compiled models serve bitwise-identical results.
  Session a(from_file), b(from_buffer);
  const Tensor x = random_input(4, {1, 3, 16, 16});
  EXPECT_TRUE(bitwise_equal(a.run(x), b.run(x)));
}

TEST(Session, TwoSessionsAddZeroWeightPanelMemory) {
  const auto model = CompiledModel::compile(small_graph(21));
  Session a(model), b(model);
  const Tensor x = random_input(1, {1, 3, 16, 16});
  (void)a.run(x);
  (void)b.run(x);

  const Session::MemoryStats ma = a.memory();
  const Session::MemoryStats mb = b.memory();
  // Identical borrowed panels — the same object, not an equal-sized copy.
  EXPECT_EQ(ma.weight_panel_addr, model->panels().get());
  EXPECT_EQ(mb.weight_panel_addr, model->panels().get());
  EXPECT_EQ(ma.borrowed_weight_floats, model->weight_panel_floats());
  EXPECT_EQ(mb.borrowed_weight_floats, model->weight_panel_floats());
  // What each session owns is exactly its plan arena — no weight floats.
  const exporter::InferPlan reference_plan(model->program(),
                                           model->panels(), 1, 3, 16, 16);
  EXPECT_EQ(ma.owned_arena_floats, reference_plan.stats().arena_floats);
  EXPECT_EQ(mb.owned_arena_floats, reference_plan.stats().arena_floats);
  EXPECT_GT(ma.owned_arena_floats, 0);
}

TEST(Session, MatchesFlatModelForwardBitwise) {
  FlatModel m = small_graph(31);
  const Tensor x = random_input(2, {2, 3, 16, 16});
  const Tensor expected = m.forward(x, exporter::Backend::fast);
  Session session(CompiledModel::compile(std::move(m)));
  EXPECT_TRUE(bitwise_equal(session.run(x), expected));
}

TEST(Session, PlanCacheEvictsLeastRecentlyUsed) {
  const auto model = CompiledModel::compile(small_graph(33));
  SessionOptions opts;
  opts.max_cached_plans = 2;
  Session session(model, opts);
  for (int64_t batch : {1, 2, 3, 1, 3}) {
    const Tensor x = random_input(40 + static_cast<uint64_t>(batch),
                                  {batch, 3, 16, 16});
    const Tensor y = session.run(x);
    EXPECT_EQ(y.size(0), batch);
    EXPECT_LE(session.memory().cached_plans, 2u);
  }
  EXPECT_EQ(session.runs(), 5);
}

// The acceptance stress: >= 4 threads over one shared CompiledModel, each
// with a private Session and a distinct input stream, must reproduce the
// single-threaded goldens bit for bit (no arena cross-talk, no weight
// races).
TEST(Session, ConcurrentSessionsAreBitwiseEqualToSingleThread) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 5;
  const auto model = CompiledModel::compile(small_graph(55));

  std::vector<Tensor> inputs, goldens;
  for (int t = 0; t < kThreads; ++t) {
    inputs.push_back(
        random_input(900 + static_cast<uint64_t>(t), {1, 3, 16, 16}));
    Session golden(model);
    goldens.push_back(golden.run(inputs.back()));
  }

  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Session session(model);
      for (int r = 0; r < kRounds; ++r) {
        const Tensor y = session.run(inputs[static_cast<size_t>(t)]);
        if (!bitwise_equal(y, goldens[static_cast<size_t>(t)])) {
          ++mismatches[static_cast<size_t>(t)];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<size_t>(t)], 0) << "thread " << t;
  }
}

TEST(Engine, MicroBatchingIsBitwiseEqualToSequentialRuns) {
  constexpr int kRequests = 16;
  const auto model = CompiledModel::compile(small_graph(66));

  // Goldens: each image alone through a plain Session (batch 1).
  std::vector<Tensor> images, goldens;
  Session golden(model);
  for (int i = 0; i < kRequests; ++i) {
    images.push_back(random_input(700 + static_cast<uint64_t>(i), {3, 16, 16}));
    goldens.push_back(golden.run(images.back().reshape({1, 3, 16, 16})));
  }

  EngineOptions opts;
  opts.batching.max_batch = 8;
  opts.batching.max_wait_us = 50000;  // generous: force real coalescing
  Engine engine(opts);
  engine.register_model("m", model);
  std::vector<std::future<Tensor>> futures;
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(engine.submit("m", images[static_cast<size_t>(i)]));
  }
  for (int i = 0; i < kRequests; ++i) {
    const Tensor y = futures[static_cast<size_t>(i)].get();
    EXPECT_TRUE(bitwise_equal(y, goldens[static_cast<size_t>(i)]))
        << "request " << i;
  }
  const Engine::Stats st = engine.stats();
  EXPECT_EQ(st.completed, kRequests);
  EXPECT_EQ(st.failed, 0);
  // Batching must actually have coalesced (fewer batches than requests).
  EXPECT_LT(st.batches, kRequests);
  EXPECT_GT(st.avg_batch, 1.0);
}

TEST(Engine, SequentialPolicyServesEveryRequest) {
  const auto model = CompiledModel::compile(small_graph(77));
  EngineOptions opts;
  opts.batching.max_batch = 1;  // micro-batching off
  opts.batching.max_wait_us = 0;
  Engine engine(opts);
  engine.register_model("m", model);
  std::vector<std::future<Tensor>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(engine.submit(
        "m", random_input(50 + static_cast<uint64_t>(i), {3, 16, 16})));
  }
  for (auto& f : futures) {
    EXPECT_EQ(f.get().size(1), 10);
  }
  const Engine::Stats st = engine.stats();
  EXPECT_EQ(st.completed, 6);
  EXPECT_EQ(st.batches, 6);  // every batch is a single request
  EXPECT_DOUBLE_EQ(st.avg_batch, 1.0);
}

TEST(Engine, ServesMultipleRegisteredModels) {
  const auto ten = CompiledModel::compile(small_graph(88, 10));
  const auto four = CompiledModel::compile(small_graph(89, 4));
  Engine engine;
  engine.register_model("ten", ten);
  engine.register_model("four", four);
  EXPECT_EQ(engine.model_names().size(), 2u);
  EXPECT_EQ(engine.model("ten").get(), ten.get());

  auto f10 = engine.submit("ten", random_input(1, {3, 16, 16}));
  auto f4 = engine.submit("four", random_input(2, {3, 16, 16}));
  EXPECT_EQ(f10.get().size(1), 10);
  EXPECT_EQ(f4.get().size(1), 4);

  EXPECT_TRUE(engine.unregister_model("four"));
  EXPECT_FALSE(engine.unregister_model("four"));
  EXPECT_THROW(engine.submit("four", random_input(3, {3, 16, 16})),
               std::runtime_error);
}

TEST(Engine, HotSwappingAModelServesTheNewVersion) {
  const auto v1 = CompiledModel::compile(small_graph(90, 10));
  const auto v2 = CompiledModel::compile(small_graph(91, 6));
  Engine engine;
  engine.register_model("m", v1);
  EXPECT_EQ(engine.submit("m", random_input(4, {3, 16, 16})).get().size(1),
            10);
  // Replace under the same name: new submits resolve against v2 (and the
  // worker releases its v1 session at the next registry-change check).
  engine.register_model("m", v2);
  EXPECT_EQ(engine.submit("m", random_input(5, {3, 16, 16})).get().size(1),
            6);
  EXPECT_EQ(engine.model("m").get(), v2.get());
}

TEST(Engine, RejectsNonFinitePixelsBeforeAdmission) {
  // NaN and +-inf have no quantized level (the int8 backend's float -> int
  // cast of them is undefined), so submit refuses them in the caller with a
  // typed reason, before the image is copied or counted.
  const float bad_pixels[] = {std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity()};
  const auto counters = [](const Engine::Stats& st) {
    return std::vector<int64_t>{st.submitted, st.accepted, st.completed,
                                st.failed, st.rejected_queue_full,
                                st.rejected_deadline, st.rejected_shutdown,
                                st.queue_depth};
  };
  for (const exporter::Backend backend :
       {exporter::Backend::fast, exporter::Backend::int8}) {
    Engine engine;
    engine.register_model("m",
                          CompiledModel::compile(small_graph(110), backend));
    const std::vector<int64_t> before = counters(engine.stats());
    for (const float bad : bad_pixels) {
      Tensor x = random_input(5, {3, 16, 16});
      x.data()[17] = bad;
      try {
        (void)engine.submit("m", x);
        ADD_FAILURE() << "expected RejectedError{InvalidInput} for " << bad;
      } catch (const RejectedError& e) {
        EXPECT_EQ(e.reason(), RejectReason::InvalidInput) << bad;
        EXPECT_STREQ(to_string(e.reason()), "InvalidInput");
      }
    }
    EXPECT_EQ(counters(engine.stats()), before);
    // The engine then serves a finite image.
    EXPECT_EQ(engine.submit("m", random_input(6, {3, 16, 16})).get().size(1),
              10);
  }
}

// ---- admission control, deadlines, faults, shutdown ------------------------

/// Blocks every batch on a gate until release(): lets tests pin the worker
/// mid-execution so queue states are reproducible, not timing-dependent.
class GateInjector : public FaultInjector {
 public:
  void on_batch_execute(const std::string&, int64_t) override {
    std::unique_lock<std::mutex> lock(mu_);
    ++started_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return released_; });
  }
  void wait_started(int64_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return started_ >= n; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int64_t started_ = 0;
  bool released_ = false;
};

/// Sleeps a fixed time per batch: a machine-independent "slow model" whose
/// capacity the tests can compute exactly.
class SleepInjector : public FaultInjector {
 public:
  explicit SleepInjector(int64_t us) : us_(us) {}
  void on_batch_execute(const std::string&, int64_t) override {
    std::this_thread::sleep_for(std::chrono::microseconds(us_));
  }

 private:
  int64_t us_;
};

/// Throws while armed — at batch execution or at session creation (the
/// plan-compile path), selectable.
class ThrowInjector : public FaultInjector {
 public:
  std::atomic<bool> fail_batch{false};
  std::atomic<bool> fail_session_create{false};
  void on_batch_execute(const std::string& name, int64_t) override {
    if (fail_batch.exchange(false)) {
      throw std::runtime_error("injected batch fault for " + name);
    }
  }
  void on_session_create(const std::string& name) override {
    if (fail_session_create.load()) {
      throw std::runtime_error("injected plan-compile fault for " + name);
    }
  }
};

RejectReason reason_of(std::future<Tensor>& f) {
  try {
    (void)f.get();
  } catch (const RejectedError& e) {
    return e.reason();
  }
  ADD_FAILURE() << "future resolved without a RejectedError";
  return RejectReason::Unknown;
}

TEST(Engine, RejectsBadSubmitsAndPropagatesExecutionErrors) {
  const auto model = CompiledModel::compile(small_graph(99));
  auto inj = std::make_shared<ThrowInjector>();
  EngineOptions opts;
  opts.fault_injector = inj;
  Engine engine(opts);
  engine.register_model("m", model);
  // Unknown model and non-image shapes fail fast, in the caller.
  EXPECT_THROW(engine.submit("nope", random_input(1, {3, 16, 16})),
               std::runtime_error);
  EXPECT_THROW(engine.submit("m", random_input(1, {2, 3, 16, 16})),
               std::runtime_error);
  // A channel count the program does not take is refused at admission,
  // typed, before any counter moves.
  const auto counters = [](const Engine::Stats& st) {
    return std::vector<int64_t>{st.submitted, st.accepted, st.completed,
                                st.failed, st.queue_depth};
  };
  const std::vector<int64_t> before = counters(engine.stats());
  try {
    (void)engine.submit("m", random_input(1, {4, 16, 16}));
    ADD_FAILURE() << "expected RejectedError{InvalidInput}";
  } catch (const RejectedError& e) {
    EXPECT_EQ(e.reason(), RejectReason::InvalidInput);
  }
  EXPECT_EQ(counters(engine.stats()), before);
  // A fault during execution surfaces through the future, not a crash —
  // and the engine keeps serving afterwards.
  inj->fail_batch = true;
  auto bad = engine.submit("m", random_input(1, {3, 16, 16}));
  EXPECT_THROW(bad.get(), std::runtime_error);
  auto good = engine.submit("m", random_input(1, {3, 16, 16}));
  EXPECT_EQ(good.get().size(1), 10);
  const Engine::Stats st = engine.stats();
  EXPECT_EQ(st.failed, 1);
  EXPECT_GE(st.completed, 1);
}

TEST(EngineAdmission, QueueFullRejectionIsTyped) {
  const auto model = CompiledModel::compile(small_graph(101));
  auto gate = std::make_shared<GateInjector>();
  EngineOptions opts;
  opts.batching.max_batch = 1;
  opts.batching.max_wait_us = 0;
  opts.fault_injector = gate;
  Engine engine(opts);
  ModelQos qos;
  qos.max_queue_depth = 2;
  engine.register_model("m", model, qos);

  // First request occupies the worker (held at the gate), the next two
  // fill the bounded queue exactly.
  std::vector<std::future<Tensor>> fut;
  fut.push_back(engine.submit("m", random_input(1, {3, 16, 16})));
  gate->wait_started(1);
  fut.push_back(engine.submit("m", random_input(2, {3, 16, 16})));
  fut.push_back(engine.submit("m", random_input(3, {3, 16, 16})));

  try {
    (void)engine.submit("m", random_input(4, {3, 16, 16}));
    FAIL() << "expected RejectedError{QueueFull}";
  } catch (const RejectedError& e) {
    EXPECT_EQ(e.reason(), RejectReason::QueueFull);
    EXPECT_STREQ(to_string(e.reason()), "QueueFull");
  }

  gate->release();
  for (auto& f : fut) EXPECT_EQ(f.get().size(1), 10);
  const Engine::Stats st = engine.stats();
  EXPECT_EQ(st.rejected_queue_full, 1);
  EXPECT_EQ(st.submitted, 4);
  EXPECT_EQ(st.accepted, 3);
  EXPECT_EQ(st.completed, 3);
}

TEST(EngineAdmission, DeadlineExpiredAtAdmissionIsRejectedSynchronously) {
  const auto model = CompiledModel::compile(small_graph(102));
  Engine engine;
  engine.register_model("m", model);
  SubmitOptions opts;
  opts.deadline = std::chrono::steady_clock::now() -
                  std::chrono::milliseconds(1);  // already in the past
  try {
    (void)engine.submit("m", random_input(1, {3, 16, 16}), opts);
    FAIL() << "expected RejectedError{Deadline}";
  } catch (const RejectedError& e) {
    EXPECT_EQ(e.reason(), RejectReason::Deadline);
  }
  const Engine::Stats st = engine.stats();
  EXPECT_EQ(st.rejected_deadline, 1);
  EXPECT_EQ(st.accepted, 0);
}

TEST(EngineAdmission, DeadlineExpiredInQueueIsDroppedBeforeLaunch) {
  const auto model = CompiledModel::compile(small_graph(103));
  auto gate = std::make_shared<GateInjector>();
  EngineOptions opts;
  opts.batching.max_batch = 1;
  opts.batching.max_wait_us = 0;
  opts.fault_injector = gate;
  Engine engine(opts);
  engine.register_model("m", model);

  auto blocker = engine.submit("m", random_input(1, {3, 16, 16}));
  gate->wait_started(1);  // worker pinned mid-batch
  auto doomed = engine.submit("m", random_input(2, {3, 16, 16}),
                              SubmitOptions{.deadline_us = 20'000});
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  gate->release();

  EXPECT_EQ(reason_of(doomed), RejectReason::Deadline);
  EXPECT_EQ(blocker.get().size(1), 10);  // the in-flight request finished
  const Engine::Stats st = engine.stats();
  EXPECT_EQ(st.dropped_deadline, 1);
  EXPECT_EQ(st.completed, 1);
  // The expired request burned no execution: one batch total.
  EXPECT_EQ(st.batches, 1);
}

TEST(EngineAdmission, LaunchTimeDeadlineDropIsCountedBeforeTheClientSeesIt) {
  // A peer gathered into a batch that keeps waiting for more peers expires
  // before the batch launches, so the launch-time check drops it. The drop
  // must already be in stats() when the client's own Deadline rejection
  // arrives, as on every other drop path; five rounds per run.
  const auto model = CompiledModel::compile(small_graph(118));
  EngineOptions opts;
  opts.batching.max_batch = 8;
  opts.batching.max_wait_us = 60'000;
  Engine engine(opts);
  engine.register_model("m", model);
  for (int64_t round = 1; round <= 5; ++round) {
    auto head = engine.submit(
        "m", random_input(static_cast<uint64_t>(round), {3, 16, 16}));
    auto doomed = engine.submit(
        "m", random_input(static_cast<uint64_t>(100 + round), {3, 16, 16}),
        SubmitOptions{.deadline_us = 10'000});
    EXPECT_EQ(reason_of(doomed), RejectReason::Deadline);
    EXPECT_EQ(engine.stats().dropped_deadline, round);
    EXPECT_EQ(head.get().size(1), 10);
  }
  const Engine::Stats st = engine.stats();
  EXPECT_EQ(st.completed, 5);
  EXPECT_EQ(st.batches, 5);  // the expired peers burned no execution
}

TEST(EngineAdmission, ModelDefaultDeadlineApplies) {
  const auto model = CompiledModel::compile(small_graph(104));
  auto gate = std::make_shared<GateInjector>();
  EngineOptions opts;
  opts.batching.max_batch = 1;
  opts.batching.max_wait_us = 0;
  opts.fault_injector = gate;
  Engine engine(opts);
  ModelQos qos;
  qos.default_deadline_us = 15'000;
  engine.register_model("m", model, qos);

  auto blocker = engine.submit("m", random_input(1, {3, 16, 16}),
                               SubmitOptions{.deadline_us = 5'000'000});
  gate->wait_started(1);
  auto doomed = engine.submit("m", random_input(2, {3, 16, 16}));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate->release();
  EXPECT_EQ(reason_of(doomed), RejectReason::Deadline);
  EXPECT_EQ(blocker.get().size(1), 10);
}

TEST(EngineFaults, WorkerExceptionResolvesTheBatchAndEngineKeepsServing) {
  const auto model = CompiledModel::compile(small_graph(105));
  auto inj = std::make_shared<ThrowInjector>();
  EngineOptions opts;
  opts.fault_injector = inj;
  Engine engine(opts);
  engine.register_model("m", model);

  inj->fail_batch = true;
  auto bad = engine.submit("m", random_input(1, {3, 16, 16}));
  try {
    (void)bad.get();
    FAIL() << "expected the injected fault";
  } catch (const RejectedError&) {
    FAIL() << "a worker fault is not a rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("injected batch fault"),
              std::string::npos);
  }
  auto good = engine.submit("m", random_input(2, {3, 16, 16}));
  EXPECT_EQ(good.get().size(1), 10);
  const Engine::Stats st = engine.stats();
  EXPECT_EQ(st.failed, 1);
  EXPECT_EQ(st.completed, 1);
}

TEST(EngineFaults, PlanCompileFailureAtSessionCreateRecovers) {
  const auto model = CompiledModel::compile(small_graph(106));
  auto inj = std::make_shared<ThrowInjector>();
  EngineOptions opts;
  opts.fault_injector = inj;
  Engine engine(opts);
  engine.register_model("m", model);

  inj->fail_session_create = true;
  auto bad = engine.submit("m", random_input(1, {3, 16, 16}));
  EXPECT_THROW((void)bad.get(), std::runtime_error);
  // The failed creation was not cached; the next batch retries and serves.
  inj->fail_session_create = false;
  auto good = engine.submit("m", random_input(2, {3, 16, 16}));
  EXPECT_EQ(good.get().size(1), 10);
}

TEST(Session, PlanBuildHookFailsLikeAPlannerRejection) {
  const auto model = CompiledModel::compile(small_graph(107));
  Session session(model);
  EXPECT_EQ(session.run(random_input(1, {1, 3, 16, 16})).size(1), 10);
  // A 4-channel input to the 3-channel program: the planner rejects it and
  // the rejection propagates out of run().
  EXPECT_THROW(session.run(random_input(2, {1, 4, 16, 16})),
               std::runtime_error);
  // The failed build cached nothing; the batch-1 plan is untouched.
  EXPECT_EQ(session.memory().cached_plans, 1u);
  EXPECT_EQ(session.run(random_input(3, {1, 3, 16, 16})).size(1), 10);
}

TEST(EngineShutdown, DrainServesEveryQueuedRequest) {
  const auto model = CompiledModel::compile(small_graph(108));
  auto gate = std::make_shared<GateInjector>();
  EngineOptions opts;
  opts.batching.max_batch = 1;
  opts.batching.max_wait_us = 0;
  opts.fault_injector = gate;
  Engine engine(opts);
  engine.register_model("m", model);

  std::vector<std::future<Tensor>> fut;
  fut.push_back(engine.submit("m", random_input(1, {3, 16, 16})));
  gate->wait_started(1);
  for (int i = 2; i <= 5; ++i) {
    fut.push_back(
        engine.submit("m", random_input(static_cast<uint64_t>(i), {3, 16, 16})));
  }
  gate->release();
  engine.shutdown(DrainPolicy::drain);
  for (auto& f : fut) EXPECT_EQ(f.get().size(1), 10);  // all served

  // Phase 1 holds after shutdown: admission is closed, typed.
  try {
    (void)engine.submit("m", random_input(9, {3, 16, 16}));
    FAIL() << "expected RejectedError{ShuttingDown}";
  } catch (const RejectedError& e) {
    EXPECT_EQ(e.reason(), RejectReason::ShuttingDown);
  }
  const Engine::Stats st = engine.stats();
  EXPECT_EQ(st.completed, 5);
  EXPECT_EQ(st.rejected_shutdown, 1);
  EXPECT_EQ(st.queue_depth, 0);
}

TEST(EngineShutdown, DropResolvesQueuedFuturesWithShuttingDown) {
  const auto model = CompiledModel::compile(small_graph(109));
  auto gate = std::make_shared<GateInjector>();
  EngineOptions opts;
  opts.batching.max_batch = 1;
  opts.batching.max_wait_us = 0;
  opts.fault_injector = gate;
  Engine engine(opts);
  engine.register_model("m", model);

  auto in_flight = engine.submit("m", random_input(1, {3, 16, 16}));
  gate->wait_started(1);  // worker pinned: the rest stays queued
  std::vector<std::future<Tensor>> queued;
  for (int i = 2; i <= 6; ++i) {
    queued.push_back(
        engine.submit("m", random_input(static_cast<uint64_t>(i), {3, 16, 16})));
  }

  // Drop-shutdown from another thread; it clears the queue immediately but
  // can only join once the gated in-flight batch finishes.
  std::thread shut([&] { engine.shutdown(DrainPolicy::drop); });
  while (engine.stats().dropped_shutdown < 5) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& f : queued) EXPECT_EQ(reason_of(f), RejectReason::ShuttingDown);
  gate->release();
  shut.join();

  EXPECT_EQ(in_flight.get().size(1), 10);  // launched work still completes
  const Engine::Stats st = engine.stats();
  EXPECT_EQ(st.completed, 1);
  EXPECT_EQ(st.dropped_shutdown, 5);
  EXPECT_EQ(st.queue_depth, 0);
}

TEST(EngineLanes, HighLaneOvertakesQueuedNormalTraffic) {
  const auto model = CompiledModel::compile(small_graph(110));
  auto slow = std::make_shared<SleepInjector>(2'000);
  EngineOptions opts;
  opts.batching.max_batch = 1;
  opts.batching.max_wait_us = 0;
  opts.fault_injector = slow;
  Engine engine(opts);
  engine.register_model("m", model);

  constexpr int kFlood = 40;
  std::vector<std::future<Tensor>> normal;
  for (int i = 0; i < kFlood; ++i) {
    normal.push_back(
        engine.submit("m", random_input(static_cast<uint64_t>(i), {3, 16, 16})));
  }
  auto high = engine.submit("m", random_input(99, {3, 16, 16}),
                            SubmitOptions{.lane = Lane::high});
  EXPECT_EQ(high.get().size(1), 10);
  // Strict priority: when the high request resolved, a large share of the
  // earlier normal flood must still be waiting (at ~2 ms per batch the
  // backlog is ~80 ms deep; the high request jumped it).
  int pending = 0;
  for (auto& f : normal) {
    if (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      ++pending;
    }
  }
  EXPECT_GE(pending, 5);
  for (auto& f : normal) EXPECT_EQ(f.get().size(1), 10);
}

TEST(EngineLanes, RoundRobinKeepsABurstFromStarvingAnotherModel) {
  const auto a = CompiledModel::compile(small_graph(111, 10));
  const auto b = CompiledModel::compile(small_graph(112, 4));
  auto slow = std::make_shared<SleepInjector>(2'000);
  EngineOptions opts;
  opts.batching.max_batch = 1;
  opts.batching.max_wait_us = 0;
  opts.fault_injector = slow;
  Engine engine(opts);
  engine.register_model("a", a);
  engine.register_model("b", b);

  constexpr int kFlood = 40;
  std::vector<std::future<Tensor>> flood;
  for (int i = 0; i < kFlood; ++i) {
    flood.push_back(
        engine.submit("a", random_input(static_cast<uint64_t>(i), {3, 16, 16})));
  }
  std::vector<std::future<Tensor>> other;
  for (int i = 0; i < 5; ++i) {
    other.push_back(engine.submit(
        "b", random_input(200 + static_cast<uint64_t>(i), {3, 16, 16})));
  }
  for (auto& f : other) EXPECT_EQ(f.get().size(1), 4);
  // Round-robin within the lane: model b's five requests interleave with
  // the flood instead of waiting behind all forty of model a's.
  int pending = 0;
  for (auto& f : flood) {
    if (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      ++pending;
    }
  }
  EXPECT_GE(pending, 5);
  for (auto& f : flood) EXPECT_EQ(f.get().size(1), 10);
}

TEST(EngineStats, LatencyReservoirStaysBounded) {
  const auto model = CompiledModel::compile(small_graph(113));
  EngineOptions opts;
  opts.batching.max_batch = 1;
  opts.batching.max_wait_us = 0;
  opts.stats_window = 32;
  Engine engine(opts);
  engine.register_model("m", model);
  for (int i = 0; i < 100; ++i) {
    (void)engine.submit("m", random_input(static_cast<uint64_t>(i), {3, 16, 16}))
        .get();
  }
  const Engine::Stats st = engine.stats();
  EXPECT_EQ(st.completed, 100);
  EXPECT_EQ(st.latency_samples, 32);  // ring, not unbounded growth
  EXPECT_GT(st.p50_ms, 0.0);
  EXPECT_LE(st.p50_ms, st.p99_ms);
  EXPECT_LE(st.p99_ms, st.max_ms);
}

TEST(EngineRegistry, RegisterUnregisterRaceAgainstConcurrentSubmits) {
  const auto v10 = CompiledModel::compile(small_graph(114, 10));
  const auto v6 = CompiledModel::compile(small_graph(115, 6));
  EngineOptions opts;
  opts.workers = 2;
  opts.batching.max_wait_us = 100;
  Engine engine(opts);
  engine.register_model("m", v10);

  std::atomic<bool> stop{false};
  std::thread swapper([&] {
    uint64_t i = 0;
    while (!stop.load()) {
      engine.register_model("m", (i & 1) ? v6 : v10);
      if (++i % 7 == 0) {
        engine.unregister_model("m");
        engine.register_model("m", v10);
      }
    }
  });

  constexpr int kThreads = 4;
  constexpr int kPerThread = 60;
  std::vector<int> bad(kThreads, 0);
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(500 + static_cast<uint64_t>(t), 1);
      Tensor image({3, 16, 16});
      fill_uniform(image, rng, -1.0f, 1.0f);
      for (int i = 0; i < kPerThread; ++i) {
        try {
          const Tensor y = engine.submit("m", image).get();
          // Whatever version won the race, the result is a full logits row
          // from one of the registered models — never a torn state.
          if (y.size(1) != 10 && y.size(1) != 6) ++bad[static_cast<size_t>(t)];
        } catch (const RejectedError& e) {
          // Unknown is legal in the unregister window; nothing else is.
          if (e.reason() != RejectReason::Unknown) {
            ++bad[static_cast<size_t>(t)];
          }
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  stop.store(true);
  swapper.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(bad[static_cast<size_t>(t)], 0);
  engine.shutdown();
  const Engine::Stats st = engine.stats();
  EXPECT_EQ(st.accepted, st.completed + st.failed + st.dropped_deadline +
                             st.dropped_shutdown);
  EXPECT_EQ(st.failed, 0);
}

// The acceptance run for this tier: a seeded open-loop overload at >= 2x
// the engine's (injector-pinned, machine-independent) capacity against a
// bounded queue with SLO deadlines and 2 workers. The engine must shed
// with typed rejections, keep p99 of ACCEPTED work within the SLO, resolve
// every future, and drain cleanly at shutdown.
TEST(EngineOverload, ShedsTypedKeepsAcceptedTailBoundedAndDrains) {
  const auto model = CompiledModel::compile(small_graph(116));
  // 2 ms per batch, max_batch 1, 2 workers -> capacity ~<= 1000 images/s
  // on ANY machine (slower with real exec time on top).
  auto slow = std::make_shared<SleepInjector>(2'000);
  EngineOptions opts;
  opts.batching.max_batch = 1;
  opts.batching.max_wait_us = 0;
  opts.workers = 2;
  opts.fault_injector = slow;
  Engine engine(opts);
  const int64_t kDepth = 32;
  ModelQos qos;
  qos.max_queue_depth = kDepth;
  engine.register_model("m", model, qos);

  Rng rng(9, 1);
  Tensor image({3, 16, 16});
  fill_uniform(image, rng, -1.0f, 1.0f);
  (void)engine.submit("m", image).get();  // warmup: plan built

  OpenLoopSpec spec;
  spec.rate_per_s = 1500.0;  // >= 2x capacity by construction
  spec.duration_s = 0.4;
  spec.seed = 20260807;
  const int64_t kSloMs = 300;
  const LoadResult r =
      run_open_loop(engine, {{"m", image, {}}}, spec, kSloMs * 1000);

  // Overload was real and the engine shed it with typed rejections.
  EXPECT_GT(r.offered, 300);
  EXPECT_GT(r.rejected_queue_full, 0);
  EXPECT_GT(r.completed, 20);
  EXPECT_EQ(r.faulted, 0);
  // Every offered request got exactly one outcome.
  EXPECT_EQ(r.offered, r.completed + r.shed() + r.faulted);

  // Accepted work stayed within the SLO: the bounded queue (32 deep at
  // ~>=500/s service) drains in far less than 300 ms, and expired requests
  // were dropped before launch rather than served late.
  const Engine::Stats st = engine.stats();
  EXPECT_GT(st.completed, 0);
  EXPECT_LE(st.p99_ms, static_cast<double>(kSloMs));
  EXPECT_GE(st.completed_within_deadline,
            (st.completed - 1) / 2);  // -1: the deadline-less warmup

  engine.shutdown(DrainPolicy::drain);
  const Engine::Stats done = engine.stats();
  EXPECT_EQ(done.queue_depth, 0);
  EXPECT_EQ(done.accepted, done.completed + done.failed +
                               done.dropped_deadline + done.dropped_shutdown);
}

// The same overload contract, under a mixed-RESOLUTION open-loop stream
// served through a bucket ladder: four geometries all mapping to one
// 16x16 rung must coalesce into cross-geometry batches while the engine
// still sheds typed, keeps accepted p99 within the SLO, resolves every
// future and drains cleanly — buckets change throughput, never the
// overload guarantees.
TEST(EngineOverload, BucketedMixedGeometryOverloadKeepsTheContract) {
  const auto model = CompiledModel::compile(small_graph(117));
  // 2 ms per batch of <= 4 images on 2 workers -> capacity <= 4000
  // images/s on ANY machine; the offered 8000/s is >= 2x that.
  auto slow = std::make_shared<SleepInjector>(2'000);
  EngineOptions opts;
  opts.batching.max_batch = 4;
  opts.batching.max_wait_us = 200;
  opts.workers = 2;
  opts.fault_injector = slow;
  // The p99 assertion below is about steady state, not cold start: each
  // worker builds plans for four batch sizes inline during the first
  // moments of the run, and on a heavily instrumented build (TSan) those
  // builds are slow enough to push the earliest completions past the
  // SLO. A ring smaller than the steady-state completion count means the
  // reported percentiles cover only the post-warmup regime.
  opts.stats_window = 128;
  Engine engine(opts);
  ModelQos qos;
  // Shallow queue: under saturation a completed request's latency is
  // roughly full-queue drain time plus one batch execution, and the
  // drain must stay far below the SLO even when instrumentation (TSan)
  // inflates per-batch execution to tens of milliseconds — otherwise the
  // queue ages requests up to the deadline and the p99 assertion
  // measures the instrumentation, not the engine.
  qos.max_queue_depth = 8;
  qos.bucketing.ladder = {{16, 16}};
  qos.bucketing.max_pad_ratio = 1.6;
  engine.register_model("m", model, qos);

  Rng rng(10, 1);
  std::vector<Tensor> geo_images;
  for (const auto& [h, w] : {std::pair<int64_t, int64_t>{13, 15},
                             {14, 16},
                             {15, 14},
                             {16, 16}}) {
    Tensor image({3, h, w});
    fill_uniform(image, rng, -1.0f, 1.0f);
    geo_images.push_back(std::move(image));
  }
  (void)engine.submit("m", geo_images.back()).get();  // warmup: plan built

  OpenLoopSpec spec;
  spec.rate_per_s = 8000.0;
  spec.duration_s = 0.4;
  spec.seed = 20260807;
  spec.geo_weights = {1.0, 1.0, 1.0, 1.0};
  const int64_t kSloMs = 500;
  const LoadResult r = run_open_loop(
      engine, {{"m", geo_images.back(), geo_images}}, spec, kSloMs * 1000);

  // Overload was real, the shed was typed, and every future resolved.
  EXPECT_GT(r.offered, 1000);
  EXPECT_GT(r.rejected_queue_full, 0);
  EXPECT_GT(r.completed, 20);
  EXPECT_EQ(r.faulted, 0);
  EXPECT_EQ(r.offered, r.completed + r.shed() + r.faulted);

  const Engine::Stats st = engine.stats();
  EXPECT_GT(st.completed, 0);
  EXPECT_LE(st.p99_ms, static_cast<double>(kSloMs));
  // The bucket path really carried the load: sub-rung geometries were
  // padded at admission and launched batches mixed exact geometries.
  EXPECT_GT(st.padded_accepted, 0);
  EXPECT_GT(st.mixed_geometry_batches, 0);
  EXPECT_GT(st.avg_batch, 1.0);

  engine.shutdown(DrainPolicy::drain);
  const Engine::Stats done = engine.stats();
  EXPECT_EQ(done.queue_depth, 0);
  EXPECT_EQ(done.accepted, done.completed + done.failed +
                               done.dropped_deadline + done.dropped_shutdown);
}

TEST(EngineConcurrency, StartupTrafficShutdownHammer) {
  // Regression for the lock-discipline bug the thread-safety annotation
  // pass flagged: the Engine constructor populated lifecycle_mu_-guarded
  // workers_ and stats_mu_-guarded latency_ring_ with no lock held, racing
  // the worker threads it had already spawned (which take stats_mu_ in
  // record_batch on their first completion). Repeatedly build an Engine and
  // throw traffic + stats readers at it immediately, so the construction
  // window overlaps worker activity — under TSan this is the schedule that
  // caught the original bug, and it also drives every branch of the
  // restructured worker_loop (wait, batch, drain-return). The reader also
  // pins the counting order: submit() counts a request before a worker can
  // pop it, so stats() never shows more completions than admissions.
  const auto model = CompiledModel::compile(small_graph(116));
  for (int round = 0; round < 6; ++round) {
    EngineOptions opts;
    opts.workers = 2;
    opts.batching.max_wait_us = 50;
    Engine engine(opts);
    engine.register_model("m", model);

    std::atomic<bool> stop{false};
    std::thread reader([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const Engine::Stats st = engine.stats();
        EXPECT_GE(st.submitted, st.completed);
        EXPECT_GE(st.accepted, st.completed + st.failed + st.dropped_deadline +
                                   st.dropped_shutdown);
        (void)engine.model_names();
      }
    });

    std::vector<std::future<Tensor>> futures;
    futures.reserve(12);
    for (int i = 0; i < 12; ++i) {
      futures.push_back(engine.submit(
          "m", random_input(600 + static_cast<uint64_t>(i), {3, 16, 16})));
    }
    for (auto& f : futures) {
      EXPECT_EQ(f.get().size(1), 10);
    }
    engine.shutdown(DrainPolicy::drain);
    stop.store(true, std::memory_order_release);
    reader.join();
    const Engine::Stats st = engine.stats();
    EXPECT_EQ(st.completed, 12);
    EXPECT_EQ(st.failed, 0);
  }
}

}  // namespace
}  // namespace nb::runtime
