// Engine — the serving front end: a multi-model registry plus a bounded,
// deadline-aware, micro-batching admission queue.
//
// Clients submit single images against a model name and get a
// std::future<Tensor> back. The request path is built around admission
// control and overload survival, not best-effort queueing:
//
//   * Bounded admission. Every model carries a ModelQos: a max queue depth
//     and a default deadline. When a model's queue is full, submit() throws
//     a typed RejectedError{QueueFull} immediately — explicit backpressure
//     instead of silent unbounded growth. An overloaded Engine sheds load;
//     it never eats the process's memory.
//   * Deadlines. A request's deadline (per-submit or the model default) is
//     checked at admission (already expired -> RejectedError{Deadline},
//     nothing queued) and again at batch launch (expired while queued ->
//     the future resolves with RejectedError{Deadline} BEFORE any GEMM is
//     burned on it). p99 of accepted work stays bounded because expired
//     work is dropped, not served late.
//   * Priority lanes. Each model has two lanes (Lane::high, Lane::normal)
//     with strict-priority dequeue between lanes and round-robin across
//     models within a lane, so a burst on one model cannot starve another
//     model's traffic and interactive requests overtake bulk ones.
//   * Multi-worker dispatch. `workers` dispatcher threads each own private
//     per-model Sessions (weight panels stay shared via CompiledModel), so
//     batches of different models/geometries execute concurrently.
//   * Three-phase shutdown. shutdown(policy): (1) stop admitting — new
//     submits throw RejectedError{ShuttingDown}; (2) drain (serve every
//     queued request) or drop (resolve every queued future with
//     ShuttingDown) per policy; (3) join the workers. No future is ever
//     left unresolved. The destructor runs shutdown(options.on_shutdown).
//
// Dispatcher workers coalesce queued requests that target the same
// (model, execution geometry) into one batched run — the head request
// waits at most `max_wait_us` for peers (never past its own deadline),
// batches cap at `max_batch` — and the whole batch executes as ONE plan
// (see infer_plan.h), bitwise identical to running each request alone, so
// batching remains purely a throughput/latency policy. The execution
// geometry is normally the submitted (h, w); a model whose ModelQos
// carries a resolution-bucket ladder (runtime/bucketing.h) instead maps
// each submit to its bucket rung at admission, and mixed-resolution
// requests of one rung batch together: each image is zero-padded
// (bottom/right) to the rung geometry when the batch is stacked, and the
// reply is the model evaluated on that padded image — bitwise identical
// to running the padded image alone (the documented pad-to-bucket
// exactness contract; see bucketing.h and tests/test_bucketing.cpp).
//
//   Engine engine({.batching = {.max_batch = 8, .max_wait_us = 500},
//                  .workers = 4});
//   engine.register_model("mbv2", CompiledModel::compile_file(path),
//                         {.max_queue_depth = 128,
//                          .default_deadline_us = 20'000});
//   try {
//     auto f = engine.submit("mbv2", image, {.lane = Lane::high});
//     Tensor logits = f.get();  // value, RejectedError, or a model fault
//   } catch (const RejectedError& e) {
//     // e.reason() == RejectReason::QueueFull -> back off / retry
//   }
//
// Latency accounting: stats() reports p50/p99 over a fixed-size ring of
// recent samples (a long-lived Engine stays O(window), and the percentiles
// track current behavior instead of the process's first million requests)
// plus the full rejection taxonomy — the numbers BENCH_serve.json tracks.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/bucketing.h"
#include "runtime/compiled_model.h"
#include "runtime/fault_injector.h"
#include "runtime/session.h"
#include "tensor/tensor.h"
#include "util/thread_safety.h"

namespace nb::runtime {

// ---- admission-control vocabulary ----------------------------------------

/// Why the Engine refused (or gave up on) a request.
enum class RejectReason {
  QueueFull,     // the model's bounded queue was at max_queue_depth
  Deadline,      // expired at admission or while queued (never executed)
  ShuttingDown,  // submitted after shutdown began, or dropped by policy
  Unknown,       // no model registered under that name
  InvalidInput,  // a NaN or infinite pixel, or the wrong channel count
};

const char* to_string(RejectReason reason);

/// The typed rejection outcome: thrown synchronously by submit() for
/// admission-time rejections, delivered through the future for requests
/// dropped after admission. Derives from std::runtime_error so existing
/// catch sites keep working; reason() carries the taxonomy.
class RejectedError : public std::runtime_error {
 public:
  RejectedError(RejectReason reason, const std::string& what)
      : std::runtime_error(what), reason_(reason) {}
  RejectReason reason() const { return reason_; }

 private:
  RejectReason reason_;
};

/// Strict-priority lanes: every queued high request of a model dequeues
/// before any of its normal requests (and high lanes win across models).
enum class Lane : int { high = 0, normal = 1 };
inline constexpr int kLaneCount = 2;

/// Per-model quality-of-service configuration, fixed at register time.
struct ModelQos {
  /// Queued-request bound across both lanes; admission beyond it throws
  /// RejectedError{QueueFull}. In-flight (already launched) requests don't
  /// count against the bound.
  int64_t max_queue_depth = 256;
  /// Deadline applied to submits that don't carry their own; 0 = none.
  /// Measured from admission.
  int64_t default_deadline_us = 0;
  /// Resolution-bucket ladder for cross-geometry batching (see
  /// runtime/bucketing.h). A submit whose (h, w) lands in a rung is
  /// zero-padded to the rung geometry AT ADMISSION (the bucket is the
  /// request's execution geometry from then on) and coalesces with every
  /// other request of that rung, regardless of exact input size. Empty
  /// ladder = exact-geometry coalescing only (pre-bucketing behavior).
  /// Validated at register_model time.
  BucketingConfig bucketing;
};

/// Per-submit overrides.
struct SubmitOptions {
  Lane lane = Lane::normal;
  /// Relative deadline from admission, microseconds; 0 = use the model's
  /// ModelQos default.
  int64_t deadline_us = 0;
  /// Absolute deadline; when set (non-epoch) it wins over deadline_us. The
  /// open-loop load harness uses this to anchor deadlines to the request's
  /// *scheduled* arrival, so generator lag counts against the SLO.
  std::chrono::steady_clock::time_point deadline{};
};

struct BatchingPolicy {
  /// Largest coalesced batch; 1 disables micro-batching (pure FIFO).
  int64_t max_batch = 8;
  /// How long the head-of-line request waits for same-geometry peers
  /// before its (possibly partial) batch launches; 0 = never wait. The
  /// wait is additionally capped by the head request's deadline.
  int64_t max_wait_us = 200;
};

/// What shutdown does with requests that were admitted but not launched.
enum class DrainPolicy {
  drain,  // serve every queued request, then stop
  drop,   // resolve every queued future with RejectedError{ShuttingDown}
};

struct EngineOptions {
  BatchingPolicy batching;
  /// Dispatcher threads executing batches (each owns one Session per
  /// model). More workers overlap batches of different models/geometries.
  int64_t workers = 1;
  /// Options for the per-worker sessions (plan cache size, plan
  /// verification).
  SessionOptions session;
  /// QoS applied by register_model calls that don't pass their own.
  ModelQos default_qos;
  /// What the destructor does with still-queued requests.
  DrainPolicy on_shutdown = DrainPolicy::drain;
  /// Latency samples kept for p50/p99 (fixed-size ring of the most recent
  /// completions; a long-lived Engine's stats stay O(stats_window)).
  size_t stats_window = size_t{1} << 14;
  /// Test seam for deterministic fault injection (see fault_injector.h);
  /// null in production.
  std::shared_ptr<FaultInjector> fault_injector;
};

class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  /// Runs shutdown(options.on_shutdown) if shutdown() wasn't called.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // ---- model registry ----------------------------------------------------

  /// Registers (or hot-swaps) a model under `name`. Registration is atomic
  /// with respect to admission: a concurrent submit resolves either the old
  /// or the new model, never a torn state, and already-queued requests keep
  /// the CompiledModel they resolved at admission. `qos` defaults to
  /// EngineOptions::default_qos.
  void register_model(const std::string& name,
                      std::shared_ptr<const CompiledModel> model);
  void register_model(const std::string& name,
                      std::shared_ptr<const CompiledModel> model,
                      const ModelQos& qos);
  /// Removes `name`; returns false when unknown. Requests already admitted
  /// for it still execute (they hold the model); new submits get
  /// RejectedError{Unknown}.
  bool unregister_model(const std::string& name);
  std::shared_ptr<const CompiledModel> model(const std::string& name) const;
  std::vector<std::string> model_names() const;

  // ---- request path ------------------------------------------------------

  /// Submits one image ([C, H, W] or [1, C, H, W]) for `name`. Admission
  /// rejections throw RejectedError synchronously (QueueFull / Deadline /
  /// ShuttingDown / Unknown / InvalidInput); a non-finite pixel is refused
  /// before the image is copied, and an image whose channel count differs
  /// from the model's input_channels() before it is counted in stats().
  /// A malformed shape is a caller bug and still throws a plain NB_CHECK
  /// error. Post-admission failures — deadline expiry while queued,
  /// drop-policy shutdown, model faults — surface through the future. The
  /// future resolves to the logits row [1, classes].
  std::future<Tensor> submit(const std::string& name, const Tensor& image,
                             const SubmitOptions& opts = {});

  // ---- lifecycle ---------------------------------------------------------

  /// Three-phase shutdown: stop admitting, drain-or-drop the queue per
  /// `policy`, join the workers. Idempotent; concurrent calls are safe and
  /// the first policy wins.
  void shutdown(DrainPolicy policy);
  void shutdown() { shutdown(options_.on_shutdown); }

  // ---- accounting --------------------------------------------------------

  struct Stats {
    int64_t submitted = 0;  // every submit() call, accepted or not
    int64_t accepted = 0;   // admitted into a queue
    int64_t completed = 0;  // future resolved with a value
    int64_t failed = 0;     // future resolved with a model/worker fault
    // Rejection taxonomy (each request counts in at most one bucket).
    int64_t rejected_queue_full = 0;  // thrown at admission
    int64_t rejected_deadline = 0;    // thrown at admission (already late)
    int64_t rejected_shutdown = 0;    // thrown at admission after shutdown
    int64_t dropped_deadline = 0;     // admitted, expired before launch
    int64_t dropped_shutdown = 0;     // admitted, dropped by DrainPolicy::drop
    /// Completions that had a deadline and beat it (the goodput numerator;
    /// deadline-less completions count in completed only).
    int64_t completed_within_deadline = 0;
    /// Admissions whose geometry was assigned to a LARGER bucket rung (the
    /// request executes zero-padded; see ModelQos::bucketing). Exact-fit
    /// rung hits don't count — no padding happened.
    int64_t padded_accepted = 0;
    /// Launched batches that mixed two or more distinct EXACT input
    /// geometries — the batches bucketing created that same-geometry
    /// coalescing never could.
    int64_t mixed_geometry_batches = 0;
    int64_t batches = 0;
    double avg_batch = 0.0;     // (completed + failed) / batches
    double p50_ms = 0.0;        // total submit -> resolve latency, over the
    double p99_ms = 0.0;        // stats_window most recent completions
    double max_ms = 0.0;
    double avg_queue_ms = 0.0;  // submit -> batch launch
    int64_t queue_depth = 0;    // queued (unlaunched) requests right now
    int64_t latency_samples = 0;
  };
  Stats stats() const;

 private:
  using TimePoint = std::chrono::steady_clock::time_point;

  struct Request {
    std::promise<Tensor> promise;
    Tensor input;  // [1, C, H, W] at the EXACT submitted geometry
    std::shared_ptr<const CompiledModel> model;
    std::string model_name;
    // Execution geometry: the assigned bucket rung, or the exact input
    // geometry when no rung applies. Requests coalesce on (model,
    // channels, exec_h, exec_w); padded iff it differs from the input.
    int64_t exec_h = 0, exec_w = 0;
    TimePoint enqueued;
    TimePoint deadline{};  // epoch = no deadline
    Lane lane = Lane::normal;
    bool has_deadline() const { return deadline != TimePoint{}; }
    bool padded() const {
      return exec_h != input.size(2) || exec_w != input.size(3);
    }
  };

  /// Registry entry + its admission queues. Hot-swap replaces `model` in
  /// place under mu_ so queued requests (which snapshot their model at
  /// admission) and lane ordering survive the swap.
  struct ModelEntry {
    std::shared_ptr<const CompiledModel> model;
    ModelQos qos;
    std::deque<Request> lanes[kLaneCount];
    bool in_active = false;  // member of active_
    int64_t depth() const {
      return static_cast<int64_t>(lanes[0].size() + lanes[1].size());
    }
  };

  enum class Phase { running, draining, dropping };

  void worker_loop() NB_EXCLUDES(mu_);
  bool matches(const Request& a, const Request& b) const;
  void execute_batch(std::vector<Request>& batch, Session* session,
                     std::exception_ptr session_error) NB_EXCLUDES(mu_);
  void record_batch(const std::vector<Request>& batch, TimePoint launched,
                    bool failed) NB_EXCLUDES(stats_mu_);
  void record_latency_sample(double ms) NB_REQUIRES(stats_mu_);

  // Pops the next runnable request honoring lane priority and the
  // round-robin cursor; resolves expired requests it walks past. Returns
  // false when no runnable request exists.
  bool pop_next(Request& out) NB_REQUIRES(mu_);
  // Moves coalescible peers (same model object, same geometry; high lane
  // first) from `entry`'s queues into `batch`.
  void gather_peers(ModelEntry& entry, std::vector<Request>& batch)
      NB_REQUIRES(mu_);
  // Drops entry from active_ when it has no queued work.
  void retire_if_idle(ModelEntry* entry) NB_REQUIRES(mu_);
  // Resolves a request with a typed rejection (no lock requirements).
  static void reject(Request& req, RejectReason reason,
                     const std::string& what);

  EngineOptions options_;

  // One lock covers the registry AND the queues: model resolution, QoS
  // checks and enqueue happen in a single critical section, so hot-swap /
  // unregister can never interleave with admission (the register/submit
  // race the old two-lock design had). Guarded members are declared so; a
  // clang -Wthread-safety build rejects any access outside the lock.
  mutable Mutex mu_;
  CondVar queue_cv_;
  std::map<std::string, std::shared_ptr<ModelEntry>> registry_
      NB_GUARDED_BY(mu_);
  // Round-robin ring of entries with queued work (an unregistered entry
  // stays in the ring until drained). rr_ points at the next entry to
  // inspect, rotated after every dequeue for cross-model fairness.
  std::vector<std::shared_ptr<ModelEntry>> active_ NB_GUARDED_BY(mu_);
  size_t rr_ NB_GUARDED_BY(mu_) = 0;
  int64_t queued_total_ NB_GUARDED_BY(mu_) = 0;
  Phase phase_ NB_GUARDED_BY(mu_) = Phase::running;
  // Bumped on every register/unregister; workers re-check their local
  // session maps against the registry when it changes, so a replaced or
  // removed model's weight panels are released instead of staying pinned
  // for the Engine's lifetime.
  std::atomic<uint64_t> registry_generation_{0};

  mutable Mutex stats_mu_;
  int64_t submitted_ NB_GUARDED_BY(stats_mu_) = 0;
  int64_t accepted_ NB_GUARDED_BY(stats_mu_) = 0;
  int64_t completed_ NB_GUARDED_BY(stats_mu_) = 0;
  int64_t failed_ NB_GUARDED_BY(stats_mu_) = 0;
  int64_t rejected_queue_full_ NB_GUARDED_BY(stats_mu_) = 0;
  int64_t rejected_deadline_ NB_GUARDED_BY(stats_mu_) = 0;
  int64_t rejected_shutdown_ NB_GUARDED_BY(stats_mu_) = 0;
  int64_t dropped_deadline_ NB_GUARDED_BY(stats_mu_) = 0;
  int64_t dropped_shutdown_ NB_GUARDED_BY(stats_mu_) = 0;
  int64_t completed_within_deadline_ NB_GUARDED_BY(stats_mu_) = 0;
  int64_t padded_accepted_ NB_GUARDED_BY(stats_mu_) = 0;
  int64_t mixed_geometry_batches_ NB_GUARDED_BY(stats_mu_) = 0;
  int64_t batches_ NB_GUARDED_BY(stats_mu_) = 0;
  double queue_ms_sum_ NB_GUARDED_BY(stats_mu_) = 0.0;
  // Fixed-size ring of the most recent completion latencies.
  std::vector<double> latency_ring_ NB_GUARDED_BY(stats_mu_);
  size_t ring_next_ NB_GUARDED_BY(stats_mu_) = 0;
  int64_t ring_count_ NB_GUARDED_BY(stats_mu_) = 0;

  Mutex lifecycle_mu_;  // serializes join in shutdown()
  std::vector<std::thread> workers_ NB_GUARDED_BY(lifecycle_mu_);
};

}  // namespace nb::runtime
