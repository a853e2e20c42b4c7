#include "runtime/engine.h"

#include <algorithm>
#include <cstring>

#include "runtime/percentile.h"

namespace nb::runtime {

using Clock = std::chrono::steady_clock;

namespace {

// True when no value is NaN or infinite. Branch-free over the exponent
// bits, so it vectorizes: one pass over the pixels at admission.
bool all_finite(const float* p, int64_t n) {
  uint32_t non_finite = 0;
  for (int64_t i = 0; i < n; ++i) {
    uint32_t bits = 0;
    std::memcpy(&bits, p + i, sizeof bits);
    non_finite |= static_cast<uint32_t>((bits & 0x7f800000u) == 0x7f800000u);
  }
  return non_finite == 0;
}

}  // namespace

const char* to_string(RejectReason reason) {
  switch (reason) {
    case RejectReason::QueueFull:
      return "QueueFull";
    case RejectReason::Deadline:
      return "Deadline";
    case RejectReason::ShuttingDown:
      return "ShuttingDown";
    case RejectReason::Unknown:
      return "Unknown";
    case RejectReason::InvalidInput:
      return "InvalidInput";
  }
  return "?";
}

Engine::Engine(EngineOptions options) : options_(std::move(options)) {
  NB_CHECK(options_.batching.max_batch >= 1, "engine: max_batch must be >= 1");
  NB_CHECK(options_.batching.max_wait_us >= 0,
           "engine: max_wait_us must be >= 0");
  NB_CHECK(options_.workers >= 1, "engine: workers must be >= 1");
  NB_CHECK(options_.stats_window >= 1, "engine: stats_window must be >= 1");
  NB_CHECK(options_.default_qos.max_queue_depth >= 1,
           "engine: max_queue_depth must be >= 1");
  {
    MutexLock lock(stats_mu_);
    latency_ring_.reserve(options_.stats_window);
  }
  // The annotation pass flagged this: workers_ is guarded by lifecycle_mu_
  // (shutdown joins under it), and the old constructor populated it bare —
  // benign only as long as no thread calls shutdown() while the Engine is
  // still constructing, which a subclass or a ctor-spawned callback could
  // violate. Hold the lock for the spawn loop.
  MutexLock lock(lifecycle_mu_);
  workers_.reserve(static_cast<size_t>(options_.workers));
  for (int64_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Engine::~Engine() { shutdown(options_.on_shutdown); }

void Engine::shutdown(DrainPolicy policy) {
  // Phase 1: stop admitting. Every submit from here on throws
  // RejectedError{ShuttingDown}; the first caller's policy wins.
  std::vector<Request> dropped;
  {
    MutexLock lock(mu_);
    if (phase_ == Phase::running) {
      phase_ = policy == DrainPolicy::drop ? Phase::dropping
                                           : Phase::draining;
    }
    // Phase 2 (drop flavor): pull every still-queued request out NOW so
    // workers stop as soon as their in-flight batches finish. Drain flavor
    // leaves the queues alone — workers serve them to empty.
    if (phase_ == Phase::dropping) {
      for (const auto& entry : active_) {
        for (std::deque<Request>& lane : entry->lanes) {
          for (Request& req : lane) {
            dropped.push_back(std::move(req));
          }
          lane.clear();
        }
        entry->in_active = false;
      }
      active_.clear();
      rr_ = 0;
      queued_total_ = 0;
    }
  }
  queue_cv_.notify_all();
  if (!dropped.empty()) {
    {
      MutexLock lock(stats_mu_);
      dropped_shutdown_ += static_cast<int64_t>(dropped.size());
    }
    for (Request& req : dropped) {
      reject(req, RejectReason::ShuttingDown,
             "engine: request dropped at shutdown");
    }
  }
  // Phase 2 (drain flavor) happens inside the workers; phase 3: join them.
  MutexLock lock(lifecycle_mu_);
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

void Engine::register_model(const std::string& name,
                            std::shared_ptr<const CompiledModel> model) {
  register_model(name, std::move(model), options_.default_qos);
}

void Engine::register_model(const std::string& name,
                            std::shared_ptr<const CompiledModel> model,
                            const ModelQos& qos) {
  NB_CHECK(model != nullptr, "engine: null model for '" + name + "'");
  NB_CHECK(qos.max_queue_depth >= 1,
           "engine: max_queue_depth must be >= 1 for '" + name + "'");
  NB_CHECK(qos.default_deadline_us >= 0,
           "engine: default_deadline_us must be >= 0 for '" + name + "'");
  validate_bucketing(qos.bucketing);
  MutexLock lock(mu_);
  const auto it = registry_.find(name);
  if (it == registry_.end()) {
    auto entry = std::make_shared<ModelEntry>();
    entry->model = std::move(model);
    entry->qos = qos;
    registry_.emplace(name, std::move(entry));
  } else {
    // Hot-swap in place: queued requests keep the model they resolved at
    // admission (snapshotted into Request::model), new admissions see the
    // replacement — atomically, because admission runs under this lock.
    it->second->model = std::move(model);
    it->second->qos = qos;
  }
  registry_generation_.fetch_add(1, std::memory_order_release);
}

bool Engine::unregister_model(const std::string& name) {
  MutexLock lock(mu_);
  const auto it = registry_.find(name);
  if (it == registry_.end()) return false;
  // The entry may still sit in active_ with queued requests; those were
  // admitted and will be served (they hold their CompiledModel). Only the
  // name mapping goes away.
  registry_.erase(it);
  registry_generation_.fetch_add(1, std::memory_order_release);
  return true;
}

std::shared_ptr<const CompiledModel> Engine::model(
    const std::string& name) const {
  MutexLock lock(mu_);
  const auto it = registry_.find(name);
  return it == registry_.end() ? nullptr : it->second->model;
}

std::vector<std::string> Engine::model_names() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(registry_.size());
  for (const auto& [name, entry] : registry_) {
    names.push_back(name);
  }
  return names;
}

void Engine::reject(Request& req, RejectReason reason,
                    const std::string& what) {
  req.promise.set_exception(
      std::make_exception_ptr(RejectedError(reason, what)));
}

std::future<Tensor> Engine::submit(const std::string& name,
                                   const Tensor& image,
                                   const SubmitOptions& opts) {
  NB_CHECK(image.dim() == 3 || (image.dim() == 4 && image.size(0) == 1),
           "engine: submit expects one [C, H, W] image, got " +
               image.shape_str());
  NB_CHECK(opts.deadline_us >= 0, "engine: deadline_us must be >= 0");
  // A non-finite pixel has no quantized level (the int8 backend's float ->
  // int cast of NaN is undefined), so it never reaches a plan.
  if (!all_finite(image.data(), image.numel())) {
    throw RejectedError(RejectReason::InvalidInput,
                        "engine: non-finite pixel submitted to '" + name +
                            "'");
  }

  Request req;
  // Own the pixels: the caller may reuse its tensor the moment we return.
  // Cloned before admission so the critical section stays tiny; on a
  // rejection the copy is wasted work, which overload can afford.
  req.input = image.dim() == 3
                  ? image.reshape({1, image.size(0), image.size(1),
                                   image.size(2)})
                        .clone()
                  : image.clone();
  req.model_name = name;
  req.lane = opts.lane;
  std::future<Tensor> fut = req.promise.get_future();

  bool rejected = false;
  bool padded = false;
  RejectReason reason = RejectReason::Unknown;
  std::string what;
  {
    MutexLock lock(mu_);
    const auto now = Clock::now();
    req.enqueued = now;
    if (phase_ != Phase::running) {
      rejected = true;
      reason = RejectReason::ShuttingDown;
      what = "engine: submit after shutdown";
    } else {
      const auto it = registry_.find(name);
      if (it == registry_.end()) {
        rejected = true;
        reason = RejectReason::Unknown;
        what = "engine: unknown model '" + name + "'";
      } else {
        ModelEntry& entry = *it->second;
        // An image the program cannot take fails in the caller, typed, and
        // before any counter moves; its plan would only reject it later,
        // failing every request batched with it.
        if (req.input.size(1) != entry.model->input_channels()) {
          throw RejectedError(
              RejectReason::InvalidInput,
              "engine: '" + name + "' takes " +
                  std::to_string(entry.model->input_channels()) +
                  " input channels, got " + std::to_string(req.input.size(1)));
        }
        // Deadline precedence: absolute > per-submit relative > model
        // default > none.
        if (opts.deadline != TimePoint{}) {
          req.deadline = opts.deadline;
        } else if (opts.deadline_us > 0) {
          req.deadline = now + std::chrono::microseconds(opts.deadline_us);
        } else if (entry.qos.default_deadline_us > 0) {
          req.deadline =
              now + std::chrono::microseconds(entry.qos.default_deadline_us);
        }
        if (req.has_deadline() && req.deadline <= now) {
          rejected = true;
          reason = RejectReason::Deadline;
          what = "engine: deadline already expired at admission for '" +
                 name + "'";
        } else if (entry.depth() >= entry.qos.max_queue_depth) {
          rejected = true;
          reason = RejectReason::QueueFull;
          what = "engine: queue full for '" + name + "' (depth " +
                 std::to_string(entry.qos.max_queue_depth) + ")";
        } else {
          req.model = entry.model;
          // Execution geometry: the bucket rung when the model's ladder
          // covers this (h, w) within the waste cap, the exact geometry
          // otherwise. Fixed at admission so queued peers key off it.
          req.exec_h = req.input.size(2);
          req.exec_w = req.input.size(3);
          const BucketSpec rung = assign_bucket(
              entry.qos.bucketing, req.exec_h, req.exec_w);
          if (rung.valid()) {
            req.exec_h = rung.h;
            req.exec_w = rung.w;
          }
          padded = req.padded();
          entry.lanes[static_cast<int>(opts.lane)].push_back(std::move(req));
          ++queued_total_;
          if (!entry.in_active) {
            entry.in_active = true;
            active_.push_back(it->second);
          }
        }
      }
    }
    // Counted before mu_ is released: once it is, a worker can pop and
    // complete the request, and stats() must never see it completed before
    // it was accepted. Lock order mu_ -> stats_mu_, as in pop_next.
    MutexLock slock(stats_mu_);
    ++submitted_;
    if (!rejected) {
      ++accepted_;
      if (padded) ++padded_accepted_;
    } else if (reason == RejectReason::QueueFull) {
      ++rejected_queue_full_;
    } else if (reason == RejectReason::Deadline) {
      ++rejected_deadline_;
    } else if (reason == RejectReason::ShuttingDown) {
      ++rejected_shutdown_;
    }
  }
  if (rejected) throw RejectedError(reason, what);
  // notify_all: both idle workers and workers holding a partial batch open
  // for peers must see the new arrival.
  queue_cv_.notify_all();
  return fut;
}

bool Engine::matches(const Request& a, const Request& b) const {
  // Coalesce on the EXECUTION geometry (the bucket rung for bucketed
  // models, the submitted geometry otherwise): two requests of one rung
  // batch together even when their exact inputs differ — each is padded
  // to the rung when the batch is stacked.
  return a.model.get() == b.model.get() &&
         a.input.size(1) == b.input.size(1) && a.exec_h == b.exec_h &&
         a.exec_w == b.exec_w;
}

void Engine::retire_if_idle(ModelEntry* entry) {
  if (entry == nullptr || !entry->in_active || entry->depth() > 0) return;
  // Flip the flag BEFORE the erase: for an unregistered entry the ring
  // holds the last reference, so the erase destroys *entry.
  entry->in_active = false;
  for (size_t i = 0; i < active_.size(); ++i) {
    if (active_[i].get() == entry) {
      active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(i));
      if (i < rr_) --rr_;
      break;
    }
  }
  if (!active_.empty()) rr_ %= active_.size();
  else rr_ = 0;
}

bool Engine::pop_next(Request& out) {
  // Strict priority between lanes, round-robin across models within a
  // lane: every model's high lane is inspected before any normal lane, and
  // the cursor rotates so a burst on one model cannot pin the dequeue.
  const auto now = Clock::now();
  for (int lane = 0; lane < kLaneCount; ++lane) {
    const size_t n = active_.size();
    for (size_t i = 0; i < n; ++i) {
      const size_t idx = (rr_ + i) % n;
      ModelEntry& entry = *active_[idx];
      std::deque<Request>& q = entry.lanes[lane];
      // Expired requests surface here: resolve them with a typed Deadline
      // rejection instead of burning a batch slot.
      while (!q.empty() && q.front().has_deadline() &&
             q.front().deadline < now) {
        Request expired = std::move(q.front());
        q.pop_front();
        --queued_total_;
        {
          MutexLock slock(stats_mu_);
          ++dropped_deadline_;
        }
        reject(expired, RejectReason::Deadline,
               "engine: deadline expired in queue for '" +
                   expired.model_name + "'");
      }
      if (q.empty()) continue;
      out = std::move(q.front());
      q.pop_front();
      --queued_total_;
      // Rotate past this entry for cross-model fairness, then drop it from
      // the ring if this was its last queued request.
      rr_ = (idx + 1) % n;
      retire_if_idle(&entry);
      return true;
    }
  }
  // Everything queued was expired; prune now-empty entries from the ring.
  for (size_t i = active_.size(); i > 0; --i) {
    retire_if_idle(active_[i - 1].get());
  }
  return false;
}

void Engine::gather_peers(ModelEntry& entry, std::vector<Request>& batch) {
  const auto now = Clock::now();
  for (int lane = 0; lane < kLaneCount; ++lane) {
    std::deque<Request>& q = entry.lanes[lane];
    for (auto it = q.begin();
         it != q.end() &&
         static_cast<int64_t>(batch.size()) < options_.batching.max_batch;) {
      if (!matches(*it, batch.front())) {
        ++it;
        continue;
      }
      Request req = std::move(*it);
      it = q.erase(it);
      --queued_total_;
      if (req.has_deadline() && req.deadline < now) {
        {
          MutexLock slock(stats_mu_);
          ++dropped_deadline_;
        }
        reject(req, RejectReason::Deadline,
               "engine: deadline expired in queue for '" + req.model_name +
                   "'");
        continue;
      }
      batch.push_back(std::move(req));
    }
  }
}

void Engine::worker_loop() {
  // One session per model this worker has served; sessions are per-stream
  // state, so worker-local means no cross-worker synchronization.
  std::map<const CompiledModel*, std::unique_ptr<Session>> sessions;
  uint64_t seen_generation = 0;

  // Drops sessions whose model is no longer registered (replaced or
  // removed), releasing its weight panels; runs only when the registry
  // actually changed. In-flight requests still hold their own shared_ptr.
  const auto prune_sessions = [&] {
    const uint64_t gen =
        registry_generation_.load(std::memory_order_acquire);
    if (gen == seen_generation) return;
    seen_generation = gen;
    MutexLock lock(mu_);
    std::erase_if(sessions, [&](const auto& kv) {
      for (const auto& [name, entry] : registry_) {
        if (entry->model.get() == kv.first) return false;
      }
      return true;
    });
  };

  // The loop holds mu_ across dequeue + batch assembly and drops it only
  // around execute_batch. Explicit lock()/unlock() instead of an RAII guard
  // because the hold spans the loop back-edge; the wait predicates are
  // manual while-loops so every guarded read is in a provably-locked scope
  // (a predicate lambda's body is opaque to the thread-safety analysis).
  mu_.lock();
  for (;;) {
    while (phase_ == Phase::running && queued_total_ == 0) {
      queue_cv_.wait(mu_);
    }
    if (queued_total_ == 0) {
      // Not running and nothing queued: drained or dropped, worker done.
      mu_.unlock();
      return;
    }

    Request head;
    if (!pop_next(head)) continue;  // everything queued had expired
    // The head's entry may have been retired/re-activated; gather directly
    // against the registry entry the head came from is unnecessary — peers
    // are matched by (model object, geometry), and the head's entry is
    // found through its name if still present. Gather from the entry that
    // currently holds that name's queue (hot-swap keeps it stable).
    std::shared_ptr<ModelEntry> entry;
    {
      const auto it = registry_.find(head.model_name);
      if (it != registry_.end()) entry = it->second;
    }
    std::vector<Request> batch;
    batch.push_back(std::move(head));
    if (entry != nullptr) gather_peers(*entry, batch);

    // Dynamic micro-batching: hold the (partial) batch open until it fills
    // or the head request has waited max_wait_us. The wait never crosses
    // half of the head's remaining deadline budget, so a tight-deadline
    // request launches with room to execute instead of expiring while it
    // waits for peers. Shutdown flushes immediately.
    auto wait_deadline =
        batch.front().enqueued +
        std::chrono::microseconds(options_.batching.max_wait_us);
    if (batch.front().has_deadline()) {
      const auto half_budget =
          batch.front().enqueued +
          (batch.front().deadline - batch.front().enqueued) / 2;
      wait_deadline = std::min(wait_deadline, half_budget);
    }
    while (static_cast<int64_t>(batch.size()) < options_.batching.max_batch &&
           options_.batching.max_wait_us > 0 && phase_ == Phase::running &&
           Clock::now() < wait_deadline) {
      queue_cv_.wait_until(mu_, wait_deadline);
      if (entry != nullptr) gather_peers(*entry, batch);
    }
    if (entry != nullptr) retire_if_idle(entry.get());
    mu_.unlock();
    prune_sessions();

    // Worker-side session lookup; creation is the plan-compile path and
    // runs under the fault seam. A creation failure fails this batch (its
    // requests hold the model that refused to compile) but not the worker.
    const CompiledModel* key = batch.front().model.get();
    Session* session = nullptr;
    std::exception_ptr session_error;
    const auto it = sessions.find(key);
    if (it != sessions.end()) {
      session = it->second.get();
    } else {
      try {
        if (options_.fault_injector != nullptr) {
          options_.fault_injector->on_session_create(batch.front().model_name);
        }
        auto fresh =
            std::make_unique<Session>(batch.front().model, options_.session);
        session = fresh.get();
        sessions.emplace(key, std::move(fresh));
      } catch (...) {
        session_error = std::current_exception();
      }
    }
    execute_batch(batch, session, session_error);
    mu_.lock();
  }
}

void Engine::execute_batch(std::vector<Request>& batch, Session* session,
                           std::exception_ptr session_error) {
  const auto launched = Clock::now();
  // Launch-time deadline check: a request that expired while queued (or
  // while the batch waited for peers) is dropped before any GEMM runs. As
  // on every other drop path, it is counted before its future resolves, so
  // stats() never trails a client's own Deadline rejection.
  const auto expired = [&](const Request& req) {
    return req.has_deadline() && req.deadline < launched;
  };
  const auto n_expired = std::count_if(batch.begin(), batch.end(), expired);
  if (n_expired > 0) {
    MutexLock lock(stats_mu_);
    dropped_deadline_ += n_expired;
  }
  std::vector<Request> run;
  run.reserve(batch.size());
  for (Request& req : batch) {
    if (expired(req)) {
      reject(req, RejectReason::Deadline,
             "engine: deadline expired at batch launch for '" +
                 req.model_name + "'");
    } else {
      run.push_back(std::move(req));
    }
  }
  if (run.empty()) return;

  try {
    if (options_.fault_injector != nullptr) {
      options_.fault_injector->on_batch_execute(
          run.front().model_name, static_cast<int64_t>(run.size()));
    }
    if (session_error != nullptr) std::rethrow_exception(session_error);
    NB_CHECK(session != nullptr, "engine: no session for batch");
    // Stack at the batch's EXECUTION geometry (all peers share it — that's
    // what matches() keys on). A request whose exact input is smaller was
    // bucketed: its pixels land top-left, the rest of its block keeps the
    // tensor's zero fill — the pad-to-bucket contract.
    const Request& head = run.front();
    const int64_t b = static_cast<int64_t>(run.size());
    const int64_t c = head.input.size(1);
    const int64_t bh = head.exec_h, bw = head.exec_w;
    const int64_t chw = c * bh * bw;
    Tensor stacked({b, c, bh, bw});  // Tensor() zero-fills
    for (int64_t i = 0; i < b; ++i) {
      const Tensor& img = run[static_cast<size_t>(i)].input;
      pad_block_into(img.data(), c, img.size(2), img.size(3),
                     stacked.data() + i * chw, bh, bw);
    }
    Tensor out = session->run(stacked);
    NB_CHECK(out.dim() >= 1 && out.size(0) == b,
             "engine: batched output lost the batch dimension");
    const int64_t row = out.numel() / b;
    std::vector<int64_t> row_shape{1};
    for (int64_t d = 1; d < out.dim(); ++d) row_shape.push_back(out.size(d));
    std::vector<Tensor> rows;
    rows.reserve(run.size());
    for (int64_t i = 0; i < b; ++i) {
      Tensor one(row_shape);
      std::memcpy(one.data(), out.data() + i * row,
                  static_cast<size_t>(row) * sizeof(float));
      rows.push_back(std::move(one));
    }
    // Record before fulfilling: a client that just resolved its future must
    // see its own request in stats().
    record_batch(run, launched, /*failed=*/false);
    for (size_t i = 0; i < run.size(); ++i) {
      run[i].promise.set_value(std::move(rows[i]));
    }
  } catch (...) {
    const std::exception_ptr err = std::current_exception();
    record_batch(run, launched, /*failed=*/true);
    for (Request& req : run) {
      req.promise.set_exception(err);
    }
  }
}

void Engine::record_latency_sample(double ms) {
  // Fixed-size ring: the stats_window most recent completions. The
  // NB_REQUIRES(stats_mu_) on the declaration enforces the caller holds it.
  if (latency_ring_.size() < options_.stats_window) {
    latency_ring_.push_back(ms);
  } else {
    latency_ring_[ring_next_] = ms;
  }
  ring_next_ = (ring_next_ + 1) % options_.stats_window;
  ++ring_count_;
}

void Engine::record_batch(const std::vector<Request>& batch,
                          TimePoint launched, bool failed) {
  const auto done = Clock::now();
  // A batch mixing distinct exact geometries exists only through bucketing
  // (unbucketed peers match on their exact size).
  bool mixed = false;
  for (const Request& req : batch) {
    if (req.input.size(2) != batch.front().input.size(2) ||
        req.input.size(3) != batch.front().input.size(3)) {
      mixed = true;
      break;
    }
  }
  MutexLock lock(stats_mu_);
  ++batches_;
  if (mixed) ++mixed_geometry_batches_;
  for (const Request& req : batch) {
    if (failed) {
      ++failed_;
      continue;
    }
    ++completed_;
    if (req.has_deadline() && done <= req.deadline) {
      ++completed_within_deadline_;
    }
    queue_ms_sum_ +=
        std::chrono::duration<double, std::milli>(launched - req.enqueued)
            .count();
    record_latency_sample(
        std::chrono::duration<double, std::milli>(done - req.enqueued)
            .count());
  }
}

Engine::Stats Engine::stats() const {
  Stats s;
  {
    MutexLock lock(mu_);
    s.queue_depth = queued_total_;
  }
  MutexLock lock(stats_mu_);
  s.submitted = submitted_;
  s.accepted = accepted_;
  s.completed = completed_;
  s.failed = failed_;
  s.rejected_queue_full = rejected_queue_full_;
  s.rejected_deadline = rejected_deadline_;
  s.rejected_shutdown = rejected_shutdown_;
  s.dropped_deadline = dropped_deadline_;
  s.dropped_shutdown = dropped_shutdown_;
  s.completed_within_deadline = completed_within_deadline_;
  s.padded_accepted = padded_accepted_;
  s.mixed_geometry_batches = mixed_geometry_batches_;
  s.batches = batches_;
  s.avg_batch = batches_ > 0 ? static_cast<double>(completed_ + failed_) /
                                   static_cast<double>(batches_)
                             : 0.0;
  s.avg_queue_ms =
      completed_ > 0 ? queue_ms_sum_ / static_cast<double>(completed_) : 0.0;
  std::vector<double> sorted = latency_ring_;
  std::sort(sorted.begin(), sorted.end());
  s.p50_ms = percentile_sorted(sorted, 0.50);
  s.p99_ms = percentile_sorted(sorted, 0.99);
  s.max_ms = sorted.empty() ? 0.0 : sorted.back();
  s.latency_samples = static_cast<int64_t>(sorted.size());
  return s;
}

}  // namespace nb::runtime
