#include "train.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/netbooster.h"
#include "data/task_registry.h"
#include "models/mobilenetv2.h"
#include "models/profiler.h"
#include "models/registry.h"
#include "reference.h"
#include "tensor/threadpool.h"

namespace pb {

using nb::Tensor;

namespace {

constexpr int64_t kResolution = 20;
constexpr float kScale = 0.25f;
/// The contraction is an exact merge up to float rounding (~5e-7 on this
/// pipeline); anything beyond this tolerance is a broken contraction.
constexpr float kContractionTol = 1e-4f;

/// The quickstart recipe, with every seed drawn from the workload seed.
nb::core::NetBoosterConfig pipeline_config(const Args& args) {
  nb::core::NetBoosterConfig config;
  config.giant.epochs = args.smoke ? 1 : 4;
  config.giant.batch_size = 32;
  config.giant.lr = 0.08f;
  config.tune.epochs = args.smoke ? 1 : 3;
  config.tune.lr = 0.03f;
  config.seed = derive_seed(args.seed, "train-netbooster");
  config.giant.seed = derive_seed(args.seed, "train-giant-loader");
  config.tune.seed = derive_seed(args.seed, "train-tune-loader");
  // The synchronous loader: every sample read happens on the training
  // thread, in order with the model's calls.
  config.giant.data_workers = 0;
  config.tune.data_workers = 0;
  return config;
}

nb::data::ClassificationTask make_dataset(const Args& args) {
  return nb::data::make_task("synth-imagenet", kResolution, kScale,
                             derive_seed(args.seed, "train-data"));
}

uint64_t model_seed(const Args& args) {
  return derive_seed(args.seed, "train-model");
}

bool all_finite(const Tensor& t) {
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (!std::isfinite(t.data()[i])) return false;
  }
  return true;
}

/// One call the pipeline made on the model or a dataset, seen from
/// outside the library.
struct Event {
  enum Kind { forward, backward, mode, read };
  Kind kind = forward;
  Clock::time_point t0{}, t1{};
  /// forward: the model was training; mode: the mode it was set to; read:
  /// the samples came from the test set.
  bool flag = false;
  bool finite = true;  // forward: every logit finite
  /// backward: the host-speed reference runs right before it (from `mark`
  /// to t0) and right after it (from t1 to `after`).
  Clock::time_point mark{}, after{};
};
using Events = std::vector<Event>;

/// mbv2-tiny whose forward, backward and train/eval switches are recorded
/// and call straight through. Every backward is bracketed by two runs of the
/// host-speed reference, so each training step carries its own reference
/// times; they are cut out of every interval.
class ObservedMbv2 : public nb::models::MobileNetV2 {
 public:
  ObservedMbv2(const nb::models::ModelConfig& config, Events& events)
      : MobileNetV2(config), events_(events) {}

  Tensor forward(const Tensor& x) override {
    const Clock::time_point t0 = Clock::now();
    Tensor y = MobileNetV2::forward(x);
    const Clock::time_point t1 = Clock::now();
    events_.push_back({.kind = Event::forward, .t0 = t0, .t1 = t1,
                       .flag = training(), .finite = all_finite(y)});
    return y;
  }
  Tensor backward(const Tensor& grad_out) override {
    const Clock::time_point mark = Clock::now();
    (void)reference_ms();
    const Clock::time_point t0 = Clock::now();
    Tensor dx = MobileNetV2::backward(grad_out);
    const Clock::time_point t1 = Clock::now();
    (void)reference_ms();
    events_.push_back({.kind = Event::backward, .t0 = t0, .t1 = t1,
                       .mark = mark, .after = Clock::now()});
    return dx;
  }

 protected:
  void on_set_training(bool training) override {
    MobileNetV2::on_set_training(training);
    const Clock::time_point t = Clock::now();
    events_.push_back({.kind = Event::mode, .t0 = t, .t1 = t, .flag = training});
  }

 private:
  Events& events_;
};

/// A dataset that forwards every call and records its sample reads: the
/// reads of one batch, from its first image() to its last label(), merge
/// into one event.
class ObservedDataset : public nb::data::ClassificationDataset {
 public:
  ObservedDataset(const nb::data::ClassificationDataset& inner, bool test,
                  Events& events)
      : inner_(inner), test_(test), events_(events) {}

  int64_t size() const override { return inner_.size(); }
  int64_t num_classes() const override { return inner_.num_classes(); }
  int64_t resolution() const override { return inner_.resolution(); }
  int64_t channels() const override { return inner_.channels(); }
  std::string name() const override { return inner_.name(); }
  Tensor image(int64_t idx) const override {
    if (events_.empty() || events_.back().kind != Event::read ||
        events_.back().flag != test_) {
      const Clock::time_point t = Clock::now();
      events_.push_back({.kind = Event::read, .t0 = t, .t1 = t, .flag = test_});
    }
    return inner_.image(idx);
  }
  int64_t label(int64_t idx) const override {
    const int64_t y = inner_.label(idx);
    if (!events_.empty() && events_.back().kind == Event::read) {
      events_.back().t1 = Clock::now();
    }
    return y;
  }

 private:
  const nb::data::ClassificationDataset& inner_;
  bool test_;
  Events& events_;
};

/// make_model("mbv2-tiny") with its exact initial weights and buffers,
/// rebuilt as an ObservedMbv2.
std::shared_ptr<ObservedMbv2> build_observed(int64_t classes, uint64_t seed,
                                             Events& events) {
  const auto ref = nb::models::make_model("mbv2-tiny", classes, seed);
  auto m = std::make_shared<ObservedMbv2>(
      nb::models::model_config("mbv2-tiny", classes), events);
  const auto src = ref->named_parameters();
  const auto dst = m->named_parameters();
  const auto src_buf = ref->named_buffers();
  const auto dst_buf = m->named_buffers();
  if (src.size() != dst.size() || src_buf.size() != dst_buf.size()) {
    throw std::runtime_error("mbv2-tiny: observed model structure differs");
  }
  for (size_t i = 0; i < src.size(); ++i) {
    if (src[i].first != dst[i].first ||
        !src[i].second->value.same_shape(dst[i].second->value)) {
      throw std::runtime_error("mbv2-tiny: parameter mismatch at " +
                               src[i].first);
    }
    dst[i].second->value = src[i].second->value.clone();
  }
  for (size_t i = 0; i < src_buf.size(); ++i) {
    *dst_buf[i].second = src_buf[i].second->clone();
  }
  return m;
}

void fingerprint(const nb::data::ClassificationTask& task,
                 nb::nn::Module& model, Result& result) {
  Hasher data, weights;
  for (const auto* set : {task.train.get(), task.test.get()}) {
    for (int64_t i = 0; i < set->size(); ++i) {
      data.tensor(set->image(i));
      data.pod(set->label(i));
    }
  }
  for (const auto& [name, p] : model.named_parameters()) {
    weights.bytes(name.data(), name.size());
    weights.tensor(p->value);
  }
  result.fingerprint.emplace_back("train.dataset", data.hex());
  result.fingerprint.emplace_back("train.giant_weights", weights.hex());
}

/// Per-call figures of the pipelines, reduced from their events (wall
/// times, except the step periods).
struct CallTimes {
  std::vector<double> next, forward, loss, backward, optim, glue;
  /// Step start to the next step's start, less the reference, at the
  /// nominal host speed.
  std::vector<double> period, raw_period;
  std::vector<double> eval, contract;
  int64_t steps = 0, nonfinite = 0;
};

/// One run of the host-speed reference inside a pipeline.
struct RefRun {
  Clock::time_point start, end;
  double ms() const { return ms_between(start, end); }
};

/// The time in [begin, end] outside the reference runs `refs` (in time
/// order), at the nominal host speed: each stretch between two consecutive
/// runs is normalized by their mean, a stretch before the first or after
/// the last run by that run.
double normalized_span_ms(Clock::time_point begin, Clock::time_point end,
                          const std::vector<RefRun>& refs) {
  if (refs.empty()) return ms_between(begin, end);
  double total = 0.0;
  const auto add = [&](Clock::time_point a, Clock::time_point b,
                       double ref_ms) {
    a = std::max(a, begin);
    b = std::min(b, end);
    if (a < b) total += normalized(ms_between(a, b), ref_ms);
  };
  add(begin, refs.front().start, refs.front().ms());
  for (size_t j = 0; j + 1 < refs.size(); ++j) {
    add(refs[j].end, refs[j + 1].start,
        0.5 * (refs[j].ms() + refs[j + 1].ms()));
  }
  add(refs.back().end, end, refs.back().ms());
  return total;
}

/// Reduces one pipeline's events. A training step is a training-mode
/// forward directly followed by a backward; the read event before it is
/// its batch (BatchSource::next). In train_classifier's loop, the time from
/// a step's backward (and reference) to the next batch's first read is
/// Optimizer::step
/// plus the trainer's per-step accuracy and iteration hook, and the time
/// from a batch's last read to its forward is the step's glue (set_lr,
/// zero_grad, batch assembly). A set_training(false) ... set_training(true)
/// window that reads the test set is train::evaluate (with the BN
/// recalibration before it, a per-epoch evaluation); one in which the
/// model runs nothing is contract_network. Spans go to `tracer`. Returns
/// the reference runs of the pipeline's steps.
std::vector<RefRun> reduce(const Events& ev, Tracer& tracer, CallTimes& t) {
  std::vector<RefRun> refs;
  std::vector<size_t> fwd;  // event index of each step's forward
  for (size_t i = 0; i + 1 < ev.size(); ++i) {
    if (ev[i].kind == Event::forward && ev[i].flag &&
        ev[i + 1].kind == Event::backward) {
      fwd.push_back(i);
      refs.push_back({ev[i + 1].mark, ev[i + 1].t0});
      refs.push_back({ev[i + 1].t1, ev[i + 1].after});
    }
  }
  const auto is_batch = [&ev](size_t i) {
    return ev[i].kind == Event::read && !ev[i].flag;
  };
  for (size_t k = 0; k < fwd.size(); ++k) {
    const size_t i = fwd[k];
    const Event& f = ev[i];
    const Event& b = ev[i + 1];
    t.forward.push_back(ms_between(f.t0, f.t1));
    t.loss.push_back(ms_between(f.t1, b.mark));
    t.backward.push_back(ms_between(b.t0, b.t1));
    t.nonfinite += f.finite ? 0 : 1;
    const Event* batch = i > 0 && is_batch(i - 1) ? &ev[i - 1] : nullptr;
    if (batch != nullptr) {
      t.next.push_back(ms_between(batch->t0, batch->t1));
      t.glue.push_back(ms_between(batch->t1, f.t0));
    }
    // The next step of the same epoch: only its batch's reads in between.
    const bool chained =
        k + 1 < fwd.size() && fwd[k + 1] == i + 3 && is_batch(i + 2);
    if (chained) {
      t.optim.push_back(ms_between(b.after, ev[i + 2].t0));
      t.raw_period.push_back(ms_between(f.t0, ev[i + 3].t0) -
                             ms_between(b.mark, b.t0) -
                             ms_between(b.t1, b.after));
      t.period.push_back(normalized_span_ms(f.t0, ev[i + 3].t0, refs));
    }
    if (tracer.enabled()) {
      const auto req = static_cast<int64_t>(t.steps + k);
      const Clock::time_point start = batch != nullptr ? batch->t0 : f.t0;
      const Clock::time_point end = chained ? ev[i + 2].t0 : b.after;
      const int32_t s = tracer.record("train.step", start, end, -1, req);
      if (batch != nullptr) {
        tracer.record("data.next", batch->t0, batch->t1, s, req);
      }
      tracer.record("nn.forward", f.t0, f.t1, s, req);
      tracer.record("nn.loss", f.t1, b.mark, s, req);
      tracer.record("bench.reference", b.mark, b.t0, s, req);
      tracer.record("nn.backward", b.t0, b.t1, s, req);
      tracer.record("bench.reference", b.t1, b.after, s, req);
      if (chained) {
        tracer.record("optim.step", b.after, ev[i + 2].t0, s, req);
      }
    }
  }
  t.steps += static_cast<int64_t>(fwd.size());

  // The trainer's per-epoch evaluation recalibrates BN right before
  // train::evaluate: set_training(true), training-mode forwards over the
  // training set with no backward, set_training(true). Returns the index
  // of the recalibration's first event, or `i` when there is none.
  const auto recalibration_start = [&](size_t i) {
    if (i < 3 || ev[i - 1].kind != Event::mode) return i;
    size_t m = i - 2;
    while (m > 0 &&
           (is_batch(m) || (ev[m].kind == Event::forward && ev[m].flag))) {
      --m;
    }
    return m < i - 2 && ev[m].kind == Event::mode && ev[m].flag ? m : i;
  };
  for (size_t i = 0; i < ev.size(); ++i) {
    if (ev[i].kind != Event::mode || ev[i].flag) continue;
    size_t j = i + 1;
    bool test_reads = false;
    while (j < ev.size() && !(ev[j].kind == Event::mode && ev[j].flag)) {
      test_reads = test_reads || (ev[j].kind == Event::read && ev[j].flag);
      ++j;
    }
    if (j == ev.size()) break;
    if (test_reads) {
      const size_t s = recalibration_start(i);
      if (s < i) t.eval.push_back(ms_between(ev[s].t0, ev[j].t0));
      tracer.record("train.eval", ev[s].t0, ev[j].t0);
    } else if (j == i + 1) {
      t.contract.push_back(ms_between(ev[i].t0, ev[j].t0));
      tracer.record("core.contract", ev[i].t0, ev[j].t0);
    }
    i = j;
  }
  return refs;
}

bool same_cost(const nb::models::Profile& a, const nb::models::Profile& b) {
  return a.flops == b.flops && a.params == b.params;
}

}  // namespace

void run_train(const Args& args, double seconds, Tracer& tracer,
               Result& result) {
  // One thread: at this model size the pool buys no speed, and four threads
  // on a shared 4-vCPU host widen the run-to-run spread two- to threefold.
  nb::SerialScope serial;
  const nb::core::NetBoosterConfig config = pipeline_config(args);
  Events events;

  // Set-up (timed, at the nominal host speed): dataset synthesis, model
  // build, Network Expansion (the NetBooster constructor). Repeated; the
  // last repetition is trained first.
  nb::data::ClassificationTask task;
  std::shared_ptr<ObservedMbv2> model;
  std::unique_ptr<nb::core::NetBooster> booster;
  std::vector<double> setup, expand_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    booster.reset();
    model.reset();
    task = {};
    const double ref_before = reference_ms();
    const auto t0 = Clock::now();
    task = make_dataset(args);
    model = build_observed(task.num_classes, model_seed(args), events);
    const auto x0 = Clock::now();
    booster = std::make_unique<nb::core::NetBooster>(model, config);
    const auto x1 = Clock::now();
    setup.push_back(normalized(ms_between(t0, x1) / 1e3,
                               0.5 * (ref_before + reference_ms())));
    expand_ms.push_back(ms_between(x0, x1));
    tracer.record("core.expand", x0, x1);
  }
  fingerprint(task, *model, result);
  const nb::models::Profile vanilla = nb::models::profile_model(
      *nb::models::make_model("mbv2-tiny", task.num_classes, model_seed(args)),
      kResolution);
  const ObservedDataset train_set(*task.train, false, events);
  const ObservedDataset test_set(*task.test, true, events);
  reset_peak_rss();

  // The pipeline is fixed work; it runs again, on a freshly built and
  // expanded model (untimed), while another run fits in the budget.
  const int64_t steps_per_pipeline =
      (config.giant.epochs + config.tune.epochs) *
      ((train_set.size() + config.giant.batch_size - 1) /
       config.giant.batch_size);
  const double samples_per_pipeline = static_cast<double>(
      (config.giant.epochs + config.tune.epochs) * train_set.size());
  CallTimes calls;
  std::vector<double> rates, speed;
  int64_t pipelines = 0, bad_epochs = 0, bad_error = 0, bad_cost = 0;
  double last_s = 0.0;
  nb::core::NetBoosterResult r;
  const auto start = Clock::now();
  do {
    if (pipelines > 0) {
      booster.reset();
      model = build_observed(task.num_classes, model_seed(args), events);
      booster = std::make_unique<nb::core::NetBooster>(model, config);
    }
    events.clear();
    const auto t0 = Clock::now();
    const float giant_acc = booster->train_giant(train_set, test_set);
    const float final_acc = booster->tune_and_contract(train_set, test_set);
    const auto t1 = Clock::now();
    last_s = ms_between(t0, t1) / 1e3;
    ++pipelines;
    const std::vector<RefRun> refs = reduce(events, tracer, calls);
    rates.push_back(1e3 * samples_per_pipeline /
                    normalized_span_ms(t0, t1, refs));
    std::vector<double> ref_ms;
    for (const RefRun& ref : refs) ref_ms.push_back(ref.ms());
    speed.push_back(kReferenceNominalMs / median(ref_ms));

    r = booster->result();
    for (const auto* h : {&r.giant_history, &r.tune_history}) {
      for (const auto& e : h->epochs) {
        bad_epochs += std::isfinite(e.train_loss) ? 0 : 1;
      }
    }
    bad_error += std::isfinite(r.contraction_error) &&
                         r.contraction_error <= kContractionTol
                     ? 0
                     : 1;
    bad_cost += same_cost(r.final_profile, vanilla) ? 0 : 1;
    result.note(strf("train pipeline %lld: giant acc %.4f, final TNN acc "
                     "%.4f, contraction error %.3g, %.2f s wall, host speed "
                     "%.2f of nominal",
                     static_cast<long long>(pipelines), giant_acc, final_acc,
                     r.contraction_error, last_s, speed.back()));
  } while (seconds_since(start) + last_s <= seconds);

  result.note(strf("train raw: step p50 %.3f ms, p90 %.3f ms",
                   median(calls.raw_period),
                   percentile(calls.raw_period, 0.90)));
  result.attempted += calls.steps;
  result.failed += calls.nonfinite + bad_error + bad_cost;
  result.check("train: every step's logits (hence loss) finite",
               calls.nonfinite == 0 && bad_epochs == 0);
  result.check(strf("train: %lld optimizer steps per pipeline, as configured",
                    static_cast<long long>(steps_per_pipeline)),
               calls.steps == pipelines * steps_per_pipeline);
  result.check(strf("train: contraction error within %.0e", kContractionTol),
               bad_error == 0);
  result.check("train: contracted TNN flops/params equal the vanilla "
               "mbv2-tiny",
               bad_cost == 0);

  result.add_e2e("setup_s", median(setup), "s",
                 static_cast<int64_t>(setup.size()));
  result.add_e2e("p50_ms", median(calls.period), "ms",
                 static_cast<int64_t>(calls.period.size()));
  result.add_e2e("tail_ms", percentile(calls.period, 0.90), "ms",
                 static_cast<int64_t>(calls.period.size()));
  result.add_e2e("rate_per_s", median(rates), "1/s", pipelines);
  if (!tracer.enabled()) return;

  const auto layer = [&result](const char* name, const std::vector<double>& v) {
    result.add_layer(name, median(v), "ms", static_cast<int64_t>(v.size()));
  };
  layer("data.next_ms", calls.next);
  layer("nn.forward_ms", calls.forward);
  layer("nn.backward_ms", calls.backward);
  layer("nn.loss_ms", calls.loss);
  layer("optim.step_ms", calls.optim);
  layer("train.glue_ms", calls.glue);
  layer("core.expand_ms", expand_ms);
  layer("core.contract_ms", calls.contract);
  layer("train.eval_ms", calls.eval);
  result.add_layer("nn.giant_macs",
                   static_cast<double>(r.giant_profile.flops / 2), "MAC", 1);
  result.add_layer("nn.giant_params",
                   static_cast<double>(r.giant_profile.params), "count", 1);
  result.add_layer("nn.tnn_macs",
                   static_cast<double>(r.final_profile.flops / 2), "MAC", 1);
  result.add_layer("nn.tnn_params",
                   static_cast<double>(r.final_profile.params), "count", 1);
}

}  // namespace pb
