// Data pipeline report: times the prefetching PipelineLoader
// (data/pipeline.h) against the synchronous DataLoader on the procedural
// synthetic dataset and writes machine-readable BENCH_data.json.
//
// Three workloads are swept across workers {sync, 1, 2, 4}:
//   * plain         decode only (procedural render, CPU-bound)
//   * augmented     decode + per-sample augmentation (CPU-bound)
//   * augmented_io  decode + augmentation behind a simulated blocking
//                   decode latency (sleep), the shape of a real input
//                   pipeline reading from disk/network. Prefetch overlap
//                   hides this latency at ANY core count, so this is the
//                   headline row; the CPU-bound rows only scale past 1.0x
//                   when the host actually has spare cores.
//
// Two claims are recorded besides throughput:
//   * determinism: pipeline batches at 4 workers are memcmp-identical to
//     the synchronous loader for plain, augmented, and augmented+mixed
//     configurations (reported as booleans, CI-guarded);
//   * end-to-end: a real train_classifier() epoch with data_workers on and
//     off lands on the bitwise-identical final accuracy.
//
// Usage: bench_data_report [--quick] [--out <path>] (--help describes both)
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_report.h"
#include "data/dataloader.h"
#include "data/pipeline.h"
#include "data/synth_classification.h"
#include "models/registry.h"
#include "train/trainer.h"

namespace {

using namespace nb;
using namespace nb::bench;

/// Decorates a dataset with a blocking per-sample decode latency — the
/// stand-in for disk/network reads, which the pipeline's workers overlap.
class DelayedDataset : public data::ClassificationDataset {
 public:
  DelayedDataset(const data::ClassificationDataset& base, int64_t delay_us)
      : base_(base), delay_us_(delay_us) {}
  int64_t size() const override { return base_.size(); }
  int64_t num_classes() const override { return base_.num_classes(); }
  int64_t resolution() const override { return base_.resolution(); }
  Tensor image(int64_t idx) const override {
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us_));
    return base_.image(idx);
  }
  int64_t label(int64_t idx) const override { return base_.label(idx); }
  std::string name() const override { return base_.name() + "+io"; }

 private:
  const data::ClassificationDataset& base_;
  int64_t delay_us_;
};

struct Result {
  std::string config;
  int64_t workers = 0;  // 0 = synchronous DataLoader
  double epoch_ms = 0.0;
  double samples_per_s = 0.0;
  double speedup_vs_sync = 0.0;
  // Pipeline-only stage counters (cumulative over the timed epochs).
  double reader_stall_ms = -1.0;
  double worker_stall_ms = -1.0;
  double consumer_stall_ms = -1.0;
  int64_t max_ticket_depth = -1;
};

void sweep_config(const std::string& config_name,
                  const data::ClassificationDataset& ds,
                  data::LoaderOptions opts, int repeats,
                  std::vector<Result>& out) {
  double sync_s = 0.0;
  for (const int64_t workers : {int64_t{0}, int64_t{1}, int64_t{2}, int64_t{4}}) {
    opts.workers = workers;
    const std::unique_ptr<data::BatchSource> loader =
        data::make_loader(ds, opts);
    // Best-of-`repeats` wall time for one full epoch (start_epoch +
    // drain), after one untimed warmup epoch (first-touch buffer
    // allocation).
    data::Batch batch;
    const double s = bench_seconds(Budget{0.0, repeats}, [&] {
      loader->start_epoch();
      while (loader->next(batch)) {
      }
    });
    if (workers == 0) sync_s = s;
    Result r;
    r.config = config_name;
    r.workers = workers;
    r.epoch_ms = s * 1e3;
    r.samples_per_s = static_cast<double>(ds.size()) / s;
    r.speedup_vs_sync = sync_s / s;
    if (const auto* pipe = dynamic_cast<const data::PipelineLoader*>(loader.get())) {
      const data::PipelineStats stats = pipe->stats();
      r.reader_stall_ms = stats.reader_stall_ms;
      r.worker_stall_ms = stats.worker_stall_ms;
      r.consumer_stall_ms = stats.consumer_stall_ms;
      r.max_ticket_depth = stats.max_ticket_depth;
    }
    out.push_back(r);
    std::fprintf(stderr, "  %-14s w%lld: %8.2f ms/epoch  (%.2fx vs sync)\n",
                 config_name.c_str(), static_cast<long long>(workers),
                 r.epoch_ms, r.speedup_vs_sync);
  }
}

/// memcmp equality of every batch of one epoch, pipeline vs sync loader.
bool epochs_bitwise_equal(const data::ClassificationDataset& ds,
                          data::LoaderOptions opts, int64_t workers) {
  struct Snap {
    std::vector<float> images;
    std::vector<int64_t> labels, labels_b;
    float lam;
  };
  auto collect = [&](int64_t w) {
    data::LoaderOptions o = opts;
    o.workers = w;
    const std::unique_ptr<data::BatchSource> loader = data::make_loader(ds, o);
    loader->start_epoch();
    std::vector<Snap> snaps;
    data::Batch b;
    while (loader->next(b)) {
      Snap s;
      s.images.assign(b.images.data(), b.images.data() + b.images.numel());
      s.labels = b.labels;
      s.labels_b = b.labels_b;
      s.lam = b.mix_lam;
      snaps.push_back(std::move(s));
    }
    return snaps;
  };
  const std::vector<Snap> ref = collect(0);
  const std::vector<Snap> got = collect(workers);
  if (ref.size() != got.size()) return false;
  for (size_t i = 0; i < ref.size(); ++i) {
    if (ref[i].labels != got[i].labels || ref[i].labels_b != got[i].labels_b ||
        std::memcmp(&ref[i].lam, &got[i].lam, sizeof(float)) != 0 ||
        ref[i].images.size() != got[i].images.size() ||
        std::memcmp(ref[i].images.data(), got[i].images.data(),
                    ref[i].images.size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const auto [quick, out_path] = parse_report_args(
      argc, argv, "bench_data_report", "BENCH_data.json",
      "small dataset, fewer repeat epochs (the CI setting)");
  data::SynthConfig sc;
  sc.name = "bench-data";
  sc.num_classes = quick ? 6 : 12;
  sc.train_per_class = quick ? 20 : 50;
  sc.resolution = quick ? 16 : 24;
  sc.seed = 29;
  const data::SynthClassification train(sc, "train");
  // Latency sized so the blocking read clearly dominates one sample's CPU
  // render: ~the shape of a cold page-cache read of a small JPEG.
  const int64_t delay_us = quick ? 300 : 800;
  const DelayedDataset train_io(train, delay_us);
  const int repeats = quick ? 2 : 4;
  const int64_t batch_size = 32;

  std::fprintf(stderr, "data pipeline report: %lld samples @ r%lld, batch %lld\n",
               static_cast<long long>(train.size()),
               static_cast<long long>(train.resolution()),
               static_cast<long long>(batch_size));

  data::LoaderOptions base;
  base.batch_size = batch_size;
  base.shuffle = true;
  base.seed = 31;

  std::vector<Result> results;
  {
    data::LoaderOptions o = base;
    sweep_config("plain", train, o, repeats, results);
    o.augment = true;
    sweep_config("augmented", train, o, repeats, results);
    sweep_config("augmented_io", train_io, o, repeats, results);
  }

  // Determinism: the pipeline must reproduce the sync loader bitwise.
  data::LoaderOptions det = base;
  const bool det_plain = epochs_bitwise_equal(train, det, 4);
  det.augment = true;
  const bool det_aug = epochs_bitwise_equal(train, det, 4);
  det.mix.mixup_alpha = 0.4f;
  det.mix.cutmix_alpha = 1.0f;
  const bool det_mixed = epochs_bitwise_equal(train, det, 4);
  std::fprintf(stderr, "  determinism: plain=%d augmented=%d mixed=%d\n",
               det_plain, det_aug, det_mixed);

  // End-to-end: one real training epoch, same seed, data_workers off/on.
  const data::SynthClassification test(sc, "test");
  const int64_t e2e_workers = quick ? 2 : 4;
  double e2e_sync_ms = 0.0, e2e_pipe_ms = 0.0;
  float acc_sync = 0.0f, acc_pipe = 0.0f;
  for (int pass = 0; pass < 2; ++pass) {
    auto model = models::make_model("mbv2-tiny", train.num_classes(), 77);
    train::TrainConfig tc;
    tc.epochs = 1;
    tc.batch_size = batch_size;
    tc.augment = true;
    tc.seed = 33;
    tc.data_workers = pass == 0 ? 0 : e2e_workers;
    float acc = 0.0f;
    const double ms = 1e3 * time_once([&] {
      acc = train::train_classifier(*model, train, test, tc).final_test_acc;
    });
    if (pass == 0) {
      e2e_sync_ms = ms;
      acc_sync = acc;
    } else {
      e2e_pipe_ms = ms;
      acc_pipe = acc;
    }
  }
  const bool e2e_acc_equal =
      std::memcmp(&acc_sync, &acc_pipe, sizeof(float)) == 0;
  std::fprintf(stderr,
               "  end-to-end epoch: sync %.0f ms, pipeline(w%lld) %.0f ms, "
               "acc equal=%d\n",
               e2e_sync_ms, static_cast<long long>(e2e_workers), e2e_pipe_ms,
               e2e_acc_equal);

  // Headline: the latency-bound workload at 4 workers, where prefetch
  // overlap pays at any core count.
  const Result* headline = nullptr;
  for (const Result& r : results) {
    if (r.config == "augmented_io" && r.workers == 4) headline = &r;
  }
  JsonWriter w(out_path);
  w.str("schema", "nb-bench-data-v1");
  w.str("bench", "data");
  w.boolean("quick", quick);
  w.integer("hardware_threads", std::thread::hardware_concurrency());
  write_provenance(w);
  w.row("dataset");
  w.integer("samples", train.size());
  w.integer("resolution", train.resolution());
  w.integer("batch_size", batch_size);
  w.integer("io_delay_us", delay_us);
  w.end();
  w.row("determinism");
  w.boolean("plain", det_plain);
  w.boolean("augmented", det_aug);
  w.boolean("augmented_mixed", det_mixed);
  w.end();
  if (headline != nullptr) {
    w.object("augmented_io_w4");
    w.num("epoch_ms", headline->epoch_ms, "%.3f");
    w.num("samples_per_s", headline->samples_per_s, "%.1f");
    w.num("speedup_pipeline_vs_sync", headline->speedup_vs_sync);
    w.end();
  }
  w.array("results");
  for (const Result& r : results) {
    w.row();
    w.str("config", r.config);
    w.integer("workers", r.workers);
    w.num("epoch_ms", r.epoch_ms, "%.3f");
    w.num("samples_per_s", r.samples_per_s, "%.1f");
    w.num("speedup_vs_sync", r.speedup_vs_sync);
    if (r.workers > 0) {
      w.num("reader_stall_ms", r.reader_stall_ms, "%.2f");
      w.num("worker_stall_ms", r.worker_stall_ms, "%.2f");
      w.num("consumer_stall_ms", r.consumer_stall_ms, "%.2f");
      w.integer("max_ticket_depth", r.max_ticket_depth);
    }
    w.end();
  }
  w.end();
  w.object("end_to_end");
  w.num("train_epoch_sync_ms", e2e_sync_ms, "%.1f");
  w.num("train_epoch_pipeline_ms", e2e_pipe_ms, "%.1f");
  w.integer("workers", e2e_workers);
  w.num("speedup", e2e_pipe_ms > 0.0 ? e2e_sync_ms / e2e_pipe_ms : 0.0);
  w.boolean("acc_bitwise_equal", e2e_acc_equal);
  w.end();
  w.finish();
  std::fprintf(stderr, "wrote %s (%zu results)\n", out_path.c_str(),
               results.size());
  return 0;
}
