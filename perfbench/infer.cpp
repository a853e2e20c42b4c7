#include "infer.h"

#include <memory>
#include <vector>

#include "export/flat_synth.h"
#include "export/qmodel.h"
#include "reference.h"
#include "runtime/compiled_model.h"
#include "runtime/session.h"
#include "tensor/rng.h"
#include "tensor/tensor_ops.h"

namespace pb {

using nb::Tensor;
using nb::exporter::Backend;
using nb::exporter::FlatModel;
using nb::runtime::CompiledModel;
using nb::runtime::Session;

namespace {

/// Distinct images per run; every run's output is checked against the
/// oracle output of its image.
constexpr int64_t kImages = 2;

std::vector<Tensor> make_images(uint64_t seed, int64_t res) {
  nb::Rng rng(seed);
  std::vector<Tensor> out;
  for (int64_t i = 0; i < kImages; ++i) {
    Tensor t({1, 3, res, res});
    nb::fill_uniform(t, rng, -1.0f, 1.0f);
    out.push_back(std::move(t));
  }
  return out;
}

}  // namespace

const std::vector<InferConfig>& infer_configs() {
  static const std::vector<InferConfig> configs = {
      {"mbv2_fast", "mbv2", 160, Backend::fast},
      {"mbv2_int8", "mbv2", 160, Backend::int8},
      {"mcunet_fast", "mcunet", 176, Backend::fast},
      {"mcunet_int8", "mcunet", 176, Backend::int8},
  };
  return configs;
}

FlatModel make_infer_graph(const InferConfig& c, uint64_t seed) {
  nb::Rng rng(derive_seed(seed, ("infer-" + c.graph + "-weights").c_str()));
  return c.graph == "mbv2"
             ? nb::exporter::synth::make_mbv2_flat(rng, 1.0f, c.resolution, 1000)
             : nb::exporter::synth::make_mcunet_flat(rng, c.resolution, 1000);
}

void run_infer(const Args& args, const InferConfig& config, double seconds,
               Tracer& tracer, Result& result) {
  const FlatModel program = make_infer_graph(config, args.seed);
  const std::vector<Tensor> images = make_images(
      derive_seed(args.seed, ("infer-" + config.graph + "-images").c_str()),
      config.resolution);
  {
    Hasher w, im;
    w.flat_model(program);
    for (const Tensor& x : images) im.tensor(x);
    result.fingerprint.emplace_back("infer.weights", w.hex());
    result.fingerprint.emplace_back("infer.images", im.hex());
  }

  // Set-up (timed, at the nominal host speed): compile, open the serial
  // Session and warm its batch-1 plan. Repeated; the last repetition is
  // measured.
  std::shared_ptr<const CompiledModel> model;
  std::unique_ptr<Session> session;
  std::vector<double> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    session.reset();
    model.reset();
    FlatModel fresh = fresh_copy(program);
    const double ref_before = reference_ms();
    const auto t0 = Clock::now();
    model = CompiledModel::compile(std::move(fresh), config.backend);
    session = std::make_unique<Session>(model);
    for (const Tensor& x : images) (void)session->run(x);
    const double s = seconds_since(t0);
    setup.push_back(normalized(s, 0.5 * (ref_before + reference_ms())));
  }

  // Oracle (untimed): the reference interpreter for fast, QModel for int8.
  std::vector<Tensor> oracle;
  if (config.backend == Backend::int8) {
    const nb::exporter::QModel q(program);
    for (const Tensor& x : images) oracle.push_back(q.forward(x));
  } else {
    for (const Tensor& x : images) {
      oracle.push_back(program.forward(x, Backend::reference));
    }
  }

  reset_peak_rss();

  // The closed loop: one image after another until the budget is spent,
  // each run bracketed by the host-speed reference and normalized by the
  // mean of the two runs around it.
  std::vector<double> ms, raw_ms, speed;
  int64_t wrong = 0;
  double ref_before = reference_ms();
  const auto start = Clock::now();
  while (ms.size() < 10 || seconds_since(start) < seconds) {
    const size_t i = raw_ms.size() % static_cast<size_t>(kImages);
    const auto t0 = Clock::now();
    const Tensor y = session->run(images[i]);
    const auto t1 = Clock::now();
    const double ref = reference_ms();
    raw_ms.push_back(ms_between(t0, t1));
    ms.push_back(normalized(raw_ms.back(), 0.5 * (ref_before + ref)));
    speed.push_back(kReferenceNominalMs / ref);
    ref_before = ref;
    if (tracer.enabled()) {
      tracer.record("runtime.session_run." + config.name, t0, t1, -1,
                    static_cast<int64_t>(ms.size() - 1));
    }
    if (!bitwise_equal(y, oracle[i])) ++wrong;
  }

  const auto n = static_cast<int64_t>(ms.size());
  double total_ms = 0.0;
  for (double v : ms) total_ms += v;
  result.note(strf("infer %s raw: p50 %.3f ms, p90 %.3f ms; host speed %.2f "
                   "of nominal (median)",
                   config.name.c_str(), median(raw_ms),
                   percentile(raw_ms, 0.90), median(speed)));
  result.attempted += n;
  result.failed += wrong;
  result.check(config.backend == Backend::int8
                   ? "infer: int8 outputs memcmp-equal to QModel"
                   : "infer: fast outputs memcmp-equal to the reference "
                     "interpreter",
               wrong == 0);
  result.add_e2e("setup_s", median(setup), "s",
                 static_cast<int64_t>(setup.size()));
  result.add_e2e("p50_ms", median(ms), "ms", n);
  result.add_e2e("tail_ms", percentile(ms, 0.90), "ms", n);
  result.add_e2e("rate_per_s", 1e3 * static_cast<double>(n) / total_ms, "1/s",
                 n);
}

}  // namespace pb
