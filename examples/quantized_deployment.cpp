// Deployment walkthrough: train a TNN with NetBooster, contract it, run the
// int8 post-training-quantization pipeline (fold BN -> per-channel int8
// weights -> calibrated int8 activations), export the flat NBFM artifact,
// then stand it up behind the serving runtime: CompiledModel (weights
// compiled once), Sessions (concurrent streams, zero weight duplication)
// and an Engine (micro-batched request queue) — the last mile for the IoT
// devices the paper targets, plus the serving tier above them.
//
// Run:  ./build/examples/quantized_deployment
#include <cstdio>
#include <future>
#include <vector>

#include "core/netbooster.h"
#include "data/task_registry.h"
#include "export/flat_writer.h"
#include "models/profiler.h"
#include "models/registry.h"
#include "quant/qmodel.h"
#include "runtime/compiled_model.h"
#include "runtime/engine.h"
#include "runtime/session.h"
#include "tensor/tensor_ops.h"
#include "train/metrics.h"

using namespace nb;

int main() {
  const data::ClassificationTask task =
      data::make_task("synth-imagenet", /*resolution=*/20, /*scale=*/0.2f);

  // Train with NetBooster (short budgets; see the benches for full runs).
  core::NetBoosterConfig cfg;
  cfg.giant.epochs = 6;
  cfg.giant.batch_size = 32;
  cfg.giant.lr = 0.08f;
  cfg.tune = cfg.giant;
  cfg.tune.epochs = 4;
  cfg.tune.lr = 0.03f;
  std::shared_ptr<models::MobileNetV2> model =
      models::make_model("mbv2-tiny", task.num_classes, 5);
  const core::NetBoosterResult r =
      core::run_netbooster(model, *task.train, *task.test, cfg);
  std::printf("fp32 accuracy after NetBooster: %.2f%%\n", 100.0 * r.final_acc);

  const models::Profile fp32_profile = models::profile_model(*model, 20);
  std::printf("deployed model: %s params, %s FLOPs\n",
              models::human_count(fp32_profile.params).c_str(),
              models::human_count(fp32_profile.flops).c_str());

  // Post-training quantization to int8.
  quant::DeployConfig deploy;
  deploy.spec.weight_bits = 8;
  deploy.spec.act_bits = 8;
  deploy.spec.calib = quant::CalibMode::percentile;
  deploy.calib_batches = 4;
  const quant::DeployReport report =
      quant::quantize_for_deployment(*model, *task.train, deploy);

  const float int8_acc = train::evaluate(*model, *task.test);
  std::printf("\nint8 accuracy: %.2f%% (drop %.2f points)\n", 100.0 * int8_acc,
              100.0 * (r.final_acc - int8_acc));
  std::printf("quantized %lld convs + %lld linear, folded %lld BNs\n",
              static_cast<long long>(report.conv_layers),
              static_cast<long long>(report.linear_layers),
              static_cast<long long>(report.folded_bn));
  std::printf("weight bytes: %s (fp32) -> %s (int8), %.1fx smaller\n",
              models::human_count(report.fp32_weight_bytes).c_str(),
              models::human_count(report.quant_weight_bytes).c_str(),
              static_cast<double>(report.fp32_weight_bytes) /
                  static_cast<double>(report.quant_weight_bytes));

  // Ship it: a single-file artifact with true int8 weight storage and a
  // self-contained runtime.
  const std::string artifact = "netbooster_tiny.nbm";
  exporter::write_flat_model(*model, artifact, /*input_resolution=*/20);
  const exporter::FlatModel flat = exporter::FlatModel::load(artifact);
  Rng rng(71, 1);
  Tensor probe({1, 3, 20, 20});
  fill_uniform(probe, rng, -1.0f, 1.0f);
  const float agreement =
      max_abs_diff(model->forward(probe),
                   flat.forward(probe, exporter::Backend::fast));
  std::printf("\nexported %s: %lld ops, %s weight payload, "
              "runtime max|diff| vs model = %.2e\n",
              artifact.c_str(), static_cast<long long>(flat.ops().size()),
              models::human_count(flat.weight_bytes()).c_str(), agreement);

  // Serve it: compile once, then any number of concurrent streams share
  // the same weight panels — two sessions cost two small arenas, not two
  // copies of the model.
  const auto compiled = runtime::CompiledModel::compile(flat);
  runtime::Session stream_a(compiled), stream_b(compiled);
  const Tensor logits_a = stream_a.run(probe);
  const Tensor logits_b = stream_b.run(probe);
  const auto mem = stream_a.memory();
  std::printf("\nserving: 2 sessions on one CompiledModel\n");
  std::printf("  shared weight panels: %s (paid once)\n",
              models::human_count(compiled->weight_panel_bytes()).c_str());
  std::printf("  per-session arena:    %s (the only per-stream cost)\n",
              models::human_count(mem.owned_arena_floats * 4).c_str());
  std::printf("  sessions agree: max|diff| = %.2e\n",
              max_abs_diff(logits_a, logits_b));

  // Behind an Engine, single-image requests coalesce into micro-batches.
  runtime::EngineOptions serve;
  serve.batching.max_batch = 4;
  serve.batching.max_wait_us = 2000;
  runtime::Engine engine(serve);
  engine.register_model("tnn", compiled);
  std::vector<std::future<Tensor>> pending;
  for (int i = 0; i < 8; ++i) {
    pending.push_back(engine.submit("tnn", probe.reshape({3, 20, 20})));
  }
  for (auto& f : pending) (void)f.get();
  const runtime::Engine::Stats st = engine.stats();
  std::printf("  engine: %lld requests in %lld batches (avg batch %.1f), "
              "p50 %.2f ms\n",
              static_cast<long long>(st.completed),
              static_cast<long long>(st.batches), st.avg_batch, st.p50_ms);

  std::printf("\nnote: pass spec.weight_bits = 4 for int4 weights; the\n"
              "tests show accuracy degrading monotonically with bit width.\n");
  return 0;
}
