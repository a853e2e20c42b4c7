// Extension experiment (no paper counterpart): does NetBooster's accuracy
// gain survive int8 post-training quantization? The paper's motivation is
// IoT deployment (MCUNet-class devices), where deployed TNNs are int8; a
// training method whose gains evaporate under PTQ would be useless there.
// This bench trains vanilla and NetBooster models, runs both through the
// fold-BN -> per-channel int8 weights -> calibrated int8 activations
// pipeline (src/quant), and compares fp32 vs int8 accuracy and weight bytes.
// NetBooster trains for ~1.6x the single-stage budget (bench_common.h), so
// a second vanilla TNN trains for NetBooster's epochs, and both int8
// comparisons name the budgets they compare.
#include <cstring>
#include <vector>

#include "bench_common.h"
#include "bench_report.h"
#include "export/flat_writer.h"
#include "export/qmodel.h"
#include "runtime/compiled_model.h"
#include "runtime/session.h"
#include "tensor/gemm_s8.h"
#include "tensor/rng.h"
#include "tensor/tensor_ops.h"
#include "quant/qmodel.h"
#include "train/metrics.h"
#include "train/trainer.h"

int main() {
  using namespace nb;
  const bench::Scale scale = bench::read_scale();
  bench::print_header(
      "Deployment — int8 PTQ of the contracted TNN (extension)",
      "NetBooster (DAC'23) motivation: IoT deployment; MCUNet-style PTQ",
      scale);

  const int64_t res = data::scaled_resolution(144);
  const data::ClassificationTask task = data::make_task(
      "synth-imagenet", res, 0.6f * scale.data_scale, scale.seed);

  // Vanilla TNNs, trained for the single-stage budget and for NetBooster's
  // epochs, then quantized.
  const int64_t single_epochs = bench::total_epochs(scale);
  const int64_t booster_epochs = bench::netbooster_epochs(scale);
  quant::DeployConfig deploy;
  deploy.calib_batches = 4;
  struct Vanilla {
    float fp32, int8;
    quant::DeployReport report;
  };
  const auto train_vanilla = [&](int64_t epochs) {
    auto model =
        models::make_model("mbv2-tiny", task.num_classes, scale.seed + 3);
    train::TrainConfig vc = bench::pretrain_config(scale);
    vc.epochs = epochs;
    (void)train::train_classifier(*model, *task.train, *task.test, vc);
    const float fp32 = train::evaluate(*model, *task.test);
    const quant::DeployReport report =
        quant::quantize_for_deployment(*model, *task.train, deploy);
    return Vanilla{fp32, train::evaluate(*model, *task.test), report};
  };
  const Vanilla vanilla = train_vanilla(single_epochs);
  const Vanilla matched = train_vanilla(booster_epochs);

  // NetBooster TNN (expanded -> tuned -> contracted), then quantized.
  std::shared_ptr<models::MobileNetV2> nb_model;
  const core::NetBoosterResult r = bench::run_netbooster_full(
      "mbv2-tiny", task, scale, nullptr, nullptr, &nb_model);
  const float booster_fp32 = r.final_acc;
  const quant::DeployReport br =
      quant::quantize_for_deployment(*nb_model, *task.train, deploy);
  const float booster_int8 = train::evaluate(*nb_model, *task.test);

  bench::print_row("Vanilla fp32", 51.20, 100.0 * vanilla.fp32);
  bench::print_row(
      "Vanilla int8", 0.0, 100.0 * vanilla.int8,
      "(" + models::human_count(vanilla.report.quant_weight_bytes) +
          "B weights vs " +
          models::human_count(vanilla.report.fp32_weight_bytes) + "B fp32)");
  bench::print_row("Vanilla fp32, NetBooster's epochs", 0.0,
                   100.0 * matched.fp32);
  bench::print_row("Vanilla int8, NetBooster's epochs", 0.0,
                   100.0 * matched.int8);
  bench::print_row("NetBooster fp32", 53.70, 100.0 * booster_fp32);
  bench::print_row("NetBooster int8", 0.0, 100.0 * booster_int8,
                   "(" + models::human_count(br.quant_weight_bytes) +
                       "B weights)");

  const std::string booster_beats_vanilla =
      "NetBooster int8" + bench::epochs_label(booster_epochs) +
      " > vanilla int8";
  bench::check_ordering(booster_beats_vanilla +
                            bench::epochs_label(single_epochs) +
                            " (gain survives PTQ)",
                        booster_int8 > vanilla.int8);
  bench::check_ordering(
      booster_beats_vanilla + bench::epochs_label(booster_epochs),
      booster_int8 > matched.int8);
  bench::check_ordering(
      "int8 costs vanilla < 3 points of fp32 accuracy",
      vanilla.fp32 - vanilla.int8 < 0.03f);
  bench::check_ordering(
      "int8 costs NetBooster < 3 points of fp32 accuracy",
      booster_fp32 - booster_int8 < 0.03f);
  bench::check_ordering(
      "identical deployed weight bytes (same architecture after contraction)",
      vanilla.report.quant_weight_bytes == br.quant_weight_bytes);

  // Deployment execution: export the contracted NetBooster model to the flat
  // artifact and run it through the REAL int8 backend (quantized
  // activations, packed s8 GEMM, fused requantize) against the
  // dequantized-float fast path. This is the number the paper's deployment
  // story is about — until now the table only reported weight bytes while
  // every measured run still did float arithmetic.
  const exporter::FlatModel flat = exporter::to_flat_model(*nb_model, res);
  Tensor img({1, 3, res, res});
  Rng img_rng(scale.seed + 77);
  fill_uniform(img, img_rng, -1.0f, 1.0f);
  // Both deployed backends through the serving runtime, timed in
  // alternating windows of the same length and count as bench_infer_report
  // times them, so both see the same host state.
  runtime::Session fast(
      runtime::CompiledModel::compile(flat, exporter::Backend::fast));
  runtime::Session int8(
      runtime::CompiledModel::compile(flat, exporter::Backend::int8));
  const std::vector<double> s = bench::bench_alternating_seconds(
      bench::Budget{0.025, 8},
      {[&] { (void)int8.run(img); }, [&] { (void)fast.run(img); }});
  const double int8_ms = s[0] * 1e3, fast_ms = s[1] * 1e3;
  const Tensor y_int8 = int8.run(img);
  const Tensor y_oracle = exporter::QModel(flat).forward(img);
  const bool exact =
      y_int8.numel() == y_oracle.numel() &&
      std::memcmp(y_int8.data(), y_oracle.data(),
                  static_cast<size_t>(y_int8.numel()) * sizeof(float)) == 0;

  bench::print_row("Deploy latency fp32-panel (ms)", 0.0, fast_ms);
  bench::print_row("Deploy latency int8 backend (ms)", 0.0, int8_ms,
                   "(" + std::string(gemm_s8_kernel_name()) + ")");
  bench::print_row("int8 speedup over float path", 0.0,
                   int8_ms > 0.0 ? fast_ms / int8_ms : 0.0);
  bench::check_ordering("int8 backend bitwise-exact vs QModel oracle", exact);
  bench::check_ordering("int8 backend at least as fast as float path",
                        int8_ms <= fast_ms);

  bench::print_footer();
  return 0;
}
