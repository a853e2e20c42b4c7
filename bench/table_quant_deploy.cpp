// Extension experiment (no paper counterpart): does NetBooster's accuracy
// gain survive int8 post-training quantization? The paper's motivation is
// IoT deployment (MCUNet-class devices), where deployed TNNs are int8; a
// training method whose gains evaporate under PTQ would be useless there.
// This bench trains vanilla and NetBooster models, runs both through the
// fold-BN -> per-channel int8 weights -> calibrated int8 activations
// pipeline (src/quant), and compares fp32 vs int8 accuracy and weight bytes.
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

  // Vanilla TNN, trained then quantized.
  auto vanilla_model =
      models::make_model("mbv2-tiny", task.num_classes, scale.seed + 3);
  train::TrainConfig vc = bench::pretrain_config(scale);
  vc.epochs = bench::total_epochs(scale);
  (void)train::train_classifier(*vanilla_model, *task.train, *task.test, vc);
  const float vanilla_fp32 = train::evaluate(*vanilla_model, *task.test);

  quant::DeployConfig deploy;
  deploy.calib_batches = 4;
  const quant::DeployReport vr =
      quant::quantize_for_deployment(*vanilla_model, *task.train, deploy);
  const float vanilla_int8 = train::evaluate(*vanilla_model, *task.test);

  // NetBooster TNN (expanded -> tuned -> contracted), then quantized.
  std::shared_ptr<models::MobileNetV2> nb_model;
  const core::NetBoosterResult r = bench::run_netbooster_full(
      "mbv2-tiny", task, scale, nullptr, nullptr, &nb_model);
  const float booster_fp32 = r.final_acc;
  const quant::DeployReport br =
      quant::quantize_for_deployment(*nb_model, *task.train, deploy);
  const float booster_int8 = train::evaluate(*nb_model, *task.test);

  bench::print_row("Vanilla fp32", 51.20, 100.0 * vanilla_fp32);
  bench::print_row("Vanilla int8", 0.0, 100.0 * vanilla_int8,
                   "(" + models::human_count(vr.quant_weight_bytes) +
                       "B weights vs " +
                       models::human_count(vr.fp32_weight_bytes) + "B fp32)");
  bench::print_row("NetBooster fp32", 53.70, 100.0 * booster_fp32);
  bench::print_row("NetBooster int8", 0.0, 100.0 * booster_int8,
                   "(" + models::human_count(br.quant_weight_bytes) +
                       "B weights)");

  bench::check_ordering("NetBooster int8 > vanilla int8 (gain survives PTQ)",
                        booster_int8 > vanilla_int8);
  bench::check_ordering(
      "int8 costs vanilla < 3 points of fp32 accuracy",
      vanilla_fp32 - vanilla_int8 < 0.03f);
  bench::check_ordering(
      "int8 costs NetBooster < 3 points of fp32 accuracy",
      booster_fp32 - booster_int8 < 0.03f);
  bench::check_ordering(
      "identical deployed weight bytes (same architecture after contraction)",
      vr.quant_weight_bytes == br.quant_weight_bytes);

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
