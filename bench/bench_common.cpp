#include "bench_common.h"

#include <cstdio>
#include <cstdlib>

#include "baselines/kd.h"
#include "baselines/netaug.h"
#include "nn/serialize.h"
#include "train/metrics.h"

namespace nb::bench {

Scale read_scale() {
  Scale s;
  const char* env = std::getenv("NB_BENCH_SCALE");
  const std::string mode = env ? env : "standard";
  if (mode == "fast") {
    s = Scale{"fast", 0.3f, 3, 2, 5, 1};
  } else if (mode == "full") {
    s = Scale{"full", 1.0f, 10, 5, 14, 1};
  } else {
    s = Scale{"standard", 0.4f, 5, 3, 8, 1};
  }
  return s;
}

int64_t total_epochs(const Scale& s) {
  return s.pretrain_epochs + s.tune_epochs;
}

train::TrainConfig pretrain_config(const Scale& s) {
  train::TrainConfig c;
  c.epochs = s.pretrain_epochs;
  c.batch_size = 32;
  c.lr = 0.08f;
  c.momentum = 0.9f;
  c.weight_decay = 1e-4f;
  c.augment = true;
  c.seed = s.seed + 11;
  // Benches only report the final accuracy; skipping the per-epoch eval
  // (and its BN recalibration pass) cuts a double-digit share of the wall
  // clock. The trainer always evaluates after the last epoch.
  c.eval_every = 0;
  c.data_workers = s.data_workers;
  return c;
}

train::TrainConfig tune_config(const Scale& s) {
  train::TrainConfig c = pretrain_config(s);
  c.epochs = s.tune_epochs;
  c.lr = 0.03f;
  return c;
}

core::NetBoosterConfig netbooster_config(const Scale& s, bool equal_budget) {
  core::NetBoosterConfig c;
  c.giant = pretrain_config(s);
  c.tune = tune_config(s);
  if (equal_budget) {
    // Strict convention: giant + tune share the single-stage budget.
    c.giant.epochs = s.pretrain_epochs;
    c.tune.epochs = s.tune_epochs;
  } else {
    // Paper convention: the giant gets the full single-stage budget (the
    // paper trains it for 160 epochs, like the baselines), tuning adds
    // ~0.6x on top (paper: +150).
    c.giant.epochs = total_epochs(s);
    c.tune.epochs = s.pretrain_epochs;
  }
  c.plt_fraction = 0.25f;  // Ed ~ 20-25% of tuning, as in the paper
  c.verify_contraction = true;
  c.seed = s.seed + 23;
  return c;
}

int64_t netbooster_epochs(const Scale& s) {
  const core::NetBoosterConfig c = netbooster_config(s);
  return c.giant.epochs + c.tune.epochs;
}

float run_vanilla(const std::string& model_name,
                  const data::ClassificationTask& task, const Scale& s,
                  std::optional<int64_t> epochs) {
  auto model = models::make_model(model_name, task.num_classes, s.seed + 3);
  train::TrainConfig c = pretrain_config(s);
  c.epochs = epochs.value_or(total_epochs(s));
  return train::train_classifier(*model, *task.train, *task.test, c)
      .final_test_acc;
}

float run_netaug(const std::string& model_name,
                 const data::ClassificationTask& task, const Scale& s) {
  Rng rng(s.seed + 5, 19);
  baselines::NetAugModel model(
      models::model_config(model_name, task.num_classes), 2.0f, rng);
  train::TrainConfig c = pretrain_config(s);
  c.epochs = total_epochs(s);
  baselines::NetAugConfig na;
  return baselines::train_netaug(model, *task.train, *task.test, c, na)
      .final_test_acc;
}

core::NetBoosterResult run_netbooster_full(
    const std::string& model_name, const data::ClassificationTask& task,
    const Scale& s, const core::ExpansionConfig* expansion_override,
    const core::NetBoosterConfig* config_override,
    std::shared_ptr<models::MobileNetV2>* out_model) {
  auto model = models::make_model(model_name, task.num_classes, s.seed + 3);
  core::NetBoosterConfig c =
      config_override ? *config_override : netbooster_config(s);
  if (expansion_override) c.expansion = *expansion_override;
  if (out_model) *out_model = model;
  return core::run_netbooster(model, *task.train, *task.test, c);
}

float run_tfkd(const std::string& model_name,
               const data::ClassificationTask& task, const Scale& s) {
  auto student = models::make_model(model_name, task.num_classes, s.seed + 3);
  train::TrainConfig c = pretrain_config(s);
  c.epochs = total_epochs(s);
  baselines::KdConfig kd;
  kd.alpha = 0.5f;
  return train::train_classifier(
             *student, *task.train, *task.test, c,
             baselines::make_tfkd_loss(task.num_classes, kd, 0.9f))
      .final_test_acc;
}

float run_rco_kd(const std::string& model_name,
                 const data::ClassificationTask& task, const Scale& s) {
  // The route needs its own teacher copy (weights are rewound along the way).
  auto teacher = models::make_model("teacher", task.num_classes, s.seed + 7);
  train::TrainConfig tc = pretrain_config(s);
  tc.epochs = total_epochs(s);
  const auto route =
      baselines::train_teacher_route(*teacher, *task.train, *task.test, tc, 3);
  auto student = models::make_model(model_name, task.num_classes, s.seed + 3);
  return baselines::train_rco_kd(*student, *teacher, route, *task.train,
                                 *task.test, tc, {})
      .final_test_acc;
}

float run_rocket(const std::string& model_name,
                 const data::ClassificationTask& task, const Scale& s) {
  auto light = models::make_model(model_name, task.num_classes, s.seed + 3);
  train::TrainConfig c = pretrain_config(s);
  c.epochs = total_epochs(s);
  baselines::RocketConfig rocket;
  return baselines::train_rocket(*light, *task.train, *task.test, c, rocket)
      .final_test_acc;
}

void print_header(const std::string& title, const std::string& paper_ref,
                  const Scale& s) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s   (scale profile: %s)\n", paper_ref.c_str(),
              s.name.c_str());
  std::printf("--------------------------------------------------------------\n");
  std::printf("%-38s %10s %10s\n", "configuration", "paper(%)", "measured(%)");
  std::fflush(stdout);
}

void print_row(const std::string& label, double paper, double measured,
               const std::string& extra) {
  std::printf("%-38s %10.2f %10.2f  %s\n", label.c_str(), paper, measured,
              extra.c_str());
  std::fflush(stdout);
}

void check_ordering(const std::string& claim, bool holds) {
  std::printf("  [%s] %s\n", holds ? "PASS " : "CHECK", claim.c_str());
  std::fflush(stdout);
}

std::string epochs_label(int64_t epochs) {
  return " (" + std::to_string(epochs) + " epochs)";
}

void print_footer() {
  std::printf("==============================================================\n\n");
  std::fflush(stdout);
}

}  // namespace nb::bench
