// Tests for the flat deployment artifact: writer structure, binary
// round-trip, runtime equivalence with the quantized training-side model,
// and failure modes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>

#include "data/task_registry.h"
#include "export/flat_writer.h"
#include "models/registry.h"
#include "quant/qmodel.h"
#include "tensor/tensor_ops.h"
#include "train/metrics.h"

namespace nb::exporter {
namespace {

const data::SynthClassification& calib_data() {
  static const data::ClassificationTask task =
      data::make_task("synth-imagenet", 20, /*scale=*/0.1f, /*seed=*/5);
  return *task.test;
}

/// A quantized tiny model shared by the structural tests.
std::shared_ptr<models::MobileNetV2> quantized_model() {
  auto model =
      models::make_model("mbv2-tiny", calib_data().num_classes(), 7);
  quant::DeployConfig cfg;
  cfg.calib_batches = 2;
  cfg.batch_size = 16;
  quant::quantize_for_deployment(*model, calib_data(), cfg);
  return model;
}

std::string temp_file(const char* name) {
  return ::testing::TempDir() + name;
}

TEST(FlatWriter, ProgramStructureMatchesArchitecture) {
  auto model = quantized_model();
  const FlatModel flat = to_flat_model(*model, 20);

  const auto& ops = flat.ops();
  ASSERT_GT(ops.size(), 10u);
  EXPECT_EQ(ops.front().kind, OpKind::conv);  // stem
  EXPECT_EQ(ops.back().kind, OpKind::linear);
  EXPECT_EQ(ops[ops.size() - 2].kind, OpKind::gap);

  int64_t saves = 0, adds = 0, convs = 0;
  for (const FlatOp& op : ops) {
    if (op.kind == OpKind::save) ++saves;
    if (op.kind == OpKind::add_saved) ++adds;
    if (op.kind == OpKind::conv) ++convs;
  }
  EXPECT_EQ(saves, adds);
  int64_t residual_blocks = 0;
  for (auto* block : model->residual_blocks()) {
    if (block->use_residual()) ++residual_blocks;
  }
  EXPECT_EQ(saves, residual_blocks);
  // stem + head + 2-3 convs per block.
  EXPECT_GE(convs, 2 + 2 * static_cast<int64_t>(
                           model->residual_blocks().size()));
}

TEST(FlatWriter, RuntimeMatchesQuantizedModel) {
  auto model = quantized_model();
  const FlatModel flat = to_flat_model(*model, 20);

  Rng rng(33, 1);
  Tensor x({3, 3, 20, 20});
  fill_uniform(x, rng, -1.0f, 1.0f);
  model->set_training(false);
  const Tensor reference = model->forward(x);
  const Tensor deployed = flat.forward(x, Backend::fast);
  ASSERT_TRUE(reference.same_shape(deployed));
  // Same math, different accumulation order: float-rounding agreement only.
  EXPECT_LT(max_abs_diff(reference, deployed), 5e-3f);
}

TEST(FlatWriter, BinaryRoundTripIsExact) {
  auto model = quantized_model();
  const FlatModel flat = to_flat_model(*model, 20);
  const std::string path = temp_file("nb_flat_roundtrip.nbm");
  flat.save(path);
  const FlatModel loaded = FlatModel::load(path);
  std::remove(path.c_str());

  ASSERT_EQ(loaded.ops().size(), flat.ops().size());
  EXPECT_EQ(loaded.input_resolution(), 20);
  EXPECT_EQ(loaded.weight_bytes(), flat.weight_bytes());
  for (size_t i = 0; i < flat.ops().size(); ++i) {
    const FlatOp& a = flat.ops()[i];
    const FlatOp& b = loaded.ops()[i];
    ASSERT_EQ(a.kind, b.kind);
    if (a.kind == OpKind::conv) {
      EXPECT_EQ(a.conv.weights, b.conv.weights);
      EXPECT_EQ(a.conv.weight_scales, b.conv.weight_scales);
      EXPECT_EQ(a.conv.bias, b.conv.bias);
      EXPECT_FLOAT_EQ(a.conv.act_scale, b.conv.act_scale);
    }
  }

  // And the loaded program computes the same function.
  Rng rng(35, 1);
  Tensor x({1, 3, 20, 20});
  fill_uniform(x, rng, -1.0f, 1.0f);
  EXPECT_FLOAT_EQ(max_abs_diff(flat.forward(x, Backend::fast),
                               loaded.forward(x, Backend::fast)), 0.0f);
}

TEST(FlatWriter, DeployedAccuracyMatchesQuantizedModel) {
  auto model = quantized_model();
  const FlatModel flat = to_flat_model(*model, 20);
  const auto& data = calib_data();

  int64_t agree = 0;
  const int64_t n = std::min<int64_t>(data.size(), 32);
  for (int64_t i = 0; i < n; ++i) {
    const Tensor img = data.image(i).reshape({1, 3, 20, 20});
    const Tensor a = model->forward(img);
    const Tensor b = flat.forward(img, Backend::fast);
    int64_t arg_a = 0, arg_b = 0;
    for (int64_t c = 1; c < a.size(1); ++c) {
      if (a.at(0, c) > a.at(0, arg_a)) arg_a = c;
      if (b.at(0, c) > b.at(0, arg_b)) arg_b = c;
    }
    agree += arg_a == arg_b;
  }
  EXPECT_GE(agree, n - 2);  // border-of-tie flips only
}

TEST(FlatWriter, WeightBytesAreInt8Sized) {
  auto model = quantized_model();
  const FlatModel flat = to_flat_model(*model, 20);
  int64_t param_count = 0;
  for (const FlatOp& op : flat.ops()) {
    if (op.kind == OpKind::conv) {
      param_count += static_cast<int64_t>(op.conv.weights.size());
    }
    if (op.kind == OpKind::linear) {
      param_count += static_cast<int64_t>(op.linear.weights.size());
    }
  }
  // 1 byte per weight plus per-channel scale/bias overhead; must be far
  // below 4 bytes per weight.
  EXPECT_LT(flat.weight_bytes(), param_count * 3);
  EXPECT_GE(flat.weight_bytes(), param_count);
}

TEST(FlatWriter, RejectsUnquantizedModel) {
  auto model = models::make_model("mbv2-tiny", 6, 7);
  EXPECT_THROW(to_flat_model(*model, 20), std::runtime_error);
}

TEST(FlatWriter, RejectsSqueezeExciteModels) {
  auto model = models::make_model("mcunet-se", 6, 7);
  quant::DeployConfig cfg;
  cfg.calib_batches = 1;
  // SE models cannot be exported even when quantization succeeds.
  EXPECT_THROW(to_flat_model(*model, 26), std::runtime_error);
}

TEST(FlatModelIo, RejectsBadMagicAndTruncation) {
  const std::string path = temp_file("nb_flat_bad.nbm");
  {
    std::ofstream out(path, std::ios::binary);
    out << "JUNKJUNKJUNK";
  }
  EXPECT_THROW(FlatModel::load(path), std::runtime_error);

  // Valid header, truncated body.
  auto model = quantized_model();
  const FlatModel flat = to_flat_model(*model, 20);
  flat.save(path);
  {
    std::ifstream in(path, std::ios::binary);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size() / 2));
  }
  EXPECT_THROW(FlatModel::load(path), std::runtime_error);
  std::remove(path.c_str());
}

// A minimal hand-built conv/linear program; corrupting one field at a time
// (via `tweak`, applied before the ops are pushed) must make load() reject
// the file instead of reading out of bounds later.
FlatModel tiny_program(
    const std::function<void(FlatConv&, FlatLinear&)>& tweak = {}) {
  FlatModel m;
  m.set_input(4, 2);
  FlatOp conv;
  conv.kind = OpKind::conv;
  conv.conv.cin = 2;
  conv.conv.cout = 2;
  conv.conv.kernel = 1;
  conv.conv.weights = {10, -20, 30, -40};
  conv.conv.weight_scales = {0.1f, 0.1f};
  conv.conv.has_bias = true;
  conv.conv.bias = {0.5f, -0.5f};
  conv.conv.act_scale = 0.05f;
  FlatOp gap;
  gap.kind = OpKind::gap;
  FlatOp lin;
  lin.kind = OpKind::linear;
  lin.linear.in = 2;
  lin.linear.out = 3;
  lin.linear.weights = {1, 2, 3, 4, 5, 6};
  lin.linear.weight_scales = {0.1f, 0.1f, 0.1f};
  lin.linear.bias = {0.0f, 0.1f, 0.2f};
  lin.linear.act_scale = 0.05f;
  if (tweak) tweak(conv.conv, lin.linear);
  m.push(conv);
  m.push(gap);
  m.push(lin);
  return m;
}

TEST(FlatModelIo, RoundTripsHandBuiltProgram) {
  const std::string path = temp_file("nb_flat_tiny_ok.nbm");
  tiny_program().save(path);
  const FlatModel loaded = FlatModel::load(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.ops().size(), 3u);
}

TEST(FlatModelIo, LoadFromBufferRoundTripsWithoutFiles) {
  const FlatModel original = tiny_program();
  const std::string path = temp_file("nb_flat_buffer.nbm");
  original.save(path);
  std::ifstream in(path, std::ios::binary);
  const std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
  in.close();
  std::remove(path.c_str());

  const FlatModel loaded =
      FlatModel::load_from_buffer(bytes.data(), bytes.size());
  ASSERT_EQ(loaded.ops().size(), original.ops().size());
  EXPECT_EQ(loaded.input_resolution(), original.input_resolution());
  EXPECT_EQ(loaded.input_channels(), original.input_channels());
  EXPECT_EQ(loaded.weight_bytes(), original.weight_bytes());

  // Same program, same execution — on both backends.
  Tensor x({1, 2, 4, 4});
  Rng rng(3, 1);
  fill_uniform(x, rng, -1.0f, 1.0f);
  EXPECT_EQ(max_abs_diff(loaded.forward(x, Backend::reference),
                         original.forward(x, Backend::reference)),
            0.0f);
  EXPECT_EQ(max_abs_diff(loaded.forward(x, Backend::fast),
                         original.forward(x, Backend::fast)),
            0.0f);

  // Every truncation of the image must be rejected up front.
  for (const size_t keep : {size_t{0}, size_t{3}, bytes.size() / 2,
                            bytes.size() - 1}) {
    EXPECT_THROW(FlatModel::load_from_buffer(bytes.data(), keep),
                 std::runtime_error)
        << "kept " << keep << " bytes";
  }
}

void expect_load_rejects(const char* name,
                         const std::function<void(FlatConv&, FlatLinear&)>& tweak) {
  const std::string path = temp_file(name);
  tiny_program(tweak).save(path);
  EXPECT_THROW(FlatModel::load(path), std::runtime_error) << name;
  std::remove(path.c_str());
}

TEST(FlatModelIo, RejectsConvBiasCountMismatch) {
  expect_load_rejects("nb_flat_bad_bias.nbm",
                      [](FlatConv& c, FlatLinear&) { c.bias.pop_back(); });
}

TEST(FlatModelIo, RejectsLinearScaleAndBiasCountMismatch) {
  expect_load_rejects(
      "nb_flat_bad_lscale.nbm",
      [](FlatConv&, FlatLinear& l) { l.weight_scales.pop_back(); });
  expect_load_rejects("nb_flat_bad_lbias.nbm",
                      [](FlatConv&, FlatLinear& l) { l.bias.push_back(1.0f); });
}

TEST(FlatModelIo, RejectsBadConvGeometry) {
  // groups = 3 does not divide cin = cout = 2.
  expect_load_rejects("nb_flat_bad_groups.nbm",
                      [](FlatConv& c, FlatLinear&) { c.groups = 3; });
  expect_load_rejects("nb_flat_bad_stride.nbm",
                      [](FlatConv& c, FlatLinear&) { c.stride = 0; });
}

/// Serializes a model and returns the raw NBFM image.
std::vector<uint8_t> nbfm_bytes(const FlatModel& m, const char* name) {
  const std::string path = temp_file(name);
  m.save(path);
  std::ifstream in(path, std::ios::binary);
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  in.close();
  std::remove(path.c_str());
  return bytes;
}

TEST(FlatModelIoFuzz, RejectsTruncationAtEveryByte) {
  // Cutting the image at ANY byte boundary must reject cleanly — every
  // field of every record sits behind the bounds-checked cursor, so there
  // is no prefix length where a read can run past the buffer.
  const std::vector<uint8_t> bytes =
      nbfm_bytes(tiny_program(), "nb_flat_fuzz_trunc.nbm");
  ASSERT_GT(bytes.size(), 16u);
  for (size_t keep = 0; keep < bytes.size(); ++keep) {
    EXPECT_THROW(FlatModel::load_from_buffer(bytes.data(), keep),
                 std::runtime_error)
        << "kept " << keep << " of " << bytes.size() << " bytes";
  }
}

TEST(FlatModelIoFuzz, RandomByteFlipsRejectOrLoadCleanly) {
  // Seeded corpus of single-byte corruptions over every position class
  // (magic, header geometry, op kinds, counts, payload bytes). The loader's
  // contract is NO undefined behavior: either the image still parses into a
  // structurally valid program (payload flips — weights, scales, biases are
  // data, not structure) that must then execute without fault, or it throws
  // std::runtime_error. Geometry fields flipped to huge values must reject
  // at the plausibility bounds instead of overflowing the count checks —
  // the ASan/UBSan CI legs run this test.
  const std::vector<uint8_t> bytes =
      nbfm_bytes(tiny_program(), "nb_flat_fuzz_flip.nbm");
  Rng rng(20260730, 9);
  int loaded_ok = 0, rejected = 0;
  for (int trial = 0; trial < 600; ++trial) {
    std::vector<uint8_t> mutated = bytes;
    const size_t pos =
        static_cast<size_t>(rng.randint(static_cast<int64_t>(bytes.size())));
    if (trial % 2 == 0) {
      mutated[pos] ^= static_cast<uint8_t>(1u << rng.randint(8));  // bit flip
    } else {
      mutated[pos] = static_cast<uint8_t>(rng.randint(256));  // random byte
      if (mutated[pos] == bytes[pos]) mutated[pos] ^= 0x80;
    }
    try {
      const FlatModel m =
          FlatModel::load_from_buffer(mutated.data(), mutated.size());
      // A structurally valid mutant must run end to end without fault
      // (values may of course differ — the weight payload bytes this
      // mostly hits are data; a flip landing a NaN/Inf into the float
      // scale/bias tables instead rejects at the finiteness checks, the
      // other clean outcome). Probe execution only
      // while every geometry field stayed small: a flip can legally inflate
      // pad/stride/channels within the loader's plausibility bounds, and
      // running such a program just burns minutes in giant (but well-
      // defined) loops without testing anything new.
      bool small = m.input_channels() <= 16;
      for (const FlatOp& op : m.ops()) {
        if (op.kind == OpKind::conv) {
          small = small && op.conv.cin <= 16 && op.conv.cout <= 16 &&
                  op.conv.kernel <= 8 && op.conv.stride <= 8 &&
                  op.conv.pad <= 8;
        } else if (op.kind == OpKind::linear) {
          small = small && op.linear.in <= 64 && op.linear.out <= 64;
        }
      }
      if (small) {
        Tensor x({1, m.input_channels(), 4, 4});
        Rng xr(3, 1);
        fill_uniform(x, xr, -1.0f, 1.0f);
        (void)m.forward(x, Backend::reference);
      }
      ++loaded_ok;
    } catch (const std::runtime_error&) {
      ++rejected;  // clean rejection is the other acceptable outcome
    }
  }
  // The corpus must exercise both outcomes, or the fuzz proves nothing.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(loaded_ok, 0);
}

TEST(FlatModelIoFuzz, RejectsImplausibleGeometryWithoutOverflow) {
  // Directed versions of the worst flips: fields large enough that the
  // weight-count product would overflow int64 if checked naively.
  expect_load_rejects("nb_flat_huge_kernel.nbm", [](FlatConv& c, FlatLinear&) {
    c.kernel = int64_t{1} << 40;
  });
  expect_load_rejects("nb_flat_huge_cout.nbm", [](FlatConv& c, FlatLinear&) {
    c.cout = int64_t{1} << 56;
    c.groups = c.cout;  // keep the divide check satisfied
  });
  expect_load_rejects("nb_flat_huge_linear.nbm", [](FlatConv&, FlatLinear& l) {
    l.in = int64_t{1} << 40;
    l.out = int64_t{1} << 40;
  });
  expect_load_rejects("nb_flat_bad_act.nbm", [](FlatConv& c, FlatLinear&) {
    c.act = static_cast<FlatAct>(7);
  });
  expect_load_rejects("nb_flat_bad_bits.nbm", [](FlatConv& c, FlatLinear&) {
    c.weight_bits = 0;
  });
}

TEST(FlatModelIoFuzz, RejectsNonFiniteQuantizationTables) {
  // Directed int8-era corruptions: the calibration fields (act_scale,
  // weight_scales, bias) are what the integer backend trusts to requantize
  // in place, so a NaN/Inf/negative value smuggled into them must die at
  // load — not first poison activations three convs deep into a serving
  // process. Each field class, conv and linear sides.
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  expect_load_rejects("nb_flat_neg_ascale.nbm", [](FlatConv& c, FlatLinear&) {
    c.act_scale = -1.0f;
  });
  expect_load_rejects("nb_flat_nan_ascale.nbm", [=](FlatConv& c, FlatLinear&) {
    c.act_scale = kNan;
  });
  expect_load_rejects("nb_flat_inf_ascale.nbm", [=](FlatConv&, FlatLinear& l) {
    l.act_scale = kInf;
  });
  expect_load_rejects("nb_flat_nan_wscale.nbm", [=](FlatConv& c, FlatLinear&) {
    c.weight_scales.back() = kNan;
  });
  expect_load_rejects("nb_flat_inf_wscale.nbm", [=](FlatConv&, FlatLinear& l) {
    l.weight_scales.front() = kInf;
  });
  expect_load_rejects("nb_flat_inf_bias.nbm", [=](FlatConv& c, FlatLinear&) {
    c.bias.front() = -kInf;
  });
  expect_load_rejects("nb_flat_nan_lbias.nbm", [=](FlatConv&, FlatLinear& l) {
    l.bias.back() = kNan;
  });
}

TEST(FlatModelIo, MalformedProgramRejectedAtRun) {
  FlatModel model;
  FlatOp add;
  add.kind = OpKind::add_saved;
  model.push(add);
  Tensor x({1, 3, 8, 8});
  EXPECT_THROW(model.forward(x, Backend::fast), std::runtime_error);
  FlatModel empty;
  EXPECT_THROW(empty.forward(x, Backend::fast), std::runtime_error);
}

// The artifact must track the training-side model at any weight precision.
class FlatBitWidth : public ::testing::TestWithParam<int> {};

TEST_P(FlatBitWidth, RuntimeTracksModelAtEveryPrecision) {
  const int bits = GetParam();
  auto model =
      models::make_model("mbv2-tiny", calib_data().num_classes(), 7);
  quant::DeployConfig cfg;
  cfg.spec.weight_bits = bits;
  cfg.calib_batches = 2;
  cfg.batch_size = 16;
  quant::quantize_for_deployment(*model, calib_data(), cfg);
  const FlatModel flat = to_flat_model(*model, 20);

  Rng rng(40 + static_cast<uint64_t>(bits), 1);
  Tensor x({2, 3, 20, 20});
  fill_uniform(x, rng, -1.0f, 1.0f);
  model->set_training(false);
  const float diff =
      max_abs_diff(model->forward(x), flat.forward(x, Backend::fast));
  EXPECT_LT(diff, 5e-3f) << "bits=" << bits;
}

INSTANTIATE_TEST_SUITE_P(Bits, FlatBitWidth, ::testing::Values(4, 6, 8));

}  // namespace
}  // namespace nb::exporter
