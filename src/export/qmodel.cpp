#include "export/qmodel.h"

#include "quant/quantize.h"
#include "tensor/gemm_s8.h"
#include "tensor/requantize.h"

namespace nb::exporter {

#if defined(NB_EXPORT_REQUANT_AVX2)
namespace detail {
void requantize_row_avx2(float* out, const int32_t* acc, int64_t n,
                         float scale, float bias, FlatAct act);
}  // namespace detail
#endif

namespace {

// One loop per activation: with the activation a constant, its test folds
// out of the loop.
template <RequantAct kAct>
void requantize_scalar(float* out, const int32_t* acc, int64_t n, float scale,
                       float bias) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] = requantize<ScalarLanes>(acc[i], scale, bias, kAct);
  }
}

/// Int8 levels of one quantized activation tensor (offset-u8 storage).
std::vector<uint8_t> quantize_tensor(const Tensor& x, float scale, int bits) {
  std::vector<uint8_t> q(static_cast<size_t>(x.numel()));
  quant::quantize_levels_u8(x.data(), q.data(), x.numel(), scale, bits);
  return q;
}

Tensor run_conv_q(const FlatConv& op, const Tensor& x, const float* eff) {
  NB_CHECK(x.dim() == 4, "qmodel conv: input must be NCHW");
  NB_CHECK(x.size(1) == op.cin, "qmodel conv: channel mismatch");
  const std::vector<uint8_t> q = quantize_tensor(x, op.act_scale, op.act_bits);
  const int64_t n = x.size(0);
  const int64_t in_h = x.size(2);
  const int64_t in_w = x.size(3);
  const int64_t out_h = (in_h + 2 * op.pad - op.kernel) / op.stride + 1;
  const int64_t out_w = (in_w + 2 * op.pad - op.kernel) / op.stride + 1;
  const int64_t cin_g = op.cin / op.groups;
  const int64_t cout_g = op.cout / op.groups;
  const int64_t plane = out_h * out_w;

  Tensor y({n, op.cout, out_h, out_w});
  float* yp = y.data();
  std::vector<int32_t> acc(static_cast<size_t>(plane));
  for (int64_t img = 0; img < n; ++img) {
    for (int64_t o = 0; o < op.cout; ++o) {
      const int64_t g = o / cout_g;
      const int8_t* w =
          op.weights.data() + o * cin_g * op.kernel * op.kernel;
      for (int64_t oy = 0; oy < out_h; ++oy) {
        for (int64_t ox = 0; ox < out_w; ++ox) {
          // Exact int32 MAC over the in-bounds taps; skipped taps are
          // offset level 0 and contribute nothing, like the fast path's
          // 128-padded columns.
          int32_t a = 0;
          for (int64_t ic = 0; ic < cin_g; ++ic) {
            const int64_t channel = g * cin_g + ic;
            const uint8_t* xplane =
                q.data() + (img * op.cin + channel) * in_h * in_w;
            const int8_t* wk = w + ic * op.kernel * op.kernel;
            for (int64_t ky = 0; ky < op.kernel; ++ky) {
              const int64_t iy = oy * op.stride + ky - op.pad;
              if (iy < 0 || iy >= in_h) continue;
              for (int64_t kx = 0; kx < op.kernel; ++kx) {
                const int64_t ix = ox * op.stride + kx - op.pad;
                if (ix < 0 || ix >= in_w) continue;
                a += static_cast<int32_t>(wk[ky * op.kernel + kx]) *
                     (static_cast<int32_t>(xplane[iy * in_w + ix]) - 128);
              }
            }
          }
          acc[static_cast<size_t>(oy * out_w + ox)] = a;
        }
      }
      const float b = op.has_bias ? op.bias[static_cast<size_t>(o)] : 0.0f;
      requantize_row(yp + (img * op.cout + o) * plane, acc.data(), plane,
                     eff[o], b, op.act);
    }
  }
  return y;
}

Tensor run_gap_q(const Tensor& x) {
  const int64_t n = x.size(0);
  const int64_t c = x.size(1);
  const int64_t hw = x.size(2) * x.size(3);
  Tensor y({n, c});
  const float* xp = x.data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t ch = 0; ch < c; ++ch) {
      double s = 0.0;
      const float* plane = xp + (i * c + ch) * hw;
      for (int64_t t = 0; t < hw; ++t) s += plane[t];
      y.at(i, ch) = static_cast<float>(s / static_cast<double>(hw));
    }
  }
  return y;
}

Tensor run_linear_q(const FlatLinear& op, const Tensor& x, const float* eff) {
  NB_CHECK(x.dim() == 2 && x.size(1) == op.in,
           "qmodel linear: input shape mismatch");
  const std::vector<uint8_t> q = quantize_tensor(x, op.act_scale, op.act_bits);
  const int64_t n = x.size(0);
  Tensor y({n, op.out});
  std::vector<int32_t> acc(static_cast<size_t>(op.out));
  const float* bias = op.bias.empty() ? nullptr : op.bias.data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t o = 0; o < op.out; ++o) {
      const int8_t* w = op.weights.data() + o * op.in;
      const uint8_t* xrow = q.data() + i * op.in;
      int32_t a = 0;
      for (int64_t k = 0; k < op.in; ++k) {
        a += static_cast<int32_t>(w[k]) *
             (static_cast<int32_t>(xrow[k]) - 128);
      }
      acc[static_cast<size_t>(o)] = a;
    }
    requantize_linear_row(y.data() + i * op.out, acc.data(), eff, bias,
                          op.out);
  }
  return y;
}

}  // namespace

// Both epilogues evaluate the one requantize expression of
// tensor/requantize.h, which the gemm_s8 epilogue evaluates too; this TU
// and the AVX2 one build with -ffp-contract=off, so every copy rounds the
// multiply and the add on their own.
void requantize_row(float* out, const int32_t* acc, int64_t n, float scale,
                    float bias, FlatAct act) {
#if defined(NB_EXPORT_REQUANT_AVX2)
  // The epilogue runs over every depthwise output element, so width
  // matters; the AVX2 instance is the same expression eight lanes wide.
  static const bool use_avx2 = __builtin_cpu_supports("avx2");
  if (use_avx2) {
    detail::requantize_row_avx2(out, acc, n, scale, bias, act);
    return;
  }
#endif
  switch (act) {
    case FlatAct::identity:
      requantize_scalar<RequantAct::identity>(out, acc, n, scale, bias);
      return;
    case FlatAct::relu:
      requantize_scalar<RequantAct::relu>(out, acc, n, scale, bias);
      return;
    case FlatAct::relu6:
      requantize_scalar<RequantAct::relu6>(out, acc, n, scale, bias);
      return;
  }
}

void requantize_linear_row(float* out, const int32_t* acc, const float* eff,
                           const float* bias, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] = requantize<ScalarLanes>(acc[i], eff[i],
                                     bias == nullptr ? 0.0f : bias[i],
                                     RequantAct::identity);
  }
}

bool int8_compatible(const FlatModel& model, std::string* reason) {
  const auto fail = [&](size_t i, const char* what, const char* why) {
    if (reason != nullptr) {
      *reason = "op " + std::to_string(i) + " (" + what + "): " + why;
    }
    return false;
  };
  for (size_t i = 0; i < model.ops().size(); ++i) {
    const FlatOp& op = model.ops()[i];
    if (op.kind == OpKind::conv) {
      const FlatConv& c = op.conv;
      if (!(c.act_scale > 0.0f)) {
        return fail(i, "conv", "act_scale not calibrated (must be > 0)");
      }
      if (c.act_bits < 2 || c.act_bits > 8) {
        return fail(i, "conv", "act_bits outside [2, 8]");
      }
      if (c.weight_bits > 8) {
        return fail(i, "conv", "weight_bits > 8");
      }
    } else if (op.kind == OpKind::linear) {
      const FlatLinear& l = op.linear;
      if (!(l.act_scale > 0.0f)) {
        return fail(i, "linear", "act_scale not calibrated (must be > 0)");
      }
      if (l.act_bits < 2 || l.act_bits > 8) {
        return fail(i, "linear", "act_bits outside [2, 8]");
      }
      if (l.weight_bits > 8) {
        return fail(i, "linear", "weight_bits > 8");
      }
    }
  }
  return true;
}

QModel::QModel(const FlatModel& model) : model_(&model) {
  std::string reason;
  NB_CHECK(int8_compatible(model, &reason),
           "qmodel: program not int8-compatible: " + reason);
  eff_.resize(model.ops().size());
  for (size_t i = 0; i < model.ops().size(); ++i) {
    const FlatOp& op = model.ops()[i];
    if (op.kind == OpKind::conv) {
      const FlatConv& c = op.conv;
      NB_CHECK((c.cin / c.groups) * c.kernel * c.kernel <= kGemmS8MaxK,
               "qmodel: conv reduction exceeds the int32-exact bound");
      eff_[i].resize(static_cast<size_t>(c.cout));
      for (int64_t o = 0; o < c.cout; ++o) {
        eff_[i][static_cast<size_t>(o)] =
            c.weight_scales[static_cast<size_t>(o)] * c.act_scale;
      }
    } else if (op.kind == OpKind::linear) {
      const FlatLinear& l = op.linear;
      NB_CHECK(l.in <= kGemmS8MaxK,
               "qmodel: linear reduction exceeds the int32-exact bound");
      eff_[i].resize(static_cast<size_t>(l.out));
      for (int64_t o = 0; o < l.out; ++o) {
        eff_[i][static_cast<size_t>(o)] =
            l.weight_scales[static_cast<size_t>(o)] * l.act_scale;
      }
    }
  }
}

Tensor QModel::forward(const Tensor& input) const {
  NB_CHECK(!model_->ops().empty(), "qmodel: empty program");
  Tensor x = input.clone();
  std::vector<Tensor> saved;
  for (size_t i = 0; i < model_->ops().size(); ++i) {
    const FlatOp& op = model_->ops()[i];
    switch (op.kind) {
      case OpKind::save:
        saved.push_back(x.clone());
        break;
      case OpKind::add_saved:
        NB_CHECK(!saved.empty() && x.same_shape(saved.back()),
                 saved.empty() ? "qmodel: ADD without SAVE"
                               : "qmodel: residual shape mismatch at ADD");
        x.add_(saved.back());
        saved.pop_back();
        break;
      case OpKind::conv:
        x = run_conv_q(op.conv, x, eff_[i].data());
        break;
      case OpKind::gap:
        x = run_gap_q(x);
        break;
      case OpKind::linear:
        x = run_linear_q(op.linear, x, eff_[i].data());
        break;
    }
  }
  return x;
}

}  // namespace nb::exporter
