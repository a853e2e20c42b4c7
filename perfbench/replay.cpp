#include "replay.h"

#include <algorithm>
#include <cstring>

#include "export/plan_verify.h"
#include "export/qmodel.h"
#include "infer.h"
#include "quant/quantize.h"
#include "runtime/session.h"
#include "serve.h"
#include "tensor/depthwise.h"
#include "tensor/gemm.h"
#include "tensor/gemm_s8.h"
#include "tensor/im2col.h"
#include "tensor/threadpool.h"

namespace pb {

using nb::exporter::Backend;
using nb::exporter::FlatAct;
using nb::exporter::OpKind;
using nb::exporter::StepTable;

namespace {

constexpr float kRangeLo[3] = {-1.0f, 0.0f, -4.0f};
constexpr float kRangeHi[3] = {1.0f, 6.0f, 4.0f};

/// The kernel classes a replay pass times.
enum Kernel { kActQuant, kIm2col, kGemm, kDepthwise, kRequant, kKernels };
const char* const kKernelNames[kKernels] = {
    "quant.act_quant", "tensor.im2col", "tensor.gemm", "tensor.depthwise",
    "export.requant"};

/// One planned conv or linear step as the replay runs it: the plan's own
/// table row, plus what the tables leave out — the op's activation and bit
/// width (plan steps map 1:1 to program ops), the value range of its input
/// and its im2col panel size.
struct Step {
  size_t index = 0;
  StepTable t;
  FlatAct act = FlatAct::identity;
  int act_bits = 8;
  int range = 0;      // input activation range: 0 image, 1 relu, 2 signed
  int64_t cols = 0;   // im2col panel elements (lowered convs)
  int64_t macs = 0;
};

std::vector<Step> replay_steps(const nb::exporter::PlanTables& tables,
                               const nb::exporter::FlatModel& program) {
  std::vector<Step> out;
  int range = 0;
  for (size_t i = 0; i < tables.steps.size(); ++i) {
    const StepTable& t = tables.steps[i];
    const nb::exporter::FlatOp& op = program.ops()[i];
    if (t.kind == OpKind::conv || t.kind == OpKind::linear) {
      Step s;
      s.index = i;
      s.t = t;
      s.range = range;
      if (t.kind == OpKind::conv) {
        const int64_t taps = (t.cin / t.groups) * t.kernel * t.kernel;
        s.act = op.conv.act;
        s.act_bits = op.conv.act_bits;
        s.macs = t.out_floats * taps;
        if (!t.depthwise) s.cols = taps * tables.batch * t.out_h * t.out_w;
      } else {
        s.act_bits = op.linear.act_bits;
        s.macs = tables.batch * t.cin * t.cout;
      }
      out.push_back(s);
    }
    if (t.kind == OpKind::conv) {
      range = op.conv.act == FlatAct::identity ? 2 : 1;
    } else if (t.kind == OpKind::add_saved || t.kind == OpKind::linear) {
      range = 2;
    }
  }
  return out;
}

/// Buffers one replay pass works in, sized for the largest step.
struct Buffers {
  std::vector<float> pristine[3];  // one per activation range
  std::vector<float> in, out, cols;
  std::vector<uint8_t> qin, qcols;
  std::vector<int32_t> acc;
};

Buffers make_buffers(const std::vector<Step>& steps, bool int8,
                     uint64_t seed) {
  int64_t in_max = 0, out_max = 0, cols_max = 0;
  for (const Step& s : steps) {
    in_max = std::max(in_max, s.t.in_floats);
    out_max = std::max(out_max, s.t.out_floats);
    cols_max = std::max(cols_max, s.cols);
  }
  Buffers b;
  SplitMix rng(seed);
  for (int r = 0; r < 3; ++r) {
    b.pristine[r].resize(static_cast<size_t>(in_max));
    for (float& v : b.pristine[r]) {
      v = kRangeLo[r] +
          static_cast<float>(rng.uniform()) * (kRangeHi[r] - kRangeLo[r]);
    }
  }
  b.in.resize(static_cast<size_t>(in_max));
  b.qin.resize(static_cast<size_t>(in_max));
  b.out.resize(static_cast<size_t>(out_max));
  b.acc.resize(static_cast<size_t>(out_max));
  if (int8) {
    b.qcols.resize(static_cast<size_t>(cols_max));
  } else {
    b.cols.resize(static_cast<size_t>(cols_max));
  }
  return b;
}

/// Times the kernel calls of one replay pass: each call's wall time goes to
/// its kernel class and to its step, and each call is a span under the
/// pass span, with the step index as request id. Kernel spans have no
/// children, so their durations are their self times.
class PassTimer {
 public:
  PassTimer(Tracer& tracer, int32_t pass, size_t steps)
      : step_ms(steps, 0.0), tracer_(tracer), pass_(pass) {}

  template <class F>
  void time(Kernel k, size_t step, F&& call) {
    const Clock::time_point t0 = Clock::now();
    call();
    const Clock::time_point t1 = Clock::now();
    const double ms = ms_between(t0, t1);
    kernel_ms[k] += ms;
    step_ms[step] += ms;
    tracer_.record(kKernelNames[k], t0, t1, pass_, static_cast<int64_t>(step));
  }

  double kernel_ms[kKernels] = {};
  std::vector<double> step_ms;  // by position in the replayed steps
  int64_t macs = 0;             // conv MACs the kernel calls covered

 private:
  Tracer& tracer_;
  int32_t pass_;
};

/// Runs one replay pass: every conv/linear step's activation quantization,
/// and every conv step's kernels (the linear head runs as plan glue).
void replay_pass(const std::vector<Step>& steps, int64_t n, bool int8,
                 const nb::exporter::WeightPanels& wp, Buffers& b,
                 PassTimer& timer) {
  for (size_t si = 0; si < steps.size(); ++si) {
    const Step& step = steps[si];
    const StepTable& s = step.t;
    const nb::exporter::OpPanel& p = wp.at(step.index);
    std::memcpy(b.in.data(), b.pristine[step.range].data(),
                static_cast<size_t>(s.in_floats) * sizeof(float));
    if (int8) {
      timer.time(kActQuant, si, [&] {
        nb::quant::quantize_levels_u8(b.in.data(), b.qin.data(), s.in_floats,
                                      s.act_scale, step.act_bits);
      });
    } else if (s.act_scale > 0.0f) {
      timer.time(kActQuant, si, [&] {
        nb::quant::fake_quant_buffer(b.in.data(), s.in_floats, s.act_scale,
                                     step.act_bits);
      });
    }
    if (s.kind == OpKind::linear) continue;

    const int64_t in_hw = s.in_h * s.in_w;
    const int64_t plane = s.out_h * s.out_w;
    const int64_t row = n * plane;
    const int64_t k = s.kernel;
    // Requantizes `rows` accumulator rows of `len` elements, row r of
    // output channel r / per_channel (int8 only).
    const auto requant = [&](int64_t rows, int64_t per_channel, int64_t len,
                             int64_t stride) {
      timer.time(kRequant, si, [&] {
        for (int64_t r = 0; r < rows; ++r) {
          const auto o = static_cast<size_t>(r / per_channel);
          const int64_t off = (r / per_channel) * stride +
                              (r % per_channel) * len;
          nb::exporter::requantize_row(
              b.out.data() + off, b.acc.data() + off, len,
              p.scales[o] * s.act_scale, p.bias.empty() ? 0.0f : p.bias[o],
              step.act);
        }
      });
    };
    if (s.depthwise) {
      timer.time(kDepthwise, si, [&] {
        for (int64_t pl = 0; pl < s.cout * n; ++pl) {
          const int64_t ch = pl / n, i = pl % n;
          const int64_t o = ch * row + i * plane;
          if (int8) {
            nb::depthwise_plane_s8(b.qin.data() + (ch * n + i) * in_hw,
                                   p.wq.data() + ch * k * k, b.acc.data() + o,
                                   s.in_h, s.in_w, s.out_h, s.out_w, k,
                                   s.stride, s.pad);
          } else {
            nb::depthwise_plane(b.in.data() + (ch * n + i) * in_hw,
                                p.wf.data() + ch * k * k, b.out.data() + o,
                                s.in_h, s.in_w, s.out_h, s.out_w, k, s.stride,
                                s.pad, 0.0f);
          }
        }
      });
      timer.macs += s.cout * n * plane * k * k;
      if (int8) requant(s.cout * n, n, plane, row);
      continue;
    }
    const int64_t cin_g = s.cin / s.groups;
    const int64_t cout_g = s.cout / s.groups;
    const int64_t col_rows = cin_g * k * k;
    for (int64_t g = 0; g < s.groups; ++g) {
      const int64_t in_off = g * cin_g * n * in_hw;
      if (int8) {
        timer.time(kIm2col, si, [&] {
          nb::im2col_s8_batched(b.qin.data() + in_off, n, in_hw, n * in_hw,
                                cin_g, s.in_h, s.in_w, k, k, s.stride,
                                s.stride, s.pad, s.pad, b.qcols.data());
        });
        timer.time(kGemm, si, [&] {
          nb::gemm_s8(cout_g, row, col_rows,
                      p.wq.data() + g * cout_g * col_rows, b.qcols.data(),
                      b.acc.data() + g * cout_g * row);
        });
      } else {
        timer.time(kIm2col, si, [&] {
          nb::im2col_batched(b.in.data() + in_off, n, in_hw, n * in_hw, cin_g,
                             s.in_h, s.in_w, k, k, s.stride, s.stride, s.pad,
                             s.pad, b.cols.data());
        });
        timer.time(kGemm, si, [&] {
          nb::gemm(false, false, cout_g, row, col_rows, 1.0f,
                   p.wf.data() + g * cout_g * col_rows, b.cols.data(), 0.0f,
                   b.out.data() + g * cout_g * row);
        });
      }
      timer.macs += cout_g * row * col_rows;
    }
    if (int8) requant(s.cout, 1, row, row);
  }
}

std::string describe(const StepTable& s) {
  if (s.kind == OpKind::linear) {
    return strf("linear %lldx%lld", static_cast<long long>(s.cin),
                static_cast<long long>(s.cout));
  }
  return strf("%s k%lld s%lld %lldx%lldx%lld->%lld",
              s.depthwise ? "dw" : "conv", static_cast<long long>(s.kernel),
              static_cast<long long>(s.stride),
              static_cast<long long>(s.in_c), static_cast<long long>(s.in_h),
              static_cast<long long>(s.in_w), static_cast<long long>(s.cout));
}

}  // namespace

ReplayReport replay_config(const ReplayConfig& cfg, Tracer& tracer,
                           double budget_s, uint64_t seed) {
  const nb::runtime::CompiledModel& m = *cfg.model;
  const bool int8 = m.backend() == Backend::int8;
  const int64_t c = m.input_channels();
  // Every config replays serially, the way its serving sessions run.
  nb::SerialScope serial;
  const nb::exporter::InferPlan plan(m.program(), m.panels(), cfg.batch, c,
                                     cfg.h, cfg.w, m.backend());
  const nb::exporter::PlanTables tables = nb::exporter::plan_tables(plan);
  const std::vector<Step> steps = replay_steps(tables, m.program());
  Buffers buf = make_buffers(steps, int8, derive_seed(seed, "replay-buffers"));

  nb::Tensor x({cfg.batch, c, cfg.h, cfg.w});
  SplitMix rng(derive_seed(seed, "replay-input"));
  for (int64_t i = 0; i < x.numel(); ++i) {
    x.data()[i] = static_cast<float>(rng.uniform() * 2.0 - 1.0);
  }

  ReplayReport r;
  r.cfg = cfg.name;
  r.int8 = int8;
  r.stats = plan.stats();
  r.arena_bytes = r.stats.arena_bytes() + r.stats.arena_int8_bytes;
  r.steps_walked = static_cast<int64_t>(tables.steps.size());
  nb::runtime::Session session(cfg.model);

  // Plan build as the runtime pays it: a fresh session's first run minus a
  // steady-state run of the same geometry.
  std::vector<double> first_runs;
  for (int i = 0; i < 3; ++i) {
    nb::runtime::Session fresh(cfg.model);
    const auto t0 = Clock::now();
    (void)fresh.run(x);
    first_runs.push_back(ms_between(t0, Clock::now()));
  }
  Tracer off(false);
  for (int i = 0; i < 2; ++i) {
    (void)plan.run(x);
    (void)session.run(x);
    PassTimer warm(off, -1, steps.size());
    replay_pass(steps, tables.batch, int8, *m.panels(), buf, warm);
  }

  std::vector<double> plan_ms, session_ms;
  std::vector<double> kernel_ms[kKernels];
  std::vector<std::vector<double>> step_ms(steps.size());
  const auto start = Clock::now();
  while (r.passes < 5 || (r.passes < 60 && seconds_since(start) < budget_s)) {
    {
      Scope s(tracer, "export.plan_run." + cfg.name);
      const auto t0 = Clock::now();
      (void)plan.run(x);
      plan_ms.push_back(ms_between(t0, Clock::now()));
    }
    {
      Scope s(tracer, "runtime.session_run." + cfg.name);
      const auto t0 = Clock::now();
      (void)session.run(x);
      session_ms.push_back(ms_between(t0, Clock::now()));
    }
    Scope pass(tracer, "replay.pass." + cfg.name);
    PassTimer timer(tracer, pass.id(), steps.size());
    replay_pass(steps, tables.batch, int8, *m.panels(), buf, timer);
    for (int k = 0; k < kKernels; ++k) kernel_ms[k].push_back(timer.kernel_ms[k]);
    for (size_t i = 0; i < steps.size(); ++i) {
      step_ms[i].push_back(timer.step_ms[i]);
    }
    r.executed_macs = timer.macs;
    ++r.passes;
  }

  r.plan_run_ms = median(plan_ms);
  r.session_run_ms = median(session_ms);
  r.plan_build_ms = std::max(0.0, median(first_runs) - r.session_run_ms);
  r.act_quant_ms = median(kernel_ms[kActQuant]);
  r.im2col_ms = median(kernel_ms[kIm2col]);
  r.gemm_ms = median(kernel_ms[kGemm]);
  r.depthwise_ms = median(kernel_ms[kDepthwise]);
  r.requant_ms = median(kernel_ms[kRequant]);
  r.glue_ms = r.plan_run_ms - (r.act_quant_ms + r.im2col_ms + r.gemm_ms +
                               r.depthwise_ms + r.requant_ms);

  for (size_t i = 0; i < steps.size(); ++i) {
    const Step& s = steps[i];
    if (int8 || s.t.act_scale > 0.0f) {
      // Bytes read + written by the activation pass, from tensor sizes.
      r.act_bytes += s.t.in_floats * (int8 ? 4 + 1 : 4 + 4);
    }
    if (int8) r.qin_max = std::max(r.qin_max, s.t.in_floats);
    r.cols_max = std::max(r.cols_max, s.cols);
    if (s.t.kind == OpKind::conv) {
      (s.t.depthwise ? r.depthwise_macs : r.gemm_macs) += s.macs;
    }
    r.steps.push_back({s.index, describe(s.t), median(step_ms[i]), s.macs});
  }
  std::sort(r.steps.begin(), r.steps.end(),
            [](const StepRow& a, const StepRow& b) { return a.ms > b.ms; });
  return r;
}

void report_replay(const ReplayReport& r, Result& result) {
  const std::string& c = r.cfg;
  const auto gops = [](int64_t macs, double ms) {
    return ms > 0.0 ? 2.0 * static_cast<double>(macs) / (ms * 1e6) : 0.0;
  };
  result.add_layer("quant.act_quant_ms." + c, r.act_quant_ms, "ms", r.passes);
  result.add_layer("quant.act_bytes." + c, static_cast<double>(r.act_bytes),
                   "bytes", 1);
  result.add_layer("tensor.im2col_ms." + c, r.im2col_ms, "ms", r.passes);
  result.add_layer("tensor.gemm_ms." + c, r.gemm_ms, "ms", r.passes);
  result.add_layer("tensor.gemm_gops." + c, gops(r.gemm_macs, r.gemm_ms),
                   "GOP/s", r.passes);
  result.add_layer("tensor.gemm_macs." + c, static_cast<double>(r.gemm_macs),
                   "MAC", 1);
  result.add_layer("tensor.depthwise_ms." + c, r.depthwise_ms, "ms",
                   r.passes);
  result.add_layer("tensor.depthwise_gops." + c,
                   gops(r.depthwise_macs, r.depthwise_ms), "GOP/s", r.passes);
  result.add_layer("tensor.depthwise_macs." + c,
                   static_cast<double>(r.depthwise_macs), "MAC", 1);
  if (r.int8) {
    result.add_layer("export.requant_ms." + c, r.requant_ms, "ms", r.passes);
  }
  result.add_layer("export.plan_run_ms." + c, r.plan_run_ms, "ms", r.passes);
  result.add_layer("export.glue_ms." + c, r.glue_ms, "ms", r.passes);
  result.add_layer("export.arena_bytes." + c,
                   static_cast<double>(r.arena_bytes), "bytes", 1);
  result.add_layer("runtime.session_run_ms." + c, r.session_run_ms, "ms",
                   r.passes);
  if (c == "r32b8_fast") {
    // The serving rung: an Engine worker builds this plan on its serving
    // path whenever its plan cache misses the batch size.
    result.add_layer("runtime.plan_build_ms." + c, r.plan_build_ms, "ms", 3);
  }

  // The layer table: where this config's plan time goes.
  struct Row {
    const char* name;
    double ms;
    std::string work;
  };
  const auto gbs = [](int64_t bytes, double ms) {
    return ms > 0.0 ? static_cast<double>(bytes) / (ms * 1e6) : 0.0;
  };
  std::vector<Row> rows = {
      {"quant.act_quant", r.act_quant_ms,
       strf("%.2f MB, %.2f GB/s", static_cast<double>(r.act_bytes) / 1e6,
            gbs(r.act_bytes, r.act_quant_ms))},
      {"tensor.im2col", r.im2col_ms, ""},
      {"tensor.gemm", r.gemm_ms,
       strf("%.1f MMAC, %.2f GOP/s", static_cast<double>(r.gemm_macs) / 1e6,
            gops(r.gemm_macs, r.gemm_ms))},
      {"tensor.depthwise", r.depthwise_ms,
       strf("%.1f MMAC, %.2f GOP/s",
            static_cast<double>(r.depthwise_macs) / 1e6,
            gops(r.depthwise_macs, r.depthwise_ms))},
      {"export.glue", r.glue_ms,
       "epilogue, save/add, GAP, linear, layout"},
  };
  if (r.int8) rows.push_back({"export.requant", r.requant_ms, ""});
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.ms > b.ms; });
  result.note(strf("layer table %s: plan_run %.3f ms, session_run %.3f ms, "
                   "arena %lld B, %lld passes",
                   c.c_str(), r.plan_run_ms, r.session_run_ms,
                   static_cast<long long>(r.arena_bytes),
                   static_cast<long long>(r.passes)));
  for (const Row& row : rows) {
    result.note(strf("  %-18s %9.3f ms %6.1f%%  %s", row.name, row.ms,
                     100.0 * row.ms / r.plan_run_ms, row.work.c_str()));
  }
  result.note("  top steps (replayed kernels only):");
  for (size_t i = 0; i < r.steps.size() && i < 8; ++i) {
    const StepRow& s = r.steps[i];
    result.note(strf("    #%-3zu %-32s %8.3f ms %6.1f%% %9.2f MMAC %7.2f GOP/s",
                     s.step, s.what.c_str(), s.ms,
                     100.0 * s.ms / r.plan_run_ms,
                     static_cast<double>(s.macs) / 1e6, gops(s.macs, s.ms)));
  }
}

std::vector<ReplayConfig> replay_configs(uint64_t seed) {
  std::vector<ReplayConfig> out;
  for (const InferConfig& c : infer_configs()) {
    out.push_back({c.name,
                   nb::runtime::CompiledModel::compile(
                       make_infer_graph(c, seed), c.backend),
                   1, c.resolution, c.resolution});
  }
  out.push_back({"r32b8_fast",
                 nb::runtime::CompiledModel::compile(
                     make_serve_model(derive_seed(seed, "serve-weights")),
                     Backend::fast),
                 8, 32, 32});
  return out;
}

void run_replay(const Args& args, double budget_s, Tracer& tracer,
                Result& result) {
  for (const ReplayConfig& cfg : replay_configs(args.seed)) {
    report_replay(replay_config(cfg, tracer, budget_s, args.seed), result);
  }
}

}  // namespace pb
