#include "export/infer_plan.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "export/plan_verify.h"
#include "export/qmodel.h"
#include "quant/quantize.h"
#include "tensor/depthwise.h"
#include "tensor/gemm.h"
#include "tensor/gemm_s8.h"
#include "tensor/im2col.h"
#include "tensor/threadpool.h"

namespace nb::exporter {

namespace {

/// Fused epilogue, in place over one contiguous output row: per-channel
/// rescale of the raw integer-level accumulator, bias, and the activation
/// clamp, all in the same store. Scalar expressions match the reference
/// interpreter's `acc * scale + b` followed by apply_act_ exactly.
void store_row(float* row, int64_t count, float scale, float b, FlatAct act) {
  switch (act) {
    case FlatAct::identity:
      for (int64_t p = 0; p < count; ++p) row[p] = row[p] * scale + b;
      return;
    case FlatAct::relu:
      for (int64_t p = 0; p < count; ++p) {
        row[p] = std::max(row[p] * scale + b, 0.0f);
      }
      return;
    case FlatAct::relu6:
      for (int64_t p = 0; p < count; ++p) {
        row[p] = std::clamp(row[p] * scale + b, 0.0f, 6.0f);
      }
      return;
  }
}

/// One float buffer: `floats` live from step `first` through step `last`
/// (both inclusive), placed at `off`.
struct LiveRange {
  int64_t floats = 0, first = 0, last = 0;
  int64_t off = 0;
};

/// Greedy by size (Pisarchyk & Lee 2020): largest buffer first (ties in
/// creation order), each into the smallest gap that fits among the placed
/// buffers whose ranges overlap its own, else above the highest of them.
/// Returns the arena size.
int64_t place_greedy_by_size(std::vector<LiveRange>& bufs) {
  std::vector<size_t> order(bufs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return bufs[a].floats > bufs[b].floats;
  });
  std::vector<size_t> placed;  // by ascending offset
  int64_t arena = 0;
  for (const size_t id : order) {
    LiveRange& b = bufs[id];
    int64_t best = -1, best_gap = 0, top = 0;
    for (const size_t p : placed) {
      const LiveRange& q = bufs[p];
      if (q.last < b.first || b.last < q.first) continue;  // never co-live
      const int64_t gap = q.off - top;
      if (gap >= b.floats && (best < 0 || gap < best_gap)) {
        best = top;
        best_gap = gap;
      }
      top = std::max(top, q.off + q.floats);
    }
    b.off = best >= 0 ? best : top;
    arena = std::max(arena, b.off + b.floats);
    placed.insert(std::upper_bound(placed.begin(), placed.end(), b.off,
                                   [&](int64_t off, size_t p) {
                                     return off < bufs[p].off;
                                   }),
                  id);
  }
  return arena;
}

}  // namespace

PlanTables plan_program(const FlatModel& model, int64_t batch,
                        int64_t channels, int64_t in_h, int64_t in_w,
                        Backend backend) {
  NB_CHECK(batch > 0 && channels > 0 && in_h > 0 && in_w > 0,
           "infer plan: bad input geometry");
  NB_CHECK(!model.ops().empty(), "flat model: empty program");
  NB_CHECK(backend != Backend::reference,
           "infer plan: the reference interpreter has no plan");
  const bool i8 = backend == Backend::int8;
  if (i8) {
    std::string reason;
    NB_CHECK(int8_compatible(model, &reason),
             "infer plan: program not int8-compatible: " + reason);
  }

  PlanTables t;
  t.backend = backend;
  t.batch = batch;
  t.channels = channels;
  t.in_h = in_h;
  t.in_w = in_w;
  t.ops = static_cast<int64_t>(model.ops().size());

  // Symbolic walk. Every buffer gets a live range; each step records the
  // buffers it reads and writes (indices into `bufs`), resolved to offsets
  // once placement is done. Every step reads the current activation, so
  // the last one stays live through the last step.
  struct Uses {
    size_t in = 0, out = 0;
    int64_t cols = -1, save = -1;  // buffer index, or -1
  };
  struct Saved {
    size_t buf;
    int64_t c, h, w;
  };
  std::vector<LiveRange> bufs;
  std::vector<Uses> uses;
  std::vector<Saved> saves;  // the residual stack
  uses.reserve(model.ops().size());
  bool spatial = true;
  int64_t c = channels, h = in_h, w = in_w;
  size_t cur = 0;
  bufs.push_back({batch * c * h * w, 0, 0});  // the entry input
  int64_t cols_max = 0;
  // Largest conv/linear input in elements — the int8 plan's quantized-input
  // byte region must hold any of them (one byte per element).
  int64_t qin_max = 0;

  for (size_t op_i = 0; op_i < model.ops().size(); ++op_i) {
    const FlatOp& op = model.ops()[op_i];
    const auto step = static_cast<int64_t>(op_i);
    const auto produce = [&](int64_t floats) {
      bufs.push_back({floats, step, step});
      return bufs.size() - 1;
    };
    StepTable s;
    s.kind = op.kind;
    s.in_c = c;
    s.in_h = h;
    s.in_w = w;
    s.in_floats = bufs[cur].floats;
    bufs[cur].last = step;
    Uses u{cur, cur};
    switch (op.kind) {
      case OpKind::save:
        u.save = static_cast<int64_t>(produce(s.in_floats));
        saves.push_back({static_cast<size_t>(u.save), c, h, w});
        break;
      case OpKind::add_saved: {
        NB_CHECK(!saves.empty(), "flat model: ADD without SAVE");
        const Saved& top = saves.back();
        NB_CHECK(top.c == c && top.h == h && top.w == w,
                 "flat model: residual shape mismatch at ADD");
        u.save = static_cast<int64_t>(top.buf);
        bufs[top.buf].last = step;
        saves.pop_back();
        break;
      }
      case OpKind::conv: {
        const FlatConv& cv = op.conv;
        NB_CHECK(spatial, "flat conv: input must be NCHW");
        NB_CHECK(c == cv.cin, "flat conv: channel mismatch");
        const int64_t oh = conv_out_size(h, cv.kernel, cv.stride, cv.pad);
        const int64_t ow = conv_out_size(w, cv.kernel, cv.stride, cv.pad);
        NB_CHECK(oh > 0 && ow > 0, "flat conv: empty output plane");
        s.stride = cv.stride;
        s.pad = cv.pad;
        s.groups = cv.groups;
        s.cout = cv.cout;
        s.cin = cv.cin;
        s.kernel = cv.kernel;
        s.act_scale = cv.act_scale;
        s.depthwise = cv.groups == cv.cin && cv.groups == cv.cout;
        if (i8) {
          NB_CHECK((cv.cin / cv.groups) * cv.kernel * cv.kernel <=
                       kGemmS8MaxK,
                   "infer plan: conv reduction exceeds the int32-exact "
                   "bound of the int8 backend");
          qin_max = std::max(qin_max, s.in_floats);
          s.eff_count = cv.cout;
        }
        s.out_h = oh;
        s.out_w = ow;
        u.out = produce(batch * cv.cout * oh * ow);
        if (!s.depthwise) {
          // Columns of the whole micro-batch side by side (x batch): ONE
          // GEMM per group lowers every image at once, and its output is
          // already the batch-interleaved layout of the next activation.
          const int64_t cols =
              (cv.cin / cv.groups) * cv.kernel * cv.kernel * batch * oh * ow;
          cols_max = std::max(cols_max, cols);
          const bool direct = cv.kernel == 1 && cv.stride == 1 && cv.pad == 0;
          // An int8 plan's panel lives in the byte arena.
          if (!i8 && !direct) u.cols = static_cast<int64_t>(produce(cols));
        }
        c = cv.cout;
        h = oh;
        w = ow;
        break;
      }
      case OpKind::gap:
        NB_CHECK(spatial, "flat gap: input must be NCHW");
        u.out = produce(batch * c);
        spatial = false;
        h = 0;
        w = 0;
        break;
      case OpKind::linear: {
        const FlatLinear& ln = op.linear;
        NB_CHECK(!spatial, "flat linear: input must be 2-D (run GAP first)");
        NB_CHECK(c == ln.in, "flat linear: input feature mismatch");
        s.cin = ln.in;
        s.cout = ln.out;
        s.act_scale = ln.act_scale;
        if (i8) {
          NB_CHECK(ln.in <= kGemmS8MaxK,
                   "infer plan: linear reduction exceeds the int32-exact "
                   "bound of the int8 backend");
          qin_max = std::max(qin_max, s.in_floats);
          s.eff_count = ln.out;
        }
        u.out = produce(batch * ln.out);
        c = ln.out;
        break;
      }
    }
    s.out_floats = bufs[u.out].floats;
    cur = u.out;
    t.steps.push_back(s);
    uses.push_back(u);
  }

  t.arena_floats = place_greedy_by_size(bufs);
  for (int64_t step = 0; step < t.ops; ++step) {
    int64_t live = 0;
    for (const LiveRange& b : bufs) {
      if (b.first <= step && step <= b.last) live += b.floats;
    }
    t.peak_live_floats = std::max(t.peak_live_floats, live);
  }
  for (const LiveRange& b : bufs) t.no_reuse_floats += b.floats;
  const auto off = [&](int64_t buf) {
    return buf < 0 ? 0 : bufs[static_cast<size_t>(buf)].off;
  };
  for (size_t i = 0; i < t.steps.size(); ++i) {
    StepTable& s = t.steps[i];
    s.in_off = bufs[uses[i].in].off;
    s.out_off = bufs[uses[i].out].off;
    s.cols_off = off(uses[i].cols);
    s.save_off = off(uses[i].save);
  }
  t.in_off = bufs.front().off;
  t.out_off = bufs[cur].off;
  t.out_shape = spatial ? std::vector<int64_t>{batch, c, h, w}
                        : std::vector<int64_t>{batch, c};
  if (i8) {
    // The byte arena: [ quantized input | byte cols ]. Accumulators need no
    // region of their own: int32 sums live in the float out region they
    // are requantized over (4 bytes either way).
    t.arena_int8_bytes = qin_max + cols_max;
    t.qcols_off = qin_max;
  } else {
    t.cols_floats = cols_max;
  }
  return t;
}

const PlanTables& plan_tables(const InferPlan& plan) { return plan.tables_; }

InferPlan::InferPlan(const FlatModel& model, int64_t batch, int64_t channels,
                     int64_t in_h, int64_t in_w, Backend backend)
    : InferPlan(model, WeightPanels::build(model, backend), batch, channels,
                in_h, in_w, backend) {}

InferPlan::InferPlan(const FlatModel& model,
                     std::shared_ptr<const WeightPanels> panels, int64_t batch,
                     int64_t channels, int64_t in_h, int64_t in_w,
                     Backend backend)
    : panels_(std::move(panels)),
      tables_(plan_program(model, batch, channels, in_h, in_w, backend)) {
  NB_CHECK(panels_ != nullptr && panels_->op_count() == model.ops().size(),
           "infer plan: weight panels do not match the program");
  NB_CHECK(panels_->backend() == backend,
           backend == Backend::int8
               ? "infer plan: weight panels lack the int8 backend's encoding"
               : "infer plan: weight panels lack the fast backend's encoding");
  tables_.weight_cache_floats = panels_->total_floats();
  steps_.resize(tables_.steps.size());
  for (size_t i = 0; i < steps_.size(); ++i) {
    const FlatOp& op = model.ops()[i];
    if (op.kind != OpKind::conv && op.kind != OpKind::linear) continue;
    const bool conv = op.kind == OpKind::conv;
    const OpPanel& panel = panels_->at(i);
    const StepTable& t = tables_.steps[i];
    Step& s = steps_[i];
    s.act = conv ? op.conv.act : FlatAct::identity;
    s.act_bits = conv ? op.conv.act_bits : op.linear.act_bits;
    s.wf = panel.wf.data();
    s.wq = panel.wq.data();
    s.scales = panel.scales.data();
    s.bias = panel.bias.empty() ? nullptr : panel.bias.data();
    s.eff.resize(static_cast<size_t>(t.eff_count));
    for (size_t o = 0; o < s.eff.size(); ++o) {
      s.eff[o] = panel.scales[o] * t.act_scale;
    }
  }
  arena_.resize(static_cast<size_t>(tables_.arena_floats));
  qarena_.resize(static_cast<size_t>(tables_.arena_int8_bytes));
#ifndef NDEBUG
  // Debug builds prove every freshly-built plan safe before it can run:
  // live-range disjointness, dataflow, bounds, epilogue legality — see
  // plan_verify.h. Release builds expose the same check via
  // SessionOptions::verify_plans and `flat_infer --verify`.
  check_plan(*this);
#endif
}

void InferPlan::run_conv(const StepTable& t, const Step& s, const float* in,
                         float* out, float* cols) const {
  const int64_t n = tables_.batch;
  const int64_t in_hw = t.in_h * t.in_w;
  const int64_t plane = t.out_h * t.out_w;  // one image's output plane
  const int64_t row = n * plane;  // one channel's batch-interleaved row
  const int64_t k = t.kernel;
  if (t.depthwise) {
    // One (channel, image) plane per work item, epilogue fused in. In the
    // batch-interleaved layout channel ch of image i reads the contiguous
    // plane at ch*n*in_hw + i*in_hw and writes ch*row + i*plane.
    const int64_t planes = t.cout * n;
    const int64_t grain =
        std::max<int64_t>(1, (int64_t{1} << 14) / std::max<int64_t>(plane, 1));
    parallel_for(planes, grain, [&](int64_t p0, int64_t p1) {
      for (int64_t pl = p0; pl < p1; ++pl) {
        const int64_t ch = pl / n;
        const int64_t i = pl % n;
        float* orow = out + ch * row + i * plane;
        depthwise_plane(in + (ch * n + i) * in_hw, s.wf + ch * k * k, orow,
                        t.in_h, t.in_w, t.out_h, t.out_w, k, t.stride, t.pad,
                        0.0f);
        const float b = s.bias == nullptr ? 0.0f : s.bias[ch];
        store_row(orow, plane, s.scales[ch], b, s.act);
      }
    });
    return;
  }

  // Lowered path: ONE batched im2col + packed GEMM per group covers the
  // whole micro-batch — the columns of every image sit side by side in a
  // [col_rows, n*plane] panel, so weight-panel packing and micro-kernel
  // fringes amortize across the batch, and the [cout_g, n*plane] output
  // lands directly in the output buffer as the next activation's layout (no
  // staging, no scatter). The GEMM's per-element rounding is independent
  // of M/N (one continuous ascending K chain), so every element is bitwise
  // identical to a per-image lowering. A direct (1x1, stride 1, pad 0) conv
  // skips im2col: the group's slice of the batch-interleaved input already
  // is that panel, value for value.
  const int64_t cin_g = t.cin / t.groups;
  const int64_t cout_g = t.cout / t.groups;
  const int64_t col_rows = cin_g * k * k;
  const bool direct = k == 1 && t.stride == 1 && t.pad == 0;
  for (int64_t g = 0; g < t.groups; ++g) {
    const float* panel = in + g * cin_g * n * in_hw;
    if (!direct) {
      im2col_batched(panel, n, in_hw, n * in_hw, cin_g, t.in_h, t.in_w, k, k,
                     t.stride, t.stride, t.pad, t.pad, cols);
      panel = cols;
    }
    gemm(false, false, cout_g, row, col_rows, 1.0f,
         s.wf + g * cout_g * col_rows, panel, 0.0f, out + g * cout_g * row);
  }
  // Fused epilogue, one batch-interleaved channel row at a time (the
  // per-channel scale/bias covers the whole row).
  const int64_t grain =
      std::max<int64_t>(1, 4096 / std::max<int64_t>(row, 1));
  parallel_for(t.cout, grain, [&](int64_t o0, int64_t o1) {
    for (int64_t o = o0; o < o1; ++o) {
      float* orow = out + o * row;
      const float b = s.bias == nullptr ? 0.0f : s.bias[o];
      store_row(orow, row, s.scales[o], b, s.act);
    }
  });
}

void InferPlan::run_conv_s8(const StepTable& t, const Step& s,
                            const uint8_t* in, float* out,
                            uint8_t* cols) const {
  // Mirror of run_conv over integer levels. Every float it stores comes
  // from the one requantize expression (tensor/requantize.h) that the
  // QModel oracle also runs, which is what makes this path memcmp-equal to
  // it. The depthwise writes its int32 accumulators straight into the
  // float out region (both are 4 bytes per element) and requantize_row
  // rewrites them as floats IN PLACE — element i is read before it is
  // written, so the aliasing is benign; lowered convs requantize inside
  // the GEMM's final store.
  const int64_t n = tables_.batch;
  const int64_t in_hw = t.in_h * t.in_w;
  const int64_t plane = t.out_h * t.out_w;
  const int64_t row = n * plane;
  const int64_t k = t.kernel;
  if (t.depthwise) {
    const int64_t planes = t.cout * n;
    const int64_t grain =
        std::max<int64_t>(1, (int64_t{1} << 14) / std::max<int64_t>(plane, 1));
    parallel_for(planes, grain, [&](int64_t p0, int64_t p1) {
      for (int64_t pl = p0; pl < p1; ++pl) {
        const int64_t ch = pl / n;
        const int64_t i = pl % n;
        float* orow = out + ch * row + i * plane;
        int32_t* acc = reinterpret_cast<int32_t*>(orow);
        depthwise_plane_s8(in + (ch * n + i) * in_hw, s.wq + ch * k * k, acc,
                           t.in_h, t.in_w, t.out_h, t.out_w, k, t.stride,
                           t.pad);
        const float b = s.bias == nullptr ? 0.0f : s.bias[ch];
        requantize_row(orow, acc, plane, s.eff[static_cast<size_t>(ch)], b,
                       s.act);
      }
    });
    return;
  }

  // Lowered path: ONE byte im2col + int8 GEMM per group covers the whole
  // micro-batch, exactly like the float path — and because the GEMM is
  // integer-exact, batched-vs-sequential and thread-count invariance hold
  // bitwise by construction rather than by rounding-order discipline. A
  // direct conv reads the quantized input region as its panel. The GEMM's
  // epilogue requantizes each tile on its final K block and stores the
  // group's floats straight into the out region (earlier K blocks park
  // their int32 partial sums there).
  const int64_t cin_g = t.cin / t.groups;
  const int64_t cout_g = t.cout / t.groups;
  const int64_t col_rows = cin_g * k * k;
  const bool direct = k == 1 && t.stride == 1 && t.pad == 0;
  for (int64_t g = 0; g < t.groups; ++g) {
    const uint8_t* panel = in + g * cin_g * n * in_hw;
    if (!direct) {
      im2col_s8_batched(panel, n, in_hw, n * in_hw, cin_g, t.in_h, t.in_w, k,
                        k, t.stride, t.stride, t.pad, t.pad, cols);
      panel = cols;
    }
    GemmS8Epilogue epi;
    epi.eff = s.eff.data() + g * cout_g;
    epi.bias = s.bias == nullptr ? nullptr : s.bias + g * cout_g;
    epi.act = requant_act(s.act);
    gemm_s8(cout_g, row, col_rows, s.wq + g * cout_g * col_rows, panel,
            out + g * cout_g * row, epi);
  }
}

void InferPlan::run_gap(const StepTable& t, const float* in, float* out) const {
  // Reads the batch-interleaved input and emits standard [batch, channels]
  // rows — the layout the linear head consumes — so GAP doubles as the
  // exit from the interleaved world for classifier programs.
  const int64_t hw = t.in_h * t.in_w;
  const int64_t n = tables_.batch;
  const int64_t planes = t.in_c * n;
  const int64_t grain =
      std::max<int64_t>(1, (int64_t{1} << 14) / std::max<int64_t>(hw, 1));
  parallel_for(planes, grain, [&](int64_t p0, int64_t p1) {
    for (int64_t pl = p0; pl < p1; ++pl) {
      const int64_t ch = pl / n;
      const int64_t i = pl % n;
      const float* plane = in + pl * hw;
      double acc = 0.0;
      for (int64_t t = 0; t < hw; ++t) acc += plane[t];
      out[i * t.in_c + ch] = static_cast<float>(acc / static_cast<double>(hw));
    }
  });
}

void InferPlan::run_linear(const StepTable& t, const Step& s, const float* in,
                           float* out) const {
  // Double accumulation in ascending k, exactly the reference interpreter's
  // order, so fast and reference logits agree bitwise here. Four output
  // rows share each pass over the input row: their chains are independent,
  // so the adds overlap instead of each waiting on the last, while every
  // row still sums its own products in the same order.
  const int64_t features = t.cin;
  const int64_t quads = (t.cout + 3) / 4;
  const auto store = [&](int64_t i, int64_t o, double acc) {
    const float b = s.bias == nullptr ? 0.0f : s.bias[o];
    out[i * t.cout + o] = static_cast<float>(acc) * s.scales[o] + b;
  };
  parallel_for(tables_.batch * quads, 4, [&](int64_t g0, int64_t g1) {
    for (int64_t g = g0; g < g1; ++g) {
      const int64_t i = g / quads;
      const int64_t o0 = (g % quads) * 4;
      const float* xrow = in + i * features;
      if (o0 + 4 <= t.cout) {
        const float* w0 = s.wf + o0 * features;
        const float* w1 = w0 + features;
        const float* w2 = w1 + features;
        const float* w3 = w2 + features;
        double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
        for (int64_t t = 0; t < features; ++t) {
          const double x = xrow[t];
          a0 += static_cast<double>(w0[t]) * x;
          a1 += static_cast<double>(w1[t]) * x;
          a2 += static_cast<double>(w2[t]) * x;
          a3 += static_cast<double>(w3[t]) * x;
        }
        store(i, o0, a0);
        store(i, o0 + 1, a1);
        store(i, o0 + 2, a2);
        store(i, o0 + 3, a3);
        continue;
      }
      for (int64_t o = o0; o < t.cout; ++o) {  // the last cout % 4 rows
        const float* wrow = s.wf + o * features;
        double acc = 0.0;
        for (int64_t t = 0; t < features; ++t) {
          acc += static_cast<double>(wrow[t]) * xrow[t];
        }
        store(i, o, acc);
      }
    }
  });
}

void InferPlan::run_linear_s8(const StepTable& t, const Step& s,
                              const uint8_t* in, float* out) const {
  // Exact int32 dot products staged over the out region (the head is tiny:
  // batch * classes rows over <= 2^17 features), then one shared epilogue
  // per image row — scalar loops suffice, and integer exactness keeps the
  // result thread-invariant for free.
  const int64_t features = t.cin;
  const int64_t total = tables_.batch * t.cout;
  int32_t* acc = reinterpret_cast<int32_t*>(out);
  parallel_for(total, 16, [&](int64_t r0, int64_t r1) {
    for (int64_t idx = r0; idx < r1; ++idx) {
      const int64_t i = idx / t.cout;
      const int64_t o = idx % t.cout;
      const int8_t* wrow = s.wq + o * features;
      const uint8_t* xrow = in + i * features;
      int32_t a = 0;
      for (int64_t t = 0; t < features; ++t) {
        a += static_cast<int32_t>(wrow[t]) *
             (static_cast<int32_t>(xrow[t]) - 128);
      }
      acc[idx] = a;
    }
  });
  for (int64_t i = 0; i < tables_.batch; ++i) {
    requantize_linear_row(out + i * t.cout, acc + i * t.cout, s.eff.data(),
                          s.bias, t.cout);
  }
}

Tensor InferPlan::run(const Tensor& input) const {
  const PlanTables& pt = tables_;
  NB_CHECK(input.dim() == 4 && input.size(0) == pt.batch &&
               input.size(1) == pt.channels && input.size(2) == pt.in_h &&
               input.size(3) == pt.in_w,
           "infer plan: input " + input.shape_str() +
               " does not match the planned geometry");
  float* arena = arena_.data();
  // Entry: NCHW -> batch-interleaved gather (a plain copy at batch == 1,
  // where the layouts coincide).
  const int64_t n = pt.batch;
  {
    const int64_t c = pt.channels;
    const int64_t hw = pt.in_h * pt.in_w;
    float* entry = arena + pt.in_off;
    if (n == 1) {
      std::memcpy(entry, input.data(),
                  static_cast<size_t>(input.numel()) * sizeof(float));
    } else {
      const float* src = input.data();
      const int64_t grain =
          std::max<int64_t>(1, (int64_t{1} << 14) / std::max<int64_t>(hw, 1));
      parallel_for(n * c, grain, [&](int64_t p0, int64_t p1) {
        for (int64_t pl = p0; pl < p1; ++pl) {
          const int64_t i = pl / c;
          const int64_t ch = pl % c;
          std::memcpy(entry + (ch * n + i) * hw, src + pl * hw,
                      static_cast<size_t>(hw) * sizeof(float));
        }
      });
    }
  }

  for (size_t i = 0; i < pt.steps.size(); ++i) {
    const StepTable& t = pt.steps[i];
    const Step& s = steps_[i];
    switch (t.kind) {
      case OpKind::save:
        std::memcpy(arena + t.save_off, arena + t.in_off,
                    static_cast<size_t>(t.in_floats) * sizeof(float));
        break;
      case OpKind::add_saved: {
        float* cur = arena + t.in_off;
        const float* sv = arena + t.save_off;
        parallel_for(t.in_floats, int64_t{1} << 14,
                     [&](int64_t b, int64_t e) {
                       for (int64_t j = b; j < e; ++j) cur[j] += sv[j];
                     });
        break;
      }
      case OpKind::conv:
      case OpKind::linear: {
        float* in = arena + t.in_off;
        if (pt.backend == Backend::int8) {
          // True int8: quantize the float activation to offset-u8 levels
          // (the same rounding fake_quant_buffer applies, via the shared
          // quantize_levels_u8) and run the integer kernels. The float
          // input region is left untouched — it is dead after this op.
          uint8_t* qin = qarena_.data();
          parallel_for(t.in_floats, int64_t{1} << 14,
                       [&](int64_t b, int64_t e) {
                         quant::quantize_levels_u8(in + b, qin + b, e - b,
                                                   t.act_scale, s.act_bits);
                       });
          if (t.kind == OpKind::conv) {
            run_conv_s8(t, s, qin, arena + t.out_off,
                        qarena_.data() + pt.qcols_off);
          } else {
            run_linear_s8(t, s, qin, arena + t.out_off);
          }
          break;
        }
        if (t.act_scale > 0.0f) {
          parallel_for(t.in_floats, int64_t{1} << 14,
                       [&](int64_t b, int64_t e) {
                         quant::fake_quant_buffer(in + b, e - b, t.act_scale,
                                                  s.act_bits);
                       });
        }
        if (t.kind == OpKind::conv) {
          run_conv(t, s, in, arena + t.out_off, arena + t.cols_off);
        } else {
          run_linear(t, s, in, arena + t.out_off);
        }
        break;
      }
      case OpKind::gap:
        run_gap(t, arena + t.in_off, arena + t.out_off);
        break;
    }
  }

  Tensor out(pt.out_shape);
  const float* res = arena + pt.out_off;
  if (pt.out_shape.size() == 4 && n > 1) {
    // The program ended spatially: scatter the batch-interleaved result
    // back to NCHW. (GAP already emitted [batch, channels] rows, so
    // classifier programs skip this.)
    const int64_t c = pt.out_shape[1];
    const int64_t hw = pt.out_shape[2] * pt.out_shape[3];
    float* dst = out.data();
    const int64_t grain =
        std::max<int64_t>(1, (int64_t{1} << 14) / std::max<int64_t>(hw, 1));
    parallel_for(n * c, grain, [&](int64_t p0, int64_t p1) {
      for (int64_t pl = p0; pl < p1; ++pl) {
        const int64_t i = pl / c;
        const int64_t ch = pl % c;
        std::memcpy(dst + pl * hw, res + (ch * n + i) * hw,
                    static_cast<size_t>(hw) * sizeof(float));
      }
    });
  } else {
    std::memcpy(out.data(), res,
                static_cast<size_t>(out.numel()) * sizeof(float));
  }
  return out;
}

PlanValidRegion InferPlan::valid_output_region(int64_t valid_h,
                                               int64_t valid_w) const {
  NB_CHECK(valid_h >= 1 && valid_h <= tables_.in_h && valid_w >= 1 &&
               valid_w <= tables_.in_w,
           "infer plan: valid region must be within the planned geometry");
  PlanValidRegion v{valid_h, valid_w, true};
  for (const StepTable& s : tables_.steps) {
    switch (s.kind) {
      case OpKind::conv: {
        // Output index x reads input taps [x*stride - pad,
        // x*stride - pad + kernel). Taps below 0 land in the conv's own
        // zero padding (model semantics, identical at any bucket); taps at
        // or past the valid extent may be bucket zeros, so x contributes
        // iff x*stride - pad + kernel - 1 < valid, i.e.
        // x <= (valid + pad - kernel) / stride. Clamped to the planned
        // output extent.
        auto shrink = [&](int64_t valid, int64_t out) {
          const int64_t top = valid + s.pad - s.kernel;
          const int64_t n = top < 0 ? 0 : top / s.stride + 1;
          return std::min(n, out);
        };
        v.h = shrink(v.h, s.out_h);
        v.w = shrink(v.w, s.out_w);
        if (v.h <= 0 || v.w <= 0) {
          return PlanValidRegion{0, 0, true};
        }
        break;
      }
      case OpKind::gap:
      case OpKind::linear:
        // GAP averages (and linear then mixes) the WHOLE plane, padding
        // included — no sub-region of the output is padding-free.
        return PlanValidRegion{0, 0, false};
      case OpKind::save:
      case OpKind::add_saved:
        // Elementwise over matching geometries: the valid extent carries
        // through unchanged (the saved operand shares the same history).
        break;
    }
  }
  return v;
}

}  // namespace nb::exporter
