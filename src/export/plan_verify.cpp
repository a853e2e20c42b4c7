#include "export/plan_verify.h"

#include <utility>

#include "tensor/im2col.h"  // conv_out_size

namespace nb::exporter {

const char* to_string(PlanDiag diag) {
  switch (diag) {
    case PlanDiag::geometry_broken:
      return "geometry_broken";
    case PlanDiag::dataflow_broken:
      return "dataflow_broken";
    case PlanDiag::offset_out_of_bounds:
      return "offset_out_of_bounds";
    case PlanDiag::region_overlap:
      return "region_overlap";
    case PlanDiag::save_clobbered:
      return "save_clobbered";
    case PlanDiag::save_stack_broken:
      return "save_stack_broken";
    case PlanDiag::epilogue_broken:
      return "epilogue_broken";
    case PlanDiag::qarena_out_of_bounds:
      return "qarena_out_of_bounds";
    case PlanDiag::stats_inconsistent:
      return "stats_inconsistent";
    case PlanDiag::batch_scaling_broken:
      return "batch_scaling_broken";
    case PlanDiag::bucket_plan_mismatch:
      return "bucket_plan_mismatch";
  }
  return "?";
}

namespace {

bool intervals_overlap(int64_t a_off, int64_t a_len, int64_t b_off,
                       int64_t b_len) {
  return a_len > 0 && b_len > 0 && a_off < b_off + b_len &&
         b_off < a_off + a_len;
}

/// Im2col B panel elements a lowered conv reads (0 for depthwise and
/// non-conv steps). Callers validate groups > 0 first.
int64_t cols_need(const StepTable& s, int64_t batch) {
  if (s.kind != OpKind::conv || s.depthwise || s.groups <= 0) return 0;
  return (s.cin / s.groups) * s.kernel * s.kernel * batch * s.out_h * s.out_w;
}

std::string iv(int64_t off, int64_t len) {
  // Built up on a named lvalue: `"[" + std::to_string(...)` trips GCC 12's
  // -Wrestrict false positive (PR105651) on the rvalue operator+ overload.
  std::string s = "[";
  s += std::to_string(off);
  s += ", ";
  s += std::to_string(off + len);
  s += ")";
  return s;
}

}  // namespace

VerifyReport verify_tables(const PlanTables& t) {
  VerifyReport r;
  const auto fail = [&](PlanDiag d, int64_t step, std::string detail) {
    r.findings.push_back({d, step, std::move(detail)});
  };

  if (t.batch <= 0 || t.channels <= 0 || t.in_h <= 0 || t.in_w <= 0 ||
      t.steps.empty() || t.arena_floats <= 0) {
    fail(PlanDiag::geometry_broken, -1, "implausible plan-level geometry");
    return r;
  }
  const bool i8 = t.backend == Backend::int8;

  // Single walk discharging geometry, dataflow, bounds, disjointness,
  // save-liveness and epilogue obligations per step. The tracked
  // (c, h, w, cur, cur_off) is the ground truth each step's recorded
  // tables must agree with.
  bool spatial = true;
  int64_t c = t.channels, h = t.in_h, w = t.in_w;
  int64_t cur = t.batch * c * h * w;
  // Anchoring at the published entry offset rather than trusting the first
  // step's own in_off makes a corrupted FIRST step detectable too.
  int64_t cur_off = t.in_off;
  struct Saved {
    int64_t off, floats, c, h, w;
  };
  std::vector<Saved> live_saves;
  int64_t max_cols = 0;  // high-water mark over lowered convs
  int64_t max_qin = 0;   // high-water mark of quantized-input bytes

  for (size_t i = 0; i < t.steps.size(); ++i) {
    const StepTable& s = t.steps[i];
    const int64_t idx = static_cast<int64_t>(i);

    // -- dataflow: consume exactly what the previous step produced.
    if (s.in_off != cur_off || s.in_floats != cur) {
      fail(PlanDiag::dataflow_broken, idx,
           "step reads " + iv(s.in_off, s.in_floats) +
               " but the live activation is " + iv(cur_off, cur));
    }
    // -- recorded input shape must match the tracked one.
    if (s.in_c != c || s.in_h != h || s.in_w != w) {
      fail(PlanDiag::geometry_broken, idx, "recorded input shape diverges");
    }

    // -- per-kind geometry + shape transition.
    int64_t out_floats = cur;  // save/add_saved pass the activation through
    bool in_place = false;
    switch (s.kind) {
      case OpKind::save:
      case OpKind::add_saved:
        in_place = true;
        break;
      case OpKind::conv: {
        if (!spatial || s.groups <= 0 || s.stride <= 0 || s.kernel <= 0 ||
            s.pad < 0 || s.cout <= 0 || s.cin != c ||
            s.cin % s.groups != 0 || s.cout % s.groups != 0) {
          fail(PlanDiag::geometry_broken, idx, "implausible conv parameters");
          return r;  // divisors unusable; later checks would be noise
        }
        const int64_t oh = conv_out_size(h, s.kernel, s.stride, s.pad);
        const int64_t ow = conv_out_size(w, s.kernel, s.stride, s.pad);
        if (oh <= 0 || ow <= 0 || s.out_h != oh || s.out_w != ow) {
          fail(PlanDiag::geometry_broken, idx,
               "conv output plane is not (in + 2p - k)/s + 1");
        }
        if (s.depthwise != (s.groups == s.cin && s.groups == s.cout)) {
          fail(PlanDiag::geometry_broken, idx, "depthwise flag inconsistent");
        }
        c = s.cout;
        h = s.out_h;
        w = s.out_w;
        out_floats = t.batch * c * h * w;
        break;
      }
      case OpKind::gap:
        if (!spatial) {
          fail(PlanDiag::geometry_broken, idx, "gap after spatial exit");
        }
        spatial = false;
        h = 0;
        w = 0;
        out_floats = t.batch * c;
        break;
      case OpKind::linear:
        if (spatial || s.cin != c || s.cout <= 0) {
          fail(PlanDiag::geometry_broken, idx, "implausible linear geometry");
        }
        c = s.cout > 0 ? s.cout : c;
        out_floats = t.batch * c;
        break;
    }
    if (s.out_floats != out_floats) {
      fail(PlanDiag::geometry_broken, idx,
           "recorded out_floats " + std::to_string(s.out_floats) +
               " != derived " + std::to_string(out_floats));
    }
    if (in_place && s.out_off != s.in_off) {
      fail(PlanDiag::dataflow_broken, idx,
           "in-place op relocated the activation");
    }

    // -- bounds in the float arena.
    const auto check_bounds = [&](int64_t off, int64_t len, const char* what) {
      if (len > 0 && (off < 0 || off + len > t.arena_floats)) {
        fail(PlanDiag::offset_out_of_bounds, idx,
             std::string(what) + " " + iv(off, len) + " escapes arena of " +
                 std::to_string(t.arena_floats) + " floats");
      }
    };
    check_bounds(s.in_off, s.in_floats, "input");
    check_bounds(s.out_off, s.out_floats, "output");
    const int64_t cols = cols_need(s, t.batch);
    max_cols = std::max(max_cols, cols);
    // The float panel this step writes; a direct conv's panel is its input.
    const bool direct = s.kernel == 1 && s.stride == 1 && s.pad == 0;
    const int64_t own_cols = i8 || direct ? 0 : cols;
    check_bounds(s.cols_off, own_cols, "im2col panel");
    if (cols > 0 && i8) {
      // Byte cols live in the qarena, after the quantized-input region
      // (the float cols_off is unused on int8 plans).
      if (t.qcols_off < 0 || t.qcols_off + cols > t.arena_int8_bytes) {
        fail(PlanDiag::qarena_out_of_bounds, idx,
             "byte im2col panel " + iv(t.qcols_off, cols) +
                 " escapes int8 arena of " +
                 std::to_string(t.arena_int8_bytes) + " bytes");
      }
    }
    if (i8 && (s.kind == OpKind::conv || s.kind == OpKind::linear)) {
      // The quantized input is staged at qarena[0, in_floats) bytes and
      // must not run into the byte cols region.
      max_qin = std::max(max_qin, s.in_floats);
      if (s.in_floats > t.qcols_off) {
        fail(PlanDiag::qarena_out_of_bounds, idx,
             "quantized input (" + std::to_string(s.in_floats) +
                 " bytes) overruns the byte cols region at " +
                 std::to_string(t.qcols_off));
      }
    }

    // -- disjointness within the step.
    if (!in_place && intervals_overlap(s.in_off, s.in_floats, s.out_off,
                                       s.out_floats)) {
      fail(PlanDiag::region_overlap, idx,
           "input " + iv(s.in_off, s.in_floats) + " overlaps output " +
               iv(s.out_off, s.out_floats));
    }
    if (intervals_overlap(s.cols_off, own_cols, s.in_off, s.in_floats) ||
        intervals_overlap(s.cols_off, own_cols, s.out_off, s.out_floats)) {
      fail(PlanDiag::region_overlap, idx,
           "im2col panel overlaps the activation regions");
    }

    // -- residual save stack: liveness simulation.
    if (s.kind == OpKind::save) {
      // The copy's source and destination must be disjoint, and the copy
      // must not sit on another live one.
      if (intervals_overlap(s.save_off, s.in_floats, s.in_off, s.in_floats)) {
        fail(PlanDiag::region_overlap, idx,
             "residual copy overlaps the activation it copies");
      }
      check_bounds(s.save_off, s.in_floats, "residual copy");
      for (const Saved& sv : live_saves) {
        if (intervals_overlap(s.save_off, s.in_floats, sv.off, sv.floats)) {
          fail(PlanDiag::save_clobbered, idx,
               "residual copy overlaps a live one at " +
                   iv(sv.off, sv.floats));
        }
      }
      live_saves.push_back({s.save_off, s.in_floats, c, h, w});
    } else if (s.kind == OpKind::add_saved) {
      if (live_saves.empty()) {
        fail(PlanDiag::save_stack_broken, idx, "add_saved on an empty stack");
      } else {
        const Saved sv = live_saves.back();
        live_saves.pop_back();
        if (sv.off != s.save_off || sv.floats != s.in_floats) {
          fail(PlanDiag::save_stack_broken, idx,
               "add_saved reads " + iv(s.save_off, s.in_floats) +
                   " but the top save is " + iv(sv.off, sv.floats));
        }
        if (sv.c != c || sv.h != h || sv.w != w) {
          fail(PlanDiag::save_stack_broken, idx,
               "residual join of two different shapes");
        }
        if (intervals_overlap(s.save_off, s.in_floats, s.in_off,
                              s.in_floats)) {
          fail(PlanDiag::region_overlap, idx,
               "residual source overlaps the accumulating activation");
        }
      }
    } else {
      // A producing step must not write over any LIVE residual copy.
      for (const Saved& sv : live_saves) {
        if (intervals_overlap(s.out_off, s.out_floats, sv.off, sv.floats)) {
          fail(PlanDiag::save_clobbered, idx,
               "output overwrites a live residual at " +
                   iv(sv.off, sv.floats));
        }
        if (intervals_overlap(s.cols_off, own_cols, sv.off, sv.floats)) {
          fail(PlanDiag::save_clobbered, idx,
               "im2col panel overwrites a live residual at " +
                   iv(sv.off, sv.floats));
        }
      }
    }

    // -- int8 in-place requantize epilogue legality.
    if (s.kind == OpKind::conv || s.kind == OpKind::linear) {
      if (i8) {
        if (s.eff_count != s.cout) {
          fail(PlanDiag::epilogue_broken, idx,
               "requantize scale table has " + std::to_string(s.eff_count) +
                   " entries for " + std::to_string(s.cout) + " channels");
        }
        if (!(s.act_scale > 0.0f)) {
          fail(PlanDiag::epilogue_broken, idx,
               "int8 step without a positive activation scale");
        }
      } else if (s.eff_count != 0) {
        fail(PlanDiag::epilogue_broken, idx,
             "float step carries requantize scales");
      }
    }

    cur = out_floats;
    cur_off = s.out_off;
  }

  // -- final activation and published stats.
  if (t.out_off != cur_off) {
    fail(PlanDiag::dataflow_broken, -1,
         "plan output offset " + std::to_string(t.out_off) +
             " is not where the last step wrote (" + std::to_string(cur_off) +
             ")");
  }
  const std::vector<int64_t> want_shape =
      spatial ? std::vector<int64_t>{t.batch, c, h, w}
              : std::vector<int64_t>{t.batch, c};
  if (t.out_shape != want_shape) {
    fail(PlanDiag::geometry_broken, -1, "output shape diverges from the walk");
  }
  if (i8) {
    if (t.cols_floats != 0) {
      fail(PlanDiag::stats_inconsistent, -1,
           "int8 plan publishes a float cols region");
    }
    if (t.qcols_off != max_qin ||
        t.arena_int8_bytes != t.qcols_off + max_cols) {
      fail(PlanDiag::stats_inconsistent, -1,
           "int8 arena split (qin " + std::to_string(t.qcols_off) +
               " + cols " +
               std::to_string(t.arena_int8_bytes - t.qcols_off) +
               ") disagrees with step maxima (" + std::to_string(max_qin) +
               " + " + std::to_string(max_cols) + ")");
    }
  } else if (t.cols_floats != max_cols) {
    fail(PlanDiag::stats_inconsistent, -1,
         "published cols_floats " + std::to_string(t.cols_floats) +
             " != largest lowered conv panel " + std::to_string(max_cols));
  }

  if (r.ok()) {
    const std::string n = std::to_string(t.steps.size());
    r.proved.push_back(n + " steps: geometry follows the conv arithmetic");
    r.proved.push_back(
        "dataflow: every step consumes the region the previous step "
        "produced");
    r.proved.push_back(
        "bounds: all regions inside arena of " +
        std::to_string(t.arena_floats) + " floats" +
        (i8 ? " + " + std::to_string(t.arena_int8_bytes) + " int8 bytes"
            : ""));
    r.proved.push_back(
        "disjointness: in/out/cols/live residual regions never alias per "
        "step");
    if (i8) {
      r.proved.push_back(
          "epilogue: in-place requantize+clamp covers exactly its "
          "accumulators with full per-channel scales");
    }
    r.proved.push_back("stats: published planner accounting matches the "
                       "step tables");
  }
  return r;
}

VerifyReport verify_plan(const InferPlan& plan) {
  return verify_tables(plan_tables(plan));
}

VerifyReport verify_batch_scaling(const PlanTables& t,
                                  const PlanTables& unit) {
  VerifyReport r;
  const auto fail = [&](std::string detail) {
    r.findings.push_back({PlanDiag::batch_scaling_broken, -1,
                          std::move(detail)});
  };
  if (unit.batch != 1 || unit.backend != t.backend ||
      unit.channels != t.channels || unit.in_h != t.in_h ||
      unit.in_w != t.in_w || unit.steps.size() != t.steps.size()) {
    fail("unit tables are not a batch-1 twin of this plan");
    return r;
  }
  const int64_t b = t.batch;
  if (t.arena_floats != b * unit.arena_floats) {
    fail("arena_floats(" + std::to_string(b) + ") = " +
         std::to_string(t.arena_floats) + " != " + std::to_string(b) +
         " * " + std::to_string(unit.arena_floats));
  }
  if (t.cols_floats != b * unit.cols_floats) {
    fail("cols_floats does not scale exactly with batch");
  }
  if (t.arena_int8_bytes != b * unit.arena_int8_bytes) {
    fail("arena_int8_bytes does not scale exactly with batch");
  }
  if (r.ok()) {
    r.proved.push_back("batch scaling: arena(" + std::to_string(b) +
                       ") == " + std::to_string(b) + " * arena(1), exactly");
  }
  return r;
}

VerifyReport verify_bucket_plan(const PlanTables& bucket,
                                const PlanTables& exact,
                                double max_pad_ratio) {
  VerifyReport r;
  const auto fail = [&](int64_t step, std::string detail) {
    r.findings.push_back({PlanDiag::bucket_plan_mismatch, step,
                          std::move(detail)});
  };
  if (max_pad_ratio < 1.0) {
    fail(-1, "max_pad_ratio must be >= 1");
    return r;
  }
  if (bucket.backend != exact.backend || bucket.batch != exact.batch ||
      bucket.channels != exact.channels) {
    fail(-1, "bucket plan and exact plan disagree on backend/batch/channels");
    return r;
  }
  if (bucket.steps.size() != exact.steps.size()) {
    fail(-1, "bucket plan has " + std::to_string(bucket.steps.size()) +
                 " steps, exact plan has " +
                 std::to_string(exact.steps.size()) +
                 " — not the same program");
    return r;
  }
  if (bucket.in_h < exact.in_h || bucket.in_w < exact.in_w) {
    fail(-1, "bucket rung " + std::to_string(bucket.in_h) + "x" +
                 std::to_string(bucket.in_w) +
                 " does not cover the exact geometry " +
                 std::to_string(exact.in_h) + "x" +
                 std::to_string(exact.in_w));
  }
  const double padded_area =
      static_cast<double>(bucket.in_h) * static_cast<double>(bucket.in_w);
  const double exact_area =
      static_cast<double>(exact.in_h) * static_cast<double>(exact.in_w);
  if (padded_area > max_pad_ratio * exact_area) {
    fail(-1, "padded area " + std::to_string(bucket.in_h) + "x" +
                 std::to_string(bucket.in_w) + " exceeds " +
                 std::to_string(max_pad_ratio) + "x the exact area " +
                 std::to_string(exact.in_h) + "x" +
                 std::to_string(exact.in_w) + " — waste cap violated");
  }
  for (size_t i = 0; i < bucket.steps.size(); ++i) {
    const StepTable& b = bucket.steps[i];
    const StepTable& e = exact.steps[i];
    const int64_t step = static_cast<int64_t>(i);
    if (b.kind != e.kind || b.stride != e.stride || b.pad != e.pad ||
        b.kernel != e.kernel || b.groups != e.groups || b.cout != e.cout ||
        b.cin != e.cin || b.depthwise != e.depthwise) {
      fail(step, "step structure diverges between bucket and exact plan — "
                 "padding must never change the program, only the planes");
      continue;
    }
    if (b.in_h < e.in_h || b.in_w < e.in_w || b.out_h < e.out_h ||
        b.out_w < e.out_w || b.in_floats < e.in_floats ||
        b.out_floats < e.out_floats) {
      fail(step, "bucket-plan activation geometry does not dominate the "
                 "exact plan's (padding shrank a plane)");
    }
  }
  if (bucket.arena_floats < exact.arena_floats ||
      bucket.arena_int8_bytes < exact.arena_int8_bytes) {
    fail(-1, "bucket plan arena (" + std::to_string(bucket.arena_floats) +
                 " floats) is smaller than the exact plan's (" +
                 std::to_string(exact.arena_floats) +
                 ") — rung serving would under-allocate");
  }
  if (r.ok()) {
    r.proved.push_back(
        "bucket plan: identical program structure step for step");
    r.proved.push_back("bucket plan: rung " + std::to_string(bucket.in_h) +
                       "x" + std::to_string(bucket.in_w) + " covers " +
                       std::to_string(exact.in_h) + "x" +
                       std::to_string(exact.in_w) +
                       " and every activation plane dominates");
    r.proved.push_back("bucket plan: padded area within " +
                       std::to_string(max_pad_ratio) + "x waste cap");
    r.proved.push_back(
        "bucket plan: arena monotone — rung serving never under-allocates");
  }
  return r;
}

void check_plan(const InferPlan& plan) {
  const VerifyReport r = verify_plan(plan);
  if (r.ok()) return;
  std::string what = "plan verification failed:";
  for (const PlanFinding& f : r.findings) {
    what += "\n  [";
    what += to_string(f.diag);
    if (f.step >= 0) what += " @ step " + std::to_string(f.step);
    what += "] " + f.detail;
  }
  throw PlanVerifyError(r.findings.front().diag, what);
}

}  // namespace nb::exporter
