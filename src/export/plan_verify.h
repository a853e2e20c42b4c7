// Static verifier for InferPlan — proves the memory planner's safety
// contract from the plan's tables alone, without executing a single
// kernel.
//
// An InferPlan is a little compiler: it places every intermediate
// activation, residual copy and im2col panel in ONE reusable arena by live
// range, and the int8 backend additionally requantizes int32 accumulators
// IN PLACE over the float output region. Each of those decisions is an
// aliasing proof obligation the executor silently relies on. This verifier
// discharges them without trusting the planner's live ranges: it walks the
// steps and tracks what is live itself (the current activation and the
// residual copies on the save stack):
//
//   * geometry      — every step's recorded shapes follow from the conv
//                     arithmetic (out = (in + 2p - k)/s + 1) and the input
//                     geometry; float counts match batch*C*H*W.
//   * dataflow      — the first step reads the entry input at
//                     PlanTables::in_off, and each later step consumes
//                     exactly the region the previous step produced.
//   * bounds        — every [offset, offset+size) interval (inputs,
//                     outputs, residual copies, im2col panels, the
//                     quantized-input byte region) lies inside
//                     PlanStats::arena_floats / arena_int8_bytes.
//   * disjointness  — per step, the regions it reads and writes do not
//                     overlap (in vs out, its own im2col panel vs both; a
//                     direct 1x1 conv's panel is its input), and no write
//                     clobbers a LIVE residual copy.
//   * save stack    — save/add_saved pair LIFO, and each join adds two
//                     activations of one shape (c, h, w).
//   * epilogue      — the int8 in-place requantize+clamp is legal: the
//                     rewrite covers exactly the accumulator region it
//                     reads (same offset, same float count) and carries a
//                     full per-channel effective-scale table.
//   * stats         — the published PlanStats figures (cols_floats,
//                     arena_int8_bytes split) are consistent with the step
//                     tables, so accounting cannot drift from reality.
//   * batch scaling — arena(batch) == batch * arena(1), exactly (checked
//                     against a separately planned batch-1 table).
//
// Debug builds run check_plan() automatically at the end of every plan
// construction; `flat_infer --verify` and SessionOptions::verify_plans run
// it on demand in any build. Every violation carries a typed PlanDiag so
// corruption tests can assert the exact failure class, not just "threw".
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "export/infer_plan.h"

namespace nb::exporter {

/// Failure classes. One per independently-corruptible property of the
/// tables, so a mutation test can pin the diagnostic it expects.
enum class PlanDiag {
  geometry_broken,       // shapes don't follow from the conv arithmetic
  dataflow_broken,       // step consumes a region nothing produced
  offset_out_of_bounds,  // float-arena interval escapes arena_floats
  region_overlap,        // read and write regions of one step alias
  save_clobbered,        // a write lands on a live residual copy
  save_stack_broken,     // save/add_saved pairing or shape mismatch
  epilogue_broken,       // int8 in-place requantize not provably legal
  qarena_out_of_bounds,  // byte-arena interval escapes arena_int8_bytes
  stats_inconsistent,    // PlanStats disagrees with the step tables
  batch_scaling_broken,  // arena(batch) != batch * arena(1)
  bucket_plan_mismatch,  // bucket-rung plan is not a sound padded twin
};

const char* to_string(PlanDiag diag);

struct PlanFinding {
  PlanDiag diag;
  int64_t step = -1;  // step index, or -1 for a whole-plan property
  std::string detail;
};

/// What a verification pass concluded: empty findings == every obligation
/// discharged; `proved` lists the invariants in human-readable form (what
/// `flat_infer --verify` prints).
struct VerifyReport {
  std::vector<PlanFinding> findings;
  std::vector<std::string> proved;
  bool ok() const { return findings.empty(); }
};

/// Thrown by check_plan(); diag() is the FIRST violated property.
class PlanVerifyError : public std::runtime_error {
 public:
  PlanVerifyError(PlanDiag diag, const std::string& what)
      : std::runtime_error(what), diag_(diag) {}
  PlanDiag diag() const { return diag_; }

 private:
  PlanDiag diag_;
};

/// The verifier proper: pure function over the tables. Checks every
/// property listed in the header comment except batch scaling (which needs
/// a second geometry — see verify_batch_scaling).
VerifyReport verify_tables(const PlanTables& t);

/// Convenience: verify_tables(plan_tables(plan)).
VerifyReport verify_plan(const InferPlan& plan);

/// Exact arena(batch) == batch * arena(1) scaling, `unit` being the tables
/// of a batch-1 plan for the same program/geometry/backend.
VerifyReport verify_batch_scaling(const PlanTables& t, const PlanTables& unit);

/// Bucket-plan invariants for pad-to-bucket serving (runtime/bucketing.h):
/// `bucket` must be the tables of the plan an Engine actually executes at a
/// bucket rung, `exact` the tables at some request's exact geometry that
/// was assigned to that rung. Proves the rung plan is a sound padded twin:
///   * same backend / batch / channels and step-for-step identical program
///     structure (kind, stride, pad, kernel, groups, cout, cin, depthwise);
///   * the rung covers the exact geometry and every step's activation
///     geometry dominates the exact plan's (padding can only grow planes);
///   * the padded input area stays within `max_pad_ratio` x the exact area
///     (the admission-side waste cap really held);
///   * arena monotonicity — the rung plan's arena is at least the exact
///     plan's, so serving from buckets never under-allocates.
/// Violations carry PlanDiag::bucket_plan_mismatch.
VerifyReport verify_bucket_plan(const PlanTables& bucket,
                                const PlanTables& exact,
                                double max_pad_ratio);

/// Throws PlanVerifyError on the first finding; no-op on a sound plan.
/// Debug plan builds call this automatically.
void check_plan(const InferPlan& plan);

}  // namespace nb::exporter
