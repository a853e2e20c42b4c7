// Quantized int8 GEMM — the integer core of the Backend::int8 inference
// path. Computes exact int32 accumulations of int8 weight levels against
// offset-u8 activation levels:
//
//   C[i,j] = sum_p A[i,p] * (int(B[p,j]) - 128)
//
// A is the [M,K] row-major int8 weight panel (levels in [-127, 127]); B is
// the [K,N] row-major uint8 activation/column panel storing each level
// OFFSET BY +128 (level L is the byte L+128, so level 0 — and therefore
// im2col zero padding — is the byte 128). C is int32, overwritten.
//
// Every kernel instance (generic, AVX2 maddubs, AVX512-VNNI vpdpbusd)
// produces the mathematically exact integer sum, so results are bitwise
// identical across ISAs, worker counts, and M partitions — unlike the float
// GEMM there is no rounding to keep in order, which is what makes the int8
// backend's thread/batch invariance hold by construction. The unsigned
// offset is compensated exactly: each K block accumulates sum(A*B_u8) and
// subtracts 128 * rowsum(A) once per row, both in int32.
//
// Exactness bound: |C| <= K * 127 * 127 and the largest intermediate is
// |C| + kc * 127 * 255, so K <= 2^17 keeps every partial sum inside int32
// (checked; far above any conv lowering's cin/groups * k * k).
//
// Weights packed once: gemm_s8_pack lays a constant A operand (a conv's
// weight levels) out once in the panel format the dispatched instance's
// micro-kernel reads — every (row block, K block) panel, each row's block
// sum for the +128 compensation, and a tag naming that instance — and the
// packed overloads run on those panels, so a plan that reruns the same
// weights packs them at build time, never per call. The raw-A overload
// packs A's panels itself on every call; both compute the same exact sums.
//
// Requantize epilogue: the packed overload taking a GemmS8Epilogue maps
// each element of C through the int8 backend's requantize expression
// (tensor/requantize.h, which only -ffp-contract=off library sources
// include) inside the micro-kernel, on each tile's final K block, and
// stores floats straight from the registers — no int32 pass over C is left
// for a separate requantize. Earlier K blocks keep their exact int32
// partial sums in the output buffer itself (4 bytes per element either
// way), so the output is bit-identical to gemm_s8 followed by the same
// expression per row (exporter::requantize_row).
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/gemm.h"  // EpilogueAct

namespace nb {

/// Largest K for which the int32 accumulation is guaranteed exact (the
/// largest intermediate is (K - 256)*127*127 + 256*127*255 < 2^31 here).
/// gemm_s8 rejects larger K; the int8 plan/oracle validate against this at
/// build time so no graph ever reaches the rejection mid-inference.
constexpr int64_t kGemmS8MaxK = int64_t{1} << 17;

/// C[M,N] = A[M,K] * (B[K,N] - 128), exact int32, row-major, overwrite.
/// Packs A's panels on every call.
void gemm_s8(int64_t m, int64_t n, int64_t k, const int8_t* a,
             const uint8_t* b, int32_t* c);

/// Per-row requantize epilogue: row i of C stores
/// requantize(C[i,j], eff[i], bias[i], act) as a float.
struct GemmS8Epilogue {
  const float* eff = nullptr;   // [M] effective scales, required
  const float* bias = nullptr;  // [M], or nullptr to add +0.0f
  EpilogueAct act = EpilogueAct::identity;
};

/// A[M,K] packed once for one instance: every (row block, K block) panel
/// in that instance's layout, and each row's per-K-block sum for the +128
/// compensation. Immutable once built, so any number of threads may run
/// the same object at once. The AVX2 instance stores its split hi/lo
/// panels, twice the bytes of the levels; the others about 1x (rows pad
/// to 8, K to 4), plus 4 bytes of row sum per row and K block.
class GemmS8PackedA {
 public:
  GemmS8PackedA() = default;
  int64_t rows() const { return m_; }
  int64_t depth() const { return k_; }
  /// The tag: the name of the instance whose layout the panels hold
  /// (nullptr when empty). The packed overloads reject panels whose tag
  /// is not the instance they run.
  const char* instance() const { return instance_; }
  /// Bytes held: panels plus row sums.
  int64_t bytes() const {
    return static_cast<int64_t>(panels_.size() +
                                rowsums_.size() * sizeof(int32_t));
  }
  const int8_t* panels() const { return panels_.data(); }
  const int32_t* rowsums() const { return rowsums_.data(); }

 private:
  friend GemmS8PackedA gemm_s8_pack_instance(int i, int64_t m, int64_t k,
                                             const int8_t* a);
  int64_t m_ = 0;
  int64_t k_ = 0;
  const char* instance_ = nullptr;
  std::vector<int8_t> panels_;
  std::vector<int32_t> rowsums_;
};

/// Packs A[M,K] (row-major levels in [-127, 127]) for the dispatched
/// instance; throws on K beyond kGemmS8MaxK.
GemmS8PackedA gemm_s8_pack(int64_t m, int64_t k, const int8_t* a);

/// C[M,N] = A * (B[K,N] - 128) over packed A, exact int32, overwrite;
/// bit-identical to the raw-A overload on the same levels.
void gemm_s8(const GemmS8PackedA& a, int64_t n, const uint8_t* b,
             int32_t* c);

/// out[M,N] = requantize(A * (B[K,N] - 128)) per the epilogue, over packed
/// A, float, row-major, overwrite; bit-identical to the int32 product
/// followed by the same expression per row.
void gemm_s8(const GemmS8PackedA& a, int64_t n, const uint8_t* b,
             float* out, const GemmS8Epilogue& epi);

/// Name of the instance chosen at runtime ("s8-vnni", "s8-avx2" or
/// "s8-generic"); surfaced by the int8 bench report.
const char* gemm_s8_kernel_name();

/// Test hooks: every compiled instance this CPU can execute, generic first.
/// The bitwise cross-ISA claim is only a claim if each instance is actually
/// exercised — the dispatcher alone would always hide the slower ones.
int gemm_s8_instance_count();
const char* gemm_s8_instance_name(int i);
/// Runs instance i with the same contract (and K bound) as gemm_s8.
void gemm_s8_run_instance(int i, int64_t m, int64_t n, int64_t k,
                          const int8_t* a, const uint8_t* b, int32_t* c);
/// Packs A in instance i's layout, tagged with its name.
GemmS8PackedA gemm_s8_pack_instance(int i, int64_t m, int64_t k,
                                    const int8_t* a);
/// Runs instance i over panels packed for it (throws on another tag).
void gemm_s8_run_instance(int i, const GemmS8PackedA& a, int64_t n,
                          const uint8_t* b, int32_t* c);
void gemm_s8_run_instance(int i, const GemmS8PackedA& a, int64_t n,
                          const uint8_t* b, float* out,
                          const GemmS8Epilogue& epi);

}  // namespace nb
