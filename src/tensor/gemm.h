// Row-major single-precision GEMM. This is the computational core of every
// convolution (via im2col) and linear layer in the library.
//
// Implementation: a cache-blocked, register-tiled kernel (gemm_kernel.inc)
// that packs op(B) into column panels and a transposed or scaled op(A)
// into row panels held in a per-thread scratch arena (transposed operands
// are read in place while packing; any other A is read in place), runs a
// register micro-tile over them (6x16 on the AVX2+FMA instance, which x86-64
// selects at runtime; 6x8 on the generic one), and stores each tile
// straight into C.
//
// Accumulation policy:
//   * every partial product accumulates in single precision (float);
//   * the reduction over K is one continuous chain in ascending order:
//     K-blocking is pure tiling (later blocks resume from the stored
//     partial sums), so the rounding sequence matches the naive ascending
//     loop and never depends on M, N, or the worker count. Results are
//     therefore bitwise identical for any NB_THREADS value and for
//     row-at-a-time calls.
//   * NaN/Inf propagate exactly as in the naive triple loop: there are no
//     zero-skip shortcuts. Per BLAS convention, alpha == 0 (or k == 0)
//     reduces to C = beta*C without reading A or B, and beta == 0 writes C
//     without reading it (existing NaN garbage in C is overwritten).
//
// Epilogue: the overload taking a GemmEpilogue stores each element of the
// product as act(acc * scale[i] + bias[i]) straight from the tile's
// registers on its final K block (earlier K blocks park their partial sums
// in C), so no second pass over C follows. The expression is the one
// tensor/requantize.h defines, a separate multiply and add, so the result
// is bit-identical to the plain product followed by that expression per
// element, on every instance.
#pragma once

#include <cstdint>

namespace nb {

/// Activation applied by the float and int8 GEMM epilogues; the values
/// match exporter::FlatAct's.
enum class EpilogueAct : uint8_t { identity = 0, relu = 1, relu6 = 2 };

/// Per-row epilogue: row i of C stores act(acc * scale[i] + bias[i]).
struct GemmEpilogue {
  const float* scale = nullptr;  // [M] per-row scales, required
  const float* bias = nullptr;   // [M], or nullptr to add +0.0f
  EpilogueAct act = EpilogueAct::identity;
};

/// C[M,N] = alpha * op(A) * op(B) + beta * C, all row-major.
/// op(A) is A[M,K] (trans_a=false) or A[K,M] transposed (trans_a=true);
/// likewise for B with shape [K,N] / [N,K].
void gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
          float alpha, const float* a, const float* b, float beta, float* c);

/// C[M,N] = epilogue(A[M,K] * B[K,N]), all row-major, overwrite: alpha 1,
/// beta 0, A read in place. Bit-identical to gemm(false, false, m, n, k,
/// 1.0f, a, b, 0.0f, c) followed by the epilogue per element.
void gemm(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
          float* c, const GemmEpilogue& epi);

/// Name of the kernel instance chosen at runtime ("packed-avx2" or
/// "packed-generic"); surfaced by the substrate bench report.
const char* gemm_kernel_name();

/// Test hooks, shaped like gemm_s8's: every compiled instance this CPU can
/// execute, generic first, each run through gemm's own front end.
int gemm_instance_count();
const char* gemm_instance_name(int i);
void gemm_run_instance(int i, bool trans_a, bool trans_b, int64_t m,
                       int64_t n, int64_t k, float alpha, const float* a,
                       const float* b, float beta, float* c);
void gemm_run_instance(int i, int64_t m, int64_t n, int64_t k,
                       const float* a, const float* b, float* c,
                       const GemmEpilogue& epi);

}  // namespace nb
