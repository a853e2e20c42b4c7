// Row-major single-precision GEMM. This is the computational core of every
// convolution (via im2col) and linear layer in the library.
//
// Implementation: a cache-blocked, register-tiled kernel (gemm_kernel.inc)
// that packs op(A) into row panels and op(B) into column panels held in a
// per-thread scratch arena (transposed operands are read in place while
// packing), runs an 8x8 register micro-tile over them, and stores each tile
// straight into C. On x86-64 an AVX2+FMA instance is selected at runtime.
//
// Accumulation policy (applies to gemm and both gemv paths):
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
#pragma once

#include <cstdint>

namespace nb {

/// C[M,N] = alpha * op(A) * op(B) + beta * C, all row-major.
/// op(A) is A[M,K] (trans_a=false) or A[K,M] transposed (trans_a=true);
/// likewise for B with shape [K,N] / [N,K].
void gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
          float alpha, const float* a, const float* b, float beta, float* c);

/// y[M] = alpha * op(A) * x + beta * y. Accumulates in float on both the
/// plain and transposed paths (see the accumulation policy above).
void gemv(bool trans_a, int64_t m, int64_t n, float alpha, const float* a,
          const float* x, float beta, float* y);

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

}  // namespace nb
