#include "tensor/gemm.h"

#include <algorithm>
#include <vector>

#include "tensor/gemm_kernel.h"
#include "tensor/requantize.h"

namespace nb {

namespace {

using GemmKernelFn = void (*)(bool, bool, int64_t, int64_t, int64_t, float,
                              const float*, const float*, float, float*,
                              const GemmEpilogue*);

struct Instance {
  const char* name;
  GemmKernelFn fn;
};

// Every compiled instance this CPU can execute, generic first; the last
// entry is the one gemm() dispatches to.
const std::vector<Instance>& instances() {
  static const std::vector<Instance> list = [] {
    std::vector<Instance> v;
    v.push_back({"packed-generic", &detail::gemm_packed_generic});
#if defined(NB_GEMM_AVX2)
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      v.push_back({"packed-avx2", &detail::gemm_packed_avx2});
    }
#endif
    return v;
  }();
  return list;
}

void scale_rows(float* c, int64_t count, float beta) {
  if (beta == 0.0f) {
    std::fill(c, c + count, 0.0f);
  } else if (beta != 1.0f) {
    for (int64_t i = 0; i < count; ++i) c[i] *= beta;
  }
}

// The empty reduction under an epilogue: every element of row i is the
// plain product's exact +0.0 mapped through row i's epilogue. No conv
// lowering reaches it.
[[gnu::cold]] void store_empty_product(int64_t m, int64_t n, float* c,
                                       const GemmEpilogue& epi) {
  for (int64_t i = 0; i < m; ++i) {
    const float y = scale_bias_act<ScalarLanes>(
        0.0f, epi.scale[i], epi.bias == nullptr ? 0.0f : epi.bias[i], epi.act);
    std::fill_n(c + i * n, n, y);
  }
}

// The BLAS corners every instance shares, then the packed kernel, which
// reads transposed operands in place while it packs them.
void run(GemmKernelFn kernel, bool trans_a, bool trans_b, int64_t m,
         int64_t n, int64_t k, float alpha, const float* a, const float* b,
         float beta, float* c) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0 || alpha == 0.0f) {
    // BLAS convention: no product term, C = beta * C without touching A or B.
    scale_rows(c, m * n, beta);
    return;
  }
  kernel(trans_a, trans_b, m, n, k, alpha, a, b, beta, c, nullptr);
}

void run(GemmKernelFn kernel, int64_t m, int64_t n, int64_t k,
         const float* a, const float* b, float* c, const GemmEpilogue& epi) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    store_empty_product(m, n, c, epi);
    return;
  }
  kernel(false, false, m, n, k, 1.0f, a, b, 0.0f, c, &epi);
}

}  // namespace

const char* gemm_kernel_name() { return instances().back().name; }

int gemm_instance_count() { return static_cast<int>(instances().size()); }

const char* gemm_instance_name(int i) {
  return instances()[static_cast<size_t>(i)].name;
}

void gemm_run_instance(int i, bool trans_a, bool trans_b, int64_t m,
                       int64_t n, int64_t k, float alpha, const float* a,
                       const float* b, float beta, float* c) {
  run(instances()[static_cast<size_t>(i)].fn, trans_a, trans_b, m, n, k,
      alpha, a, b, beta, c);
}

void gemm_run_instance(int i, int64_t m, int64_t n, int64_t k,
                       const float* a, const float* b, float* c,
                       const GemmEpilogue& epi) {
  run(instances()[static_cast<size_t>(i)].fn, m, n, k, a, b, c, epi);
}

void gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
          float alpha, const float* a, const float* b, float beta, float* c) {
  run(instances().back().fn, trans_a, trans_b, m, n, k, alpha, a, b, beta,
      c);
}

void gemm(int64_t m, int64_t n, int64_t k, const float* a, const float* b,
          float* c, const GemmEpilogue& epi) {
  run(instances().back().fn, m, n, k, a, b, c, epi);
}

}  // namespace nb
