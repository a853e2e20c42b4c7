#include "tensor/gemm_s8.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "tensor/gemm_s8_kernel.h"
#include "tensor/requantize.h"
#include "tensor/tensor.h"

namespace nb {

namespace {

using GemmS8KernelFn = void (*)(int64_t, int64_t, int64_t, const int8_t*,
                                const uint8_t*, int32_t*,
                                const GemmS8Epilogue*);

GemmS8KernelFn pick_kernel() {
#if defined(NB_GEMM_S8_VNNI)
  if (__builtin_cpu_supports("avx512vnni") &&
      __builtin_cpu_supports("avx512vl")) {
    return &detail::gemm_s8_packed_vnni;
  }
#endif
#if defined(NB_GEMM_S8_AVX2)
  if (__builtin_cpu_supports("avx2")) {
    return &detail::gemm_s8_packed_avx2;
  }
#endif
  return &detail::gemm_s8_packed_generic;
}

GemmS8KernelFn active_kernel() {
  static const GemmS8KernelFn kernel = pick_kernel();
  return kernel;
}

struct Instance {
  const char* name;
  GemmS8KernelFn fn;
};

const std::vector<Instance>& instances() {
  static const std::vector<Instance> list = [] {
    std::vector<Instance> v;
    v.push_back({"s8-generic", &detail::gemm_s8_packed_generic});
#if defined(NB_GEMM_S8_AVX2)
    if (__builtin_cpu_supports("avx2")) {
      v.push_back({"s8-avx2", &detail::gemm_s8_packed_avx2});
    }
#endif
#if defined(NB_GEMM_S8_VNNI)
    if (__builtin_cpu_supports("avx512vnni") &&
        __builtin_cpu_supports("avx512vl")) {
      v.push_back({"s8-vnni", &detail::gemm_s8_packed_vnni});
    }
#endif
    return v;
  }();
  return list;
}

// The empty reduction: C is an exact zero, which the epilogue still maps.
// No conv lowering reaches it, so it stays out of the hot path.
[[gnu::cold]] void store_empty_product(int64_t m, int64_t n, int32_t* c,
                                       const GemmS8Epilogue* epi) {
  if (epi == nullptr) {
    std::fill_n(c, m * n, 0);
    return;
  }
  float* out = reinterpret_cast<float*>(c);
  for (int64_t i = 0; i < m; ++i) {
    std::fill_n(out + i * n, n, requantize<ScalarLanes>(
        0, epi->eff[i], epi->bias == nullptr ? 0.0f : epi->bias[i], epi->act));
  }
}

// The front end every entry point shares: empty shapes, the empty
// reduction and the K bound.
void run(GemmS8KernelFn fn, int64_t m, int64_t n, int64_t k, const int8_t* a,
         const uint8_t* b, int32_t* c, const GemmS8Epilogue* epi) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    store_empty_product(m, n, c, epi);
    return;
  }
  NB_CHECK(k <= kGemmS8MaxK,
           "gemm_s8: K too large for exact int32 accumulation");
  NB_CHECK(epi == nullptr || epi->eff != nullptr,
           "gemm_s8: the requantize epilogue needs its scales");
  fn(m, n, k, a, b, c, epi);
}

}  // namespace

const char* gemm_s8_kernel_name() {
#if defined(NB_GEMM_S8_VNNI)
  if (active_kernel() == &detail::gemm_s8_packed_vnni) return "s8-vnni";
#endif
#if defined(NB_GEMM_S8_AVX2)
  if (active_kernel() == &detail::gemm_s8_packed_avx2) return "s8-avx2";
#endif
  return "s8-generic";
}

int gemm_s8_instance_count() {
  return static_cast<int>(instances().size());
}

const char* gemm_s8_instance_name(int i) {
  return instances()[static_cast<size_t>(i)].name;
}

void gemm_s8_run_instance(int i, int64_t m, int64_t n, int64_t k,
                          const int8_t* a, const uint8_t* b, int32_t* c) {
  run(instances()[static_cast<size_t>(i)].fn, m, n, k, a, b, c, nullptr);
}

void gemm_s8_run_instance(int i, int64_t m, int64_t n, int64_t k,
                          const int8_t* a, const uint8_t* b, float* out,
                          const GemmS8Epilogue& epi) {
  run(instances()[static_cast<size_t>(i)].fn, m, n, k, a, b,
      reinterpret_cast<int32_t*>(out), &epi);
}

void gemm_s8(int64_t m, int64_t n, int64_t k, const int8_t* a,
             const uint8_t* b, int32_t* c) {
  run(active_kernel(), m, n, k, a, b, c, nullptr);
}

void gemm_s8(int64_t m, int64_t n, int64_t k, const int8_t* a,
             const uint8_t* b, float* out, const GemmS8Epilogue& epi) {
  run(active_kernel(), m, n, k, a, b, reinterpret_cast<int32_t*>(out), &epi);
}

}  // namespace nb
