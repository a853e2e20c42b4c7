#include "tensor/gemm_s8.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "tensor/gemm_s8_kernel.h"
#include "tensor/requantize.h"
#include "tensor/tensor.h"

namespace nb {

namespace {

using GemmS8KernelFn = void (*)(int64_t, int64_t, int64_t, const int8_t*,
                                const GemmS8PackedA*, const uint8_t*,
                                int32_t*, const GemmS8Epilogue*);
using GemmS8PackFn = void (*)(int64_t, int64_t, const int8_t*,
                              std::vector<int8_t>&, std::vector<int32_t>&);

struct Instance {
  const char* name;
  GemmS8KernelFn fn;
  GemmS8PackFn pack;
};

// Every compiled instance this CPU can execute, generic first; the last
// entry is the one gemm_s8 dispatches to.
const std::vector<Instance>& instances() {
  static const std::vector<Instance> list = [] {
    std::vector<Instance> v;
    v.push_back({"s8-generic", &detail::gemm_s8_packed_generic,
                 &detail::gemm_s8_pack_generic});
#if defined(NB_GEMM_S8_AVX2)
    if (__builtin_cpu_supports("avx2")) {
      v.push_back({"s8-avx2", &detail::gemm_s8_packed_avx2,
                   &detail::gemm_s8_pack_avx2});
    }
#endif
#if defined(NB_GEMM_S8_VNNI)
    if (__builtin_cpu_supports("avx512vnni") &&
        __builtin_cpu_supports("avx512vl")) {
      v.push_back({"s8-vnni", &detail::gemm_s8_packed_vnni,
                   &detail::gemm_s8_pack_vnni});
    }
#endif
    return v;
  }();
  return list;
}

const Instance& instance(int i) { return instances()[static_cast<size_t>(i)]; }

int active_instance() { return gemm_s8_instance_count() - 1; }

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

void check_depth(int64_t k) {
  NB_CHECK(k <= kGemmS8MaxK,
           "gemm_s8: K too large for exact int32 accumulation");
}

// The front end every entry point shares: empty shapes and the empty
// reduction.
void run(const Instance& inst, int64_t m, int64_t n, int64_t k,
         const int8_t* a, const GemmS8PackedA* pa, const uint8_t* b,
         int32_t* c, const GemmS8Epilogue* epi) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    store_empty_product(m, n, c, epi);
    return;
  }
  inst.fn(m, n, k, a, pa, b, c, epi);
}

// Packed A (whose K was checked when it was packed) runs only on the
// instance whose layout it holds; an epilogue needs its scales.
void run_packed(int i, const GemmS8PackedA& a, int64_t n, const uint8_t* b,
                int32_t* c, const GemmS8Epilogue* epi) {
  const Instance& inst = instance(i);
  const bool ours =
      a.instance() != nullptr && std::strcmp(a.instance(), inst.name) == 0;
  NB_CHECK(ours && (epi == nullptr || epi->eff != nullptr),
           ours ? std::string("gemm_s8: the requantize epilogue needs its "
                              "scales")
                : std::string("gemm_s8: panels packed for ") +
                      (a.instance() == nullptr ? "no instance"
                                               : a.instance()) +
                      " cannot run on " + inst.name);
  run(inst, a.rows(), n, a.depth(), nullptr, &a, b, c, epi);
}

}  // namespace

const char* gemm_s8_kernel_name() { return instance(active_instance()).name; }

int gemm_s8_instance_count() {
  return static_cast<int>(instances().size());
}

const char* gemm_s8_instance_name(int i) { return instance(i).name; }

void gemm_s8_run_instance(int i, int64_t m, int64_t n, int64_t k,
                          const int8_t* a, const uint8_t* b, int32_t* c) {
  check_depth(k);
  run(instance(i), m, n, k, a, nullptr, b, c, nullptr);
}

GemmS8PackedA gemm_s8_pack_instance(int i, int64_t m, int64_t k,
                                    const int8_t* a) {
  check_depth(k);
  const Instance& inst = instance(i);
  GemmS8PackedA packed;
  packed.m_ = std::max<int64_t>(m, 0);
  packed.k_ = std::max<int64_t>(k, 0);
  packed.instance_ = inst.name;
  if (m > 0 && k > 0) inst.pack(m, k, a, packed.panels_, packed.rowsums_);
  return packed;
}

void gemm_s8_run_instance(int i, const GemmS8PackedA& a, int64_t n,
                          const uint8_t* b, int32_t* c) {
  run_packed(i, a, n, b, c, nullptr);
}

void gemm_s8_run_instance(int i, const GemmS8PackedA& a, int64_t n,
                          const uint8_t* b, float* out,
                          const GemmS8Epilogue& epi) {
  run_packed(i, a, n, b, reinterpret_cast<int32_t*>(out), &epi);
}

void gemm_s8(int64_t m, int64_t n, int64_t k, const int8_t* a,
             const uint8_t* b, int32_t* c) {
  gemm_s8_run_instance(active_instance(), m, n, k, a, b, c);
}

GemmS8PackedA gemm_s8_pack(int64_t m, int64_t k, const int8_t* a) {
  return gemm_s8_pack_instance(active_instance(), m, k, a);
}

void gemm_s8(const GemmS8PackedA& a, int64_t n, const uint8_t* b,
             int32_t* c) {
  run_packed(active_instance(), a, n, b, c, nullptr);
}

void gemm_s8(const GemmS8PackedA& a, int64_t n, const uint8_t* b, float* out,
             const GemmS8Epilogue& epi) {
  run_packed(active_instance(), a, n, b, reinterpret_cast<int32_t*>(out),
             &epi);
}

}  // namespace nb
