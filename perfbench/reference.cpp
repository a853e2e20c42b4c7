#include "reference.h"

#include <chrono>
#include <cstdint>
#include <vector>

namespace pb {

namespace {

constexpr int kM = 64, kK = 256, kN = 256, kReps = 3;

/// A row-major float GEMM, C = A * B, repeated: the inner loop over N
/// vectorizes and the operands (~400 KB) stay in L2. The loop runs ~2 ms
/// because the host throttles sustained vector work: a loop of a few
/// tenths of a millisecond sees burst speed and stops tracking calls that
/// run for milliseconds.
struct Operands {
  Operands() : a(kM * kK), b(kK * kN), c(kM * kN) {
    for (int i = 0; i < kM * kK; ++i) a[i] = 1.0f / static_cast<float>(1 + i % 7);
    for (int i = 0; i < kK * kN; ++i) b[i] = 0.5f - static_cast<float>(i % 5) * 0.1f;
  }
  std::vector<float> a, b, c;
};

volatile float g_sink = 0.0f;

__attribute__((noinline)) void gemm_loop(Operands& o) {
  for (int rep = 0; rep < kReps; ++rep) {
    for (int i = 0; i < kM; ++i) {
      float* c = o.c.data() + i * kN;
      for (int j = 0; j < kN; ++j) c[j] = 0.0f;
      for (int k = 0; k < kK; ++k) {
        const float a = o.a[static_cast<size_t>(i * kK + k)];
        const float* b = o.b.data() + k * kN;
        for (int j = 0; j < kN; ++j) c[j] += a * b[j];
      }
    }
  }
  g_sink = o.c[static_cast<size_t>(kN + 1)];
}

}  // namespace

double reference_ms() {
  thread_local Operands operands;
  const auto t0 = std::chrono::steady_clock::now();
  gemm_loop(operands);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace pb
