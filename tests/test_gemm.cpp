#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "gemm_staged_kernel.h"
#include "tensor/gemm.h"
#include "tensor/requantize.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "tensor/threadpool.h"
#include "test_util.h"

namespace nb {
namespace {

// Reference GEMM, no blocking, double accumulation.
void naive_gemm(bool ta, bool tb, int64_t m, int64_t n, int64_t k, float alpha,
                const float* a, const float* b, float beta, float* c) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        const float av = ta ? a[p * m + i] : a[i * k + p];
        const float bv = tb ? b[j * k + p] : b[p * n + j];
        acc += static_cast<double>(av) * bv;
      }
      c[i * n + j] = alpha * static_cast<float>(acc) + beta * c[i * n + j];
    }
  }
}

struct GemmCase {
  int64_t m, n, k;
  bool ta, tb;
  float alpha, beta;
};

class GemmParam : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmParam, MatchesNaive) {
  const GemmCase& tc = GetParam();
  Rng rng(11 + tc.m * 31 + tc.n * 7 + tc.k);
  std::vector<float> a(static_cast<size_t>(tc.m * tc.k));
  std::vector<float> b(static_cast<size_t>(tc.k * tc.n));
  std::vector<float> c(static_cast<size_t>(tc.m * tc.n));
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  for (auto& v : c) v = rng.normal();
  std::vector<float> c_ref = c;

  gemm(tc.ta, tc.tb, tc.m, tc.n, tc.k, tc.alpha, a.data(), b.data(), tc.beta,
       c.data());
  naive_gemm(tc.ta, tc.tb, tc.m, tc.n, tc.k, tc.alpha, a.data(), b.data(),
             tc.beta, c_ref.data());

  for (size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], c_ref[i], 1e-3f * (1.0f + std::fabs(c_ref[i])));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmParam,
    ::testing::Values(
        GemmCase{1, 1, 1, false, false, 1.0f, 0.0f},
        GemmCase{3, 5, 7, false, false, 1.0f, 0.0f},
        GemmCase{8, 8, 8, false, false, 2.0f, 1.0f},
        GemmCase{16, 9, 33, false, false, 1.0f, 0.5f},
        GemmCase{5, 6, 4, true, false, 1.0f, 0.0f},
        GemmCase{5, 6, 4, false, true, 1.0f, 0.0f},
        GemmCase{5, 6, 4, true, true, 1.0f, 0.0f},
        GemmCase{13, 17, 70, true, true, -1.5f, 2.0f},
        GemmCase{64, 65, 66, false, false, 1.0f, 0.0f},
        GemmCase{2, 128, 3, false, true, 1.0f, 1.0f}));

TEST(Gemm, BetaZeroOverwritesGarbage) {
  std::vector<float> a{1.0f};
  std::vector<float> b{2.0f};
  std::vector<float> c{std::nanf("")};
  gemm(false, false, 1, 1, 1, 1.0f, a.data(), b.data(), 0.0f, c.data());
  EXPECT_FLOAT_EQ(c[0], 2.0f);
}

TEST(Gemm, AlphaZeroScalesOnly) {
  std::vector<float> a{1.0f};
  std::vector<float> b{2.0f};
  std::vector<float> c{3.0f};
  gemm(false, false, 1, 1, 1, 0.0f, a.data(), b.data(), 0.5f, c.data());
  EXPECT_FLOAT_EQ(c[0], 1.5f);
}

// Regression: the old kernel skipped the whole B row when an A element was
// zero, silently dropping NaN/Inf that IEEE arithmetic must propagate
// (0 * NaN == NaN, 0 * Inf == NaN). The packed kernel has no such branch.
TEST(Gemm, ZeroTimesNaNPropagates) {
  const int64_t m = 3, n = 4, k = 2;
  std::vector<float> a(static_cast<size_t>(m * k), 0.0f);
  std::vector<float> b(static_cast<size_t>(k * n), 1.0f);
  b[static_cast<size_t>(0 * n + 2)] = std::nanf("");  // B[0][2]
  std::vector<float> c(static_cast<size_t>(m * n), 7.0f);
  gemm(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      const float v = c[static_cast<size_t>(i * n + j)];
      if (j == 2) {
        EXPECT_TRUE(std::isnan(v)) << "0 * NaN must be NaN at (" << i << ", 2)";
      } else {
        EXPECT_FLOAT_EQ(v, 0.0f);
      }
    }
  }
}

TEST(Gemm, ZeroTimesInfPropagatesAsNaN) {
  const int64_t m = 2, n = 3, k = 3;
  std::vector<float> a(static_cast<size_t>(m * k), 0.0f);
  std::vector<float> b(static_cast<size_t>(k * n),
                       std::numeric_limits<float>::infinity());
  std::vector<float> c(static_cast<size_t>(m * n), 0.0f);
  gemm(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
  for (float v : c) EXPECT_TRUE(std::isnan(v));
}

TEST(Gemm, NaNInALandsInItsRowOnly) {
  // Large enough to take the forked, packed path; the NaN must poison
  // exactly row 5 (every column) and nothing else.
  const int64_t m = 64, n = 64, k = 64;
  std::vector<float> a(static_cast<size_t>(m * k), 0.5f);
  std::vector<float> b(static_cast<size_t>(k * n), 0.25f);
  a[static_cast<size_t>(5 * k + 11)] = std::nanf("");
  std::vector<float> c(static_cast<size_t>(m * n), 0.0f);
  gemm(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      const float v = c[static_cast<size_t>(i * n + j)];
      if (i == 5) {
        EXPECT_TRUE(std::isnan(v)) << "(" << i << ", " << j << ")";
      } else {
        EXPECT_FALSE(std::isnan(v)) << "(" << i << ", " << j << ")";
      }
    }
  }
}

// ---- every instance against the memory-staged kernel, bit for bit --------

using StagedFn = void (*)(int64_t, int64_t, int64_t, float, const float*,
                          const float*, float, float*);

// The staged oracle built with the flags of the named instance.
StagedFn staged_kernel_for(const std::string& instance) {
  if (instance == "packed-generic") return &detail::gemm_staged_generic;
#if defined(NB_GEMM_STAGED_AVX2)
  if (instance == "packed-avx2") return &detail::gemm_staged_avx2;
#endif
  return nullptr;
}

// The staged kernel's own front end: transposed operands are copied into
// the NN layout before the kernel runs (k > 0 and alpha != 0 here).
void staged_gemm(StagedFn kernel, bool ta, bool tb, int64_t m, int64_t n,
                 int64_t k, float alpha, const float* a, const float* b,
                 float beta, float* c) {
  std::vector<float> at, bt;
  if (ta) {
    at.resize(static_cast<size_t>(m * k));
    for (int64_t p = 0; p < k; ++p) {
      for (int64_t i = 0; i < m; ++i) at[i * k + p] = a[p * m + i];
    }
    a = at.data();
  }
  if (tb) {
    bt.resize(static_cast<size_t>(k * n));
    for (int64_t j = 0; j < n; ++j) {
      for (int64_t p = 0; p < k; ++p) bt[p * n + j] = b[j * k + p];
    }
    b = bt.data();
  }
  kernel(m, n, k, alpha, a, b, beta, c);
}

// A normal draw, or with probability 1/32 (when `specials`) one of NaN,
// +inf, -inf, -0.0 or +0.0.
float draw(Rng& rng, bool specials) {
  if (specials && rng.randint(32) == 0) {
    const float corner[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(), -0.0f,
                            0.0f};
    return corner[rng.randint(5)];
  }
  return rng.normal();
}

struct InstanceCase {
  bool ta, tb;
  int64_t m, n, k;
  float alpha, beta;
  bool specials;
};

// Same bits, or both NaN. C++ leaves a NaN's sign and payload to the
// compiler, which may commute an add and so return the other operand's NaN
// (a quiet-NaN input against the negative default NaN that inf * 0 makes);
// every other bit pattern, -0.0 and +-inf included, must match exactly.
bool same_bits(float got, float want) {
  return std::memcmp(&got, &want, sizeof(float)) == 0 ||
         (std::isnan(got) && std::isnan(want));
}

// Runs one case through instance `inst` and its staged oracle from identical
// inputs. C carries a guard band of eight rows past its m x n window, so a
// tile that stores a padded row or column differs from the oracle too.
::testing::AssertionResult matches_staged(int inst, StagedFn oracle,
                                          const InstanceCase& tc,
                                          uint64_t seed) {
  Rng rng(seed, 7);
  std::vector<float> a(static_cast<size_t>(tc.m * tc.k));
  std::vector<float> b(static_cast<size_t>(tc.k * tc.n));
  std::vector<float> c(static_cast<size_t>((tc.m + 8) * tc.n + 8));
  for (float& v : a) v = draw(rng, tc.specials);
  for (float& v : b) v = draw(rng, tc.specials);
  for (float& v : c) v = draw(rng, tc.specials);
  std::vector<float> want = c;
  gemm_run_instance(inst, tc.ta, tc.tb, tc.m, tc.n, tc.k, tc.alpha, a.data(),
                    b.data(), tc.beta, c.data());
  staged_gemm(oracle, tc.ta, tc.tb, tc.m, tc.n, tc.k, tc.alpha, a.data(),
              b.data(), tc.beta, want.data());
  for (size_t at = 0; at < c.size(); ++at) {
    if (same_bits(c[at], want[at])) continue;
    return ::testing::AssertionFailure()
           << gemm_instance_name(inst) << " ta=" << tc.ta << " tb=" << tc.tb
           << " m=" << tc.m << " n=" << tc.n << " k=" << tc.k
           << " alpha=" << tc.alpha << " beta=" << tc.beta
           << " specials=" << tc.specials << ": first difference at element "
           << at << (at >= static_cast<size_t>(tc.m * tc.n) ? " (guard)" : "")
           << ", got " << c[at] << ", staged kernel " << want[at];
  }
  return ::testing::AssertionSuccess();
}

TEST(GemmInstances, EveryInstanceMatchesTheStagedKernelBitwise) {
  const float alphas[] = {1.0f, -2.0f};
  const float betas[] = {0.0f, 1.0f, 0.5f};
  ASSERT_GE(gemm_instance_count(), 1);
  EXPECT_STREQ(gemm_instance_name(gemm_instance_count() - 1),
               gemm_kernel_name());
  for (int inst = 0; inst < gemm_instance_count(); ++inst) {
    const StagedFn oracle = staged_kernel_for(gemm_instance_name(inst));
    ASSERT_NE(oracle, nullptr) << gemm_instance_name(inst);
    uint64_t seed = 0;
    // Full and fringe tiles: every (m, n) in 1..17 under all four
    // transposes, both alphas and the three beta rules.
    const int64_t small_k[] = {1, 5, 19};
    for (int64_t m = 1; m <= 17; ++m) {
      for (int64_t n = 1; n <= 17; ++n) {
        for (int combo = 0; combo < 24; ++combo) {
          const InstanceCase tc{(combo & 1) != 0,     (combo & 2) != 0,
                                m,
                                n,
                                small_k[(m + n + combo) % 3],
                                alphas[(combo >> 2) % 2],
                                betas[(combo >> 3) % 3],
                                false};
          ASSERT_TRUE(matches_staged(inst, oracle, tc, ++seed));
        }
      }
    }
    // K-block and N-stripe edges, with two row blocks so the forked path
    // runs too.
    for (int64_t k : {1, 4, 255, 256, 257, 513}) {
      for (int64_t n : {1023, 1024, 1025}) {
        for (int t = 0; t < 4; ++t) {
          const InstanceCase tc{(t & 1) != 0,
                                (t & 2) != 0,
                                9,
                                n,
                                k,
                                alphas[(k + t) % 2],
                                betas[(n + t) % 3],
                                false};
          ASSERT_TRUE(matches_staged(inst, oracle, tc, ++seed));
        }
      }
    }
    // A read in place (no transpose, alpha 1) across K blocks and the
    // forked path, with fringe row blocks whose padded rows alias row 0.
    for (int64_t m : {9, 13, 17}) {
      for (int64_t k : {257, 513}) {
        for (int64_t n : {100, 1025}) {
          for (int t = 0; t < 2; ++t) {
            const InstanceCase tc{false, t != 0, m,    n,
                                  k,     1.0f,  betas[(m + k + n + t) % 3],
                                  false};
            ASSERT_TRUE(matches_staged(inst, oracle, tc, ++seed));
          }
        }
      }
    }
    // The 6-row tile's edges: m around multiples of 6, n around one and
    // two vectors, every transpose pair, both alphas and the three beta
    // rules, serial (k = 3) and forked (k = 300 where m*n*k reaches the
    // fork threshold), then the 1024-column stripe with fringe row blocks.
    for (int64_t m : {5, 6, 7, 11, 12, 13, 17, 18, 19}) {
      for (int64_t n : {8, 9, 16, 17, 32, 33}) {
        for (int64_t k : {3, 300}) {
          for (int combo = 0; combo < 4; ++combo) {
            const InstanceCase tc{(combo & 1) != 0,
                                  (combo & 2) != 0,
                                  m,
                                  n,
                                  k,
                                  alphas[(m + combo) % 2],
                                  betas[(n + k + combo) % 3],
                                  false};
            ASSERT_TRUE(matches_staged(inst, oracle, tc, ++seed));
          }
        }
      }
    }
    for (int64_t m : {5, 7, 13}) {
      for (int64_t n : {1023, 1024, 1025}) {
        for (int combo = 0; combo < 4; ++combo) {
          const InstanceCase tc{(combo & 1) != 0,
                                (combo & 2) != 0,
                                m,
                                n,
                                37,
                                alphas[(m + combo) % 2],
                                betas[(n + combo) % 3],
                                false};
          ASSERT_TRUE(matches_staged(inst, oracle, tc, ++seed));
        }
      }
    }
    // NaN, +-inf and -0.0 in A, B and C, on tiles, fringes and K blocks.
    for (int64_t m : {1, 7, 8, 13}) {
      for (int64_t n : {1, 6, 8, 17}) {
        for (int64_t k : {1, 3, 300}) {
          for (int combo = 0; combo < 24; ++combo) {
            const InstanceCase tc{(combo & 1) != 0,
                                  (combo & 2) != 0,
                                  m,
                                  n,
                                  k,
                                  alphas[(combo >> 2) % 2],
                                  betas[(combo >> 3) % 3],
                                  true};
            ASSERT_TRUE(matches_staged(inst, oracle, tc, ++seed));
          }
        }
      }
    }
  }
}

// ---- the epilogue entry against the product, then the epilogue ---------

// The NaN x86 arithmetic makes (inf * 0, inf - inf). Drawing input NaNs
// with the same bits gives every NaN in a product one pattern, so the
// memcmp below is exact whichever NaN operand an instruction returns.
const float kDefaultNaN = std::bit_cast<float>(0xffc00000u);

// A normal draw, or with probability 1/64 (when `specials`) one of NaN,
// +inf, -inf or -0.0.
float draw_epilogue_input(Rng& rng, bool specials) {
  if (specials && rng.randint(64) == 0) {
    const float corner[] = {kDefaultNaN,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(), -0.0f};
    return corner[rng.randint(4)];
  }
  return rng.normal();
}

TEST(Gemm, EpilogueMatchesProductThenEpilogueOnEveryInstance) {
  // Every instance's epilogue entry must store the same bits as the same
  // instance's plain product (alpha 1, beta 0) followed by the scalar
  // expression act(acc * scale[i] + bias[i]) per element. M covers three
  // 6-row blocks and every remainder, N every column count of the 16- and
  // 8-wide tiles up to 33 plus the 1024-column stripe; K cycles through the
  // empty reduction and one to three 256-deep K blocks, so the epilogue
  // has to wait for the last one. Activation, bias mode (absent = +0.0f,
  // random, -0.0f), NaN/inf inputs and the thread count of each side cycle
  // with the case index. Scales are not powers of two (odd rows' push
  // |acc * scale| far up), so the multiply rounds and a fused multiply-add
  // would differ; one row's scale is +inf, so 0 * inf = NaN reaches the
  // clamps. Row 3 times column 1 sums products below the smallest
  // denormal, which the FMA instance's chain leaves at -0.0.
  std::vector<int64_t> ns;
  for (int64_t d = 1; d <= 33; ++d) ns.push_back(d);
  ns.insert(ns.end(), {1023, 1024, 1025});
  const int64_t ks[] = {0, 1, 7, 255, 256, 257, 513};
  const EpilogueAct acts[] = {EpilogueAct::identity, EpilogueAct::relu,
                              EpilogueAct::relu6};
  constexpr size_t kGuardFloats = 8;
  ThreadPool one(0);
  ThreadPool four(3);
  Rng rng(20261019);
  int case_idx = 0;
  for (int64_t m = 1; m <= 19; ++m) {
    for (const int64_t n : ns) {
      const int64_t k = ks[case_idx % 7];
      const EpilogueAct act = acts[case_idx % 3];
      const int bias_mode = (case_idx / 3) % 3;
      const bool specials = (case_idx / 9) % 2 == 1;
      const bool epi_on_four = case_idx % 2 == 0;
      ++case_idx;

      std::vector<float> a(static_cast<size_t>(m * k));
      std::vector<float> b(static_cast<size_t>(k * n));
      for (float& v : a) v = draw_epilogue_input(rng, specials);
      for (float& v : b) v = draw_epilogue_input(rng, specials);
      if (m > 3 && n > 1) {
        for (int64_t p = 0; p < k; ++p) {
          a[static_cast<size_t>(3 * k + p)] = -1e-25f;
          b[static_cast<size_t>(p * n + 1)] = 1e-25f;
        }
      }
      std::vector<float> scale(static_cast<size_t>(m));
      std::vector<float> bias(static_cast<size_t>(m));
      for (int64_t i = 0; i < m; ++i) {
        const float sign = rng.randint(2) == 0 ? 1.0f : -1.0f;
        scale[static_cast<size_t>(i)] =
            sign * rng.uniform(0.5f, 1.5f) * (i % 2 == 0 ? 1e-3f : 4096.0f);
        bias[static_cast<size_t>(i)] =
            bias_mode == 2 ? -0.0f : rng.uniform(-8.0f, 8.0f);
      }
      if (m > 4) scale[4] = std::numeric_limits<float>::infinity();
      const float* bias_ptr = bias_mode == 0 ? nullptr : bias.data();
      GemmEpilogue epi;
      epi.scale = scale.data();
      epi.bias = bias_ptr;
      epi.act = act;

      const size_t count = static_cast<size_t>(m * n);
      for (int inst = 0; inst < gemm_instance_count(); ++inst) {
        std::vector<float> want(count + kGuardFloats, kDefaultNaN);
        std::vector<float> got(count + kGuardFloats, kDefaultNaN);
        {
          nb::testing::PoolOverride po(epi_on_four ? one : four);
          gemm_run_instance(inst, false, false, m, n, k, 1.0f, a.data(),
                            b.data(), 0.0f, want.data());
        }
        for (int64_t i = 0; i < m; ++i) {
          for (int64_t j = 0; j < n; ++j) {
            float& v = want[static_cast<size_t>(i * n + j)];
            v = scale_bias_act<ScalarLanes>(
                v, scale[static_cast<size_t>(i)],
                bias_ptr == nullptr ? 0.0f : bias_ptr[i], act);
          }
        }
        {
          nb::testing::PoolOverride po(epi_on_four ? four : one);
          gemm_run_instance(inst, m, n, k, a.data(), b.data(), got.data(),
                            epi);
        }
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(float)),
                  0)
            << gemm_instance_name(inst) << " m=" << m << " n=" << n
            << " k=" << k << " act=" << static_cast<int>(act)
            << " bias_mode=" << bias_mode << " specials=" << specials;
      }
    }
  }
}

}  // namespace
}  // namespace nb
