// Regression harness for the packed GEMM: randomized comparison against a
// naive reference across every trans/alpha/beta combination and odd sizes,
// plus the substrate's headline guarantee — results are bitwise identical
// for any worker count (NB_THREADS 1 vs 4 in-process via the pool override).
// The int8 GEMM's requantize epilogue is held bit for bit to the int32
// product followed by exporter::requantize_row on every instance.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "export/qmodel.h"
#include "tensor/gemm.h"
#include "tensor/gemm_s8.h"
#include "tensor/rng.h"
#include "tensor/threadpool.h"

namespace nb {
namespace {

// The 10-line reference: no blocking, double accumulation.
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

void fill_random(std::vector<float>& v, Rng& rng) {
  for (float& x : v) x = rng.normal();
}

// Sets the nb::parallel_for pool for the lifetime of one scope.
class PoolOverride {
 public:
  explicit PoolOverride(ThreadPool& pool) {
    ThreadPool::set_global_override(&pool);
  }
  ~PoolOverride() { ThreadPool::set_global_override(nullptr); }
};

TEST(GemmReference, RandomizedOddShapesAllTransAlphaBeta) {
  const int64_t sizes[] = {1, 3, 17, 64, 129};
  const float alphas[] = {1.0f, -0.75f};
  const float betas[] = {0.0f, 1.0f, 0.5f};
  Rng rng(20260730);
  int case_idx = 0;
  for (int64_t m : sizes) {
    for (int64_t n : sizes) {
      for (int64_t k : sizes) {
        // Cycle deterministically through the flag/scalar combinations so
        // all 125 size triples cover every (ta, tb, alpha, beta) corner.
        const bool ta = (case_idx & 1) != 0;
        const bool tb = (case_idx & 2) != 0;
        const float alpha = alphas[(case_idx >> 2) % 2];
        const float beta = betas[case_idx % 3];
        ++case_idx;

        std::vector<float> a(static_cast<size_t>(m * k));
        std::vector<float> b(static_cast<size_t>(k * n));
        std::vector<float> c(static_cast<size_t>(m * n));
        fill_random(a, rng);
        fill_random(b, rng);
        fill_random(c, rng);
        std::vector<float> c_ref = c;

        gemm(ta, tb, m, n, k, alpha, a.data(), b.data(), beta, c.data());
        naive_gemm(ta, tb, m, n, k, alpha, a.data(), b.data(), beta,
                   c_ref.data());

        float worst = 0.0f;
        for (size_t i = 0; i < c.size(); ++i) {
          const float tol = 1e-3f * (1.0f + std::fabs(c_ref[i]));
          worst = std::max(worst, std::fabs(c[i] - c_ref[i]) / tol);
        }
        EXPECT_LE(worst, 1.0f) << "m=" << m << " n=" << n << " k=" << k
                               << " ta=" << ta << " tb=" << tb
                               << " alpha=" << alpha << " beta=" << beta;
      }
    }
  }
}

TEST(GemmReference, BitwiseInvariantAcrossThreadCounts) {
  // NB_THREADS=1 is a pool with no workers; NB_THREADS=4 is 3 workers plus
  // the calling thread. Every shape is big enough to take the forked path.
  ThreadPool one(0);
  ThreadPool four(3);
  const struct {
    int64_t m, n, k;
  } shapes[] = {{129, 129, 129}, {256, 64, 64}, {64, 257, 65}, {17, 64, 129}};
  Rng rng(42);
  for (const auto& s : shapes) {
    std::vector<float> a(static_cast<size_t>(s.m * s.k));
    std::vector<float> b(static_cast<size_t>(s.k * s.n));
    fill_random(a, rng);
    fill_random(b, rng);
    std::vector<float> c1(static_cast<size_t>(s.m * s.n), 0.0f);
    std::vector<float> c4 = c1;
    {
      PoolOverride po(one);
      gemm(false, false, s.m, s.n, s.k, 1.0f, a.data(), b.data(), 0.0f,
           c1.data());
    }
    {
      PoolOverride po(four);
      gemm(false, false, s.m, s.n, s.k, 1.0f, a.data(), b.data(), 0.0f,
           c4.data());
    }
    EXPECT_EQ(std::memcmp(c1.data(), c4.data(), c1.size() * sizeof(float)), 0)
        << "thread-count-dependent result at m=" << s.m << " n=" << s.n
        << " k=" << s.k;
  }
}

TEST(GemmReference, RowAtATimeMatchesWholeProductBitwise) {
  // The accumulation order depends only on N and K, so slicing M must not
  // change a single bit — this is what makes batch size irrelevant to math.
  const int64_t m = 37, n = 129, k = 65;
  Rng rng(7);
  std::vector<float> a(static_cast<size_t>(m * k));
  std::vector<float> b(static_cast<size_t>(k * n));
  fill_random(a, rng);
  fill_random(b, rng);
  std::vector<float> c(static_cast<size_t>(m * n), 0.0f);
  std::vector<float> c_rows(static_cast<size_t>(m * n), 0.0f);
  gemm(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
  for (int64_t i = 0; i < m; ++i) {
    gemm(false, false, 1, n, k, 1.0f, a.data() + i * k, b.data(), 0.0f,
         c_rows.data() + i * n);
  }
  EXPECT_EQ(std::memcmp(c.data(), c_rows.data(), c.size() * sizeof(float)), 0);
}

// ----------------------------------------------------------------------
// Int8 GEMM (gemm_s8): the contract is exact int32, so every comparison
// below is memcmp — zero tolerance, on every compiled kernel instance.

// The obviously-correct reference: int64 accumulation of the documented
// contract C[i,j] = sum_p A[i,p] * (B[p,j] - 128).
void naive_gemm_s8(int64_t m, int64_t n, int64_t k, const int8_t* a,
                   const uint8_t* b, int32_t* c) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      int64_t acc = 0;
      for (int64_t p = 0; p < k; ++p) {
        acc += static_cast<int64_t>(a[i * k + p]) *
               (static_cast<int64_t>(b[p * n + j]) - 128);
      }
      ASSERT_GE(acc, INT32_MIN) << "test shape itself overflows int32";
      ASSERT_LE(acc, INT32_MAX) << "test shape itself overflows int32";
      c[i * n + j] = static_cast<int32_t>(acc);
    }
  }
}

void fill_levels_s8(std::vector<int8_t>& v, Rng& rng) {
  for (int8_t& x : v) x = static_cast<int8_t>(rng.randint(255) - 127);
}

void fill_levels_u8(std::vector<uint8_t>& v, Rng& rng) {
  // Offset-u8 levels: level in [-127, 127] stored as byte level + 128.
  for (uint8_t& x : v) x = static_cast<uint8_t>(rng.randint(255) + 1);
}

TEST(GemmS8, RandomizedShapesMatchNaiveOnEveryInstance) {
  // M/N cover micro-tile remainders (kMr = kNr = 8); K covers the 4-wide
  // packing remainder (k % 4 != 0), the kc = 256 block boundary, and
  // straddles of it. Every compiled instance must agree with the naive
  // reference bit for bit.
  const int64_t ms[] = {1, 3, 8, 9, 17, 33};
  const int64_t ns[] = {1, 7, 8, 15, 40, 129};
  const int64_t ks[] = {1, 2, 3, 4, 5, 63, 64, 255, 256, 257, 300};
  ASSERT_GE(gemm_s8_instance_count(), 1);
  Rng rng(20260807);
  int case_idx = 0;
  for (int64_t m : ms) {
    for (int64_t n : ns) {
      // Cycle K deterministically so the size grid stays affordable.
      const int64_t k = ks[case_idx++ % (sizeof(ks) / sizeof(ks[0]))];
      std::vector<int8_t> a(static_cast<size_t>(m * k));
      std::vector<uint8_t> b(static_cast<size_t>(k * n));
      fill_levels_s8(a, rng);
      fill_levels_u8(b, rng);
      if (m > 2) {
        // A zero row and a zero-level (byte 128) B column exercise the
        // offset compensation: both must come out exactly zero.
        std::fill(a.begin() + static_cast<size_t>(k),
                  a.begin() + static_cast<size_t>(2 * k), int8_t{0});
        for (int64_t p = 0; p < k; ++p) b[static_cast<size_t>(p * n)] = 128;
      }
      std::vector<int32_t> c_ref(static_cast<size_t>(m * n));
      naive_gemm_s8(m, n, k, a.data(), b.data(), c_ref.data());
      for (int i = 0; i < gemm_s8_instance_count(); ++i) {
        std::vector<int32_t> c(static_cast<size_t>(m * n), -1);
        gemm_s8_run_instance(i, m, n, k, a.data(), b.data(), c.data());
        EXPECT_EQ(std::memcmp(c.data(), c_ref.data(),
                              c.size() * sizeof(int32_t)),
                  0)
            << gemm_s8_instance_name(i) << " m=" << m << " n=" << n
            << " k=" << k;
      }
    }
  }
}

TEST(GemmS8, DispatchedKernelMatchesGenericBitwise) {
  const int64_t m = 40, n = 200, k = 300;
  Rng rng(11);
  std::vector<int8_t> a(static_cast<size_t>(m * k));
  std::vector<uint8_t> b(static_cast<size_t>(k * n));
  fill_levels_s8(a, rng);
  fill_levels_u8(b, rng);
  std::vector<int32_t> c_gen(static_cast<size_t>(m * n));
  std::vector<int32_t> c(static_cast<size_t>(m * n));
  gemm_s8_run_instance(0, m, n, k, a.data(), b.data(), c_gen.data());
  gemm_s8(m, n, k, a.data(), b.data(), c.data());
  EXPECT_EQ(
      std::memcmp(c.data(), c_gen.data(), c.size() * sizeof(int32_t)), 0)
      << "dispatched " << gemm_s8_kernel_name() << " diverges from generic";
}

TEST(GemmS8, BitwiseInvariantAcrossThreadCounts) {
  // Shapes past the fork threshold (m*n*k > 2^17) so the parallel row-block
  // and B-pack paths actually run with workers.
  ThreadPool one(0);
  ThreadPool four(3);
  const struct {
    int64_t m, n, k;
  } shapes[] = {{129, 129, 129}, {64, 1100, 65}, {17, 64, 300}};
  Rng rng(42);
  for (const auto& s : shapes) {
    std::vector<int8_t> a(static_cast<size_t>(s.m * s.k));
    std::vector<uint8_t> b(static_cast<size_t>(s.k * s.n));
    fill_levels_s8(a, rng);
    fill_levels_u8(b, rng);
    std::vector<int32_t> c1(static_cast<size_t>(s.m * s.n), 0);
    std::vector<int32_t> c4 = c1;
    {
      PoolOverride po(one);
      gemm_s8(s.m, s.n, s.k, a.data(), b.data(), c1.data());
    }
    {
      PoolOverride po(four);
      gemm_s8(s.m, s.n, s.k, a.data(), b.data(), c4.data());
    }
    EXPECT_EQ(std::memcmp(c1.data(), c4.data(), c1.size() * sizeof(int32_t)),
              0)
        << "thread-count-dependent result at m=" << s.m << " n=" << s.n
        << " k=" << s.k;
  }
}

TEST(GemmS8, RowAtATimeMatchesWholeProductBitwise) {
  const int64_t m = 19, n = 129, k = 260;
  Rng rng(7);
  std::vector<int8_t> a(static_cast<size_t>(m * k));
  std::vector<uint8_t> b(static_cast<size_t>(k * n));
  fill_levels_s8(a, rng);
  fill_levels_u8(b, rng);
  std::vector<int32_t> c(static_cast<size_t>(m * n), 0);
  std::vector<int32_t> c_rows(static_cast<size_t>(m * n), 0);
  gemm_s8(m, n, k, a.data(), b.data(), c.data());
  for (int64_t i = 0; i < m; ++i) {
    gemm_s8(1, n, k, a.data() + i * k, b.data(), c_rows.data() + i * n);
  }
  EXPECT_EQ(std::memcmp(c.data(), c_rows.data(), c.size() * sizeof(int32_t)),
            0);
}

TEST(GemmS8, SaturatedInputsAtMaxExactKStayExact) {
  // The documented worst case: every A level +-127, every B byte 255
  // (level +127) or 1 (level -127), K at the exactness bound. |C| reaches
  // 2^17 * 127 * 127 = 2,114,060,288 — within ~33M of INT32_MAX — and the
  // AVX2 maddubs path additionally proves its i16 pair sums can't saturate
  // (that failure mode would show up at far smaller K). Run on every
  // instance.
  const int64_t k = kGemmS8MaxK;
  const int64_t m = 2, n = 2;
  std::vector<int8_t> a(static_cast<size_t>(m * k));
  std::vector<uint8_t> b(static_cast<size_t>(k * n));
  // Row 0: +127; row 1: -127. Col 0: level +127 (byte 255); col 1: level
  // -127 (byte 1).
  std::fill(a.begin(), a.begin() + static_cast<size_t>(k), int8_t{127});
  std::fill(a.begin() + static_cast<size_t>(k), a.end(), int8_t{-127});
  for (int64_t p = 0; p < k; ++p) {
    b[static_cast<size_t>(p * n)] = 255;
    b[static_cast<size_t>(p * n + 1)] = 1;
  }
  const int32_t big = static_cast<int32_t>(k * 127 * 127);
  const int32_t expect[] = {big, -big, -big, big};
  for (int i = 0; i < gemm_s8_instance_count(); ++i) {
    std::vector<int32_t> c(4, 0);
    gemm_s8_run_instance(i, m, n, k, a.data(), b.data(), c.data());
    EXPECT_EQ(std::memcmp(c.data(), expect, sizeof(expect)), 0)
        << gemm_s8_instance_name(i);
  }
}

TEST(GemmS8, EpilogueMatchesInt32ProductThenRequantizeRowOnEveryInstance) {
  // Every instance with the epilogue (over A packed once for it) must store
  // the same bits as the same instance's int32 product followed by
  // requantize_row per row. M and N
  // cover every micro-tile remainder plus several row blocks and the
  // 1024-column stripe; K covers the empty reduction, the 4-wide packing
  // remainder and one to four 256-deep K blocks, so the epilogue has to
  // wait for the last one.
  // Activation, bias mode (absent = +0.0f, random, -0.0f), K and the
  // thread count of each side cycle with the case index. Odd rows get
  // scales that push |acc * eff| past 2^24, so the multiply rounds and a
  // fused multiply-add would differ; one row's scale is +inf, so
  // 0 * inf = NaN reaches the clamps.
  std::vector<int64_t> dims;
  for (int64_t d = 1; d <= 17; ++d) dims.push_back(d);
  dims.push_back(64);
  dims.push_back(1025);
  const int64_t ks[] = {0, 1, 3, 4, 5, 255, 256, 257, 513, 1024};
  const exporter::FlatAct acts[] = {exporter::FlatAct::identity,
                                    exporter::FlatAct::relu,
                                    exporter::FlatAct::relu6};
  ThreadPool one(0);
  ThreadPool four(3);
  Rng rng(20261018);
  int case_idx = 0;
  for (const int64_t m : dims) {
    for (const int64_t n : dims) {
      // Both sides large would cost ~1G MACs per run under sanitizers;
      // each large side already meets every small one.
      if (m >= 64 && n >= 64) continue;
      const int64_t k = ks[case_idx % 10];
      const exporter::FlatAct act = acts[case_idx % 3];
      const int bias_mode = (case_idx / 3) % 3;
      const bool epi_on_four = case_idx % 2 == 0;
      ++case_idx;

      std::vector<int8_t> a(static_cast<size_t>(m * k));
      std::vector<uint8_t> b(static_cast<size_t>(k * n));
      fill_levels_s8(a, rng);
      fill_levels_u8(b, rng);
      if (m > 2) {
        // A zero row and a zero-level column: exact-zero accumulators,
        // whose sign after the epilogue depends on eff's sign and bias.
        std::fill(a.begin() + static_cast<size_t>(k),
                  a.begin() + static_cast<size_t>(2 * k), int8_t{0});
        for (int64_t p = 0; p < k; ++p) b[static_cast<size_t>(p * n)] = 128;
      }
      std::vector<float> eff(static_cast<size_t>(m));
      std::vector<float> bias(static_cast<size_t>(m));
      for (int64_t i = 0; i < m; ++i) {
        const float sign = rng.randint(2) == 0 ? 1.0f : -1.0f;
        eff[static_cast<size_t>(i)] =
            sign * rng.uniform(0.5f, 1.5f) * (i % 2 == 0 ? 1e-3f : 4096.0f);
        bias[static_cast<size_t>(i)] =
            bias_mode == 2 ? -0.0f : rng.uniform(-8.0f, 8.0f);
      }
      if (m > 4) eff[4] = std::numeric_limits<float>::infinity();
      const float* bias_ptr = bias_mode == 0 ? nullptr : bias.data();

      GemmS8Epilogue epi;
      epi.eff = eff.data();
      epi.bias = bias_ptr;
      epi.act = exporter::epilogue_act(act);
      for (int inst = 0; inst < gemm_s8_instance_count(); ++inst) {
        std::vector<int32_t> acc(static_cast<size_t>(m * n), -1);
        std::vector<float> want(acc.size());
        std::vector<float> got(acc.size(), -1.0f);
        {
          PoolOverride po(epi_on_four ? one : four);
          gemm_s8_run_instance(inst, m, n, k, a.data(), b.data(), acc.data());
        }
        for (int64_t i = 0; i < m; ++i) {
          exporter::requantize_row(
              want.data() + i * n, acc.data() + i * n, n,
              eff[static_cast<size_t>(i)],
              bias_ptr == nullptr ? 0.0f : bias_ptr[i], act);
        }
        {
          PoolOverride po(epi_on_four ? four : one);
          const GemmS8PackedA packed =
              gemm_s8_pack_instance(inst, m, k, a.data());
          gemm_s8_run_instance(inst, packed, n, b.data(), got.data(), epi);
        }
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(float)),
                  0)
            << gemm_s8_instance_name(inst) << " m=" << m << " n=" << n
            << " k=" << k << " act=" << static_cast<int>(act)
            << " bias_mode=" << bias_mode;
      }
    }
  }
}

TEST(GemmS8, PackedPanelsMatchPerCallPackingOnEveryInstance) {
  // Each instance packs A once; every call on that one object must store
  // the same bytes as the same instance's raw-A call, which packs A's
  // panels itself: the int32 product, and with the epilogue, that product
  // requantized per row. M and N cover every micro-tile remainder, several
  // row blocks, the conv shapes N = 25 and 100 and the 1024-column stripe;
  // K covers the 4-wide packing tail and one to four 256-deep K blocks, so
  // each K block's row-sum compensation is checked. Each (m, k) object
  // serves the n values assigned to that k (every (m, n) meets one k),
  // with the packed and raw calls on 1 and 4 threads alternately. Panels
  // run only on the instance whose tag they carry.
  std::vector<int64_t> ms;
  std::vector<int64_t> ns;
  for (int64_t d = 1; d <= 17; ++d) {
    ms.push_back(d);
    ns.push_back(d);
  }
  ms.insert(ms.end(), {64, 1025});
  ns.insert(ns.end(), {25, 100, 1025});
  const int64_t ks[] = {1, 3, 4, 5, 27, 255, 256, 257, 513, 1024};
  constexpr size_t kKs = sizeof(ks) / sizeof(ks[0]);
  ThreadPool one(0);
  ThreadPool four(3);
  Rng rng(20261019);
  int case_idx = 0;
  for (size_t mi = 0; mi < ms.size(); ++mi) {
    const int64_t m = ms[mi];
    for (size_t ki = 0; ki < kKs; ++ki) {
      const int64_t k = ks[ki];
      std::vector<int8_t> a(static_cast<size_t>(m * k));
      fill_levels_s8(a, rng);
      if (m > 2) {
        std::fill(a.begin() + static_cast<size_t>(k),
                  a.begin() + static_cast<size_t>(2 * k), int8_t{0});
      }
      std::vector<float> eff(static_cast<size_t>(m));
      std::vector<float> bias(static_cast<size_t>(m));
      for (int64_t i = 0; i < m; ++i) {
        eff[static_cast<size_t>(i)] =
            rng.uniform(-1.5f, 1.5f) * (i % 2 == 0 ? 1e-3f : 4096.0f);
        bias[static_cast<size_t>(i)] = rng.uniform(-8.0f, 8.0f);
      }
      const exporter::FlatAct act =
          static_cast<exporter::FlatAct>(case_idx % 3);
      GemmS8Epilogue epi;
      epi.eff = eff.data();
      epi.bias = bias.data();
      epi.act = exporter::epilogue_act(act);
      for (int inst = 0; inst < gemm_s8_instance_count(); ++inst) {
        const GemmS8PackedA packed =
            gemm_s8_pack_instance(inst, m, k, a.data());
        ASSERT_EQ(packed.rows(), m);
        ASSERT_EQ(packed.depth(), k);
        ASSERT_STREQ(packed.instance(), gemm_s8_instance_name(inst));
        for (size_t ni = 0; ni < ns.size(); ++ni) {
          const int64_t n = ns[ni];
          // Each large side already meets every small one.
          if ((mi + ni) % kKs != ki || (m >= 64 && n >= 100)) continue;
          const bool packed_on_four = case_idx++ % 2 == 0;
          std::vector<uint8_t> b(static_cast<size_t>(k * n));
          fill_levels_u8(b, rng);
          std::vector<int32_t> want(static_cast<size_t>(m * n), -1);
          {
            PoolOverride po(packed_on_four ? one : four);
            gemm_s8_run_instance(inst, m, n, k, a.data(), b.data(),
                                 want.data());
          }
          std::vector<float> want_f(want.size());
          for (int64_t i = 0; i < m; ++i) {
            exporter::requantize_row(want_f.data() + i * n,
                                     want.data() + i * n, n,
                                     eff[static_cast<size_t>(i)],
                                     bias[static_cast<size_t>(i)], act);
          }
          std::vector<int32_t> got(want.size(), -2);
          std::vector<float> got_f(want.size(), -2.0f);
          {
            PoolOverride po(packed_on_four ? four : one);
            gemm_s8_run_instance(inst, packed, n, b.data(), got.data());
            gemm_s8_run_instance(inst, packed, n, b.data(), got_f.data(),
                                 epi);
          }
          EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                got.size() * sizeof(int32_t)),
                    0)
              << gemm_s8_instance_name(inst) << " m=" << m << " n=" << n
              << " k=" << k;
          EXPECT_EQ(std::memcmp(got_f.data(), want_f.data(),
                                got_f.size() * sizeof(float)),
                    0)
              << gemm_s8_instance_name(inst) << " epilogue m=" << m
              << " n=" << n << " k=" << k;
        }
      }
    }
  }

  // The tag: panels packed for one instance run on no other, and the
  // dispatched entry runs only the dispatched instance's panels.
  const int64_t m = 9, n = 11, k = 300;
  std::vector<int8_t> a(static_cast<size_t>(m * k), 3);
  std::vector<uint8_t> b(static_cast<size_t>(k * n), 131);
  std::vector<int32_t> c(static_cast<size_t>(m * n));
  const int last = gemm_s8_instance_count() - 1;
  for (int packed_for = 0; packed_for <= last; ++packed_for) {
    const GemmS8PackedA packed =
        gemm_s8_pack_instance(packed_for, m, k, a.data());
    for (int run_on = 0; run_on <= last; ++run_on) {
      if (run_on == packed_for) continue;
      EXPECT_THROW(gemm_s8_run_instance(run_on, packed, n, b.data(), c.data()),
                   std::runtime_error)
          << gemm_s8_instance_name(packed_for) << " panels ran on "
          << gemm_s8_instance_name(run_on);
    }
    if (packed_for != last) {
      EXPECT_THROW(gemm_s8(packed, n, b.data(), c.data()), std::runtime_error);
    }
  }
  EXPECT_THROW(gemm_s8(GemmS8PackedA{}, n, b.data(), c.data()),
               std::runtime_error);
  gemm_s8(gemm_s8_pack(m, k, a.data()), n, b.data(), c.data());
  EXPECT_EQ(c[0], 3 * 3 * k);
}

TEST(GemmS8, RejectsKBeyondExactBound) {
  std::vector<int8_t> a(static_cast<size_t>(kGemmS8MaxK + 1), 1);
  std::vector<uint8_t> b(static_cast<size_t>(kGemmS8MaxK + 1), 200);
  int32_t c = 0;
  EXPECT_THROW(gemm_s8(1, 1, kGemmS8MaxK + 1, a.data(), b.data(), &c),
               std::runtime_error);
  EXPECT_THROW((void)gemm_s8_pack(1, kGemmS8MaxK + 1, a.data()),
               std::runtime_error);
}

}  // namespace
}  // namespace nb
