// The one timer behind the bench_*_report generators: best-of repeated
// windows (a warmup run, then `repeats` windows of at least `window_s`
// seconds each, keeping the best per-iteration time), an alternating-window
// pair for A-vs-B rows, a plain single run for the slow reference paths,
// and the one- and four-thread pools the rows run on. Header-only: each
// report is its own executable.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "tensor/threadpool.h"

namespace nb::bench {

// Best-of is the right statistic on noisy shared hosts: noise only ever
// adds time.
struct Budget {
  double window_s;
  int repeats;
};

// One timing window: runs fn until the window fills and returns the
// per-iteration seconds.
inline double window_seconds(const Budget& budget,
                             const std::function<void()>& fn) {
  int64_t iters = 0;
  const auto t0 = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    fn();
    ++iters;
    elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  } while (elapsed < budget.window_s);
  return elapsed / static_cast<double>(iters);
}

// Warmup, then the best per-iteration seconds over budget.repeats windows.
inline double bench_seconds(const Budget& budget,
                            const std::function<void()>& fn) {
  fn();  // warmup / first-touch
  double best = 1e100;
  for (int r = 0; r < budget.repeats; ++r) {
    best = std::min(best, window_seconds(budget, fn));
  }
  return best;
}

// Times a and b in alternating windows of the same length and count, so
// both sides see the same host state (a slow spell lands on both, not on
// whichever side happened to be timing); returns each side's best
// per-iteration seconds.
inline std::pair<double, double> bench_pair_seconds(
    const Budget& budget, const std::function<void()>& a,
    const std::function<void()>& b) {
  a();  // warmup / first-touch
  b();
  double best_a = 1e100;
  double best_b = 1e100;
  for (int r = 0; r < budget.repeats; ++r) {
    best_a = std::min(best_a, window_seconds(budget, a));
    best_b = std::min(best_b, window_seconds(budget, b));
  }
  return {best_a, best_b};
}

// One plain run, for paths too slow to fill a window (the reference
// interpreter).
inline double time_once(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct PoolSet {
  ThreadPool one{0};   // NB_THREADS=1: no workers, caller only
  ThreadPool four{3};  // NB_THREADS=4: 3 workers + caller
  ThreadPool& get(int64_t threads) { return threads == 4 ? four : one; }

  // Thread counts worth reporting: 4-thread rows on a host with fewer
  // hardware threads would only record oversubscription noise, which must
  // not pollute the committed perf trajectory.
  std::vector<int64_t> counts() const {
    std::vector<int64_t> c{1};
    if (std::thread::hardware_concurrency() >= 4) c.push_back(4);
    return c;
  }
};

}  // namespace nb::bench
