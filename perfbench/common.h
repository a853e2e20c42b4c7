// Shared plumbing of the repository benchmark: clocks, order statistics,
// input fingerprints, the seeded generator every workload draws its inputs
// from, and the result record each workload fills.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "export/flat_model.h"
#include "tensor/tensor.h"

namespace pb {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double seconds_since(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 if empty.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// splitmix64: the benchmark's own seeded stream, independent of the
/// library's Rng so a change to the library cannot silently change a
/// workload's arrival schedule.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : s_(seed) {}
  uint64_t next();
  double uniform();  // [0, 1)
  int64_t below(int64_t n) {
    return static_cast<int64_t>(next() % static_cast<uint64_t>(n));
  }

 private:
  uint64_t s_;
};

/// Derives an independent seed for one named input stream of a workload.
uint64_t derive_seed(uint64_t seed, const char* stream);

/// FNV-1a 64 over raw bytes: the fingerprint of every generated input.
class Hasher {
 public:
  void bytes(const void* data, size_t n);
  template <class T>
  void pod(const T& v) {
    bytes(&v, sizeof(v));
  }
  void tensor(const nb::Tensor& t);
  void flat_model(const nb::exporter::FlatModel& m);
  std::string hex() const;
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ull;
};

/// One reported figure with the number of samples behind it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;
};

/// What one workload run reports. End-to-end metrics go to `e2e`, the
/// traced run's layer metrics to `layers`. `checks` are the correctness
/// gates (each failed gate fails the run); `context` lines are printed for
/// people and never parsed.
struct Result {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  std::vector<std::pair<std::string, bool>> checks;
  std::vector<std::pair<std::string, std::string>> fingerprint;
  std::vector<std::string> context;

  void add_e2e(const std::string& n, double v, const std::string& u,
               int64_t samples) {
    e2e.push_back({n, v, u, samples});
  }
  void add_layer(const std::string& n, double v, const std::string& u,
                 int64_t samples) {
    layers.push_back({n, v, u, samples});
  }
  /// Records a correctness gate; returns `ok` so callers can chain.
  bool check(const std::string& what, bool ok) {
    checks.emplace_back(what, ok);
    return ok;
  }
  void note(const std::string& line) { context.push_back(line); }
  bool correct() const {
    for (const auto& c : checks) {
      if (!c.second) return false;
    }
    return failed == 0;
  }
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace-event JSON (traced runs)
  std::string git_sha = "unknown";
  /// Self-test smoke scale: shortens the fixed-work training pipeline.
  bool smoke = false;
};

/// Same shape and the same bytes: the oracle comparison of every workload.
bool bitwise_equal(const nb::Tensor& a, const nb::Tensor& b);

/// A copy of `m` that shares no compiled state with it. FlatModel copies
/// share their lazily built weight panels, so set-up repetitions compile
/// fresh copies, each as if just loaded from an artifact.
nb::exporter::FlatModel fresh_copy(const nb::exporter::FlatModel& m);

/// Peak resident set of this process (VmHWM), MiB.
double peak_rss_mb();
/// Restarts the peak-RSS count at the current resident set, so the
/// benchmark's own oracle work before the measured window is not counted.
/// Best effort: without /proc/self/clear_refs the peak keeps counting.
void reset_peak_rss();

/// The CPU model string from /proc/cpuinfo ("unknown" when unreadable).
std::string cpu_model();

/// printf-style formatting into a std::string.
std::string strf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Set-up repetitions per run: set-up is short and noisy, so every
/// workload builds its state this many times and reports the median.
constexpr int kSetupReps = 9;

}  // namespace pb
