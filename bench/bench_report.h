// The one harness the four bench_*_report generators include, header-only
// since each report is its own executable: the timer (best-of windows after
// a warmup, alternating A/B windows, one plain run, the 1- and 4-thread
// pools), the --quick/--out parser, and the JSON writer with the
// "provenance" object every report carries.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "tensor/depthwise.h"
#include "tensor/gemm.h"
#include "tensor/gemm_s8.h"
#include "tensor/threadpool.h"
#include "util/argparse.h"

#ifndef NB_BENCH_BUILD_TYPE  // bench/CMakeLists.txt sets all three
#define NB_BENCH_BUILD_TYPE "unknown"
#define NB_BENCH_CXX_FLAGS "unknown"
#define NB_BENCH_COMPILER "unknown"
#endif

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

// Times every fn in alternating windows of the same length and count, so
// all of them see the same host state (a slow spell lands on each, not on
// whichever one happened to be timing); returns each one's best
// per-iteration seconds, in order.
inline std::vector<double> bench_alternating_seconds(
    const Budget& budget, const std::vector<std::function<void()>>& fns) {
  for (const auto& fn : fns) fn();  // warmup / first-touch
  std::vector<double> best(fns.size(), 1e100);
  for (int r = 0; r < budget.repeats; ++r) {
    for (size_t i = 0; i < fns.size(); ++i) {
      best[i] = std::min(best[i], window_seconds(budget, fns[i]));
    }
  }
  return best;
}

// One plain run, for paths too slow to fill a window (a whole training
// run).
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

struct ReportArgs {
  bool quick = false;
  std::string out;
};

// Parses a report's [--quick] [--out <path>]. --help prints the usage and
// exits 0; an unknown flag, or --out without a path, prints it and exits 2.
inline ReportArgs parse_report_args(int argc, char** argv, const char* program,
                                    const char* default_out,
                                    const char* quick_help) {
  util::ArgParser parser(program);
  parser.add_flag("quick", false, quick_help);
  parser.add_string("out", default_out, "output path");
  try {
    if (!parser.parse(argc, argv)) std::exit(0);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n%s", e.what(), parser.usage().c_str());
    std::exit(2);
  }
  return {parser.get_flag("quick"), parser.get_string("out")};
}

// Streams one JSON document to a file and places its commas. The root and
// every object() or array() are blocks, one member per line, indented two
// spaces per level; a row() or a one_line array() of scalars stays on one
// line. Each number is written with the printf format its field passes
// (default %.4f), and a non-finite one as null. Keys are nullptr inside
// arrays. Exits 1 when the file cannot be opened or fully written.
class JsonWriter {
 public:
  explicit JsonWriter(std::string path)
      : path_(std::move(path)), f_(std::fopen(path_.c_str(), "w")) {
    if (f_ == nullptr) fail("cannot open %s for writing\n");
    std::fputc('{', f_);
  }
  ~JsonWriter() {
    if (f_ != nullptr) std::fclose(f_);
  }
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void object(const char* key = nullptr) { open(key, '{', false); }
  void row(const char* key = nullptr) { open(key, '{', true); }
  void array(const char* key = nullptr, bool one_line = false) {
    open(key, '[', one_line);
  }
  void end() {
    const Frame top = stack_.back();
    stack_.pop_back();
    if (!top.one_line) newline();
    std::fputc(top.bracket == '{' ? '}' : ']', f_);
  }

  void num(const char* key, double v, const char* fmt = "%.4f") {
    member(key);
    if (std::isfinite(v)) {
      std::fprintf(f_, fmt, v);
    } else {
      std::fputs("null", f_);
    }
  }
  void integer(const char* key, int64_t v) {
    member(key);
    std::fprintf(f_, "%lld", static_cast<long long>(v));
  }
  void boolean(const char* key, bool v) {
    member(key);
    std::fputs(v ? "true" : "false", f_);
  }
  void str(const char* key, const std::string& v) {
    member(key);
    quoted(v);
  }

  // Closes the root object and the file.
  void finish() {
    end();
    std::fputc('\n', f_);
    const bool write_failed = std::ferror(f_) != 0;
    const bool close_failed = std::fclose(f_) != 0;
    f_ = nullptr;
    if (write_failed || close_failed) fail("cannot write %s\n");
  }

 private:
  struct Frame {
    char bracket;  // the opening one
    bool one_line;
    int64_t members;
  };

  [[noreturn]] void fail(const char* fmt) const {
    std::fprintf(stderr, fmt, path_.c_str());
    std::exit(1);
  }
  void newline() {
    std::fprintf(f_, "\n%*s", static_cast<int>(2 * stack_.size()), "");
  }
  void member(const char* key) {
    Frame& top = stack_.back();
    if (top.members++ > 0) std::fputs(top.one_line ? ", " : ",", f_);
    if (!top.one_line) newline();
    if (key != nullptr) {
      quoted(key);
      std::fputs(": ", f_);
    }
  }
  void open(const char* key, char bracket, bool one_line) {
    member(key);
    std::fputc(bracket, f_);
    stack_.push_back({bracket, one_line, 0});
  }
  void quoted(const std::string& s) {
    std::fputc('"', f_);
    for (const char ch : s) {
      if (ch == '"' || ch == '\\') std::fputc('\\', f_);
      if (static_cast<unsigned char>(ch) < 0x20) {
        std::fprintf(f_, "\\u%04x", static_cast<unsigned>(ch));
      } else {
        std::fputc(ch, f_);
      }
    }
    std::fputc('"', f_);
  }

  std::string path_;
  FILE* f_;
  std::vector<Frame> stack_{{'{', false, 0}};  // the root object
};

// The first line a shell command prints, without its newline; "" when the
// command prints nothing or fails.
inline std::string command_first_line(const char* command) {
  std::string line;
  if (FILE* pipe = popen(command, "r")) {
    char buf[128] = {};
    if (std::fgets(buf, sizeof(buf), pipe) != nullptr) line = buf;
    if (pclose(pipe) != 0) line.clear();
  }
  while (!line.empty() && line.back() == '\n') line.pop_back();
  return line;
}

// The "provenance" object: the CPU model, how the report was built, the
// git HEAD of the working directory ("unknown" outside a checkout, with
// "-dirty" appended when tracked files differ from it, since a report is
// written before the change it measures is committed), and the kernels the
// dispatcher picked on this CPU.
inline void write_provenance(JsonWriter& w) {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    const size_t colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos &&
        colon + 2 <= line.size()) {
      cpu = line.substr(colon + 2);
      break;
    }
  }
  std::string sha = command_first_line("git rev-parse HEAD 2>/dev/null");
  if (sha.empty()) {
    sha = "unknown";
  } else if (!command_first_line(
                  "git status --porcelain --untracked-files=no 2>/dev/null")
                  .empty()) {
    sha += "-dirty";
  }
  w.object("provenance");
  w.str("cpu", cpu);
  w.str("compiler", NB_BENCH_COMPILER);
  w.str("build_type", NB_BENCH_BUILD_TYPE);
  w.str("cxx_flags", NB_BENCH_CXX_FLAGS);
  w.str("git_sha", sha);
  w.row("kernels");
  w.str("gemm", gemm_kernel_name());
  w.str("gemm_s8", gemm_s8_kernel_name());
  w.str("depthwise", depthwise_kernel_name());
  w.str("depthwise_s8", depthwise_s8_kernel_name());
  w.str("depthwise_block", depthwise_block_kernel_name());
  w.end();
  w.end();
}

}  // namespace nb::bench
