// nb_perfbench — the repository benchmark.
//
//   nb_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--trace-out <file.json>] [--git-sha <sha>]
//   nb_perfbench --selftest
//
// Workloads: serve_mixed_r32, infer_b1_<config> for the configs mbv2_fast,
// mbv2_int8, mcunet_fast and mcunet_int8, and train_netbooster (see
// README.md).
// Untraced runs print the end-to-end metrics; traced runs print the layer
// metrics of every layer the benchmark replays or observes, the layer
// table of each replay config and this workload's tracing overhead. The
// last stdout line is one JSON object: correct, attempted, failed, metrics.
// The exit code is non-zero when any correctness gate fails.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common.h"
#include "infer.h"
#include "replay.h"
#include "selftest.h"
#include "serve.h"
#include "tensor/gemm.h"
#include "tensor/gemm_s8.h"
#include "trace.h"
#include "train.h"

namespace {

using namespace pb;

constexpr const char* kServe = "serve_mixed_r32";
constexpr const char* kTrain = "train_netbooster";

/// The infer_b1 config the workload name selects, or nullptr.
const InferConfig* infer_config(const std::string& workload) {
  for (const InferConfig& c : infer_configs()) {
    if (workload == "infer_b1_" + c.name) return &c;
  }
  return nullptr;
}

/// Threads each workload keeps busy: serve = 2 Engine workers + generator
/// + observer; infer = one serial stream; train = one serial pipeline.
int thread_budget(const std::string& w) { return w == kServe ? 4 : 1; }

void run_untraced(const Args& args, Result& result) {
  Tracer off(false);
  if (args.workload == kServe) {
    run_serve(args, args.seconds, off, result);
  } else if (const InferConfig* c = infer_config(args.workload)) {
    run_infer(args, *c, args.seconds, off, result);
  } else {
    run_train(args, args.seconds, off, result);
  }
  result.add_e2e("peak_rss_mb", peak_rss_mb(), "MiB", 1);
}

void merge(const Result& from, Result& into) {
  into.attempted += from.attempted;
  into.failed += from.failed;
  into.layers.insert(into.layers.end(), from.layers.begin(), from.layers.end());
  into.checks.insert(into.checks.end(), from.checks.begin(), from.checks.end());
  into.fingerprint.insert(into.fingerprint.end(), from.fingerprint.begin(),
                          from.fingerprint.end());
  into.context.insert(into.context.end(), from.context.begin(),
                      from.context.end());
}

void print_overhead(const Result& untraced, const Result& traced,
                    Result& result) {
  for (const Metric& t : traced.e2e) {
    for (const Metric& u : untraced.e2e) {
      if (u.name != t.name) continue;
      result.note(strf("tracing overhead %-10s untraced %10.4f %-4s traced "
                       "%10.4f (%+.2f%%)",
                       t.name.c_str(), u.value, u.unit.c_str(), t.value,
                       u.value != 0.0 ? 100.0 * (t.value - u.value) / u.value
                                      : 0.0));
    }
  }
}

/// The traced run: every layer source, plus this workload's end-to-end
/// figures untraced and traced for the overhead. Budgets are shorter than
/// a measured run's; per-layer figures are medians over many calls.
void run_traced(const Args& args, Result& result) {
  Tracer tracer(true);
  Tracer off(false);
  const double phase_s = std::min(args.seconds, 4.0);

  Result serve_t;
  run_serve(args, phase_s, tracer, serve_t);
  merge(serve_t, result);
  if (args.workload == kServe) {
    Result serve_u;
    run_serve(args, phase_s, off, serve_u);
    print_overhead(serve_u, serve_t, result);
  }

  if (const InferConfig* c = infer_config(args.workload)) {
    Result infer_u, infer_t;
    run_infer(args, *c, phase_s, off, infer_u);
    run_infer(args, *c, phase_s, tracer, infer_t);
    print_overhead(infer_u, infer_t, result);
    merge(infer_t, result);
  }

  Result replay;
  run_replay(args, std::min(args.seconds / 4.0, 1.5), tracer, replay);
  merge(replay, result);

  Result train_t;
  run_train(args, phase_s, tracer, train_t);
  merge(train_t, result);
  if (args.workload == kTrain) {
    Result train_u;
    run_train(args, phase_s, off, train_u);
    print_overhead(train_u, train_t, result);
  }

  if (!args.trace_out.empty()) {
    if (tracer.write_chrome(args.trace_out)) {
      result.note("chrome trace: " + args.trace_out);
    } else {
      result.check("write chrome trace " + args.trace_out, false);
    }
  }
}

void print_metric(const Metric& m) {
  std::printf("metric %-34s = %.6g %s (n=%lld)\n", m.name.c_str(), m.value,
              m.unit.c_str(), static_cast<long long>(m.samples));
}

void print_json(const Result& r, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              r.correct() ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: nb_perfbench --workload {%s|infer_b1_{mbv2,mcunet}_"
               "{fast,int8}|%s} --seed N --seconds S --trace {0|1} "
               "[--trace-out FILE] [--git-sha SHA]\n"
               "       nb_perfbench --selftest\n",
               kServe, kTrain);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--selftest") {
      selftest = true;
    } else if (a == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      args.trace = std::string(argv[++i]) == "1";
    } else if (a == "--trace-out" && has_value) {
      args.trace_out = argv[++i];
    } else if (a == "--git-sha" && has_value) {
      args.git_sha = argv[++i];
    } else {
      return usage();
    }
  }
  if (selftest) return run_selftest() == 0 ? 0 : 1;
  if ((args.workload != kServe && infer_config(args.workload) == nullptr &&
       args.workload != kTrain) ||
      !(args.seconds > 0.0)) {
    return usage();
  }

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("provenance cpu=\"%s\" nproc=%u gemm=%s gemm_s8=%s threads=%d "
              "build=%s compiler=\"%s\" flags=\"%s\" git=%s seed=%llu\n",
              cpu_model().c_str(), std::thread::hardware_concurrency(),
              nb::gemm_kernel_name(), nb::gemm_s8_kernel_name(),
              thread_budget(args.workload), PB_BUILD_TYPE, PB_COMPILER,
              PB_CXX_FLAGS, args.git_sha.c_str(),
              static_cast<unsigned long long>(args.seed));
  std::fflush(stdout);

  Result result;
  try {
    if (args.trace) {
      run_traced(args, result);
    } else {
      run_untraced(args, result);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }

  for (const auto& [what, hash] : result.fingerprint) {
    std::printf("fingerprint %s = %s\n", what.c_str(), hash.c_str());
  }
  for (const std::string& line : result.context) {
    std::printf("%s\n", line.c_str());
  }
  const std::vector<Metric>& metrics = args.trace ? result.layers : result.e2e;
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) result.check(m.name + " is finite", false);
  }
  for (const auto& [what, ok] : result.checks) {
    std::printf("check %s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
  }
  for (const Metric& m : metrics) print_metric(m);
  print_json(result, metrics);
  return result.correct() ? 0 : 1;
}
