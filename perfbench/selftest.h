// Benchmark self-tests (nb_perfbench --selftest):
//   * a FaultInjector that stalls one batch shows up in the open-loop
//     latency, and a generator held back shows up in it while the Engine's
//     admission-timed latency does not — timing starts at the scheduled
//     arrival;
//   * on all five replay configs the replay walk's step count, MACs,
//     per-step geometry and arena agree with the built plan;
//   * a seconds-long smoke run of every workload, untraced and traced.
#pragma once

namespace pb {

/// Runs every self-test; returns the number of failed checks.
int run_selftest();

}  // namespace pb
