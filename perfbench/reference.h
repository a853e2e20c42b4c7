// The benchmark's host-speed reference.
//
// The benchmark host is a shared 4-vCPU VM whose vector throughput moves by
// up to ~2x within seconds (other tenants share its cores); scalar and
// memory-streaming code barely move, while the library's GEMM, depthwise
// and quantization kernels move with the vector units. A fixed SIMD loop
// owned by the benchmark, run around each measured interval, moves the
// same way, so every gated time is reported at a nominal host speed:
//
//   normalized_ms = measured_ms * kReferenceNominalMs / reference_ms
//
// where reference_ms is the mean of the runs that bracket the interval.
// The loop is built as its own target with fixed flags (CMakeLists.txt),
// so no library change and no repository build option changes its speed:
// a commit that makes the library faster lowers the normalized time, a
// busier host does not raise it.
#pragma once

namespace pb {

/// The reference loop's time on the benchmark host at full speed.
constexpr double kReferenceNominalMs = 1.9;

/// Runs the reference loop once; returns its wall time in ms.
double reference_ms();

/// `ms` at the nominal host speed, given the reference time measured next
/// to it.
inline double normalized(double ms, double ref_ms) {
  return ms * kReferenceNominalMs / ref_ms;
}

}  // namespace pb
