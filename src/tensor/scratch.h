// Thread-local scratch arena for the compute kernels. Hot paths (GEMM
// packing, im2col lowering) need large temporary buffers on every call;
// allocating them per call dominates small layers, so each thread keeps one
// reusable buffer per slot that only ever grows.
#pragma once

#include <cstddef>

namespace nb {

/// One slot per concurrent use inside a single call chain. A kernel may hold
/// several slots at once (e.g. Conv2d::backward holds kConvCols and
/// kConvGradCols while the GEMM it calls holds the two pack slots), so every
/// distinct nesting level gets its own slot.
enum class ScratchSlot : int {
  kGemmPackA = 0,  // per-thread A micro-panel (packed row block)
  kGemmPackB,      // shared B panel, owned by the thread driving the GEMM
  kConvCols,       // im2col column matrix (forward and dW)
  kConvGradCols,   // column-space gradient scattered by col2im (dX)
  kDwPhase,        // vector depthwise: zero-bordered phase planes of one input
  kDwAcc,          // vector depthwise: flat accumulator before compaction
  kDwGrad,         // depthwise backward: one channel block's lane planes
  kSlotCount,
};

/// Returns this thread's buffer for `slot`, grown to hold at least `count`
/// floats. Contents are unspecified. The pointer stays valid until the next
/// acquire of the same slot on the same thread with a larger count (growth is
/// geometric, so steady-state calls never reallocate).
float* scratch_acquire(ScratchSlot slot, size_t count);

/// Total floats currently reserved by this thread's arena (introspection).
size_t scratch_reserved();

/// Frees every buffer owned by the calling thread.
void scratch_release();

}  // namespace nb
