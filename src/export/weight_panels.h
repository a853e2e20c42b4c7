// Compiled weight state for the planned FlatModel runtime: every conv/linear
// op's weights in the encoding its backend reads. The panels share the one
// copy of the program they were built from and read the int8 levels, the
// per-channel scales and the biases IN PLACE from it; what a build adds is
// only what a backend cannot read from the levels directly:
//   - Backend::fast: each conv's levels dequantized once into exact float
//     integers (`wf`, row-major — the float GEMM reads them in place);
//   - Backend::int8: each lowered (non-depthwise) conv's levels packed
//     once per group into the dispatched gemm_s8 instance's A panels.
// Depthwise int8 convs and both backends' linear heads read the borrowed
// levels (`wq`) directly. A WeightPanels is immutable after build() and
// shared by std::shared_ptr, so any number of inference plans (and
// through them, serving sessions) execute against ONE copy of the weights
// — N concurrent streams pay the panel memory once instead of N times.
//
// Layering: this is the lowest rung of the serving stack.
// runtime::CompiledModel builds the panels once over its program and
// owns them; every InferPlan its Sessions build borrows the same
// shared_ptr<const WeightPanels>. A standalone InferPlan (and
// FlatModel::forward's one-shot plan) builds its own over a copy of the
// program.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "export/flat_model.h"
#include "tensor/gemm_s8.h"

namespace nb::exporter {

/// Per-op compiled weights. Marker/gap ops keep everything empty.
struct OpPanel {
  /// The op's int8 levels, row-major ([cout, cin/groups*k*k] for a conv,
  /// [out, in] for a linear), borrowed from the program on both backends.
  std::span<const int8_t> wq;
  /// Fast convs only: the same levels as exact float integers, row-major.
  std::vector<float> wf;
  /// Int8 lowered convs only: the levels packed once per group for the
  /// dispatched gemm_s8 instance.
  std::vector<GemmS8PackedA> packed;
  std::span<const float> scales;  // per output channel (borrowed)
  std::span<const float> bias;    // borrowed; empty => zero bias
};

/// Immutable, shareable compiled weight panels for one flat program.
class WeightPanels {
 public:
  /// Encodes every conv/linear op of `program` (non-null) for `backend`
  /// (see the header comment) and keeps `program` alive: the panels borrow its
  /// levels, scales and biases. Validates weight / scale / bias counts
  /// against the declared geometry (throws std::runtime_error on mismatch,
  /// so hand-built programs fail at compile time, not mid-inference), and
  /// rejects Backend::reference, which runs no plan.
  static std::shared_ptr<const WeightPanels> build(
      std::shared_ptr<const FlatModel> program, Backend backend);
  /// The same over a private copy of `model`.
  static std::shared_ptr<const WeightPanels> build(const FlatModel& model,
                                                   Backend backend);

  const OpPanel& at(size_t op_index) const { return panels_[op_index]; }
  size_t op_count() const { return panels_.size(); }
  /// The backend whose encoding these panels hold.
  Backend backend() const { return backend_; }
  /// The program the panels read their levels, scales and biases from.
  const FlatModel& program() const { return *program_; }

  /// Floats the plans execute against: float levels, scales and biases.
  int64_t total_floats() const { return total_floats_; }
  /// Every weight byte held, each once: the program's levels, scales and
  /// biases the panels borrow, plus what the build made (float levels or
  /// packed panels). The borrowed `wq` views add nothing.
  int64_t total_bytes() const { return borrowed_bytes_ + built_bytes_; }
  /// Of total_bytes(): the program's levels, scales and biases.
  int64_t borrowed_bytes() const { return borrowed_bytes_; }
  /// Of total_bytes(): float levels (fast) or packed panels and their row
  /// sums (int8), owned by the panels.
  int64_t built_bytes() const { return built_bytes_; }

 private:
  WeightPanels() = default;

  std::shared_ptr<const FlatModel> program_;
  std::vector<OpPanel> panels_;  // indexed by op position in the program
  Backend backend_ = Backend::fast;
  int64_t total_floats_ = 0;
  int64_t borrowed_bytes_ = 0;
  int64_t built_bytes_ = 0;
};

}  // namespace nb::exporter
