// Compiled weight state for the planned FlatModel runtime: every conv/linear
// op's weights in the one encoding its backend reads — int8 levels
// dequantized once into exact float integers for Backend::fast, the raw
// int8 levels for Backend::int8 — with the per-channel scales and biases
// copied alongside. A WeightPanels is immutable after build() and shared by
// std::shared_ptr, so any number of inference plans (and through them,
// serving sessions) execute against ONE copy of the weights — N concurrent
// streams pay the panel memory once instead of N times.
//
// Layering: this is the lowest rung of the serving stack.
// runtime::CompiledModel builds the panels once and owns them; every
// InferPlan its Sessions build borrows the same shared_ptr<const
// WeightPanels>. A standalone InferPlan (and FlatModel::forward's one-shot
// plan) builds its own.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "export/flat_model.h"

namespace nb::exporter {

/// Per-op compiled weights. Marker/gap ops keep all vectors empty, and each
/// conv/linear fills only the encoding its panels' backend reads.
struct OpPanel {
  std::vector<float> wf;      // int8 levels as exact float integers (fast)
  std::vector<int8_t> wq;     // the same levels as raw int8 (int8)
  std::vector<float> scales;  // per output channel
  std::vector<float> bias;    // empty => zero bias
};

/// Immutable, shareable compiled weight panels for one flat program.
class WeightPanels {
 public:
  /// Encodes every conv/linear op of `model` for `backend`: float levels
  /// (`wf`) for Backend::fast, raw int8 levels (`wq`) for Backend::int8;
  /// scales and bias for both. Validates weight / scale / bias counts
  /// against the declared geometry (throws std::runtime_error on mismatch,
  /// so hand-built programs fail at compile time, not mid-inference), and
  /// rejects Backend::reference, which runs no plan.
  static std::shared_ptr<const WeightPanels> build(const FlatModel& model,
                                                   Backend backend);

  const OpPanel& at(size_t op_index) const { return panels_[op_index]; }
  size_t op_count() const { return panels_.size(); }
  /// The backend whose encoding these panels hold.
  Backend backend() const { return backend_; }

  /// Total floats held across all panels (the shared weight memory).
  int64_t total_floats() const { return total_floats_; }
  int64_t total_bytes() const { return total_floats_ * 4 + total_quant_bytes_; }
  /// Bytes of raw int8 levels kept for the int8 backend.
  int64_t total_quant_bytes() const { return total_quant_bytes_; }

 private:
  WeightPanels() = default;

  std::vector<OpPanel> panels_;  // indexed by op position in the program
  Backend backend_ = Backend::fast;
  int64_t total_floats_ = 0;
  int64_t total_quant_bytes_ = 0;
};

}  // namespace nb::exporter
