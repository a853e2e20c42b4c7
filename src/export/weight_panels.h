// Compiled weight state for the fast FlatModel runtime: every conv/linear
// op's int8 levels dequantized once into exact float integers, with the
// per-channel scales and biases copied alongside. A WeightPanels is
// immutable after build() and shared by std::shared_ptr, so any number of
// inference plans (and through them, serving sessions) execute against ONE
// copy of the dequantized weights — N concurrent streams pay the panel
// memory once instead of N times.
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

namespace nb::exporter {

class FlatModel;

/// Per-op compiled weights. Marker/gap ops keep all vectors empty.
struct OpPanel {
  std::vector<float> wf;      // int8 levels as exact float integers
  std::vector<int8_t> wq;     // the same levels as raw int8, for Backend::int8
  std::vector<float> scales;  // per output channel
  std::vector<float> bias;    // empty => zero bias
};

/// Immutable, shareable compiled weight panels for one flat program.
class WeightPanels {
 public:
  /// Dequantizes every conv/linear op of `model`; validates weight /
  /// scale / bias counts against the declared geometry (throws
  /// std::runtime_error on mismatch, so hand-built programs fail at
  /// compile time, not mid-inference).
  static std::shared_ptr<const WeightPanels> build(const FlatModel& model);

  const OpPanel& at(size_t op_index) const { return panels_[op_index]; }
  size_t op_count() const { return panels_.size(); }

  /// Total floats held across all panels (the shared weight memory).
  int64_t total_floats() const { return total_floats_; }
  int64_t total_bytes() const { return total_floats_ * 4 + total_quant_bytes_; }
  /// Bytes of raw int8 levels kept for the int8 backend.
  int64_t total_quant_bytes() const { return total_quant_bytes_; }

 private:
  WeightPanels() = default;

  std::vector<OpPanel> panels_;  // indexed by op position in the program
  int64_t total_floats_ = 0;
  int64_t total_quant_bytes_ = 0;
};

}  // namespace nb::exporter
