// CompiledModel — the immutable, shareable unit of the serving runtime.
//
// Compiling takes a FlatModel (from an NBFM file, an in-memory buffer, or a
// writer-produced program), validates it, and freezes it together with the
// weight panels built exactly once, in the one encoding its backend reads
// (float levels for fast convs, packed int8 panels for int8 lowered convs;
// everything else reads the program's own levels in place). The program is
// held once: the panels share it and program() returns that copy.
// CompiledModel is the only owner of compiled weights in the serving stack
// (a FlatModel is a plain program value and holds none). The result is
// handed around
// as shared_ptr<const CompiledModel>: any number of Sessions (and Engine
// registry entries) execute against the same panels, so serving N
// concurrent streams costs N small arenas and ONE copy of the weights —
// the TinyML memory discipline carried into the serving tier.
//
//   auto model    = CompiledModel::compile_file("model.nbfm");
//   Session a(model), b(model);        // zero extra weight memory
//   Tensor logits = a.run(image);      // a and b run concurrently
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "export/flat_model.h"
#include "export/weight_panels.h"

namespace nb::runtime {

class CompiledModel {
 public:
  /// Compiles a flat program: builds the shared weight panels once and
  /// freezes the op list.
  /// Takes the model by value — move in to avoid copying the int8 payload.
  /// `backend` selects the execution mode every Session on this model
  /// runs: Backend::fast (float path over dequantized levels, default) or
  /// Backend::int8 (true integer path; requires a calibrated program —
  /// throws at compile time naming the offending op otherwise).
  /// Backend::reference is rejected: the serving stack is planned-only.
  static std::shared_ptr<const CompiledModel> compile(
      exporter::FlatModel model,
      exporter::Backend backend = exporter::Backend::fast);

  /// Loads + compiles an NBFM file.
  static std::shared_ptr<const CompiledModel> compile_file(
      const std::string& path,
      exporter::Backend backend = exporter::Backend::fast);

  /// Parses + compiles an NBFM image straight from memory (blob store,
  /// embedded artifact) — no temp files.
  static std::shared_ptr<const CompiledModel> compile_buffer(
      const uint8_t* data, size_t size,
      exporter::Backend backend = exporter::Backend::fast);

  /// The frozen op program (const access only; a CompiledModel never
  /// mutates after compile()) — the one copy the panels read in place.
  const exporter::FlatModel& program() const { return panels_->program(); }

  /// The shared weight panels, built for backend(). Identity-comparable:
  /// every Session on this model borrows exactly this object.
  const std::shared_ptr<const exporter::WeightPanels>& panels() const {
    return panels_;
  }

  /// Shared weight memory, paid once regardless of session count: the
  /// floats plans execute against, and every weight byte the model holds,
  /// counted once (WeightPanels::total_bytes).
  int64_t weight_panel_floats() const { return panels_->total_floats(); }
  int64_t weight_panel_bytes() const { return panels_->total_bytes(); }

  int64_t input_resolution() const { return program().input_resolution(); }
  int64_t input_channels() const { return program().input_channels(); }
  int64_t op_count() const {
    return static_cast<int64_t>(program().ops().size());
  }

  /// The execution mode this model was compiled for; every Session plan
  /// inherits it.
  exporter::Backend backend() const { return backend_; }

 private:
  CompiledModel(std::shared_ptr<const exporter::WeightPanels> panels,
                exporter::Backend backend)
      : panels_(std::move(panels)), backend_(backend) {}

  std::shared_ptr<const exporter::WeightPanels> panels_;
  exporter::Backend backend_ = exporter::Backend::fast;
};

}  // namespace nb::runtime
