#include "runtime/compiled_model.h"

#include "export/qmodel.h"

namespace nb::runtime {

std::shared_ptr<const CompiledModel> CompiledModel::compile(
    exporter::FlatModel model, exporter::Backend backend) {
  NB_CHECK(!model.ops().empty(), "compiled model: empty program");
  NB_CHECK(backend != exporter::Backend::reference,
           "compiled model: the serving runtime is planned-only; use "
           "FlatModel::forward for the reference interpreter");
  if (backend == exporter::Backend::int8) {
    // Fail at compile time, not first inference: an uncalibrated program
    // can never run the true int8 path.
    std::string reason;
    NB_CHECK(exporter::int8_compatible(model, &reason),
             "compiled model: program not int8-compatible: " + reason);
  }
  return std::shared_ptr<const CompiledModel>(new CompiledModel(
      exporter::WeightPanels::build(
          std::make_shared<const exporter::FlatModel>(std::move(model)),
          backend),
      backend));
}

std::shared_ptr<const CompiledModel> CompiledModel::compile_file(
    const std::string& path, exporter::Backend backend) {
  return compile(exporter::FlatModel::load(path), backend);
}

std::shared_ptr<const CompiledModel> CompiledModel::compile_buffer(
    const uint8_t* data, size_t size, exporter::Backend backend) {
  return compile(exporter::FlatModel::load_from_buffer(data, size), backend);
}

}  // namespace nb::runtime
