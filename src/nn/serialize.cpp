#include "nn/serialize.h"

namespace nb::nn {

std::map<std::string, Tensor> state_dict(Module& m) {
  std::map<std::string, Tensor> sd;
  for (auto& [name, p] : m.named_parameters()) sd[name] = p->value.clone();
  for (auto& [name, b] : m.named_buffers()) sd[name] = b->clone();
  return sd;
}

void load_state_dict(Module& m, const std::map<std::string, Tensor>& sd) {
  auto load_one = [&sd](const std::string& name, Tensor& dst) {
    auto it = sd.find(name);
    NB_CHECK(it != sd.end(), "state dict is missing entry: " + name);
    NB_CHECK(it->second.numel() == dst.numel(),
             "state dict shape mismatch for " + name + ": have " +
                 it->second.shape_str() + ", want " + dst.shape_str());
    dst.copy_from(it->second);
  };
  for (auto& [name, p] : m.named_parameters()) load_one(name, p->value);
  for (auto& [name, b] : m.named_buffers()) load_one(name, *b);
}

}  // namespace nb::nn
