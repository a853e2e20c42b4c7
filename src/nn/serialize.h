// In-memory module state (parameters + buffers) by name. Carries
// ImageNet-pretrained deep giants into the downstream-task experiments
// (Table II), snapshots the teacher route for RCO-KD, and restores weights
// in Fig. 1b and NetAug.
#pragma once

#include <map>
#include <string>

#include "nn/module.h"

namespace nb::nn {

/// Deep-copied name -> tensor map of all parameters and buffers.
std::map<std::string, Tensor> state_dict(Module& m);

/// Loads values by name; every entry in the module must be present in `sd`
/// with a matching shape (strict load).
void load_state_dict(Module& m, const std::map<std::string, Tensor>& sd);

}  // namespace nb::nn
