// train_netbooster: the paper's pipeline as examples/quickstart configures
// it — synth-imagenet at r20 / scale 0.25, mbv2-tiny expanded by the
// default NetBoosterConfig, train_giant (4 epochs) then tune_and_contract
// (3 epochs) at batch 32 on the synchronous loader.
#pragma once

#include "common.h"
#include "trace.h"

namespace pb {

/// The workload: the library's own NetBooster pipeline, observed from
/// outside — the model is a MobileNetV2 subclass whose forward, backward
/// and train/eval switches record timestamps and call straight through,
/// and the datasets record their sample reads — run again while another
/// run fits in `seconds` (at least once). With the tracer on, the recorded
/// calls also become spans and the data / nn / optim / core / train layer
/// metrics.
void run_train(const Args& args, double seconds, Tracer& tracer,
               Result& result);

}  // namespace pb
