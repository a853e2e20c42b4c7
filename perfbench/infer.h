// infer_b1: the closed-loop single-image workloads.
//
// One stream runs batch-1 images through a serial Session: the synthetic
// mbv2_w100_r160 or mcunet_r176 graph on Backend::fast or Backend::int8.
// Each of the four graph x backend configs is its own workload
// (infer_b1_<config>), so each is gated on its own figures.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "export/flat_model.h"
#include "trace.h"

namespace pb {

struct InferConfig {
  std::string name;    // mbv2_fast, mbv2_int8, mcunet_fast, mcunet_int8
  std::string graph;   // mbv2 or mcunet
  int64_t resolution;  // 160 or 176
  nb::exporter::Backend backend;
};

/// The four configs, in the order above.
const std::vector<InferConfig>& infer_configs();

/// The config's synthetic graph (BENCH_infer / BENCH_int8's mbv2_w100_r160
/// or mcunet_r176, 1000 classes), drawn from the workload seed: a graph's
/// two backends run the same weights.
nb::exporter::FlatModel make_infer_graph(const InferConfig& c, uint64_t seed);

/// The workload for `config`; with the tracer on, every Session::run is a
/// span.
void run_infer(const Args& args, const InferConfig& config, double seconds,
               Tracer& tracer, Result& result);

}  // namespace pb
