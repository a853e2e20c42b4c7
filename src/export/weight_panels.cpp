#include "export/weight_panels.h"

#include "export/flat_model.h"
#include "quant/quantize.h"

namespace nb::exporter {

std::shared_ptr<const WeightPanels> WeightPanels::build(
    const FlatModel& model, Backend backend) {
  NB_CHECK(backend != Backend::reference,
           "weight panels: the reference interpreter runs no plan");
  const bool int8 = backend == Backend::int8;
  auto panels = std::shared_ptr<WeightPanels>(new WeightPanels());
  panels->backend_ = backend;
  panels->panels_.resize(model.ops().size());
  for (size_t i = 0; i < model.ops().size(); ++i) {
    const FlatOp& op = model.ops()[i];
    OpPanel& p = panels->panels_[i];
    if (op.kind == OpKind::conv) {
      const FlatConv& c = op.conv;
      NB_CHECK(c.groups > 0 && c.cin % c.groups == 0 && c.cout % c.groups == 0,
               "weight panels: conv groups must divide channels");
      NB_CHECK(static_cast<int64_t>(c.weights.size()) ==
                   c.cout * (c.cin / c.groups) * c.kernel * c.kernel,
               "weight panels: conv weight count mismatch");
      NB_CHECK(static_cast<int64_t>(c.weight_scales.size()) == c.cout,
               "weight panels: conv scale count mismatch");
      NB_CHECK(!c.has_bias || static_cast<int64_t>(c.bias.size()) == c.cout,
               "weight panels: conv bias count mismatch");
      if (int8) {
        p.wq = c.weights;
      } else {
        p.wf = quant::dequantize_levels(c.weights.data(), c.weights.size());
      }
      p.scales = c.weight_scales;
      if (c.has_bias) p.bias = c.bias;
    } else if (op.kind == OpKind::linear) {
      const FlatLinear& l = op.linear;
      NB_CHECK(static_cast<int64_t>(l.weights.size()) == l.in * l.out,
               "weight panels: linear weight count mismatch");
      NB_CHECK(static_cast<int64_t>(l.weight_scales.size()) == l.out,
               "weight panels: linear scale count mismatch");
      NB_CHECK(l.bias.empty() || static_cast<int64_t>(l.bias.size()) == l.out,
               "weight panels: linear bias count mismatch");
      if (int8) {
        p.wq = l.weights;
      } else {
        p.wf = quant::dequantize_levels(l.weights.data(), l.weights.size());
      }
      p.scales = l.weight_scales;
      p.bias = l.bias;
    }
    panels->total_floats_ += static_cast<int64_t>(p.wf.size()) +
                             static_cast<int64_t>(p.scales.size()) +
                             static_cast<int64_t>(p.bias.size());
    panels->total_quant_bytes_ += static_cast<int64_t>(p.wq.size());
  }
  return panels;
}

}  // namespace nb::exporter
