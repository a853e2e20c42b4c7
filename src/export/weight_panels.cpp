#include "export/weight_panels.h"

#include "export/flat_model.h"
#include "quant/quantize.h"

namespace nb::exporter {

std::shared_ptr<const WeightPanels> WeightPanels::build(const FlatModel& model,
                                                        Backend backend) {
  return build(std::make_shared<const FlatModel>(model), backend);
}

std::shared_ptr<const WeightPanels> WeightPanels::build(
    std::shared_ptr<const FlatModel> program, Backend backend) {
  NB_CHECK(backend != Backend::reference,
           "weight panels: the reference interpreter runs no plan");
  const bool int8 = backend == Backend::int8;
  auto panels = std::shared_ptr<WeightPanels>(new WeightPanels());
  panels->program_ = std::move(program);
  panels->backend_ = backend;
  const std::vector<FlatOp>& ops = panels->program_->ops();
  panels->panels_.resize(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    const FlatOp& op = ops[i];
    OpPanel& p = panels->panels_[i];
    if (op.kind == OpKind::conv) {
      const FlatConv& c = op.conv;
      NB_CHECK(c.groups > 0 && c.cin % c.groups == 0 && c.cout % c.groups == 0,
               "weight panels: conv groups must divide channels");
      const int64_t col_rows = (c.cin / c.groups) * c.kernel * c.kernel;
      NB_CHECK(static_cast<int64_t>(c.weights.size()) == c.cout * col_rows,
               "weight panels: conv weight count mismatch");
      NB_CHECK(static_cast<int64_t>(c.weight_scales.size()) == c.cout,
               "weight panels: conv scale count mismatch");
      NB_CHECK(!c.has_bias || static_cast<int64_t>(c.bias.size()) == c.cout,
               "weight panels: conv bias count mismatch");
      p.wq = c.weights;
      p.scales = c.weight_scales;
      if (c.has_bias) p.bias = c.bias;
      const bool depthwise = c.groups == c.cin && c.groups == c.cout;
      if (!int8) {
        p.wf = quant::dequantize_levels(c.weights.data(), c.weights.size());
      } else if (!depthwise) {
        const int64_t cout_g = c.cout / c.groups;
        p.packed.resize(static_cast<size_t>(c.groups));
        for (int64_t g = 0; g < c.groups; ++g) {
          p.packed[static_cast<size_t>(g)] = gemm_s8_pack(
              cout_g, col_rows, c.weights.data() + g * cout_g * col_rows);
        }
      }
    } else if (op.kind == OpKind::linear) {
      const FlatLinear& l = op.linear;
      NB_CHECK(static_cast<int64_t>(l.weights.size()) == l.in * l.out,
               "weight panels: linear weight count mismatch");
      NB_CHECK(static_cast<int64_t>(l.weight_scales.size()) == l.out,
               "weight panels: linear scale count mismatch");
      NB_CHECK(l.bias.empty() || static_cast<int64_t>(l.bias.size()) == l.out,
               "weight panels: linear bias count mismatch");
      p.wq = l.weights;
      p.scales = l.weight_scales;
      p.bias = l.bias;
    }
    const auto side = static_cast<int64_t>(p.scales.size() + p.bias.size());
    panels->total_floats_ += static_cast<int64_t>(p.wf.size()) + side;
    panels->borrowed_bytes_ += static_cast<int64_t>(p.wq.size()) + 4 * side;
    panels->built_bytes_ += 4 * static_cast<int64_t>(p.wf.size());
    for (const GemmS8PackedA& g : p.packed) panels->built_bytes_ += g.bytes();
  }
  return panels;
}

}  // namespace nb::exporter
