#include "runtime/session.h"

#include "export/plan_verify.h"
#include "runtime/bucketing.h"
#include "tensor/threadpool.h"

namespace nb::runtime {

Session::Session(std::shared_ptr<const CompiledModel> model,
                 SessionOptions options)
    : model_(std::move(model)), options_(std::move(options)) {
  NB_CHECK(model_ != nullptr, "session: null compiled model");
  NB_CHECK(options_.max_cached_plans >= 1,
           "session: max_cached_plans must be >= 1");
}

const exporter::InferPlan& Session::plan_for(int64_t batch, int64_t channels,
                                             int64_t h, int64_t w) {
  for (auto it = plans_.begin(); it != plans_.end(); ++it) {
    const exporter::PlanStats& st = it->stats();
    if (st.batch == batch && st.channels == channels && st.in_h == h &&
        st.in_w == w) {
      plans_.splice(plans_.begin(), plans_, it);  // move to MRU position
      return plans_.front();
    }
  }
  plans_.emplace_front(model_->program(), model_->panels(), batch, channels,
                       h, w, model_->backend());
  if (options_.verify_plans) exporter::check_plan(plans_.front());
  while (plans_.size() > options_.max_cached_plans) {
    plans_.pop_back();
  }
  return plans_.front();
}

Tensor Session::run(const Tensor& input) {
  NB_CHECK(input.dim() == 4, "session: input must be NCHW");
  const exporter::InferPlan& plan =
      plan_for(input.size(0), input.size(1), input.size(2), input.size(3));
  ++runs_;
  SerialScope serial;
  return plan.run(input);
}

Tensor Session::run_padded(const Tensor& input, int64_t target_h,
                           int64_t target_w) {
  NB_CHECK(input.dim() == 4, "session: input must be NCHW");
  NB_CHECK(target_h >= input.size(2) && target_w >= input.size(3),
           "session: pad target must cover the input geometry");
  if (target_h == input.size(2) && target_w == input.size(3)) {
    return run(input);
  }
  return run(pad_to_geometry(input, target_h, target_w));
}

Session::MemoryStats Session::memory() const {
  MemoryStats m;
  for (const exporter::InferPlan& plan : plans_) {
    m.owned_arena_floats += plan.stats().arena_floats;
  }
  m.borrowed_weight_floats = model_->weight_panel_floats();
  m.weight_panel_addr = model_->panels().get();
  m.cached_plans = plans_.size();
  return m;
}

}  // namespace nb::runtime
