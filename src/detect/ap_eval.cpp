#include "detect/ap_eval.h"

#include <algorithm>

#include "tensor/tensor.h"

namespace nb::detect {

float average_precision(const std::vector<std::vector<Box>>& preds,
                        const std::vector<std::vector<data::GtBox>>& gts,
                        int64_t cls, float iou_threshold) {
  NB_CHECK(preds.size() == gts.size(), "pred/gt image count mismatch");
  NB_CHECK(iou_threshold > 0.0f && iou_threshold <= 1.0f,
           "average_precision: IoU threshold must be in (0, 1]");

  // Flatten predictions of this class with their image index.
  struct Pred {
    float score;
    int64_t image;
    Box box;
  };
  std::vector<Pred> flat;
  int64_t total_gt = 0;
  for (size_t i = 0; i < preds.size(); ++i) {
    for (const Box& b : preds[i]) {
      if (b.cls == cls) flat.push_back({b.score, static_cast<int64_t>(i), b});
    }
    for (const data::GtBox& g : gts[i]) {
      if (g.cls == cls) ++total_gt;
    }
  }
  if (total_gt == 0) return -1.0f;  // class absent; caller skips
  std::sort(flat.begin(), flat.end(),
            [](const Pred& a, const Pred& b) { return a.score > b.score; });

  // Greedy matching, each gt matched at most once.
  std::vector<std::vector<bool>> used(gts.size());
  for (size_t i = 0; i < gts.size(); ++i) used[i].assign(gts[i].size(), false);

  std::vector<int> tp(flat.size(), 0);
  for (size_t p = 0; p < flat.size(); ++p) {
    const auto& pr = flat[p];
    const auto& img_gts = gts[static_cast<size_t>(pr.image)];
    float best_iou = 0.0f;
    int64_t best_g = -1;
    for (size_t g = 0; g < img_gts.size(); ++g) {
      if (img_gts[g].cls != cls || used[static_cast<size_t>(pr.image)][g]) continue;
      const data::GtBox& gt = img_gts[g];
      const Box gt_box = Box::from_cxcywh(gt.cx, gt.cy, gt.w, gt.h);
      const float v = iou(pr.box, gt_box);
      if (v > best_iou) {
        best_iou = v;
        best_g = static_cast<int64_t>(g);
      }
    }
    if (best_g >= 0 && best_iou >= iou_threshold) {
      tp[p] = 1;
      used[static_cast<size_t>(pr.image)][static_cast<size_t>(best_g)] = true;
    }
  }

  // Precision-recall curve.
  std::vector<float> precision(flat.size());
  std::vector<float> recall(flat.size());
  int64_t cum_tp = 0;
  for (size_t p = 0; p < flat.size(); ++p) {
    cum_tp += tp[p];
    precision[p] = static_cast<float>(cum_tp) / static_cast<float>(p + 1);
    recall[p] = static_cast<float>(cum_tp) / static_cast<float>(total_gt);
  }

  // 11-point interpolation (VOC 2007 style).
  float ap = 0.0f;
  for (int64_t i = 0; i <= 10; ++i) {
    const float r = static_cast<float>(i) / 10.0f;
    float pmax = 0.0f;
    for (size_t p = 0; p < flat.size(); ++p) {
      if (recall[p] >= r) pmax = std::max(pmax, precision[p]);
    }
    ap += pmax / 11.0f;
  }
  return ap;
}

float ap50(const std::vector<std::vector<Box>>& preds,
           const std::vector<std::vector<data::GtBox>>& gts,
           int64_t num_classes) {
  float sum = 0.0f;
  int64_t counted = 0;
  for (int64_t c = 0; c < num_classes; ++c) {
    const float ap = average_precision(preds, gts, c, 0.5f);
    if (ap >= 0.0f) {
      sum += ap;
      ++counted;
    }
  }
  return counted > 0 ? sum / static_cast<float>(counted) : 0.0f;
}

}  // namespace nb::detect
