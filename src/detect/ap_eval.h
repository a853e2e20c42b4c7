// AP50 evaluation: greedy IoU matching per class over the whole dataset,
// precision-recall curve, 11-point interpolated average precision (the
// classic Pascal VOC metric reported in Table III at IoU 0.5).
#pragma once

#include <vector>

#include "data/dataset.h"
#include "detect/box.h"

namespace nb::detect {

/// Average precision for one class; `preds`/`gts` are per-image lists. A
/// prediction matches when its IoU with an unmatched ground-truth box is at
/// least `iou_threshold`, which must lie in (0, 1]. Returns -1 when the
/// class has no ground truth.
float average_precision(const std::vector<std::vector<Box>>& preds,
                        const std::vector<std::vector<data::GtBox>>& gts,
                        int64_t cls, float iou_threshold = 0.5f);

/// Mean AP at IoU 0.5 over all classes (classes with no ground truth are
/// skipped, matching common VOC tooling).
float ap50(const std::vector<std::vector<Box>>& preds,
           const std::vector<std::vector<data::GtBox>>& gts,
           int64_t num_classes);

}  // namespace nb::detect
