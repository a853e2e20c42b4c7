// Tests for average precision across IoU thresholds, and for ap50 (the
// metric Table III reports) as its class mean at IoU 0.5.
#include <gtest/gtest.h>

#include "detect/ap_eval.h"

namespace nb::detect {
namespace {

data::GtBox gt(float cx, float cy, float w, float h, int64_t cls) {
  return data::GtBox{cx, cy, w, h, cls};
}

Box pred(float cx, float cy, float w, float h, int64_t cls, float score) {
  Box b = Box::from_cxcywh(cx, cy, w, h);
  b.cls = cls;
  b.score = score;
  return b;
}

// The COCO threshold ladder 0.50:0.05:0.95.
std::vector<float> iou_ladder() {
  std::vector<float> out;
  for (int i = 0; i <= 9; ++i) {
    out.push_back(0.5f + 0.05f * static_cast<float>(i));
  }
  return out;
}

TEST(MeanAp, PerfectPredictionsScoreOneAtEveryThreshold) {
  std::vector<std::vector<data::GtBox>> gts = {
      {gt(0.3f, 0.3f, 0.2f, 0.2f, 0)}, {gt(0.7f, 0.7f, 0.25f, 0.25f, 1)}};
  std::vector<std::vector<Box>> preds = {
      {pred(0.3f, 0.3f, 0.2f, 0.2f, 0, 0.9f)},
      {pred(0.7f, 0.7f, 0.25f, 0.25f, 1, 0.8f)}};
  for (float t : iou_ladder()) {
    for (int64_t cls = 0; cls < 2; ++cls) {
      EXPECT_NEAR(average_precision(preds, gts, cls, t), 1.0f, 1e-5f);
    }
  }
  EXPECT_NEAR(ap50(preds, gts, 2), 1.0f, 1e-5f);
}

TEST(MeanAp, LooseBoxPassesLowThresholdFailsHigh) {
  // A prediction offset by a quarter of its width: IoU ~= 0.6.
  std::vector<std::vector<data::GtBox>> gts = {
      {gt(0.5f, 0.5f, 0.4f, 0.4f, 0)}};
  std::vector<std::vector<Box>> preds = {
      {pred(0.55f, 0.5f, 0.4f, 0.4f, 0, 0.9f)}};
  const float ap_50 = average_precision(preds, gts, 0, 0.5f);
  const float ap_90 = average_precision(preds, gts, 0, 0.9f);
  EXPECT_GT(ap_50, 0.9f);
  EXPECT_LT(ap_90, 0.1f);
}

TEST(MeanAp, MonotoneNonIncreasingInThreshold) {
  std::vector<std::vector<data::GtBox>> gts = {
      {gt(0.4f, 0.4f, 0.3f, 0.3f, 0), gt(0.75f, 0.75f, 0.2f, 0.2f, 0)}};
  std::vector<std::vector<Box>> preds = {
      {pred(0.42f, 0.4f, 0.3f, 0.3f, 0, 0.9f),
       pred(0.7f, 0.75f, 0.22f, 0.2f, 0, 0.7f),
       pred(0.1f, 0.1f, 0.2f, 0.2f, 0, 0.5f)}};
  float prev = 2.0f;
  for (float t : iou_ladder()) {
    const float v = average_precision(preds, gts, 0, t);
    EXPECT_LE(v, prev + 1e-6f) << "AP must not rise as IoU tightens";
    prev = v;
  }
}

TEST(MeanAp, Ap50IsAliasForHalfThreshold) {
  std::vector<std::vector<data::GtBox>> gts = {
      {gt(0.5f, 0.5f, 0.3f, 0.3f, 0)}};
  std::vector<std::vector<Box>> preds = {
      {pred(0.52f, 0.5f, 0.3f, 0.3f, 0, 0.9f)}};
  EXPECT_FLOAT_EQ(ap50(preds, gts, 1), average_precision(preds, gts, 0, 0.5f));
}

TEST(MeanAp, InvalidArgumentsThrow) {
  std::vector<std::vector<data::GtBox>> gts = {{gt(0.5f, 0.5f, 0.3f, 0.3f, 0)}};
  std::vector<std::vector<Box>> preds = {{}};
  EXPECT_THROW(average_precision(preds, gts, 0, 0.0f), std::runtime_error);
  EXPECT_THROW(average_precision(preds, gts, 0, 1.5f), std::runtime_error);
}

}  // namespace
}  // namespace nb::detect
