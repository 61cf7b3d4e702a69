// A gradient-boosted-decision-tree inference engine, the "fast inference
// engine" service class the paper names as a Perséphone target (§4.1,
// LightGBM-style). Ensembles of binary decision trees over dense float
// features; request types map naturally to model sizes (a 10-tree "light"
// model answers in microseconds, a 1000-tree "heavy" model takes 100×
// longer), giving a realistic typed-service-time workload.
#ifndef PSP_SRC_APPS_INFERENCE_H_
#define PSP_SRC_APPS_INFERENCE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/rng.h"

namespace psp {

// One binary decision tree over dense features, stored as a flat array.
// Inner nodes: feature index + threshold; leaves: output value.
class DecisionTree {
 public:
  // Builds a random full tree of the given depth (deterministic per seed).
  DecisionTree(uint32_t depth, uint32_t num_features, Rng& rng);

  float Predict(const float* features, size_t count) const;

  uint32_t depth() const { return depth_; }

 private:
  struct Node {
    uint32_t feature;   // inner node: feature index
    float threshold;    // inner node: split threshold
    float value;        // leaf: output
  };

  uint32_t depth_;
  std::vector<Node> nodes_;  // heap layout: node i -> children 2i+1 / 2i+2
};

// An ensemble (sum of trees) with an identifier, mimicking a deployed model.
class GbdtModel {
 public:
  GbdtModel(uint32_t num_trees, uint32_t depth, uint32_t num_features,
            uint64_t seed);

  float Predict(const float* features, size_t count) const;

  uint32_t num_trees() const { return static_cast<uint32_t>(trees_.size()); }
  uint32_t num_features() const { return num_features_; }

 private:
  uint32_t num_features_;
  std::vector<DecisionTree> trees_;
};

// Wire protocol for the inference service (payload after the PSP header):
//   feature_count u32 | features f32 × count
// Decoding copies the features out: a payload need not be 4-byte aligned.
struct InferenceRequest {
  std::vector<float> features;
};

uint32_t EncodeInferenceRequest(const float* features, uint32_t count,
                                std::byte* buf, uint32_t capacity);
std::optional<InferenceRequest> DecodeInferenceRequest(const std::byte* buf,
                                                       uint32_t length);

// Runs the model; response: prediction f32. Returns bytes written.
uint32_t ExecuteInference(const GbdtModel& model,
                          const InferenceRequest& request, std::byte* response,
                          uint32_t capacity);

}  // namespace psp

#endif  // PSP_SRC_APPS_INFERENCE_H_
