#include "src/apps/inference.h"

#include <cstring>

namespace psp {

DecisionTree::DecisionTree(uint32_t depth, uint32_t num_features, Rng& rng)
    : depth_(depth) {
  const size_t node_count = (size_t{1} << (depth + 1)) - 1;
  nodes_.resize(node_count);
  const size_t first_leaf = (size_t{1} << depth) - 1;
  for (size_t i = 0; i < node_count; ++i) {
    if (i < first_leaf) {
      nodes_[i].feature = static_cast<uint32_t>(rng.NextBounded(num_features));
      nodes_[i].threshold = static_cast<float>(rng.NextDouble());
    } else {
      nodes_[i].value = static_cast<float>(rng.NextDouble() * 2.0 - 1.0);
    }
  }
}

float DecisionTree::Predict(const float* features, size_t count) const {
  const size_t first_leaf = (size_t{1} << depth_) - 1;
  size_t node = 0;
  while (node < first_leaf) {
    const Node& n = nodes_[node];
    const float x = n.feature < count ? features[n.feature] : 0.0f;
    node = 2 * node + (x <= n.threshold ? 1 : 2);
  }
  return nodes_[node].value;
}

GbdtModel::GbdtModel(uint32_t num_trees, uint32_t depth, uint32_t num_features,
                     uint64_t seed)
    : num_features_(num_features) {
  Rng rng(seed);
  trees_.reserve(num_trees);
  for (uint32_t i = 0; i < num_trees; ++i) {
    trees_.emplace_back(depth, num_features, rng);
  }
}

float GbdtModel::Predict(const float* features, size_t count) const {
  float sum = 0;
  for (const auto& tree : trees_) {
    sum += tree.Predict(features, count);
  }
  return sum;
}

uint32_t EncodeInferenceRequest(const float* features, uint32_t count,
                                std::byte* buf, uint32_t capacity) {
  const uint32_t needed = 4 + count * 4;
  if (needed > capacity) {
    return 0;
  }
  std::memcpy(buf, &count, 4);
  if (count > 0) {
    std::memcpy(buf + 4, features, count * 4);
  }
  return needed;
}

std::optional<InferenceRequest> DecodeInferenceRequest(const std::byte* buf,
                                                       uint32_t length) {
  if (length < 4) {
    return std::nullopt;
  }
  uint32_t count = 0;
  std::memcpy(&count, buf, 4);
  if (4 + static_cast<uint64_t>(count) * 4 > length) {
    return std::nullopt;
  }
  InferenceRequest request;
  request.features.resize(count);
  if (count > 0) {
    std::memcpy(request.features.data(), buf + 4, size_t{count} * 4);
  }
  return request;
}

uint32_t ExecuteInference(const GbdtModel& model,
                          const InferenceRequest& request, std::byte* response,
                          uint32_t capacity) {
  if (capacity < 4) {
    return 0;
  }
  const float prediction =
      model.Predict(request.features.data(), request.features.size());
  std::memcpy(response, &prediction, 4);
  return 4;
}

}  // namespace psp
