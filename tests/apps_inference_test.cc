// GBDT inference engine tests: determinism, prediction bounds, codec, and
// the model-size → service-time relationship the workload relies on.
#include "src/apps/inference.h"

#include <gtest/gtest.h>

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "src/common/time.h"

namespace psp {
namespace {

std::vector<float> RandomFeatures(uint32_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> features(count);
  for (auto& f : features) {
    f = static_cast<float>(rng.NextDouble());
  }
  return features;
}

TEST(DecisionTree, DeterministicPerSeed) {
  Rng a(7);
  Rng b(7);
  DecisionTree ta(6, 16, a);
  DecisionTree tb(6, 16, b);
  const auto features = RandomFeatures(16, 1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(ta.Predict(features.data(), features.size()),
              tb.Predict(features.data(), features.size()));
  }
}

TEST(DecisionTree, LeafValuesBounded) {
  Rng rng(3);
  DecisionTree tree(8, 32, rng);
  for (uint64_t s = 0; s < 100; ++s) {
    const auto features = RandomFeatures(32, s);
    const float y = tree.Predict(features.data(), features.size());
    EXPECT_GE(y, -1.0f);
    EXPECT_LE(y, 1.0f);
  }
}

TEST(DecisionTree, MissingFeaturesTreatedAsZero) {
  Rng rng(4);
  DecisionTree tree(4, 32, rng);
  // Predicting with zero features must not crash and must be deterministic.
  const float y1 = tree.Predict(nullptr, 0);
  const float y2 = tree.Predict(nullptr, 0);
  EXPECT_EQ(y1, y2);
}

TEST(GbdtModel, EnsembleSumsTrees) {
  GbdtModel model(100, 6, 16, 11);
  const auto features = RandomFeatures(16, 2);
  const float y = model.Predict(features.data(), features.size());
  // 100 trees each in [-1, 1].
  EXPECT_GE(y, -100.0f);
  EXPECT_LE(y, 100.0f);
  EXPECT_EQ(model.num_trees(), 100u);
}

TEST(GbdtModel, DifferentInputsUsuallyDiffer) {
  GbdtModel model(50, 6, 16, 12);
  const auto a = RandomFeatures(16, 100);
  const auto b = RandomFeatures(16, 200);
  EXPECT_NE(model.Predict(a.data(), a.size()),
            model.Predict(b.data(), b.size()));
}

TEST(GbdtModel, BiggerEnsembleTakesProportionallyLonger) {
  // The workload's premise: service time scales with ensemble size.
  GbdtModel small(32, 8, 32, 5);
  GbdtModel big(2048, 8, 32, 5);
  const auto features = RandomFeatures(32, 9);

  // Thread CPU time, not wall time: a loaded host preempts the test thread,
  // and a preemption inside one timing would count against that model only.
  const auto cpu_now = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<Nanos>(ts.tv_sec) * kSecond + ts.tv_nsec;
  };
  const auto time_model = [&](const GbdtModel& model) {
    volatile float sink = 0;
    const Nanos start = cpu_now();
    for (int i = 0; i < 50; ++i) {
      sink = sink + model.Predict(features.data(), features.size());
    }
    return cpu_now() - start;
  };
  // Warm both, then keep each model's fastest of 5 alternating rounds: the
  // minimum drops rounds slowed by cache or frequency disturbances.
  time_model(small);
  time_model(big);
  Nanos t_small = std::numeric_limits<Nanos>::max();
  Nanos t_big = std::numeric_limits<Nanos>::max();
  for (int round = 0; round < 5; ++round) {
    t_small = std::min(t_small, time_model(small));
    t_big = std::min(t_big, time_model(big));
  }
  EXPECT_GT(t_big, t_small * 10);  // 64x more trees: at least 10x slower
}

TEST(InferenceCodec, RoundTrip) {
  const auto features = RandomFeatures(8, 3);
  alignas(4) std::byte buf[256];
  // A request payload sits wherever the frame puts it; offset 2 leaves the
  // features misaligned for float, as a frame's payload can be.
  for (const size_t offset : {size_t{0}, size_t{2}}) {
    const uint32_t len = EncodeInferenceRequest(
        features.data(), 8, buf + offset, sizeof(buf) - offset);
    ASSERT_EQ(len, 4u + 32u);
    const auto decoded = DecodeInferenceRequest(buf + offset, len);
    ASSERT_TRUE(decoded.has_value());
    ASSERT_EQ(decoded->features.size(), 8u);
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(decoded->features[i], features[static_cast<size_t>(i)]);
    }
  }
}

TEST(InferenceCodec, RejectsTruncated) {
  const auto features = RandomFeatures(8, 3);
  std::byte buf[256];
  const uint32_t len =
      EncodeInferenceRequest(features.data(), 8, buf, sizeof(buf));
  EXPECT_FALSE(DecodeInferenceRequest(buf, len - 1).has_value());
  EXPECT_FALSE(DecodeInferenceRequest(buf, 2).has_value());
  // Capacity too small to encode.
  EXPECT_EQ(EncodeInferenceRequest(features.data(), 8, buf, 8), 0u);
}

TEST(ExecuteInference, WritesPrediction) {
  GbdtModel model(10, 4, 8, 21);
  const auto features = RandomFeatures(8, 4);
  std::byte req[64];
  const uint32_t req_len =
      EncodeInferenceRequest(features.data(), 8, req, sizeof(req));
  const auto decoded = DecodeInferenceRequest(req, req_len);
  std::byte resp[8];
  ASSERT_EQ(ExecuteInference(model, *decoded, resp, sizeof(resp)), 4u);
  float y;
  std::memcpy(&y, resp, 4);
  EXPECT_EQ(y, model.Predict(features.data(), 8));
  EXPECT_EQ(ExecuteInference(model, *decoded, resp, 2), 0u);
}

}  // namespace
}  // namespace psp
