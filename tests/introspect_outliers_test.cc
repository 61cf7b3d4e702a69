// Contracts for the tail-outlier capture ring (src/introspect/outliers.h):
// the K-slowest invariant, per-window reset with previous-window retention,
// deterministic JSON, and bit-identical offline artifacts across two
// same-seed simulator runs (written through WriteTextFile).
#include "src/introspect/outliers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "src/introspect/offline.h"
#include "src/introspect/prometheus.h"
#include "src/sim/cluster.h"
#include "src/sim/policies/persephone.h"
#include "src/sim/workload.h"

namespace psp {
namespace {

RequestTrace MakeTrace(uint64_t id, uint32_t type, Nanos rx, Nanos tx) {
  RequestTrace t;
  t.request_id = id;
  t.type = type;
  t.stamp[static_cast<size_t>(TraceStage::kRx)] = rx;
  t.stamp[static_cast<size_t>(TraceStage::kTx)] = tx;
  return t;
}

TEST(Outliers, KeepsKSlowestPerType) {
  OutlierConfig config;
  config.enabled = true;
  config.k = 3;
  config.window = 0;  // one window covering the whole run
  OutlierRecorder rec(config);

  // 10 requests with totals 1000, 2000, ..., 10000. (rx must be nonzero:
  // a zero stamp means "stage never recorded" and the offer is ignored.)
  for (uint64_t i = 1; i <= 10; ++i) {
    rec.Offer(MakeTrace(i, /*type=*/0, /*rx=*/10,
                        /*tx=*/10 + static_cast<Nanos>(i) * 1000),
              static_cast<Nanos>(10 + i * 1000));
  }
  const std::vector<OutlierWindow> windows = rec.Snapshot();
  ASSERT_EQ(windows.size(), 1u);
  const auto& entries = windows[0].per_type.at(0);
  ASSERT_EQ(entries.size(), 3u);
  // Slowest first: 10000, 9000, 8000.
  EXPECT_EQ(entries[0].total, 10000);
  EXPECT_EQ(entries[1].total, 9000);
  EXPECT_EQ(entries[2].total, 8000);
  EXPECT_EQ(rec.offered(), 10u);
}

TEST(Outliers, PerTypeRingsAreIndependent) {
  OutlierConfig config;
  config.enabled = true;
  config.k = 2;
  config.window = 0;
  OutlierRecorder rec(config);
  for (uint64_t i = 1; i <= 5; ++i) {
    rec.Offer(MakeTrace(i, /*type=*/0, 10, 10 + static_cast<Nanos>(i) * 100),
              0);
    rec.Offer(
        MakeTrace(100 + i, /*type=*/1, 10, 10 + static_cast<Nanos>(i) * 1000),
        0);
  }
  const auto windows = rec.Snapshot();
  ASSERT_EQ(windows[0].per_type.size(), 2u);
  EXPECT_EQ(windows[0].per_type.at(0)[0].total, 500);
  EXPECT_EQ(windows[0].per_type.at(1)[0].total, 5000);
}

TEST(Outliers, RecordsWithoutBothEndpointsIgnored) {
  OutlierConfig config;
  config.enabled = true;
  config.k = 4;
  OutlierRecorder rec(config);
  RequestTrace no_tx;
  no_tx.request_id = 1;
  no_tx.stamp[static_cast<size_t>(TraceStage::kRx)] = 100;
  rec.Offer(no_tx, 100);
  EXPECT_EQ(rec.offered(), 0u);
  EXPECT_TRUE(rec.Snapshot()[0].per_type.empty());
}

TEST(Outliers, WindowRotationRetainsPrevious) {
  OutlierConfig config;
  config.enabled = true;
  config.k = 2;
  config.window = 1000;
  OutlierRecorder rec(config);

  // Window [0, 1000): two entries.
  rec.Offer(MakeTrace(1, 0, 10, 410), 400);
  rec.Offer(MakeTrace(2, 0, 200, 500), 500);
  // Crossing into [1000, 2000) rotates.
  rec.Offer(MakeTrace(3, 0, 900, 1500), 1500);
  EXPECT_EQ(rec.windows_rotated(), 1u);

  const auto windows = rec.Snapshot();
  ASSERT_EQ(windows.size(), 2u);
  // Current window (open) first.
  EXPECT_EQ(windows[0].end, 0);
  ASSERT_EQ(windows[0].per_type.at(0).size(), 1u);
  EXPECT_EQ(windows[0].per_type.at(0)[0].trace.request_id, 3u);
  // Previous window second, closed, with both entries slowest-first.
  EXPECT_EQ(windows[1].start, 0);
  EXPECT_EQ(windows[1].end, 1000);
  ASSERT_EQ(windows[1].per_type.at(0).size(), 2u);
  EXPECT_EQ(windows[1].per_type.at(0)[0].total, 400);
  EXPECT_EQ(windows[1].per_type.at(0)[1].total, 300);
}

TEST(Outliers, IdleStretchSkipsWindows) {
  OutlierConfig config;
  config.enabled = true;
  config.k = 1;
  config.window = 1000;
  OutlierRecorder rec(config);
  rec.Offer(MakeTrace(1, 0, 10, 110), 100);
  // Long idle gap: next offer lands in window seq 7, not seq 1.
  rec.Offer(MakeTrace(2, 0, 7200, 7400), 7400);
  const auto windows = rec.Snapshot();
  EXPECT_EQ(windows[0].seq, 7u);
  EXPECT_EQ(windows[0].start, 7000);
}

TEST(Outliers, TiesBrokenByRequestIdDeterministically) {
  OutlierConfig config;
  config.enabled = true;
  config.k = 2;
  OutlierRecorder rec(config);
  // Three entries with identical totals: eviction drops the lowest id, so
  // the two *highest* ids are retained, displayed id-ascending. Offer order
  // must not matter — only the id decides.
  rec.Offer(MakeTrace(30, 0, 100, 600), 0);
  rec.Offer(MakeTrace(10, 0, 100, 600), 0);
  rec.Offer(MakeTrace(20, 0, 100, 600), 0);
  const auto entries = rec.Snapshot()[0].per_type.at(0);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].trace.request_id, 20u);
  EXPECT_EQ(entries[1].trace.request_id, 30u);
}

TEST(Outliers, JsonShapeAndEscaping) {
  OutlierConfig config;
  config.enabled = true;
  config.k = 2;
  config.window = 0;
  OutlierRecorder rec(config);
  RequestTrace t = MakeTrace(5, 0, 100, 900);
  t.stamp[static_cast<size_t>(TraceStage::kEnqueued)] = 200;
  t.stamp[static_cast<size_t>(TraceStage::kDispatched)] = 300;
  t.stamp[static_cast<size_t>(TraceStage::kHandlerStart)] = 350;
  t.stamp[static_cast<size_t>(TraceStage::kHandlerEnd)] = 800;
  t.worker = 2;
  rec.Offer(t, 900);

  std::map<uint32_t, std::string> names;
  names[0] = "A\"B";
  const std::string json = rec.ToJson(names);
  EXPECT_NE(json.find("\"k\":2"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"A\\\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"request_id\":5"), std::string::npos);
  EXPECT_NE(json.find("\"total_nanos\":800"), std::string::npos);
  EXPECT_NE(json.find("\"queueing\":100"), std::string::npos);
  EXPECT_NE(json.find("\"service\":450"), std::string::npos);
  // Deterministic output.
  EXPECT_EQ(json, rec.ToJson(names));
}

// Two same-seed simulator runs with outlier capture + offline rendering must
// produce byte-identical artifacts (the sim determinism contract extended to
// the introspection plane).
TEST(Outliers, SimOfflineArtifactsDeterministicAcrossRuns) {
  auto run_once = [](const std::string& dir) {
    WorkloadSpec workload = HighBimodal();
    ClusterConfig config;
    config.num_workers = 4;
    config.rate_rps = 2e5;
    config.duration = 20 * kMillisecond;
    config.seed = 7;
    config.telemetry.sample_every = 4;
    config.telemetry.timeseries.enabled = true;
    config.telemetry.timeseries.interval = 5 * kMillisecond;
    config.outliers.enabled = true;
    config.outliers.k = 5;
    config.outliers.window = 10 * kMillisecond;
    config.introspect_dir = dir;
    ClusterEngine engine(workload, config,
                         std::make_unique<PersephonePolicy>());
    engine.Run();
    EXPECT_GT(engine.outliers()->offered(), 0u);
  };

  const std::string dir_a = ::testing::TempDir() + "/introspect_a";
  const std::string dir_b = ::testing::TempDir() + "/introspect_b";
  run_once(dir_a);
  run_once(dir_b);

  for (const char* file :
       {"metrics.prom", "snapshot.json", "timeseries.json", "outliers.json"}) {
    std::ifstream a(dir_a + "/" + file), b(dir_b + "/" + file);
    ASSERT_TRUE(a.good()) << file;
    ASSERT_TRUE(b.good()) << file;
    std::stringstream sa, sb;
    sa << a.rdbuf();
    sb << b.rdbuf();
    EXPECT_FALSE(sa.str().empty()) << file;
    EXPECT_EQ(sa.str(), sb.str()) << file;
  }
}

TEST(Offline, WriteTextFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/psp_write_test.txt";
  ASSERT_TRUE(WriteTextFile(path, "hello\nworld\n"));
  std::ifstream in(path);
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_EQ(contents.str(), "hello\nworld\n");
  std::remove(path.c_str());
  EXPECT_FALSE(WriteTextFile("/nonexistent-dir/x/y", "nope"));
}

}  // namespace
}  // namespace psp
