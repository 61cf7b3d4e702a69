// Deadline tier (src/sched): DeadlineConfig resolution and validation, the
// slack-aware reservation math, the admission-control shed predicate's
// determinism, the scheduler-level shed counters, and the consistency of the
// scheduler's miss accounting with the simulator's metrics (both substrates
// judge misses at server-side completion time).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/core/scheduler.h"
#include "src/sched/admission.h"
#include "src/sched/deadline.h"
#include "src/sched/slack_reservation.h"
#include "src/sim/cluster.h"
#include "src/sim/policies/persephone.h"

namespace psp {
namespace {

// --- DeadlineConfig resolution -----------------------------------------------

TEST(DeadlineConfig, BudgetResolutionPrecedence) {
  DeadlineConfig config;
  config.targets.push_back({"abs", 50 * kMicrosecond, 0});
  config.targets.push_back({"both", 40 * kMicrosecond, 99.0});  // budget wins
  config.targets.push_back({"mult", 0, 3.0});
  config.default_slowdown = 2.0;

  const Nanos mean = 10 * kMicrosecond;
  EXPECT_EQ(config.BudgetFor("abs", mean), 50 * kMicrosecond);
  EXPECT_EQ(config.BudgetFor("both", mean), 40 * kMicrosecond);
  EXPECT_EQ(config.BudgetFor("mult", mean), 30 * kMicrosecond);
  // Untargeted types fall back to default_slowdown × mean.
  EXPECT_EQ(config.BudgetFor("other", mean), 20 * kMicrosecond);
  // A slowdown rule with no mean yields no deadline.
  EXPECT_EQ(config.BudgetFor("mult", 0), 0);
}

TEST(DeadlineConfig, EnabledAndValidation) {
  DeadlineConfig off;
  EXPECT_FALSE(off.enabled());
  EXPECT_TRUE(off.Validate().empty());

  DeadlineConfig on;
  on.targets.push_back({"A", 10 * kMicrosecond, 0});
  EXPECT_TRUE(on.enabled());
  EXPECT_TRUE(on.Validate().empty());

  DeadlineConfig dup = on;
  dup.targets.push_back({"A", 20 * kMicrosecond, 0});
  EXPECT_FALSE(dup.Validate().empty());

  DeadlineConfig bad_safety = on;
  bad_safety.shed = true;
  bad_safety.shed_safety = 0;
  EXPECT_FALSE(bad_safety.Validate().empty());
}

TEST(SlackReservation, RiskWeightShape) {
  const double mean = 10'000;  // 10 µs
  // No budget: neutral weight.
  EXPECT_DOUBLE_EQ(SlackRiskWeight(mean, 0), 1.0);
  // Budget at 2× mean: urgency 1 → weight 2.
  EXPECT_DOUBLE_EQ(SlackRiskWeight(mean, 20'000), 2.0);
  // Generous 11× budget: urgency 0.1 → weight 1.1.
  EXPECT_NEAR(SlackRiskWeight(mean, 110'000), 1.1, 1e-9);
  // Budget at or below the mean: clamped to the fully-at-risk ceiling.
  EXPECT_DOUBLE_EQ(SlackRiskWeight(mean, 10'000), 1.0 + kMaxUrgency);
  EXPECT_DOUBLE_EQ(SlackRiskWeight(mean, 5'000), 1.0 + kMaxUrgency);
}

TEST(SlackReservation, NoBudgetsDegeneratesToPlainReservation) {
  const std::vector<TypeDemand> demands = {
      {0, 1'000, 0.3}, {1, 10'000, 0.3}, {2, 100'000, 0.4}};
  ReservationConfig config;
  config.num_workers = 14;
  const Reservation plain = ComputeReservation(demands, config);
  const Reservation slack =
      ComputeSlackReservation(demands, {0, 0, 0}, config);
  ASSERT_EQ(plain.groups.size(), slack.groups.size());
  for (size_t g = 0; g < plain.groups.size(); ++g) {
    EXPECT_EQ(plain.groups[g].reserved_count, slack.groups[g].reserved_count);
    EXPECT_EQ(plain.groups[g].members, slack.groups[g].members);
  }
}

TEST(SlackReservation, TightBudgetShiftsCoresTowardAtRiskType) {
  // Three δ-separated types; the 10 µs type runs against a 14 µs budget
  // (urgency 2.5 → weight 3.5), the others carry no deadline. Its inflated
  // demand must grow its reserved group at the expense of the loose types.
  const std::vector<TypeDemand> demands = {
      {0, 1'000, 0.3}, {1, 10'000, 0.3}, {2, 100'000, 0.4}};
  ReservationConfig config;
  config.num_workers = 14;
  const Reservation plain = ComputeReservation(demands, config);
  const Reservation slack =
      ComputeSlackReservation(demands, {0, 14'000, 0}, config);

  const auto reserved_of = [](const Reservation& r, TypeIndex t) {
    return r.groups[r.group_of_type[t]].reserved_count;
  };
  EXPECT_GT(reserved_of(slack, 1), reserved_of(plain, 1));
  EXPECT_LE(reserved_of(slack, 2), reserved_of(plain, 2));
  // Algorithm 2 invariants survive the re-weighting: every worker budget is
  // respected and every type still belongs to a group.
  uint32_t total = 0;
  for (const auto& g : slack.groups) {
    total += g.uses_spillway ? 0 : g.reserved_count;
  }
  EXPECT_LE(total, config.num_workers);
  EXPECT_EQ(slack.group_of_type.size(), demands.size());
}

// --- Admission-control shed predicate ----------------------------------------

TEST(Admission, PureAndDeterministic) {
  const Nanos now = 1'000'000;
  const Nanos deadline = now + 50'000;
  for (int i = 0; i < 3; ++i) {
    const AdmissionDecision a =
        PredictAdmission(now, deadline, 8, 10'000, 2, 1000);
    const AdmissionDecision b =
        PredictAdmission(now, deadline, 8, 10'000, 2, 1000);
    EXPECT_EQ(a.admit, b.admit);
    EXPECT_EQ(a.predicted_completion, b.predicted_completion);
    // 8 × 10 µs across 2 workers + own mean = 50 µs: exactly the budget.
    EXPECT_EQ(a.predicted_completion, deadline);
    EXPECT_TRUE(a.admit);
  }
  // One more queued request tips the prediction past the deadline.
  EXPECT_FALSE(PredictAdmission(now, deadline, 9, 10'000, 2, 1000).admit);
}

TEST(Admission, NeverShedsBlindAndRespectsSafety) {
  // No deadline or no model: always admit.
  EXPECT_TRUE(PredictAdmission(5, 0, 1000, 10'000, 1).admit);
  EXPECT_TRUE(PredictAdmission(5, 10, 1000, 0, 1).admit);
  // Zero workers clamps to one server instead of dividing by zero.
  EXPECT_EQ(PredictAdmission(0, 1'000'000, 4, 10'000, 0).predicted_completion,
            50'000);
  // safety_milli scales the prediction: 2.0 sheds a request 1.0 admits.
  const Nanos now = 0;
  const Nanos deadline = 60'000;
  EXPECT_TRUE(PredictAdmission(now, deadline, 8, 10'000, 2, 1000).admit);
  EXPECT_FALSE(PredictAdmission(now, deadline, 8, 10'000, 2, 2000).admit);
}

// --- Scheduler-level shed decisions ------------------------------------------

SchedulerConfig ShedSchedulerConfig() {
  SchedulerConfig config;
  config.mode = PolicyMode::kCFcfs;  // whole pool serves the type
  config.num_workers = 2;
  config.deadline.targets.push_back({"A", 50 * kMicrosecond, 0});
  config.deadline.shed = true;
  return config;
}

// Fills the queue without dispatching: each admit deepens the backlog until
// the predicted completion crosses the budget, after which every further
// enqueue sheds. The exact flip point and all counters must replay
// identically — the predicate is pure integer arithmetic.
TEST(SchedulerShed, DecisionSequenceIsDeterministic) {
  std::vector<DarcScheduler::EnqueueResult> first;
  for (int run = 0; run < 2; ++run) {
    DarcScheduler scheduler(ShedSchedulerConfig());
    const TypeIndex type =
        scheduler.RegisterType(1, "A", 10 * kMicrosecond, 1.0);
    std::vector<DarcScheduler::EnqueueResult> results;
    for (uint64_t i = 0; i < 20; ++i) {
      Request r;
      r.id = i;
      r.type = type;
      r.arrival = static_cast<Nanos>(i);
      r.deadline = r.arrival + scheduler.DeadlineTargetOf(type);
      results.push_back(scheduler.TryEnqueue(r, r.arrival));
    }
    const uint64_t sheds = static_cast<uint64_t>(
        std::count(results.begin(), results.end(),
                   DarcScheduler::EnqueueResult::kShed));
    EXPECT_GT(sheds, 0u);
    EXPECT_EQ(scheduler.deadline_shed(), sheds);
    EXPECT_EQ(scheduler.deadline_shed_of(type), sheds);
    EXPECT_EQ(scheduler.deadline_stamped(), results.size() - sheds);
    // Once the backlog sheds, deeper backlogs shed too (monotone predicate):
    // the results are a prefix of admits followed by sheds.
    const auto flip = std::find(results.begin(), results.end(),
                                DarcScheduler::EnqueueResult::kShed);
    for (auto it = flip; it != results.end(); ++it) {
      EXPECT_EQ(*it, DarcScheduler::EnqueueResult::kShed);
    }
    if (run == 0) {
      first = results;
    } else {
      EXPECT_EQ(results, first);
    }
  }
}

TEST(SchedulerShed, DrainingTheQueueReopensAdmission) {
  DarcScheduler scheduler(ShedSchedulerConfig());
  const TypeIndex type = scheduler.RegisterType(1, "A", 10 * kMicrosecond, 1.0);
  Nanos now = 0;
  const auto enqueue = [&](uint64_t id) {
    Request r;
    r.id = id;
    r.type = type;
    r.arrival = now;
    r.deadline = now + scheduler.DeadlineTargetOf(type);
    return scheduler.TryEnqueue(r, now);
  };
  uint64_t id = 0;
  while (enqueue(id) == DarcScheduler::EnqueueResult::kOk) {
    ++id;
  }
  // Dispatch and complete one request; the shallower queue admits again.
  auto assignment = scheduler.NextAssignment(now);
  ASSERT_TRUE(assignment.has_value());
  now += 10 * kMicrosecond;
  scheduler.OnCompletion(assignment->worker, type, 10 * kMicrosecond, now,
                         assignment->request.deadline);
  EXPECT_EQ(enqueue(++id), DarcScheduler::EnqueueResult::kOk);
}

// --- Sim-vs-scheduler miss-count consistency ---------------------------------

// Both substrates judge deadlines at server-side completion: the sim's
// Metrics (RecordCompletion at CompleteRequest) and the shared DarcScheduler
// (OnCompletion, the path the threaded runtime's dispatcher drives) must
// therefore agree on every miss, met and shed count. warmup_fraction = 0 so
// the metrics window covers exactly the scheduler's lifetime counters.
TEST(SimConsistency, SchedulerAndMetricsAgreeOnMissAndShedCounts) {
  for (const PolicyMode mode : {PolicyMode::kEdf, PolicyMode::kDarcSlack}) {
    PersephoneOptions options;
    options.scheduler.mode = mode;
    options.scheduler.deadline.targets.push_back({"SHORT", 0, 20.0});
    options.scheduler.deadline.targets.push_back({"LONG", 0, 1.4});
    options.scheduler.deadline.shed = (mode == PolicyMode::kDarcSlack);

    ClusterConfig config;
    config.num_workers = 8;
    config.rate_rps = 0.8 * HighBimodal().PeakLoadRps(8);
    config.duration = 80 * kMillisecond;
    config.warmup_fraction = 0;
    config.seed = 321;
    ClusterEngine engine(HighBimodal(), config,
                         std::make_unique<PersephonePolicy>(options));
    engine.Run();

    const Metrics& m = engine.metrics();
    const DarcScheduler& scheduler =
        static_cast<PersephonePolicy&>(engine.policy()).scheduler();
    EXPECT_GT(m.TotalDeadlined(), 0u);
    EXPECT_EQ(m.TotalDeadlineMisses(), scheduler.deadline_missed());
    EXPECT_EQ(m.TotalDeadlineSheds(), scheduler.deadline_shed());
    // Every admitted deadlined request completed (the engine runs to
    // quiescence), so the stamped count must match the judged count.
    EXPECT_EQ(m.TotalDeadlined(),
              scheduler.deadline_missed() + scheduler.deadline_met());
    EXPECT_EQ(m.TotalDeadlined(), scheduler.deadline_stamped());
    if (mode == PolicyMode::kDarcSlack) {
      EXPECT_GT(m.TotalDeadlineSheds(), 0u);
    }
  }
}

}  // namespace
}  // namespace psp
