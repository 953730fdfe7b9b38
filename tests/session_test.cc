// Tests for the public Session API (include/dsgm/): one queryable session
// interface over all three backends. The headline property is the paper's
// continuous-tracking capability — Snapshot() answers Algorithm 3's QUERY
// mid-stream — checked against ground truth on every backend.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "bayes/repository.h"
#include "dsgm/dsgm.h"

namespace dsgm {
namespace {

constexpr double kEpsilon = 0.1;

SessionBuilder MakeBuilder(const BayesianNetwork& network, Backend backend) {
  SessionBuilder builder(network);
  builder.WithBackend(backend)
      .WithStrategy(TrackingStrategy::kUniform)
      .WithEpsilon(kEpsilon)
      .WithSites(3)
      .WithSeed(20260727);
  return builder;
}

/// Checks every CPD cell whose parent assignment carries real observed
/// mass against the network's ground-truth CPD. The strategy keeps each
/// counter within a (1 ± eps') band of its exact count with eps' << eps
/// (the per-variable error split), so the CPD ratio stays well within eps
/// of the empirical frequency; the empirical frequency itself needs
/// sampling slack to reach the truth, hence the >= 2000-count mass gate
/// and the eps-wide absolute bound.
void ExpectCpdsNearTruth(const ModelView& view, const BayesianNetwork& truth,
                         const char* where) {
  const CounterLayout layout(truth);
  int checked = 0;
  for (int i = 0; i < truth.num_variables(); ++i) {
    for (int64_t row = 0; row < truth.parent_cardinality(i); ++row) {
      if (view.CounterEstimate(layout.ParentId(i, row)) < 2000.0) continue;
      for (int v = 0; v < truth.cardinality(i); ++v) {
        const double estimate = view.CpdEstimate(i, v, row);
        const double actual = truth.cpd(i).prob(v, row);
        EXPECT_NEAR(estimate, actual, kEpsilon)
            << where << ": CPD(" << i << ", " << v << " | row " << row << ")";
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 0) << where << ": no CPD cells had observable mass";
}

void RunMidStreamSnapshotTest(Backend backend) {
  const BayesianNetwork truth = StudentNetwork();
  StatusOr<std::unique_ptr<Session>> built = MakeBuilder(truth, backend).Build();
  ASSERT_TRUE(built.ok()) << built.status();
  Session& session = **built;
  EXPECT_EQ(session.backend(), backend);

  // First half of the stream, then a genuinely mid-run snapshot: the
  // protocol is still open (rounds outstanding, more events to come).
  // Snapshots are asynchronous on the cluster backends — pushed events may
  // still be in flight to the sites — so poll until the coordinator has
  // absorbed most of the first half (a root variable's parent counter
  // counts every event); each poll is itself a live mid-run QUERY.
  ASSERT_TRUE(session.StreamGroundTruth(25000).ok());
  const CounterLayout layout(truth);
  StatusOr<ModelView> mid = session.Snapshot();
  ASSERT_TRUE(mid.ok()) << mid.status();
  for (int poll = 0;
       poll < 500 && mid->CounterEstimate(layout.ParentId(0, 0)) < 20000.0;
       ++poll) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    mid = session.Snapshot();
    ASSERT_TRUE(mid.ok()) << mid.status();
  }
  EXPECT_FALSE(mid->empty());
  EXPECT_EQ(mid->events_observed(), 25000);
  ExpectCpdsNearTruth(*mid, truth, "mid-stream");

  // Second half; the old snapshot must stay immutable while the model
  // moves on underneath it.
  const double frozen = mid->CpdEstimate(0, 0, 0);
  ASSERT_TRUE(session.StreamGroundTruth(25000).ok());
  EXPECT_DOUBLE_EQ(mid->CpdEstimate(0, 0, 0), frozen);

  StatusOr<RunReport> report = session.Finish();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->backend, backend);
  EXPECT_EQ(report->events_processed, 50000);
  // 0.1, not 0.05: in-flight reports at shutdown make the realized error
  // scheduling-dependent, and sanitizer timings push short runs past
  // tighter bounds (same rationale as ClusterTest.SingleSiteWorks).
  EXPECT_LT(report->max_counter_rel_error, 0.1);
  EXPECT_GT(report->comm.TotalMessages(), 0u);
  ExpectCpdsNearTruth(report->model, truth, "final");

  // The session stays queryable (returning the final model) but rejects
  // further events.
  StatusOr<ModelView> after = session.Snapshot();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->events_observed(), 50000);
  const Status pushed = session.Push(Instance(5, 0));
  EXPECT_EQ(pushed.code(), StatusCode::kFailedPrecondition);
}

/// Regression for a defect the thread-safety annotation pass surfaced: the
/// final model was written AFTER the finished_ flag flipped, while the
/// post-Finish Snapshot path read it bare — so a snapshot racing Finish (a
/// contract violation, but one that must stay memory-safe) could read a
/// half-written ModelView. The view is now mutex-guarded on both backends'
/// paths; pollers here deliberately overlap Finish and must get either a
/// valid view or a defined error, never a torn read (TSan covers this
/// suite in CI).
void RunSnapshotRacesFinishTest(Backend backend) {
  const BayesianNetwork truth = StudentNetwork();
  StatusOr<std::unique_ptr<Session>> built = MakeBuilder(truth, backend).Build();
  ASSERT_TRUE(built.ok()) << built.status();
  Session& session = **built;
  ASSERT_TRUE(session.StreamGroundTruth(5000).ok());

  std::atomic<bool> stop{false};
  std::vector<std::thread> pollers;
  for (int t = 0; t < 4; ++t) {
    pollers.emplace_back([&session, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        StatusOr<ModelView> view = session.Snapshot();
        if (view.ok()) {
          // A successful snapshot is never torn: it is either the live
          // model or the complete final model.
          EXPECT_GE(view->events_observed(), 0);
        }
      }
    });
  }
  StatusOr<RunReport> report = session.Finish();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& poller : pollers) poller.join();
  ASSERT_TRUE(report.ok()) << report.status();

  // With the race over, the finished session serves the final model.
  StatusOr<ModelView> after = session.Snapshot();
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_FALSE(after->empty());
  EXPECT_EQ(after->events_observed(), 5000);
}

TEST(SessionTest, SnapshotRacingFinishStaysMemorySafeInProcess) {
  RunSnapshotRacesFinishTest(Backend::kInProcess);
}

TEST(SessionTest, SnapshotRacingFinishStaysMemorySafeThreads) {
  RunSnapshotRacesFinishTest(Backend::kThreads);
}

TEST(SessionTest, SnapshotMidStreamInProcess) {
  RunMidStreamSnapshotTest(Backend::kInProcess);
}

TEST(SessionTest, SnapshotMidStreamThreads) {
  RunMidStreamSnapshotTest(Backend::kThreads);
}

TEST(SessionTest, SnapshotMidStreamLocalTcp) {
  RunMidStreamSnapshotTest(Backend::kLocalTcp);
}

TEST(SessionTest, ExactModeAgreesAcrossAllBackends) {
  // Identical config => identical event stream on every backend (the seed
  // schedule is shared); in exact mode the final counter estimates must be
  // bit-identical to the exact counts, hence equal across backends.
  const BayesianNetwork truth = StudentNetwork();
  std::vector<ModelView> models;
  for (Backend backend :
       {Backend::kInProcess, Backend::kThreads, Backend::kLocalTcp}) {
    SessionBuilder builder(truth);
    builder.WithBackend(backend)
        .WithStrategy(TrackingStrategy::kExactMle)
        .WithSites(3)
        .WithSeed(99);
    StatusOr<std::unique_ptr<Session>> session = builder.Build();
    ASSERT_TRUE(session.ok()) << session.status();
    ASSERT_TRUE((*session)->StreamGroundTruth(20000).ok());
    StatusOr<RunReport> report = (*session)->Finish();
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_DOUBLE_EQ(report->max_counter_rel_error, 0.0)
        << ToString(backend);
    models.push_back(report->model);
  }
  for (int64_t c = 0; c < models[0].num_counters(); ++c) {
    ASSERT_DOUBLE_EQ(models[0].CounterEstimate(c), models[1].CounterEstimate(c))
        << "counter " << c;
    ASSERT_DOUBLE_EQ(models[0].CounterEstimate(c), models[2].CounterEstimate(c))
        << "counter " << c;
  }
}

TEST(SessionTest, BuilderValidatesConfiguration) {
  const BayesianNetwork net = StudentNetwork();
  {
    SessionBuilder builder(net);
    builder.WithEpsilon(-0.5);
    EXPECT_FALSE(builder.Build().ok());
  }
  {
    SessionBuilder builder(net);
    builder.WithSites(0);
    EXPECT_FALSE(builder.Build().ok());
  }
  {
    SessionBuilder builder(net);
    builder.WithBatchSize(0);
    EXPECT_FALSE(builder.Build().ok());
  }
  {
    // Transport factories only make sense for the threaded backend.
    SessionBuilder builder(net);
    builder.WithBackend(Backend::kInProcess).WithTransport(MakeLoopbackTransport);
    const StatusOr<std::unique_ptr<Session>> built = builder.Build();
    ASSERT_FALSE(built.ok());
    EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
  }
  {
    // Listener options only make sense for the local-TCP backend.
    SessionBuilder builder(net);
    builder.WithBackend(Backend::kThreads).WithListenPort(7700);
    EXPECT_FALSE(builder.Build().ok());
  }
  {
    SessionBuilder builder(net);
    builder.WithSites(kMaxSites + 1);
    EXPECT_FALSE(builder.Build().ok());
  }
  for (Backend backend : {Backend::kThreads, Backend::kLocalTcp}) {
    // The cluster backends implement one randomized counter instance; a
    // config they would silently run differently is refused.
    {
      SessionBuilder builder = MakeBuilder(net, backend);
      builder.WithCounterType(CounterType::kDeterministic);
      const StatusOr<std::unique_ptr<Session>> built = builder.Build();
      ASSERT_FALSE(built.ok()) << ToString(backend);
      EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
    }
    {
      TrackerConfig tracker = MakeBuilder(net, backend).options().tracker;
      tracker.replicas = 3;
      SessionBuilder builder = MakeBuilder(net, backend);
      builder.WithTracker(tracker);
      const StatusOr<std::unique_ptr<Session>> built = builder.Build();
      ASSERT_FALSE(built.ok()) << ToString(backend);
      EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
    }
  }
  {
    // The in-process tracker implements both.
    TrackerConfig tracker = MakeBuilder(net, Backend::kInProcess).options().tracker;
    tracker.counter_type = CounterType::kDeterministic;
    tracker.replicas = 3;
    SessionBuilder builder = MakeBuilder(net, Backend::kInProcess);
    builder.WithTracker(tracker);
    EXPECT_TRUE(builder.Build().ok());
  }
}

TEST(SessionTest, PushValidatesInstances) {
  const BayesianNetwork net = StudentNetwork();
  StatusOr<std::unique_ptr<Session>> session =
      MakeBuilder(net, Backend::kInProcess).Build();
  ASSERT_TRUE(session.ok());
  EXPECT_EQ((*session)->Push(Instance{0, 0}).code(),
            StatusCode::kInvalidArgument);  // wrong arity
  Instance bad(static_cast<size_t>(net.num_variables()), 0);
  bad[0] = net.cardinality(0);  // out of domain
  EXPECT_EQ((*session)->Push(bad).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ((*session)->events_pushed(), 0);
  Instance good(static_cast<size_t>(net.num_variables()), 0);
  EXPECT_TRUE((*session)->Push(good).ok());
  EXPECT_EQ((*session)->events_pushed(), 1);
}

TEST(SessionTest, EventSourcesDrainIntoTheModel) {
  const BayesianNetwork net = StudentNetwork();
  StatusOr<std::unique_ptr<Session>> session =
      MakeBuilder(net, Backend::kInProcess).Build();
  ASSERT_TRUE(session.ok());

  // Replay a recorded trace.
  std::vector<Instance> trace(100, Instance(5, 0));
  auto replay = MakeReplaySource(trace);
  ASSERT_TRUE((*session)->Drain(replay.get()).ok());
  EXPECT_EQ((*session)->events_pushed(), 100);

  // Callback source: 50 more events.
  int remaining = 50;
  auto callback = MakeCallbackSource([&remaining](Instance* out) {
    if (remaining-- <= 0) return false;
    *out = Instance(5, 1);
    return true;
  });
  ASSERT_TRUE((*session)->Drain(callback.get()).ok());
  EXPECT_EQ((*session)->events_pushed(), 150);

  // Sampler source over the ground truth.
  auto sampler = MakeSamplerSource(net, /*seed=*/5, /*limit=*/200);
  ASSERT_TRUE((*session)->Drain(sampler.get()).ok());
  EXPECT_EQ((*session)->events_pushed(), 350);

  StatusOr<RunReport> report = (*session)->Finish();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->events_processed, 350);
  EXPECT_EQ(report->model.events_observed(), 350);
}

TEST(SessionTest, InProcessViewMatchesDirectTrackerQueries) {
  // The quickstart path: an exact-mode in-process session whose snapshot
  // must reproduce the empirical frequencies exactly.
  const BayesianNetwork net = StudentNetwork();
  SessionBuilder builder(net);
  builder.WithStrategy(TrackingStrategy::kExactMle).WithSites(4).WithSeed(1);
  StatusOr<std::unique_ptr<Session>> session = builder.Build();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->StreamGroundTruth(30000).ok());
  StatusOr<ModelView> view = (*session)->Snapshot();
  ASSERT_TRUE(view.ok());
  // Exact mode: the joint estimate over a full instance is a product of
  // empirical frequencies, which converges to the truth.
  const Instance probe = {0, 1, 0, 1, 1};
  EXPECT_NEAR(view->JointProbability(probe), net.JointProbability(probe),
              0.02);
  // Ancestrally-closed partial query agrees with the chain-rule product.
  PartialAssignment pa;
  pa.nodes = {0, 1, 2};
  pa.values = {0, 1, 0};
  EXPECT_NEAR(view->JointProbability(pa), net.ClosedSubsetProbability(pa), 0.02);
}

}  // namespace
}  // namespace dsgm
