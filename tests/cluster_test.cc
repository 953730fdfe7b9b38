// Tests for cluster/: the threaded site/coordinator implementation must
// agree with the synchronous simulation's semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "bayes/repository.h"
#include "cluster/coordinator_node.h"
#include "cluster/site_node.h"
#include "common/queue.h"
#include "dsgm/dsgm.h"
#include "net/channel.h"

namespace dsgm {
namespace {

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> queue(16);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(queue.Push(i));
  std::vector<int> out;
  EXPECT_EQ(queue.PopBatch(&out, 100), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out[static_cast<size_t>(i)], i);
}

TEST(BoundedQueueTest, CloseDrainsThenFails) {
  BoundedQueue<int> queue(4);
  ASSERT_TRUE(queue.Push(1));
  queue.Close();
  EXPECT_FALSE(queue.Push(2));
  std::vector<int> out;
  EXPECT_EQ(queue.PopBatch(&out, 10), 1u);
  EXPECT_EQ(queue.PopBatch(&out, 10), 0u);
}

TEST(BoundedQueueTest, TryPopDoesNotBlock) {
  BoundedQueue<int> queue(4);
  std::vector<int> out;
  EXPECT_EQ(queue.TryPopBatch(&out, 10), 0u);
  ASSERT_TRUE(queue.Push(5));
  EXPECT_EQ(queue.TryPopBatch(&out, 10), 1u);
  EXPECT_EQ(out[0], 5);
}

TEST(BoundedQueueTest, PushBatchNeverOvershootsCapacity) {
  // Regression: PushBatch used to append the whole batch after one
  // not-full wait, ballooning a capacity-4 queue to arbitrary size. It must
  // now chunk against the bound and wait for consumers between chunks.
  constexpr size_t kCapacity = 4;
  constexpr int kItems = 100;
  BoundedQueue<int> queue(kCapacity);
  std::thread producer([&queue] {
    std::vector<int> batch;
    for (int i = 0; i < kItems; ++i) batch.push_back(i);
    EXPECT_TRUE(queue.PushBatch(std::move(batch)));
  });
  std::vector<int> received;
  size_t max_seen = 0;
  while (received.size() < static_cast<size_t>(kItems)) {
    max_seen = std::max(max_seen, queue.size());
    queue.PopBatch(&received, 1);
  }
  producer.join();
  EXPECT_LE(max_seen, kCapacity);
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(received[static_cast<size_t>(i)], i);
}

TEST(BoundedQueueTest, PushBatchSmallBatchStaysAtomic) {
  BoundedQueue<int> queue(8);
  EXPECT_TRUE(queue.PushBatch({1, 2, 3}));
  EXPECT_EQ(queue.size(), 3u);
  std::vector<int> out;
  EXPECT_EQ(queue.PopBatch(&out, 10), 3u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
}

TEST(BoundedQueueTest, CloseUnblocksPushBatchMidway) {
  BoundedQueue<int> queue(2);
  std::atomic<bool> returned{false};
  std::thread producer([&queue, &returned] {
    std::vector<int> batch(50, 7);
    EXPECT_FALSE(queue.PushBatch(std::move(batch)));  // Blocked, then closed.
    returned.store(true);
  });
  // Let the producer fill the queue and block on the capacity bound.
  while (queue.size() < 2) std::this_thread::yield();
  EXPECT_FALSE(returned.load());
  queue.Close();
  producer.join();
  EXPECT_TRUE(returned.load());
  // Chunks pushed before the close stay poppable.
  std::vector<int> out;
  EXPECT_EQ(queue.PopBatch(&out, 10), 2u);
}

UpdateBundle BundleOfReports(size_t reports) {
  UpdateBundle bundle;
  bundle.kind = UpdateBundle::Kind::kReports;
  bundle.site = 0;
  bundle.reports.assign(reports, CounterReport{0, 1});
  return bundle;
}

TEST(BoundedQueueTest, ReportCapBlocksAndResumesAfterPop) {
  // The queue is full once its queued reports reach kQueueWeightCapacity,
  // long before its item bound; a producer blocks there until a pop makes
  // room.
  BoundedQueue<UpdateBundle> queue(/*capacity=*/64);
  ASSERT_TRUE(queue.Push(BundleOfReports(kQueueWeightCapacity - 1)));
  // Below the bound, so accepted; it takes the queue to the bound.
  ASSERT_TRUE(queue.Push(BundleOfReports(1)));
  std::atomic<bool> pushed{false};
  std::thread producer([&queue, &pushed] {
    EXPECT_TRUE(queue.Push(BundleOfReports(1)));
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(queue.size(), 2u);
  std::vector<UpdateBundle> out;
  ASSERT_EQ(queue.PopBatch(&out, 1), 1u);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(queue.size(), 2u);
}

TEST(CoordinatorNodeTest, IgnoresForgedSiteAndCounterIds) {
  // Bundles arrive from real network peers in the multi-process deployment;
  // out-of-range ids must be dropped, not indexed.
  BoundedQueue<UpdateBundle> updates(64);
  QueueChannel<UpdateBundle> update_channel(&updates);
  BoundedQueue<RoundAdvance> commands(64);
  QueueChannel<RoundAdvance> command_channel(&commands);
  CoordinatorNode coordinator(/*epsilons=*/{}, /*num_counters=*/2,
                              /*num_sites=*/1, 1.0, &update_channel,
                              {&command_channel});

  UpdateBundle forged_site;
  forged_site.kind = UpdateBundle::Kind::kReports;
  forged_site.site = 99;
  forged_site.reports = {{0, 5}};
  ASSERT_TRUE(updates.Push(forged_site));
  forged_site.site = -1;
  ASSERT_TRUE(updates.Push(forged_site));

  UpdateBundle forged_counters;
  forged_counters.kind = UpdateBundle::Kind::kReports;
  forged_counters.site = 0;
  forged_counters.reports = {{-1, 3}, {1000000007, 4}, {1, 7}};
  ASSERT_TRUE(updates.Push(forged_counters));

  UpdateBundle done;
  done.kind = UpdateBundle::Kind::kSiteDone;
  done.site = 0;
  ASSERT_TRUE(updates.Push(done));

  coordinator.Run();
  EXPECT_EQ(coordinator.Estimate(0), 0.0);  // Forged-site reports dropped.
  EXPECT_EQ(coordinator.Estimate(1), 7.0);  // The one valid report landed.
}

TEST(CoordinatorNodeTest, MidRunAccessorsDoNotRaceTheProtocolThread) {
  // Regression for a defect the thread-safety annotation pass surfaced:
  // Run() wrote the first/last-message timestamps (and comm_) outside any
  // lock while ActiveSeconds()/comm() read them bare — benign for
  // post-join callers, a data race for mid-run ones. Every accessor now
  // takes the protocol mutex; this test exercises all of them against a
  // live Run() thread (TSan covers this suite in CI).
  BoundedQueue<UpdateBundle> updates(64);
  QueueChannel<UpdateBundle> update_channel(&updates);
  BoundedQueue<RoundAdvance> commands(64);
  QueueChannel<RoundAdvance> command_channel(&commands);
  CoordinatorNode coordinator(/*epsilons=*/{}, /*num_counters=*/2,
                              /*num_sites=*/1, 1.0, &update_channel,
                              {&command_channel});
  std::thread protocol([&coordinator] { coordinator.Run(); });

  uint64_t max_updates_seen = 0;
  for (uint32_t i = 1; i <= 200; ++i) {
    UpdateBundle bundle;
    bundle.kind = UpdateBundle::Kind::kReports;
    bundle.site = 0;
    bundle.reports = {{0, i}};
    ASSERT_TRUE(updates.Push(std::move(bundle)));
    // The racing reads under test: every accessor is legal mid-run.
    EXPECT_GE(coordinator.ActiveSeconds(), 0.0);
    EXPECT_GE(coordinator.Estimate(0), 0.0);
    max_updates_seen = std::max(max_updates_seen,
                                coordinator.comm().update_messages);
    std::vector<double> estimates;
    CommStats comm;
    coordinator.SnapshotState(&estimates, &comm);
  }

  UpdateBundle done;
  done.kind = UpdateBundle::Kind::kSiteDone;
  done.site = 0;
  ASSERT_TRUE(updates.Push(done));
  protocol.join();
  EXPECT_EQ(coordinator.Estimate(0), 200.0);
  EXPECT_EQ(coordinator.comm().update_messages, 200u);
  EXPECT_GE(coordinator.comm().update_messages, max_updates_seen);
}

TEST(SiteNodeTest, IgnoresForgedRoundAdvances) {
  const BayesianNetwork net = StudentNetwork();
  BoundedQueue<EventBatch> events(4);
  BoundedQueue<RoundAdvance> commands(16);
  BoundedQueue<UpdateBundle> updates(64);
  QueueChannel<EventBatch> event_channel(&events);
  QueueChannel<RoundAdvance> command_channel(&commands);
  QueueChannel<UpdateBundle> update_channel(&updates);
  SiteNode site(0, net, /*seed=*/1, &event_channel, &command_channel,
                &update_channel);

  ASSERT_TRUE(commands.Push(RoundAdvance{1000000009, 1, 0.5f}));
  ASSERT_TRUE(commands.Push(RoundAdvance{-5, 1, 0.5f}));
  events.Close();
  commands.Close();
  site.Run();

  // Only the SiteDone marker: forged advances produce no sync reports.
  std::vector<UpdateBundle> out;
  updates.TryPopBatch(&out, 10);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, UpdateBundle::Kind::kSiteDone);
}

/// Runs one SiteNode over `num_events` all-zero Student events delivered
/// as a single EventBatch, and returns the bundles it sent.
std::vector<UpdateBundle> RunSiteOverOneBatch(int32_t num_events,
                                              bool exact_mode) {
  const BayesianNetwork net = StudentNetwork();
  BoundedQueue<EventBatch> events(4);
  BoundedQueue<RoundAdvance> commands(16);
  BoundedQueue<UpdateBundle> updates(1 << 16);
  QueueChannel<EventBatch> event_channel(&events);
  QueueChannel<RoundAdvance> command_channel(&commands);
  QueueChannel<UpdateBundle> update_channel(&updates);
  SiteNode site(0, net, /*seed=*/1, &event_channel, &command_channel,
                &update_channel, exact_mode);
  EventBatch batch;
  batch.num_events = num_events;
  batch.values.assign(
      static_cast<size_t>(num_events) * static_cast<size_t>(net.num_variables()),
      0);
  EXPECT_TRUE(events.Push(std::move(batch)));
  events.Close();
  commands.Close();
  site.Run();
  EXPECT_EQ(site.StatsReport().events_processed, num_events);
  std::vector<UpdateBundle> out;
  updates.TryPopBatch(&out, 1 << 16);
  EXPECT_FALSE(out.empty());
  if (!out.empty()) {
    EXPECT_EQ(out.back().kind, UpdateBundle::Kind::kSiteDone);
    out.pop_back();
  }
  // updates_sent counts reports, however they were bundled.
  size_t reports = 0;
  for (const UpdateBundle& bundle : out) reports += bundle.reports.size();
  EXPECT_EQ(site.StatsReport().updates_sent, reports);
  return out;
}

TEST(SiteNodeTest, SendsOneBundlePerEventByDefault) {
  // Without exact mode every event that reports sends its own bundle; with
  // reporting probability 1 that is every event, with all 2n counters.
  const int n = StudentNetwork().num_variables();
  const std::vector<UpdateBundle> bundles =
      RunSiteOverOneBatch(/*num_events=*/10, /*exact_mode=*/false);
  ASSERT_EQ(bundles.size(), 10u);
  for (size_t e = 0; e < bundles.size(); ++e) {
    EXPECT_EQ(bundles[e].kind, UpdateBundle::Kind::kReports);
    ASSERT_EQ(bundles[e].reports.size(), static_cast<size_t>(2 * n));
    // All-zero events: each event's reports carry the running count e+1.
    for (const CounterReport& report : bundles[e].reports) {
      EXPECT_EQ(report.value, e + 1);
    }
  }
}

TEST(SiteNodeTest, ExactModeBundlesABatchSplitAtTheReportCap) {
  // 1000 events of 2n = 10 reports each: one batch, split once a bundle
  // reaches kMaxBundleReports, and no report lost or reordered.
  const size_t per_event = 2 * static_cast<size_t>(StudentNetwork().num_variables());
  const std::vector<UpdateBundle> bundles =
      RunSiteOverOneBatch(/*num_events=*/1000, /*exact_mode=*/true);
  ASSERT_EQ(bundles.size(), 3u);
  size_t reports = 0;
  for (const UpdateBundle& bundle : bundles) {
    EXPECT_EQ(bundle.kind, UpdateBundle::Kind::kReports);
    EXPECT_LT(bundle.reports.size(), SiteNode::kMaxBundleReports + per_event);
    for (size_t i = 0; i < bundle.reports.size(); ++i) {
      EXPECT_EQ(bundle.reports[i].value, (reports + i) / per_event + 1);
    }
    reports += bundle.reports.size();
  }
  EXPECT_EQ(reports, 1000 * per_event);
}

/// One threaded-cluster run through the Session API (the former RunCluster
/// free function's behavior: same seed schedule, same report fields).
RunReport RunThreadedCluster(const BayesianNetwork& net, TrackingStrategy strategy,
                             int sites, int64_t events) {
  StatusOr<std::unique_ptr<Session>> session = SessionBuilder(net)
                                                   .WithBackend(Backend::kThreads)
                                                   .WithStrategy(strategy)
                                                   .WithSites(sites)
                                                   .WithEpsilon(0.1)
                                                   .WithSeed(12345)
                                                   .Build();
  EXPECT_TRUE(session.ok()) << session.status();
  EXPECT_TRUE((*session)->StreamGroundTruth(events).ok());
  StatusOr<RunReport> report = (*session)->Finish();
  EXPECT_TRUE(report.ok()) << report.status();
  return *report;
}

TEST(ClusterTest, ExactModeReproducesCountsExactly) {
  const BayesianNetwork net = StudentNetwork();
  const RunReport result =
      RunThreadedCluster(net, TrackingStrategy::kExactMle, 3, 20000);
  EXPECT_EQ(result.events_processed, 20000);
  // Exact mode: coordinator estimates equal summed site counts.
  EXPECT_DOUBLE_EQ(result.max_counter_rel_error, 0.0);
  // 2n update messages per event, carried in one wire message per
  // EventBatch (256 events) rather than one per event.
  EXPECT_EQ(result.comm.update_messages,
            static_cast<uint64_t>(20000 * 2 * net.num_variables()));
  EXPECT_LT(result.comm.wire_messages, 20000u / 100);
  // The health table's per-site "updates" count reports, so they add up
  // to the coordinator's count whatever the bundling.
  ASSERT_EQ(result.metrics.sites.size(), 3u);
  uint64_t updates_sent = 0;
  for (const SiteHealth& site : result.metrics.sites) {
    updates_sent += site.updates_sent;
  }
  EXPECT_EQ(updates_sent, result.comm.update_messages);
  EXPECT_GT(result.runtime_seconds, 0.0);
  EXPECT_GT(result.throughput_events_per_sec, 0.0);
}

TEST(ClusterTest, ApproxModeBoundedError) {
  const BayesianNetwork net = StudentNetwork();
  const RunReport result =
      RunThreadedCluster(net, TrackingStrategy::kUniform, 4, 50000);
  EXPECT_EQ(result.events_processed, 50000);
  // Counter-level deviation stays within a few epsilon' bands. The
  // per-counter epsilon for UNIFORM on n=5 is 0.1/(16*sqrt(5)) ~ 0.0028;
  // in-flight reports at shutdown can add slack, so the bound is loose.
  EXPECT_LT(result.max_counter_rel_error, 0.05);
  EXPECT_LT(result.comm.update_messages,
            static_cast<uint64_t>(50000 * 2 * net.num_variables()));
}

TEST(ClusterTest, ApproxSendsFewerMessagesThanExact) {
  const BayesianNetwork net = Alarm();
  const RunReport exact =
      RunThreadedCluster(net, TrackingStrategy::kExactMle, 4, 30000);
  const RunReport approx =
      RunThreadedCluster(net, TrackingStrategy::kNonUniform, 4, 30000);
  EXPECT_LT(approx.comm.TotalMessages(), exact.comm.TotalMessages());
  // The payload shrinks. (Wire messages do not compare: approximate mode
  // sends about one bundle per event, the paper's observation about its
  // cluster runs, while exact mode sends one per EventBatch.)
  EXPECT_LT(approx.comm.bytes_up, exact.comm.bytes_up);
}

TEST(ClusterTest, ScalesAcrossSiteCounts) {
  const BayesianNetwork net = StudentNetwork();
  for (int sites : {2, 6, 10}) {
    const RunReport result =
        RunThreadedCluster(net, TrackingStrategy::kUniform, sites, 10000);
    EXPECT_EQ(result.events_processed, 10000) << "sites=" << sites;
    EXPECT_LT(result.max_counter_rel_error, 0.1) << "sites=" << sites;
  }
}

TEST(ClusterTest, SingleSiteWorks) {
  const BayesianNetwork net = StudentNetwork();
  const RunReport result =
      RunThreadedCluster(net, TrackingStrategy::kBaseline, 1, 5000);
  EXPECT_EQ(result.events_processed, 5000);
  // The realized error is scheduling-dependent (round advances race event
  // processing), and under sanitizer timings this short run was observed up
  // to ~0.09 on the unmodified pre-transport code; 0.1 matches
  // ScalesAcrossSiteCounts.
  EXPECT_LT(result.max_counter_rel_error, 0.1);
}

}  // namespace
}  // namespace dsgm
