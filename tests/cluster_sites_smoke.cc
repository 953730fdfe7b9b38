// cluster.sites_300_smoke: a kThreads run with more sites than one byte can
// count. Each round advance owes one sync reply per live site, and the
// coordinator once kept that count per counter in a byte: at 256 sites it
// wrapped to 0 while the run's outstanding-sync total did not, so the run
// never finished. Registered as a plain ctest with a timeout (a hang is
// the failure), not discovered as a gtest.

#include <gtest/gtest.h>

#include "bayes/repository.h"
#include "dsgm/dsgm.h"

namespace dsgm {
namespace {

TEST(ClusterSitesSmoke, ThreeHundredSitesFinish) {
  constexpr int kSites = 300;
  constexpr int64_t kEvents = 30000;
  const BayesianNetwork net = Alarm();
  StatusOr<std::unique_ptr<Session>> session =
      SessionBuilder(net)
          .WithBackend(Backend::kThreads)
          .WithStrategy(TrackingStrategy::kUniform)
          .WithEpsilon(0.1)
          .WithSites(kSites)
          .WithSeed(300)
          .Build();
  ASSERT_TRUE(session.ok()) << session.status();
  ASSERT_TRUE((*session)->StreamGroundTruth(kEvents).ok());
  StatusOr<RunReport> report = (*session)->Finish();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->events_processed, kEvents);
  // Rounds advanced, so every live site owed sync replies: the accounting
  // that used to wrap was exercised, not skipped.
  EXPECT_GT(report->comm.rounds_advanced, 0u);
  EXPECT_EQ(report->comm.sync_messages,
            report->comm.broadcast_messages);
}

}  // namespace
}  // namespace dsgm
