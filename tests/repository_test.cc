// Tests for bayes/repository.h: the synthetic stand-ins must match the
// structural statistics of the paper's Table I.

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "bayes/io.h"
#include "bayes/repository.h"

namespace dsgm {
namespace {

struct RepoCase {
  const char* name;
  int nodes;
  int edges;
  int64_t params;
};

// Prints the case by name: gtest's default byte dump would include the
// `name` pointer, so the listed test names would change from run to run.
void PrintTo(const RepoCase& c, std::ostream* os) { *os << c.name; }

class RepositoryTableTest : public ::testing::TestWithParam<RepoCase> {};

TEST_P(RepositoryTableTest, MatchesTableOne) {
  const RepoCase& expected = GetParam();
  StatusOr<BayesianNetwork> net = NetworkByName(expected.name);
  ASSERT_TRUE(net.ok()) << net.status();
  EXPECT_EQ(net->num_variables(), expected.nodes);
  EXPECT_EQ(net->dag().num_edges(), expected.edges);
  const double miss =
      std::abs(static_cast<double>(net->FreeParams() - expected.params)) /
      static_cast<double>(expected.params);
  EXPECT_LE(miss, 0.05) << expected.name << " params " << net->FreeParams()
                        << " vs target " << expected.params;
  EXPECT_TRUE(net->dag().IsAcyclic());
}

INSTANTIATE_TEST_SUITE_P(TableOne, RepositoryTableTest,
                         ::testing::Values(RepoCase{"alarm", 37, 46, 509},
                                           RepoCase{"hepar", 70, 123, 1453},
                                           RepoCase{"link", 724, 1125, 14211},
                                           RepoCase{"munin", 1041, 1397, 80592}),
                         [](const ::testing::TestParamInfo<RepoCase>& info) {
                           return std::string(info.param.name);
                         });

TEST(RepositoryTest, NetworksAreStableAcrossCalls) {
  EXPECT_EQ(SerializeNetwork(Alarm()), SerializeNetwork(Alarm()));
  EXPECT_EQ(SerializeNetwork(Hepar()), SerializeNetwork(Hepar()));
}

TEST(RepositoryTest, NewAlarmHasSixInflatedDomains) {
  const BayesianNetwork net = NewAlarm();
  EXPECT_EQ(net.num_variables(), 37);
  int big = 0;
  for (int i = 0; i < net.num_variables(); ++i) {
    if (net.cardinality(i) == 20) ++big;
  }
  EXPECT_EQ(big, 6);
}

TEST(RepositoryTest, NameLookupAliases) {
  EXPECT_TRUE(NetworkByName("ALARM").ok());
  EXPECT_TRUE(NetworkByName("Hepar-II").ok());
  EXPECT_TRUE(NetworkByName("new-alarm").ok());
  EXPECT_TRUE(NetworkByName("student").ok());
  EXPECT_FALSE(NetworkByName("nosuch").ok());
}

TEST(RepositoryTest, PaperTargetsExposed) {
  const std::vector<NetworkTarget> targets = PaperNetworkTargets();
  ASSERT_EQ(targets.size(), 4u);
  EXPECT_EQ(targets[0].name, "ALARM");
  EXPECT_EQ(targets[3].params, 80592);
}

TEST(RepositoryTest, CpdFloorsArePositive) {
  // Lemma 3 requires a positive lambda; the generator enforces a floor.
  EXPECT_GT(Alarm().MinCpdEntry(), 0.0);
  EXPECT_GT(Hepar().MinCpdEntry(), 0.0);
}

}  // namespace
}  // namespace dsgm
